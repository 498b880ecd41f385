// Run a complete WearLock unlock session from the command line and print
// the protocol trace - the fastest way to explore how environment,
// distance, grip and configuration interact.
//
// Usage:
//   wearlock_unlock_cli [--env quiet|office|classroom|cafe|grocery]
//                       [--distance 0.3] [--same-hand] [--different-body]
//                       [--different-room] [--no-link] [--config 1|2|3]
//                       [--activity sitting|walking|running]
//                       [--attempts N] [--seed S] [--retries R]
//                       [--threads T] [--faults SPEC] [--attack SPEC]
//                       [--impairments SPEC]
//                       [--trace out.json] [--metrics out.json]
//                       [--fault-trace out.jsonl]
//                       [--attack-trace out.jsonl]
//                       [--channel-trace out.jsonl]
//                       [--session-log out.jsonl] [--verbose]
//
// --trace writes a Chrome trace_event JSON of every span the attempts
// produced (virtual-time timestamps; open in chrome://tracing or
// https://ui.perfetto.dev). --metrics dumps the session's metrics
// registry as JSON. --verbose routes library diagnostics to stderr.
//
// --faults injects deterministic faults (sim::FaultPlan::Parse grammar,
// e.g. "drop=0.3,flap@rts,trunc=0.5") and arms the resilience policy;
// with a fixed --seed this replays a CI fault-matrix cell exactly.
// --fault-trace writes the injected-fault event log as JSONL (the
// committed-golden format; sequential mode only, like --trace).
//
// --attack subjects the session to a channel-level attacker
// (sim::AttackSpec grammar: KIND[@DISTANCE][:key=value]..., KIND in
// eavesdrop|replay|relay|probe|overshadow, e.g.
// "relay@3.0:delay=3:gain=40") and arms the full defense suite
// including acoustic distance bounding. Each attempt runs one complete
// attack scenario (seeded --seed + attempt index); the exit code flips:
// 0 means the defense held every attempt (no false unlock), 1 means the
// attacker won one. --attack-trace writes the adversary's event log as
// JSONL (the committed-golden format in tests/golden/; tools/ci.sh
// replays it). See docs/security.md for the threat model.
//
// --impairments arms deterministic channel impairments on the scene
// (audio::ImpairmentPlan grammar, e.g. "sro=50,reverb=300,pairs=2") and
// lets the phone's channel hardening (drift tracking, acoustic MAC,
// robust degrade ladder) fight them; see docs/channels.md. A malformed
// or out-of-range spec exits 2. --channel-trace writes the channel
// event log - impairment arming plus the receiver's drift/MAC/degrade
// decisions - as JSONL (the committed-golden format; sequential mode
// only, like --fault-trace).
//
// --session-log writes one telemetry SessionRecord per attempt as JSONL
// (the wearlock_telemetry CLI's input format). Works in both modes; in
// parallel mode records land in attempt order, and the record *set* is
// identical at any thread count.
//
// Passing --threads T (any T, including 1) fans the attempts across a
// sim::ParallelExecutor: each attempt becomes an independent
// UnlockSession whose seed is forked from (--seed, attempt index), and
// the per-attempt traces print in attempt order regardless of
// scheduling. Explicit --threads 1 runs that same independent-sessions
// plan on one thread - byte-identical output to --threads 8, which the
// CI telemetry gate pins. Omitting --threads keeps the classic
// sequential behavior of one session attempted repeatedly, which
// --trace/--metrics/--fault-trace require.
//
// --config picks the whole base scenario, so it applies before every
// other flag whatever its position: `--env cafe --config 2` runs Config2
// in the cafe. A flag missing its value, an unknown --env/--activity
// name, or a number that does not parse or is out of range exits 2.
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "audio/impairments.h"
#include "obs/log.h"
#include "protocol/attack_agents.h"
#include "protocol/session.h"
#include "sim/adversary.h"
#include "sim/executor.h"
#include "sim/parse.h"

namespace {
using namespace wearlock;
using namespace wearlock::protocol;

constexpr sim::Named<sensors::Activity> kActivities[] = {
    {"sitting", sensors::Activity::kSitting},
    {"walking", sensors::Activity::kWalking},
    {"running", sensors::Activity::kRunning},
};

// Writes `text` to `path` unless the path is empty.
void WriteOutput(const std::string& path, const std::string& text) {
  if (path.empty()) return;
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot open " + path);
  os << text;
}

// The base scenario --config names; Config1 runs at 0.3 m.
ScenarioConfig BaseConfig(int argc, char** argv) {
  int n = 1;
  for (sim::ArgCursor args(argc, argv); args.Next();) {
    if (args.arg() == "--config") n = args.Number(1, 3);
  }
  if (n == 2) return ScenarioConfig::Config2();
  if (n == 3) return ScenarioConfig::Config3();
  ScenarioConfig config = ScenarioConfig::Config1();
  config.scene.distance_m = 0.3;
  return config;
}

std::string FormatReport(int attempt, const UnlockReport& report) {
  std::string out =
      "attempt " + std::to_string(attempt + 1) + ": " + ToString(report.outcome);
  if (report.mode) {
    char detail[96];
    std::snprintf(detail, sizeof(detail), " (%s, token BER %.3f, %.0f ms)",
                  ToString(*report.mode).c_str(), report.token_ber,
                  report.timings.total_ms());
    out += detail;
  }
  out += "\n";
  for (const auto& event : report.trace) {
    char line[256];
    std::snprintf(line, sizeof(line), "  [%7.0f ms] %-14s %s\n", event.at_ms,
                  event.step.c_str(), event.detail.c_str());
    out += line;
  }
  return out;
}

int Run(int argc, char** argv) {
  ScenarioConfig config = BaseConfig(argc, argv);
  int attempts = 1;
  int retries = 0;
  std::size_t threads = 1;
  bool threads_set = false;
  std::string trace_path;
  std::string metrics_path;
  std::string fault_trace_path;
  std::string attack_trace_path;
  std::string channel_trace_path;
  std::string session_log_path;

  for (sim::ArgCursor args(argc, argv); args.Next();) {
    const std::string& arg = args.arg();
    if (arg == "--env") {
      config.scene.environment =
          sim::ParseName(args.Value(), audio::kEnvironmentNames, arg);
    } else if (arg == "--distance") {
      config.scene.distance_m = args.Number(sim::kAboveZero, 1000.0);
    } else if (arg == "--same-hand") {
      config.scene.distance_m = 0.15;
      config.scene.propagation = audio::PropagationSpec::BodyBlockedNlos();
    } else if (arg == "--different-body") {
      config.same_body = false;
    } else if (arg == "--different-room") {
      config.scene.co_located = false;
      config.same_body = false;
    } else if (arg == "--no-link") {
      config.wireless_connected = false;
    } else if (arg == "--config") {
      (void)args.Value();  // applied first, by BaseConfig
    } else if (arg == "--activity") {
      config.activity = sim::ParseName(args.Value(), kActivities, arg);
    } else if (arg == "--attempts") {
      attempts = args.Number(1, 1'000'000);
    } else if (arg == "--retries") {
      retries = args.Number(0, 1000);
    } else if (arg == "--threads") {
      threads_set = true;
      threads = args.Number<std::size_t>(0, sim::ParallelExecutor::kMaxThreads);
      if (threads == 0) threads = sim::ParallelExecutor::DefaultThreadCount();
    } else if (arg == "--session-log") {
      session_log_path = args.Value();
    } else if (arg == "--seed") {
      config.seed = args.Number(std::uint64_t{0},
                                std::numeric_limits<std::uint64_t>::max());
    } else if (arg == "--faults") {
      config.faults = sim::FaultPlan::Parse(args.Value());
    } else if (arg == "--attack") {
      config.attack = sim::AttackSpec::Parse(args.Value());
    } else if (arg == "--impairments") {
      config.impairments = audio::ImpairmentPlan::Parse(args.Value());
    } else if (arg == "--channel-trace") {
      channel_trace_path = args.Value();
    } else if (arg == "--attack-trace") {
      attack_trace_path = args.Value();
    } else if (arg == "--fault-trace") {
      fault_trace_path = args.Value();
    } else if (arg == "--trace") {
      trace_path = args.Value();
    } else if (arg == "--metrics") {
      metrics_path = args.Value();
    } else if (arg == "--verbose") {
      obs::SetLogSink(obs::StderrLogSink());
      obs::SetLogThreshold(obs::LogLevel::kDebug);
    } else {
      std::fprintf(stderr, "unknown flag: %s (see header comment)\n",
                   arg.c_str());
      return 2;
    }
  }

  if (attack_trace_path.empty() == false && config.attack.empty()) {
    std::fprintf(stderr, "--attack-trace needs --attack\n");
    return 2;
  }
  if (channel_trace_path.empty() == false && config.impairments.empty()) {
    std::fprintf(stderr, "--channel-trace needs --impairments\n");
    return 2;
  }

  int unlocked = 0;
  std::string session_log;
  if (!config.attack.empty()) {
    // Attack mode: each attempt is one complete attack scenario run by
    // the agent for the spec (which orchestrates its own victim
    // sessions), with the full defense suite armed. The exit code
    // reports the DEFENSE's outcome, not the victim's.
    config.phone.distance_bounding.enable = true;
    if (threads_set || !trace_path.empty() || !metrics_path.empty() ||
        !fault_trace_path.empty() || !channel_trace_path.empty()) {
      std::fprintf(stderr,
                   "--threads/--trace/--metrics/--fault-trace/--channel-trace "
                   "are ignored in attack mode\n");
    }
    int breaches = 0;
    std::string attack_trace;
    for (int a = 0; a < attempts; ++a) {
      ScenarioConfig attempt_config = config;
      attempt_config.seed = config.seed + static_cast<std::uint64_t>(a);
      const AttackReport report =
          RunAttackScenario(attempt_config, attempt_config.attack);
      for (const obs::SessionRecord& record : report.records) {
        session_log += record.ToJsonl();
        session_log += '\n';
      }
      attack_trace += sim::AttackTraceJsonl(report.events);
      if (report.false_unlock) ++breaches;
      char ranging[32] = "-";
      if (report.ranging_distance_m) {
        std::snprintf(ranging, sizeof(ranging), "%.2fm",
                      *report.ranging_distance_m);
      }
      std::printf(
          "attempt %d: victim %s | attacker false_unlock=%d "
          "token_recovered=%d token_ber=%.3f ranging=%s\n",
          a + 1, ToString(report.victim_outcome).c_str(),
          report.false_unlock ? 1 : 0, report.token_recovered ? 1 : 0,
          report.attacker_token_ber, ranging);
    }
    WriteOutput(session_log_path, session_log);
    WriteOutput(attack_trace_path, attack_trace);
    std::printf("defense held %d/%d against %s\n", attempts - breaches,
                attempts, config.attack.spec.c_str());
    return breaches == 0 ? 0 : 1;
  }
  if (threads_set) {
    // Parallel mode: every attempt is an independent session, seeded
    // from (--seed, attempt index); output buffers print in order.
    // Explicit --threads 1 runs the identical plan on one thread, so
    // the telemetry gate can diff it byte-for-byte against --threads N.
    if (!trace_path.empty() || !metrics_path.empty() ||
        !fault_trace_path.empty() || !channel_trace_path.empty()) {
      std::fprintf(stderr,
                   "--trace/--metrics/--fault-trace/--channel-trace need "
                   "sequential mode; ignoring (drop --threads to keep them)\n");
      trace_path.clear();
      metrics_path.clear();
      fault_trace_path.clear();
      channel_trace_path.clear();
    }
    sim::ParallelExecutor executor(threads);
    struct AttemptResult {
      bool unlocked = false;
      std::string text;
      std::string records;
    };
    const auto results = executor.Map(
        static_cast<std::size_t>(attempts), config.seed,
        [&](sim::TaskContext& ctx) {
          ScenarioConfig attempt_config = config;
          attempt_config.seed =
              sim::ParallelExecutor::TaskSeed(config.seed, ctx.index);
          UnlockSession session(attempt_config);
          AttemptResult result;
          session.SetRecordSink([&result](const obs::SessionRecord& record) {
            result.records += record.ToJsonl();
            result.records += '\n';
          });
          const UnlockReport report = session.AttemptWithRetries(retries);
          result.unlocked = report.unlocked;
          result.text =
              FormatReport(static_cast<int>(ctx.index), report);
          return result;
        });
    for (const AttemptResult& result : results) {
      if (result.unlocked) ++unlocked;
      std::fputs(result.text.c_str(), stdout);
      session_log += result.records;
    }
    WriteOutput(session_log_path, session_log);
    std::printf("unlocked %d/%d\n", unlocked, attempts);
    return unlocked > 0 ? 0 : 1;
  }

  UnlockSession session(config);
  session.SetRecordSink([&session_log](const obs::SessionRecord& record) {
    session_log += record.ToJsonl();
    session_log += '\n';
  });
  for (int a = 0; a < attempts; ++a) {
    session.keyguard().Relock();
    if (!session.keyguard().CanAttemptWearlock()) {
      session.keyguard().UnlockWithCredential();
      session.keyguard().Relock();
    }
    const UnlockReport report = session.AttemptWithRetries(retries);
    if (report.unlocked) ++unlocked;
    std::fputs(FormatReport(a, report).c_str(), stdout);
  }
  WriteOutput(session_log_path, session_log);
  if (!trace_path.empty()) {
    std::ostringstream os;
    session.tracer().WriteChromeTrace(os);
    WriteOutput(trace_path, os.str());
    std::printf("wrote %zu spans to %s\n", session.tracer().spans().size(),
                trace_path.c_str());
  }
  if (!metrics_path.empty()) {
    std::ostringstream os;
    session.metrics().WriteJson(os);
    WriteOutput(metrics_path, os.str());
    std::printf("wrote metrics to %s\n", metrics_path.c_str());
  }
  if (!fault_trace_path.empty()) {
    if (session.faults() == nullptr) {
      std::fprintf(stderr, "--fault-trace needs --faults\n");
      return 2;
    }
    WriteOutput(fault_trace_path,
                sim::FaultTraceJsonl(session.faults()->events()));
    std::printf("wrote %zu fault events to %s\n",
                session.faults()->events().size(), fault_trace_path.c_str());
  }
  if (!channel_trace_path.empty()) {
    // Guarded above: --channel-trace without --impairments already
    // exited, so the scene is armed here.
    const audio::ChannelImpairments* chan = session.scene().impairments();
    WriteOutput(channel_trace_path, audio::ChannelTraceJsonl(chan->events()));
    std::printf("wrote %zu channel events to %s\n", chan->events().size(),
                channel_trace_path.c_str());
  }
  std::printf("unlocked %d/%d\n", unlocked, attempts);
  return unlocked > 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return sim::RunCli("wearlock_unlock_cli", argc, argv, Run);
}
