// Fleet campaign CLI: sweep a population of unlock sessions over the
// cohort axes (config x environment x distance x faults x attacks) on
// the event-driven multiplexer and write the cohort rollup JSON
// (docs/architecture.md, "Fleet campaigns").
//
// Usage:
//   wearlock_fleet [--sessions N] [--seed S] [--threads T] [--retries R]
//                  [--configs 1,2,3] [--envs quiet,office]
//                  [--distances 0.3,0.6] [--impostor-every N]
//                  [--faults SPEC|SPEC...] [--attacks SPEC|SPEC...]
//                  [--impairments SPEC|SPEC...] [--pairs N]
//                  [--shard-size N] [--out rollup.json] [--summary]
//
// Every session's scenario and seed derive from the global session
// index before sharding, so the rollup bytes are identical at any
// --threads and --shard-size - the property tools/ci.sh pins with a
// byte-diff against tests/golden/fleet_rollup.json. --faults/--attacks/
// --impairments take '|'-separated spec lists (specs contain commas);
// an empty element means "none", and cells cross-product over every
// element. Every element is parsed up front: a malformed or out-of-range
// spec exits 2, like a missing value or a bad number or name in any
// flag. --pairs N adds N contending WearLock pairs to every impaired
// cell (docs/channels.md).
//
// --out writes the rollup document ("-" or unset = stdout). --summary
// prints per-cohort unlock/false-accept Wilson CIs and campaign
// throughput (sessions/sec, wall-clock) to stderr; timing lives on
// stderr so stdout stays byte-stable for CI diffs.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "audio/impairments.h"
#include "protocol/fleet.h"
#include "sim/adversary.h"
#include "sim/executor.h"
#include "sim/parse.h"

namespace {
using namespace wearlock;
using protocol::CampaignResult;
using protocol::CampaignSpec;

constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();

int Run(int argc, char** argv) {
  CampaignSpec spec;
  spec.sessions = 100000;
  std::size_t threads = 0;
  std::string out_path;
  bool summary = false;

  for (sim::ArgCursor args(argc, argv); args.Next();) {
    const std::string& arg = args.arg();
    if (arg == "--sessions") {
      spec.sessions = args.Number<std::size_t>(1, kU64Max);
    } else if (arg == "--seed") {
      spec.seed = args.Number<std::uint64_t>(0, kU64Max);
    } else if (arg == "--threads") {
      threads = args.Number<std::size_t>(0, sim::ParallelExecutor::kMaxThreads);
    } else if (arg == "--retries") {
      spec.max_retries = args.Number(0, 1000);
    } else if (arg == "--impostor-every") {
      spec.impostor_every = args.Number<std::size_t>(0, kU64Max);
    } else if (arg == "--shard-size") {
      spec.sessions_per_shard = args.Number<std::size_t>(1, kU64Max);
    } else if (arg == "--configs") {
      spec.configs.clear();
      for (const std::string& item : sim::SplitList(args.Value(), ',')) {
        spec.configs.push_back(sim::ParseNumber(item, 1, 3, arg));
      }
    } else if (arg == "--envs") {
      spec.environments.clear();
      for (const std::string& item : sim::SplitList(args.Value(), ',')) {
        spec.environments.push_back(
            sim::ParseName(item, audio::kEnvironmentNames, arg));
      }
    } else if (arg == "--distances") {
      spec.distances_m.clear();
      for (const std::string& item : sim::SplitList(args.Value(), ',')) {
        // The (0, 1000] m bound of wearlock_unlock_cli --distance.
        spec.distances_m.push_back(
            sim::ParseNumber(item, sim::kAboveZero, 1000.0, arg));
      }
    } else if (arg == "--faults") {
      spec.fault_specs = sim::SplitList(args.Value(), '|');
    } else if (arg == "--attacks") {
      spec.attack_specs = sim::SplitList(args.Value(), '|');
    } else if (arg == "--impairments") {
      spec.impairment_specs = sim::SplitList(args.Value(), '|');
    } else if (arg == "--pairs") {
      spec.contention_pairs = args.Number(0, 64);
    } else if (arg == "--out") {
      out_path = args.Value();
    } else if (arg == "--summary") {
      summary = true;
    } else {
      throw std::invalid_argument("unknown flag " + arg +
                                  " (see the usage in the header comment)");
    }
  }
  // Parse every element once up front: a malformed one is a usage
  // error even when no session of its cell would run.
  for (const std::string& s : spec.fault_specs) (void)sim::FaultPlan::Parse(s);
  for (const std::string& s : spec.impairment_specs) {
    (void)audio::ImpairmentPlan::Parse(s);
  }
  for (const std::string& s : spec.attack_specs) {
    if (!s.empty()) (void)sim::AttackSpec::Parse(s);
  }

  // Wall clock for the stderr throughput line only; stays available
  // with telemetry compiled out (-DWEARLOCK_OBS=OFF), unlike
  // obs::HostTimer.
  const auto t0 = std::chrono::steady_clock::now();  // NOLINT(determinism)
  const CampaignResult result = protocol::RunCampaign(spec, threads);
  const auto t1 = std::chrono::steady_clock::now();  // NOLINT(determinism)
  const double wall_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();

  std::ostringstream rollup;
  result.sink.WriteJson(rollup);
  if (out_path.empty() || out_path == "-") {
    std::cout << rollup.str();
  } else {
    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 2;
    }
    out << rollup.str();
  }

  if (summary) {
    std::fprintf(stderr,
                 "fleet: %zu sessions, %zu shards, %zu queue events\n",
                 result.sessions, result.shards, result.queue_events);
    std::fprintf(stderr, "fleet: %.0f ms wall, %.0f sessions/sec\n", wall_ms,
                 wall_ms > 0.0 ? 1000.0 * static_cast<double>(result.sessions) /
                                     wall_ms
                               : 0.0);
    for (const auto& [key, cohort] : result.sink.cohorts()) {
      const obs::WilsonInterval unlock = cohort.UnlockRate();
      const obs::WilsonInterval fa = cohort.FalseAcceptRate();
      std::fprintf(stderr,
                   "  %s: n=%llu unlock %.3f [%.3f, %.3f]"
                   " fa %.3f [%.3f, %.3f]\n",
                   key.c_str(),
                   static_cast<unsigned long long>(cohort.sessions),
                   unlock.rate, unlock.low, unlock.high, fa.rate, fa.low,
                   fa.high);
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return sim::RunCli("wearlock_fleet", argc, argv, Run);
}
