// Benchmark binary: runs one fleet campaign through the public
// protocol::RunCampaign API and prints one JSON result line.
//
//   wl_perfbench --seed N --sessions N [--threads T] [--shard-size N]
//                [--faults SPEC|SPEC...] [--impairments SPEC|SPEC...]
//                [--seconds S] [--min-reps K] [--out DIR] [--setup-only]
//
// The grid is the CampaignSpec defaults (configs 1-3 x quiet/office x
// 0.3/0.6 m, every 10th session an impostor) times the '|'-separated
// fault and impairment axes ("" = none); run.py passes each named
// workload's values from workloads.json.
//
// Timeline of a run:
//   1. set-up, timed as setup_s: main() -> end of warm-up, i.e. a
//      one-session campaign (executor threads, FFT plans, workspaces,
//      lazy tables) and then one session per cohort cell. The cell pass
//      keeps setup_s from being a sub-millisecond first-touch timing on
//      link_down_fleet, where it drifted by 40% with host load;
//   2. timed repetitions of the same campaign until --seconds is spent
//      (at least --min-reps). Every repetition must roll up to the same
//      bytes and the same work counts: the campaign is a pure function
//      of its flags, so any difference is a determinism bug.
// Simulated timing is pinned (sim::SetFixedHostTimingMs(1.25)), so every
// simulated statistic depends on the seed alone. After set-up, a SIGPROF
// probe samples the host's speed (see ArmProbe); each repetition
// reports its median sample beside its wall time.
//
// Built twice by CMakeLists.txt: wl_perfbench (no tracing) and
// wl_perfbench_traced (PERFBENCH_TRACED, linked with the wraps.cpp
// interposers), which adds per-layer span totals and work counters to
// the result and writes the first repetition's spans to DIR/spans.tsv.
//
// Exit codes: 0 result printed; 2 bad flags; 3 the campaign threw.
#include <signal.h>
#include <sys/time.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <complex>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "audio/impairments.h"
#include "dsp/fft_plan.h"
#include "dsp/workspace.h"
#include "obs/sketch.h"
#include "protocol/fleet.h"
#include "sim/device.h"
#include "sim/faults.h"
#include "span.h"

#ifndef PERFBENCH_TRACED
#define PERFBENCH_TRACED 0
#endif

namespace {

using wearlock::protocol::CampaignResult;
using wearlock::protocol::CampaignSpec;
using Clock = std::chrono::steady_clock;

constexpr double kFixedHostTimingMs = 1.25;

// Host-speed probe. On a shared host a core's speed drifts by 10-20%
// over seconds, and by up to 2x under load, with the neighbours' work
// rather than with this program. Every kProbeIntervalUs of process CPU
// time, SIGPROF interrupts whichever thread is running and times one
// fixed piece of work (a 256-point FFT, four passes: ProbeWork) there,
// on the same core at the same moment as the campaign. The median
// sample of a repetition, against kProbeNominalNs, gives the host's
// speed during it; run.py divides it out of the repetition's wall time
// ("probe-scaled seconds"). The probe costs under 1% of every run.
// The probe is armed after set-up: armed from main() it added about
// 5 ms to link_down_fleet's 3-4 ms set-up.
constexpr long kProbeIntervalUs = 5000;
// Median probe sample on an undisturbed 4-vCPU KVM host.
constexpr double kProbeNominalNs = 25000.0;
constexpr std::size_t kProbeCapacity = std::size_t{1} << 18;

struct ProbeSample {
  std::int64_t at_ns;    // CLOCK_MONOTONIC, as steady_clock
  std::int64_t took_ns;
};
ProbeSample g_probe_samples[kProbeCapacity];
std::atomic<std::size_t> g_probe_count{0};
volatile double g_probe_sink = 0.0;

std::int64_t MonotonicNs() {
  timespec t;
  clock_gettime(CLOCK_MONOTONIC, &t);
  return std::int64_t{t.tv_sec} * 1000000000 + t.tv_nsec;
}

// Async-signal-safe: stack data only.
double ProbeWork() {
  using C = std::complex<double>;
  constexpr std::size_t kPoints = 256;
  C x[kPoints];
  for (std::size_t i = 0; i < kPoints; ++i) {
    x[i] = C(static_cast<double>(i % 7) - 3.0, 0.0);
  }
  for (int pass = 0; pass < 4; ++pass) {
    for (std::size_t i = 1, j = 0; i < kPoints; ++i) {
      std::size_t bit = kPoints >> 1;
      for (; j & bit; bit >>= 1) j ^= bit;
      j ^= bit;
      if (i < j) std::swap(x[i], x[j]);
    }
    for (std::size_t len = 2; len <= kPoints; len <<= 1) {
      const C w = std::polar(1.0, -6.283185307179586 / static_cast<double>(len));
      for (std::size_t i = 0; i < kPoints; i += len) {
        C wk(1.0, 0.0);
        for (std::size_t k = 0; k < len / 2; ++k) {
          const C t = wk * x[i + k + len / 2];
          x[i + k + len / 2] = x[i + k] - t;
          x[i + k] += t;
          wk *= w;
        }
      }
    }
    for (C& v : x) v *= 0.0625;  // 1/sqrt(256): the data stay finite
  }
  return x[1].real();
}

void OnProfTick(int) {
  const int saved_errno = errno;
  const std::int64_t t0 = MonotonicNs();
  g_probe_sink = ProbeWork();
  const std::int64_t t1 = MonotonicNs();
  const std::size_t i = g_probe_count.fetch_add(1, std::memory_order_relaxed);
  if (i < kProbeCapacity) g_probe_samples[i] = {t0, t1 - t0};
  errno = saved_errno;
}

// Samples every kProbeIntervalUs of process CPU time from now on.
void ArmProbe() {
  struct sigaction action {};
  action.sa_handler = OnProfTick;
  action.sa_flags = SA_RESTART;
  sigemptyset(&action.sa_mask);
  sigaction(SIGPROF, &action, nullptr);
  itimerval interval{};
  interval.it_interval.tv_usec = kProbeIntervalUs;
  interval.it_value.tv_usec = kProbeIntervalUs;
  setitimer(ITIMER_PROF, &interval, nullptr);
}

// Median probe sample taken in [from, to], in ns; 0 if there is none.
// Call only while no other thread of the process runs campaign work.
double ProbeMedianNs(Clock::time_point from, Clock::time_point to) {
  const auto ns = [](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               t.time_since_epoch()).count();
  };
  const std::size_t n = std::min(
      g_probe_count.load(std::memory_order_relaxed), kProbeCapacity);
  std::vector<std::int64_t> took;
  for (std::size_t i = 0; i < n; ++i) {
    const ProbeSample s = g_probe_samples[i];
    if (s.at_ns >= ns(from) && s.at_ns <= ns(to)) took.push_back(s.took_ns);
  }
  if (took.empty()) return 0.0;
  std::nth_element(took.begin(), took.begin() + took.size() / 2, took.end());
  return static_cast<double>(took[took.size() / 2]);
}

struct Options {
  std::uint64_t seed = 0;
  bool seed_set = false;
  std::size_t sessions = 0;  // required
  std::size_t threads = 1;
  std::size_t sessions_per_shard = 128;
  std::vector<std::string> fault_specs = {""};
  std::vector<std::string> impairment_specs = {""};
  double seconds = 10.0;
  std::size_t min_reps = 1;
  std::string out_dir;
  bool setup_only = false;
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "wl_perfbench: %s\n"
               "usage: wl_perfbench --seed N --sessions N [--threads T] "
               "[--shard-size N]\n"
               "                    [--faults SPEC|SPEC...] "
               "[--impairments SPEC|SPEC...]\n"
               "                    [--seconds S] [--min-reps K] [--out DIR] "
               "[--setup-only]\n",
               why);
  return 2;
}

bool ParseU64(const char* s, std::uint64_t* out) {
  const char* end = s + std::char_traits<char>::length(s);
  const auto r = std::from_chars(s, end, *out);
  return s != end && r.ec == std::errc() && r.ptr == end;
}

std::vector<std::string> Split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::string item;
  std::istringstream in(s);
  while (std::getline(in, item, sep)) out.push_back(item);
  if (out.empty()) out.push_back("");
  return out;
}

bool ParseSeconds(const char* s, double* out) {
  const char* end = s + std::char_traits<char>::length(s);
  const auto r = std::from_chars(s, end, *out);
  return s != end && r.ec == std::errc() && r.ptr == end && *out >= 0.0 &&
         *out <= 3600.0;
}

// Returns 0 on success, else the exit code.
int ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--setup-only") {
      o->setup_only = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    std::uint64_t u = 0;
    if (arg == "--seed") {
      if (!ParseU64(value, &o->seed)) return Usage("bad --seed");
      o->seed_set = true;
    } else if (arg == "--seconds") {
      if (!ParseSeconds(value, &o->seconds)) return Usage("bad --seconds");
    } else if (arg == "--sessions") {
      if (!ParseU64(value, &u) || u == 0 || u > 10000000) {
        return Usage("bad --sessions");
      }
      o->sessions = static_cast<std::size_t>(u);
    } else if (arg == "--threads") {
      if (!ParseU64(value, &u) || u == 0 || u > 256) {
        return Usage("bad --threads");
      }
      o->threads = static_cast<std::size_t>(u);
    } else if (arg == "--shard-size") {
      if (!ParseU64(value, &u) || u == 0 || u > 1000000) {
        return Usage("bad --shard-size");
      }
      o->sessions_per_shard = static_cast<std::size_t>(u);
    } else if (arg == "--faults") {
      // Validated here: a malformed spec is a usage error, not an
      // exception mid-campaign on a worker thread.
      o->fault_specs = Split(value, '|');
      for (const std::string& item : o->fault_specs) {
        if (!item.empty()) (void)wearlock::sim::FaultPlan::Parse(item);
      }
    } else if (arg == "--impairments") {
      o->impairment_specs = Split(value, '|');
      for (const std::string& item : o->impairment_specs) {
        if (!item.empty()) (void)wearlock::audio::ImpairmentPlan::Parse(item);
      }
    } else if (arg == "--min-reps") {
      if (!ParseU64(value, &u) || u == 0 || u > 1000) {
        return Usage("bad --min-reps");
      }
      o->min_reps = static_cast<std::size_t>(u);
    } else if (arg == "--out") {
      o->out_dir = value;
    } else {
      return Usage(("unknown flag " + arg).c_str());
    }
  }
  if (!o->seed_set) return Usage("--seed is required");
  if (o->sessions == 0) return Usage("--sessions is required");
  return 0;
}

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// Deterministic work counts by metric name.
using Counts = std::map<std::string, std::uint64_t>;

std::string CountsJson(const Counts& counts) {
  std::string out = "{";
  for (const auto& [name, value] : counts) {
    if (out.size() > 1) out += ',';
    out += '"' + name + "\":" + std::to_string(value);
  }
  return out + '}';
}

struct RolledUp {
  std::uint64_t records = 0;
  std::uint64_t genuine = 0;
  std::uint64_t genuine_unlocked = 0;
  std::uint64_t impostor = 0;
  std::uint64_t false_accepts = 0;
  wearlock::obs::Sketch total_ms;
};

RolledUp Summarize(const CampaignResult& result) {
  RolledUp r;
  for (const auto& [key, cohort] : result.sink.cohorts()) {
    r.records += cohort.sessions;
    r.genuine += cohort.genuine;
    r.genuine_unlocked += cohort.genuine_unlocked;
    r.impostor += cohort.impostor;
    r.false_accepts += cohort.false_accepts;
    const auto total = cohort.stages.find("total");
    if (total != cohort.stages.end()) r.total_ms.Merge(total->second);
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const Clock::time_point start = Clock::now();
  Options opt;
  try {
    if (const int rc = ParseArgs(argc, argv, &opt); rc != 0) return rc;
  } catch (const std::exception& e) {
    return Usage(e.what());
  }
  const std::size_t threads = opt.threads;

  CampaignSpec spec;
  spec.seed = opt.seed;
  spec.sessions = opt.sessions;
  spec.sessions_per_shard = opt.sessions_per_shard;
  spec.fault_specs = opt.fault_specs;
  spec.impairment_specs = opt.impairment_specs;

  try {
    wearlock::sim::SetFixedHostTimingMs(kFixedHostTimingMs);

    CampaignSpec first = spec;
    first.sessions = 1;
    (void)wearlock::protocol::RunCampaign(first, threads);
    CampaignSpec grid = spec;
    grid.sessions = std::min(spec.sessions, spec.CellCount());
    (void)wearlock::protocol::RunCampaign(grid, threads);
    const double setup_s = Seconds(Clock::now() - start);
    if (opt.setup_only) {
      std::printf("{\"setup_s\":%s}\n", Num(setup_s).c_str());
      return 0;
    }
    ArmProbe();

    auto& plans = wearlock::dsp::PlanCache::Shared();
    std::vector<double> rep_wall_s;
    std::vector<double> rep_probe_ns;  // median probe sample
    double rollup_ms = 0.0;
    std::string rollup0;
    bool rollup_repeats = true;
    bool counts_repeat = true;
    Counts counts0;
    std::uint64_t first_rep_hits = 0;
    std::uint64_t first_rep_misses = 0;
    RolledUp stats;
    perfbench::LayerTotals layers;
    std::vector<perfbench::ThreadSpans> first_spans;
    const Clock::time_point timed = Clock::now();

    while (true) {
      const std::uint64_t hits = plans.hits();
      const std::uint64_t misses = plans.misses();
      const std::uint64_t growths = wearlock::dsp::Workspace::TotalGrowths();
      perfbench::Reset();
      perfbench::SetRecording(PERFBENCH_TRACED != 0);
      const Clock::time_point t0 = Clock::now();
      const CampaignResult result =
          wearlock::protocol::RunCampaign(spec, threads);
      const Clock::time_point t1 = Clock::now();
      perfbench::SetRecording(false);
      rep_wall_s.push_back(Seconds(t1 - t0));
      rep_probe_ns.push_back(ProbeMedianNs(t0, t1));

      std::ostringstream rollup;
      const Clock::time_point r0 = Clock::now();
      result.sink.WriteJson(rollup);
      rollup_ms += 1000.0 * Seconds(Clock::now() - r0);

      Counts counts = {
          {"sim.queue.events", result.queue_events},
          {"dsp.plan_cache.lookups",
           plans.hits() + plans.misses() - hits - misses},
          {"dsp.workspace.growths",
           wearlock::dsp::Workspace::TotalGrowths() - growths},
      };
      if (PERFBENCH_TRACED) {
        std::vector<perfbench::ThreadSpans> spans = perfbench::Collect();
        perfbench::LayerTotals rep;
        rep.Add(spans);
        layers.Add(spans);
        for (int n = 0; n < perfbench::kSpanNameCount; ++n) {
          const auto name = static_cast<perfbench::SpanName>(n);
          counts[std::string(perfbench::SpanNameString(name)) + ".calls"] =
              rep.calls[n];
        }
        const std::vector<std::uint64_t> c = perfbench::Counters();
        counts["audio.samples"] = c[perfbench::kAudioSamples];
        counts["sim.rng.gaussian.draws"] = c[perfbench::kGaussianDraws];
        counts["dsp.fft.points"] = c[perfbench::kFftPoints];
        counts["sensors.motion.pairs"] = c[perfbench::kMotionPairs];
        if (rep_wall_s.size() == 1) first_spans = std::move(spans);
      }

      if (rep_wall_s.size() == 1) {
        rollup0 = rollup.str();
        counts0 = counts;
        // Plans are cached process-wide, so only the first repetition
        // can still miss (a size the warm-up pass did not reach).
        first_rep_hits = plans.hits() - hits;
        first_rep_misses = plans.misses() - misses;
        stats = Summarize(result);
      } else {
        rollup_repeats = rollup_repeats && rollup.str() == rollup0;
        if (threads > 1) {
          // Each executor worker grows its own workspace, so growths
          // follow which worker runs which shard first.
          counts["dsp.workspace.growths"] = counts0["dsp.workspace.growths"];
        }
        counts_repeat = counts_repeat && counts == counts0;
      }

      const double elapsed = Seconds(Clock::now() - timed);
      const double mean = elapsed / static_cast<double>(rep_wall_s.size());
      if (rep_wall_s.size() >= opt.min_reps &&
          elapsed + 0.5 * mean >= opt.seconds) {
        break;
      }
    }

    if (!opt.out_dir.empty()) {
      std::ofstream(opt.out_dir + "/rollup.json") << rollup0;
      if (PERFBENCH_TRACED) {
        perfbench::WriteSpansTsv(first_spans, opt.out_dir + "/spans.tsv");
      }
    }

    counts0["dsp.plan_cache.hits"] = first_rep_hits;
    counts0["dsp.plan_cache.misses"] = first_rep_misses;
    std::ostringstream out;
    out << "{\"seed\":" << spec.seed
        << ",\"threads\":" << threads
        << ",\"hardware_concurrency\":" << std::thread::hardware_concurrency()
        << ",\"sessions\":" << spec.sessions
        << ",\"cells\":" << spec.CellCount()
        << ",\"traced\":" << (PERFBENCH_TRACED ? "true" : "false")
        << ",\"fixed_host_timing_ms\":" << Num(kFixedHostTimingMs)
        << ",\"setup_s\":" << Num(setup_s)
        << ",\"peak_rss_mb\":" << Num(PeakRssMiB()) << ",\"rep_wall_s\":[";
    for (std::size_t i = 0; i < rep_wall_s.size(); ++i) {
      out << (i ? "," : "") << Num(rep_wall_s[i]);
    }
    out << "],\"rep_probe_ns\":[";
    for (std::size_t i = 0; i < rep_probe_ns.size(); ++i) {
      out << (i ? "," : "") << Num(rep_probe_ns[i]);
    }
    out << "],\"probe_nominal_ns\":" << Num(kProbeNominalNs)
        << ",\"probe_samples\":"
        << g_probe_count.load(std::memory_order_relaxed);
    out << ",\"rollup_ms\":"
        << Num(rollup_ms / static_cast<double>(rep_wall_s.size()))
        << ",\"rollup_repeats\":" << (rollup_repeats ? "true" : "false")
        << ",\"counts_repeat\":" << (counts_repeat ? "true" : "false")
        << ",\"records\":" << stats.records << ",\"genuine\":" << stats.genuine
        << ",\"genuine_unlocked\":" << stats.genuine_unlocked
        << ",\"impostor\":" << stats.impostor
        << ",\"false_accepts\":" << stats.false_accepts
        << ",\"unlock_ms\":{\"count\":" << stats.total_ms.count()
        << ",\"p50\":" << Num(stats.total_ms.Quantile(0.50))
        << ",\"p95\":" << Num(stats.total_ms.Quantile(0.95))
        << ",\"p99\":" << Num(stats.total_ms.Quantile(0.99)) << "}"
        << ",\"counts\":" << CountsJson(counts0);
    if (PERFBENCH_TRACED) {
      out << ",\"layers\":{";
      for (int n = 0; n < perfbench::kSpanNameCount; ++n) {
        out << (n ? "," : "") << '"'
            << perfbench::SpanNameString(static_cast<perfbench::SpanName>(n))
            << "\":{\"self_ns\":" << layers.self_ns[n]
            << ",\"total_ns\":" << layers.total_ns[n]
            << ",\"calls\":" << layers.calls[n] << '}';
      }
      out << "},\"top_level_ns\":" << layers.top_level_ns
          << ",\"named_self_ns\":" << layers.NamedSelfNs();
#if PERFBENCH_TRACED
      out << ",\"boundaries\":[";
      const std::vector<perfbench::Boundary> boundaries =
          perfbench::WrappedBoundaries();
      for (std::size_t i = 0; i < boundaries.size(); ++i) {
        out << (i ? "," : "") << "{\"symbol\":\"" << boundaries[i].symbol
            << "\",\"span\":\"" << perfbench::SpanNameString(boundaries[i].span)
            << "\",\"linked\":" << (boundaries[i].linked ? "true" : "false")
            << '}';
      }
      out << ']';
#endif
    }
    out << "}\n";
    std::fputs(out.str().c_str(), stdout);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wl_perfbench: campaign failed: %s\n", e.what());
    std::printf("{\"error\":\"campaign threw\",\"sessions\":%zu}\n",
                spec.sessions);
    return 3;
  }
}
