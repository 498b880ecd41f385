// Unit checks for the benchmark's span arithmetic and recorder. Exits 0
// when every check passes, 1 otherwise (run by test_perfbench.py).
#include <cstdio>
#include <thread>
#include <vector>

#include "span.h"

namespace {

int g_failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++g_failures;
  }
}

perfbench::Span MakeSpan(perfbench::SpanName name, std::int64_t start,
                         std::int64_t end, std::uint32_t parent) {
  perfbench::Span s;
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  return s;
}

// shard [0,100) > machine [10,90) > transmit [20,60) > gaussian [25,45)
//                                                    > gaussian [50,55)
//                                 > fft [70,80)
// plus a second top-level span ingest [100,104).
void SyntheticNesting() {
  using namespace perfbench;
  const std::vector<Span> spans = {
      MakeSpan(kShard, 0, 100, kNoParent),     // 0
      MakeSpan(kMachine, 10, 90, 0),           // 1
      MakeSpan(kAudioTransmit, 20, 60, 1),     // 2
      MakeSpan(kRngGaussian, 25, 45, 2),       // 3
      MakeSpan(kRngGaussian, 50, 55, 2),       // 4
      MakeSpan(kFft, 70, 80, 1),               // 5
      MakeSpan(kObsIngest, 100, 104, kNoParent)  // 6
  };
  const std::vector<std::int64_t> self = SelfTimesNs(spans);
  const std::vector<std::int64_t> want = {20, 30, 15, 20, 5, 10, 4};
  Check(self == want, "self times of the nested case");

  LayerTotals totals;
  totals.Add({{0, spans}});
  Check(totals.self_ns[kRngGaussian] == 25, "gaussian self summed");
  Check(totals.calls[kRngGaussian] == 2, "gaussian calls");
  Check(totals.total_ns[kMachine] == 80, "machine total");
  Check(totals.top_level_ns == 104, "top-level duration");
  Check(totals.NamedSelfNs() == 84, "named self excludes the shard span");
  // Self times partition the top-level spans exactly.
  std::int64_t sum = 0;
  for (std::int64_t s : self) sum += s;
  Check(sum == totals.top_level_ns, "self times sum to top-level time");
}

// The recorder nests spans per thread and keeps threads apart.
void RecorderNesting() {
  using namespace perfbench;
  Reset();
  SetRecording(true);
  auto work = [](std::int32_t shard) {
    SetShard(shard);
    ScopedSpan outer(kShard);
    {
      ScopedSpan a(kAudioTransmit);
      ScopedSpan b(kRngGaussian);
      AddCount(kGaussianDraws, 7);
    }
    ScopedSpan c(kFft);
    SetShard(-1);
  };
  std::thread t1(work, 1);
  std::thread t2(work, 2);
  t1.join();
  t2.join();
  SetRecording(false);
  { ScopedSpan ignored(kObsMerge); }  // not recording: dropped

  const std::vector<ThreadSpans> threads = Collect();
  Check(threads.size() == 2, "one buffer per recording thread");
  for (const ThreadSpans& t : threads) {
    Check(t.spans.size() == 4, "four spans per thread");
    if (t.spans.size() != 4) continue;
    Check(t.spans[0].parent == kNoParent, "outer span is top level");
    Check(t.spans[1].parent == 0 && t.spans[2].parent == 1 &&
              t.spans[3].parent == 0,
          "parents follow the call nesting");
    Check(t.spans[0].shard == 1 || t.spans[0].shard == 2, "shard tag");
    for (const Span& s : t.spans) {
      Check(s.end_ns >= s.start_ns, "span ends after it starts");
    }
  }
  Check(Counters()[kGaussianDraws] == 14, "counters sum over threads");
  Check(Collect().empty(), "collect drains the buffers");
  Reset();
  Check(Counters()[kGaussianDraws] == 0, "reset clears counters");
}

}  // namespace

int main() {
  SyntheticNesting();
  RecorderNesting();
  if (g_failures == 0) std::printf("perfbench_selftest: ok\n");
  return g_failures == 0 ? 0 : 1;
}
