// In-memory span recorder for the traced benchmark binary.
//
// Spans are recorded from outside the program: the linker-level
// wrappers in wraps.cpp open one span around each call into a layer's
// public entry point. Every thread appends to its own buffer (no lock
// on the hot path); the buffers live in a registry that outlives the
// threads, so a campaign's executor workers can exit before the main
// thread reads their spans. Reading (Collect/Reset) is only legal while
// no other thread records, i.e. between campaigns.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Span names. Every name but kShard is a layer boundary; kShard is the
/// executor's task body (one campaign shard), whose self time is the
/// part of a shard no wrapped layer covers.
enum SpanName : std::uint8_t {
  kShard,
  kAudioTransmit,
  kAudioAmbient,
  kRngGaussian,
  kFft,
  kWarp,
  kConvolve,
  kModemProbe,
  kModemDemod,
  kMotion,
  kDtw,
  kSessionSetup,
  kSessionTeardown,
  kSessionStart,
  kMachine,
  kAmbientFilter,
  kObsIngest,
  kObsMerge,
  kSpanNameCount
};

/// Metric prefix of a span name, e.g. "dsp.fft".
const char* SpanNameString(SpanName name);

inline constexpr std::uint32_t kNoParent = 0xffffffffu;

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  /// Index of the enclosing span in the same thread's buffer.
  std::uint32_t parent = kNoParent;
  /// Executor task index (campaign shard) the span ran in; -1 outside.
  std::int32_t shard = -1;
  SpanName name = kShard;
};

/// Deterministic work counters, summed over threads.
enum Counter : std::uint8_t {
  kAudioSamples,     // samples in recordings the scene returned
  kGaussianDraws,    // Rng::GaussianVector n
  kFftPoints,        // FftPlan::size() per transform
  kMotionPairs,      // motion pairs synthesized
  kCounterCount
};

/// One thread's spans as returned by Collect.
struct ThreadSpans {
  std::uint32_t thread = 0;
  std::vector<Span> spans;
};

/// Open a span on the calling thread; returns its index for EndSpan.
std::uint32_t BeginSpan(SpanName name);
void EndSpan(std::uint32_t index);
void AddCount(Counter counter, std::uint64_t n);
/// Executor task index for spans the calling thread opens next.
void SetShard(std::int32_t shard);

struct ScopedSpan {
  explicit ScopedSpan(SpanName name) : index(BeginSpan(name)) {}
  ~ScopedSpan() { EndSpan(index); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::uint32_t index;
};

/// Recording switch (off by default, so warm-up work is not traced).
void SetRecording(bool on);

/// Move every thread's spans out and clear the buffers. Counters are
/// read with Counters() and cleared by Reset().
std::vector<ThreadSpans> Collect();
std::vector<std::uint64_t> Counters();
void Reset();

/// Self time of each span: its duration minus the durations of its
/// direct children (spans whose parent is it). Spans on one thread
/// nest strictly, so the children never overlap one another.
std::vector<std::int64_t> SelfTimesNs(const std::vector<Span>& spans);

/// Per-name aggregate over a set of threads' spans.
struct LayerTotals {
  std::int64_t self_ns[kSpanNameCount] = {};
  std::int64_t total_ns[kSpanNameCount] = {};
  std::uint64_t calls[kSpanNameCount] = {};
  /// Summed duration of spans with no parent (the thread's outermost).
  std::int64_t top_level_ns = 0;

  void Add(const std::vector<ThreadSpans>& threads);
  /// Self time of every name except kShard.
  std::int64_t NamedSelfNs() const;
};

/// Tab-separated dump, one span per line, ids global across threads.
void WriteSpansTsv(const std::vector<ThreadSpans>& threads,
                   const std::string& path);

/// One wrapped symbol (traced binary only; defined in wraps.cpp).
struct Boundary {
  const char* symbol;
  SpanName span;
  /// Whether the original symbol exists in this build.
  bool linked;
};
std::vector<Boundary> WrappedBoundaries();

}  // namespace perfbench
