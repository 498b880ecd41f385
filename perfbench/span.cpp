#include "span.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <stdexcept>

namespace perfbench {
namespace {

struct ThreadBuffer {
  std::uint32_t thread = 0;
  std::int32_t shard = -1;
  std::vector<Span> spans;
  std::vector<std::uint32_t> open;
  std::uint64_t counters[kCounterCount] = {};
};

std::atomic<bool> g_recording{false};

// Buffers outlive their threads; guarded for registration and reads.
std::mutex g_registry_mu;
std::vector<std::unique_ptr<ThreadBuffer>> g_registry;

ThreadBuffer& Local() {
  thread_local ThreadBuffer* local = nullptr;
  if (local == nullptr) {
    auto buffer = std::make_unique<ThreadBuffer>();
    std::lock_guard<std::mutex> lock(g_registry_mu);
    buffer->thread = static_cast<std::uint32_t>(g_registry.size());
    local = buffer.get();
    g_registry.push_back(std::move(buffer));
  }
  return *local;
}

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

const char* SpanNameString(SpanName name) {
  static const char* const kNames[kSpanNameCount] = {
      "sim.executor.shard", "audio.transmit",   "audio.ambient",
      "sim.rng.gaussian",   "dsp.fft",          "dsp.warp",
      "dsp.convolve",       "modem.probe",      "modem.demod",
      "sensors.motion",     "sensors.dtw",      "protocol.setup",
      "protocol.teardown",  "protocol.start",   "protocol.machine",
      "protocol.ambient_filter", "obs.ingest",  "obs.merge"};
  return name < kSpanNameCount ? kNames[name] : "?";
}

void SetRecording(bool on) { g_recording.store(on, std::memory_order_relaxed); }

std::uint32_t BeginSpan(SpanName name) {
  if (!g_recording.load(std::memory_order_relaxed)) return kNoParent;
  ThreadBuffer& local = Local();
  Span span;
  span.name = name;
  span.shard = local.shard;
  span.parent = local.open.empty() ? kNoParent : local.open.back();
  const auto index = static_cast<std::uint32_t>(local.spans.size());
  local.open.push_back(index);
  span.start_ns = NowNs();
  local.spans.push_back(span);
  return index;
}

void EndSpan(std::uint32_t index) {
  if (index == kNoParent) return;
  const std::int64_t now = NowNs();
  ThreadBuffer& local = Local();
  local.spans[index].end_ns = now;
  local.open.pop_back();
}

void AddCount(Counter counter, std::uint64_t n) {
  if (!g_recording.load(std::memory_order_relaxed)) return;
  Local().counters[counter] += n;
}

void SetShard(std::int32_t shard) { Local().shard = shard; }

std::vector<ThreadSpans> Collect() {
  std::lock_guard<std::mutex> lock(g_registry_mu);
  std::vector<ThreadSpans> out;
  for (const auto& buffer : g_registry) {
    if (!buffer->open.empty()) {
      throw std::logic_error("perfbench: spans collected while still open");
    }
    if (buffer->spans.empty()) continue;
    out.push_back({buffer->thread, std::move(buffer->spans)});
    buffer->spans.clear();
  }
  return out;
}

std::vector<std::uint64_t> Counters() {
  std::lock_guard<std::mutex> lock(g_registry_mu);
  std::vector<std::uint64_t> sums(kCounterCount, 0);
  for (const auto& buffer : g_registry) {
    for (int c = 0; c < kCounterCount; ++c) sums[c] += buffer->counters[c];
  }
  return sums;
}

void Reset() {
  std::lock_guard<std::mutex> lock(g_registry_mu);
  for (const auto& buffer : g_registry) {
    buffer->spans.clear();
    for (std::uint64_t& c : buffer->counters) c = 0;
  }
}

std::vector<std::int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end_ns - spans[i].start_ns;
  }
  for (const Span& span : spans) {
    if (span.parent != kNoParent) {
      self[span.parent] -= span.end_ns - span.start_ns;
    }
  }
  return self;
}

void LayerTotals::Add(const std::vector<ThreadSpans>& threads) {
  for (const ThreadSpans& thread : threads) {
    const std::vector<std::int64_t> self = SelfTimesNs(thread.spans);
    for (std::size_t i = 0; i < thread.spans.size(); ++i) {
      const Span& span = thread.spans[i];
      const std::int64_t duration = span.end_ns - span.start_ns;
      self_ns[span.name] += self[i];
      total_ns[span.name] += duration;
      ++calls[span.name];
      if (span.parent == kNoParent) top_level_ns += duration;
    }
  }
}

std::int64_t LayerTotals::NamedSelfNs() const {
  std::int64_t sum = 0;
  for (int name = 0; name < kSpanNameCount; ++name) {
    if (name != kShard) sum += self_ns[name];
  }
  return sum;
}

void WriteSpansTsv(const std::vector<ThreadSpans>& threads,
                   const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(out, "id\tparent\tthread\tshard\tname\tstart_ns\tend_ns\tself_ns\n");
  std::int64_t base = 0;
  for (const ThreadSpans& thread : threads) {
    const std::vector<std::int64_t> self = SelfTimesNs(thread.spans);
    for (std::size_t i = 0; i < thread.spans.size(); ++i) {
      const Span& span = thread.spans[i];
      const long long parent =
          span.parent == kNoParent ? -1 : base + span.parent;
      std::fprintf(out, "%lld\t%lld\t%u\t%d\t%s\t%lld\t%lld\t%lld\n",
                   static_cast<long long>(base + static_cast<std::int64_t>(i)),
                   parent, thread.thread, span.shard,
                   SpanNameString(span.name),
                   static_cast<long long>(span.start_ns),
                   static_cast<long long>(span.end_ns),
                   static_cast<long long>(self[i]));
    }
    base += static_cast<std::int64_t>(thread.spans.size());
  }
  if (std::fclose(out) != 0) throw std::runtime_error("cannot write " + path);
}

}  // namespace perfbench
