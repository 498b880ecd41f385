// Linker-level wrappers (ld --wrap=SYM, list in boundaries.h): each
// __wrap_SYM opens a span, counts the work the call carries, and calls
// the original through __real_SYM. Every wrapper repeats the wrapped
// function's exact C++ parameter and return types - member functions
// take `this` as an explicit first pointer - so the calling convention
// matches; a by-value argument of class type is moved on unchanged.
// The __real_ declarations are weak: if a later signature change drops
// a symbol, the traced binary still links, the boundary reports
// linked=false and its time shows up as unattributed.
#include <cstddef>
#include <functional>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "audio/scene.h"
#include "boundaries.h"
#include "dsp/fft_plan.h"
#include "dsp/filter.h"
#include "dsp/resample.h"
#include "modem/modem.h"
#include "obs/rollup.h"
#include "protocol/ambient.h"
#include "protocol/session.h"
#include "sensors/filter.h"
#include "sensors/motion_sim.h"
#include "sim/event_queue.h"
#include "sim/executor.h"
#include "sim/rng.h"
#include "span.h"

#define PERFBENCH_REAL(sym) __asm__("__real_" sym)
#define PERFBENCH_WRAP(sym) __asm__("__wrap_" sym)

namespace perfbench::wrap {

using namespace wearlock;
using Samples = audio::Samples;
using Recording = std::span<const double>;

// ---- audio ----------------------------------------------------------

__attribute__((weak)) audio::SceneReception RealTransmit(
    audio::TwoMicScene* self, const Samples& signal, double volume)
    PERFBENCH_REAL(SYM_TRANSMIT);
audio::SceneReception WrapTransmit(audio::TwoMicScene* self,
                                   const Samples& signal, double volume)
    PERFBENCH_WRAP(SYM_TRANSMIT);
audio::SceneReception WrapTransmit(audio::TwoMicScene* self,
                                   const Samples& signal, double volume) {
  ScopedSpan span(kAudioTransmit);
  audio::SceneReception out = RealTransmit(self, signal, volume);
  AddCount(kAudioSamples,
           out.phone_recording.size() + out.watch_recording.size());
  return out;
}

__attribute__((weak)) std::pair<Samples, Samples> RealAmbient(
    audio::TwoMicScene* self, std::size_t n) PERFBENCH_REAL(SYM_AMBIENT);
std::pair<Samples, Samples> WrapAmbient(audio::TwoMicScene* self,
                                        std::size_t n)
    PERFBENCH_WRAP(SYM_AMBIENT);
std::pair<Samples, Samples> WrapAmbient(audio::TwoMicScene* self,
                                        std::size_t n) {
  ScopedSpan span(kAudioAmbient);
  std::pair<Samples, Samples> out = RealAmbient(self, n);
  AddCount(kAudioSamples, out.first.size() + out.second.size());
  return out;
}

// ---- sim ------------------------------------------------------------

__attribute__((weak)) std::vector<double> RealGaussian(
    sim::Rng* self, std::size_t n, double stddev) PERFBENCH_REAL(SYM_GAUSSIAN);
std::vector<double> WrapGaussian(sim::Rng* self, std::size_t n, double stddev)
    PERFBENCH_WRAP(SYM_GAUSSIAN);
std::vector<double> WrapGaussian(sim::Rng* self, std::size_t n,
                                 double stddev) {
  ScopedSpan span(kRngGaussian);
  AddCount(kGaussianDraws, n);
  return RealGaussian(self, n, stddev);
}

__attribute__((weak)) std::size_t RealRunUntilIdle(sim::EventQueue* self)
    PERFBENCH_REAL(SYM_RUN_UNTIL_IDLE);
std::size_t WrapRunUntilIdle(sim::EventQueue* self)
    PERFBENCH_WRAP(SYM_RUN_UNTIL_IDLE);
std::size_t WrapRunUntilIdle(sim::EventQueue* self) {
  ScopedSpan span(kMachine);
  return RealRunUntilIdle(self);
}

// The executor's task body is one campaign shard: tag the worker's
// spans with the shard index and time the whole body.
__attribute__((weak)) void RealRunTasks(
    sim::ParallelExecutor* self, std::size_t n_tasks,
    const std::function<void(std::size_t)>& task) PERFBENCH_REAL(SYM_RUN_TASKS);
void WrapRunTasks(sim::ParallelExecutor* self, std::size_t n_tasks,
                  const std::function<void(std::size_t)>& task)
    PERFBENCH_WRAP(SYM_RUN_TASKS);
void WrapRunTasks(sim::ParallelExecutor* self, std::size_t n_tasks,
                  const std::function<void(std::size_t)>& task) {
  const std::function<void(std::size_t)> traced = [&task](std::size_t i) {
    struct ShardTag {
      explicit ShardTag(std::size_t i) { SetShard(static_cast<std::int32_t>(i)); }
      ~ShardTag() { SetShard(-1); }
    } tag(i);
    ScopedSpan span(kShard);
    task(i);
  };
  RealRunTasks(self, n_tasks, traced);
}

// ---- dsp ------------------------------------------------------------

__attribute__((weak)) void RealFftExecute(const dsp::FftPlan* self,
                                          dsp::Complex* data, bool inverse)
    PERFBENCH_REAL(SYM_FFT_EXECUTE);
void WrapFftExecute(const dsp::FftPlan* self, dsp::Complex* data, bool inverse)
    PERFBENCH_WRAP(SYM_FFT_EXECUTE);
void WrapFftExecute(const dsp::FftPlan* self, dsp::Complex* data,
                    bool inverse) {
  ScopedSpan span(kFft);
  AddCount(kFftPoints, self->size());
  RealFftExecute(self, data, inverse);
}

__attribute__((weak)) void RealFftInverse(const dsp::FftPlan* self,
                                          dsp::Complex* data)
    PERFBENCH_REAL(SYM_FFT_INVERSE);
void WrapFftInverse(const dsp::FftPlan* self, dsp::Complex* data)
    PERFBENCH_WRAP(SYM_FFT_INVERSE);
void WrapFftInverse(const dsp::FftPlan* self, dsp::Complex* data) {
  ScopedSpan span(kFft);
  AddCount(kFftPoints, self->size());
  RealFftInverse(self, data);
}

__attribute__((weak)) std::vector<double> RealWarp(const std::vector<double>& x,
                                                   double rate,
                                                   std::size_t taps)
    PERFBENCH_REAL(SYM_WARP);
std::vector<double> WrapWarp(const std::vector<double>& x, double rate,
                             std::size_t taps) PERFBENCH_WRAP(SYM_WARP);
std::vector<double> WrapWarp(const std::vector<double>& x, double rate,
                             std::size_t taps) {
  ScopedSpan span(kWarp);
  return RealWarp(x, rate, taps);
}

__attribute__((weak)) std::vector<double> RealConvolve(
    const std::vector<double>& x, const std::vector<double>& h)
    PERFBENCH_REAL(SYM_CONVOLVE);
std::vector<double> WrapConvolve(const std::vector<double>& x,
                                 const std::vector<double>& h)
    PERFBENCH_WRAP(SYM_CONVOLVE);
std::vector<double> WrapConvolve(const std::vector<double>& x,
                                 const std::vector<double>& h) {
  ScopedSpan span(kConvolve);
  return RealConvolve(x, h);
}

// ---- modem ----------------------------------------------------------

__attribute__((weak)) std::optional<modem::ProbeAnalysis> RealProbe(
    const modem::AcousticModem* self, Recording recording)
    PERFBENCH_REAL(SYM_PROBE);
std::optional<modem::ProbeAnalysis> WrapProbe(const modem::AcousticModem* self,
                                              Recording recording)
    PERFBENCH_WRAP(SYM_PROBE);
std::optional<modem::ProbeAnalysis> WrapProbe(const modem::AcousticModem* self,
                                              Recording recording) {
  ScopedSpan span(kModemProbe);
  return RealProbe(self, recording);
}

__attribute__((weak)) std::optional<modem::DemodResult> RealDemod(
    const modem::AcousticModem* self, Recording recording, modem::Modulation m,
    std::size_t n_bits) PERFBENCH_REAL(SYM_DEMOD);
std::optional<modem::DemodResult> WrapDemod(const modem::AcousticModem* self,
                                            Recording recording,
                                            modem::Modulation m,
                                            std::size_t n_bits)
    PERFBENCH_WRAP(SYM_DEMOD);
std::optional<modem::DemodResult> WrapDemod(const modem::AcousticModem* self,
                                            Recording recording,
                                            modem::Modulation m,
                                            std::size_t n_bits) {
  ScopedSpan span(kModemDemod);
  return RealDemod(self, recording, m, n_bits);
}

__attribute__((weak)) std::optional<std::vector<double>> RealDemodSoft(
    const modem::AcousticModem* self, Recording recording, modem::Modulation m,
    std::size_t n_bits) PERFBENCH_REAL(SYM_DEMOD_SOFT);
std::optional<std::vector<double>> WrapDemodSoft(
    const modem::AcousticModem* self, Recording recording, modem::Modulation m,
    std::size_t n_bits) PERFBENCH_WRAP(SYM_DEMOD_SOFT);
std::optional<std::vector<double>> WrapDemodSoft(
    const modem::AcousticModem* self, Recording recording, modem::Modulation m,
    std::size_t n_bits) {
  ScopedSpan span(kModemDemod);
  return RealDemodSoft(self, recording, m, n_bits);
}

// ---- sensors --------------------------------------------------------

__attribute__((weak)) sensors::MotionPair RealCoLocated(
    sensors::MotionSimulator* self, sensors::Activity activity,
    std::size_t n_samples) PERFBENCH_REAL(SYM_COLOCATED);
sensors::MotionPair WrapCoLocated(sensors::MotionSimulator* self,
                                  sensors::Activity activity,
                                  std::size_t n_samples)
    PERFBENCH_WRAP(SYM_COLOCATED);
sensors::MotionPair WrapCoLocated(sensors::MotionSimulator* self,
                                  sensors::Activity activity,
                                  std::size_t n_samples) {
  ScopedSpan span(kMotion);
  AddCount(kMotionPairs, 1);
  return RealCoLocated(self, activity, n_samples);
}

__attribute__((weak)) sensors::MotionPair RealIndependent(
    sensors::MotionSimulator* self, sensors::Activity phone_activity,
    sensors::Activity watch_activity, std::size_t n_samples)
    PERFBENCH_REAL(SYM_INDEPENDENT);
sensors::MotionPair WrapIndependent(sensors::MotionSimulator* self,
                                    sensors::Activity phone_activity,
                                    sensors::Activity watch_activity,
                                    std::size_t n_samples)
    PERFBENCH_WRAP(SYM_INDEPENDENT);
sensors::MotionPair WrapIndependent(sensors::MotionSimulator* self,
                                    sensors::Activity phone_activity,
                                    sensors::Activity watch_activity,
                                    std::size_t n_samples) {
  ScopedSpan span(kMotion);
  AddCount(kMotionPairs, 1);
  return RealIndependent(self, phone_activity, watch_activity, n_samples);
}

__attribute__((weak)) sensors::FilterResult RealSensorFilter(
    const sensors::AccelTrace& phone, const sensors::AccelTrace& watch,
    const sensors::FilterThresholds& thresholds,
    const sensors::DtwOptions& dtw_options) PERFBENCH_REAL(SYM_SENSOR_FILTER);
sensors::FilterResult WrapSensorFilter(
    const sensors::AccelTrace& phone, const sensors::AccelTrace& watch,
    const sensors::FilterThresholds& thresholds,
    const sensors::DtwOptions& dtw_options) PERFBENCH_WRAP(SYM_SENSOR_FILTER);
sensors::FilterResult WrapSensorFilter(
    const sensors::AccelTrace& phone, const sensors::AccelTrace& watch,
    const sensors::FilterThresholds& thresholds,
    const sensors::DtwOptions& dtw_options) {
  ScopedSpan span(kDtw);
  return RealSensorFilter(phone, watch, thresholds, dtw_options);
}

// ---- protocol -------------------------------------------------------

__attribute__((weak)) void RealSessionCtor(protocol::UnlockSession* self,
                                           protocol::ScenarioConfig config)
    PERFBENCH_REAL(SYM_SESSION_CTOR);
void WrapSessionCtor(protocol::UnlockSession* self,
                     protocol::ScenarioConfig config)
    PERFBENCH_WRAP(SYM_SESSION_CTOR);
void WrapSessionCtor(protocol::UnlockSession* self,
                     protocol::ScenarioConfig config) {
  ScopedSpan span(kSessionSetup);
  RealSessionCtor(self, std::move(config));
}

__attribute__((weak)) void RealSessionDtor(protocol::UnlockSession* self)
    PERFBENCH_REAL(SYM_SESSION_DTOR);
void WrapSessionDtor(protocol::UnlockSession* self)
    PERFBENCH_WRAP(SYM_SESSION_DTOR);
void WrapSessionDtor(protocol::UnlockSession* self) {
  ScopedSpan span(kSessionTeardown);
  RealSessionDtor(self);
}

using OnDone = std::function<void(const protocol::UnlockReport&)>;
__attribute__((weak)) void RealStartAsync(
    protocol::UnlockSession* self, sim::EventQueue& queue, int max_retries,
    const protocol::AttackInjection& attack, OnDone on_done)
    PERFBENCH_REAL(SYM_START_ASYNC);
void WrapStartAsync(protocol::UnlockSession* self, sim::EventQueue& queue,
                    int max_retries, const protocol::AttackInjection& attack,
                    OnDone on_done) PERFBENCH_WRAP(SYM_START_ASYNC);
void WrapStartAsync(protocol::UnlockSession* self, sim::EventQueue& queue,
                    int max_retries, const protocol::AttackInjection& attack,
                    OnDone on_done) {
  ScopedSpan span(kSessionStart);
  RealStartAsync(self, queue, max_retries, attack, std::move(on_done));
}

__attribute__((weak)) double RealAmbientSimilarity(
    const Samples& phone_ambient, const Samples& watch_ambient,
    const protocol::AmbientSimilarityConfig& config)
    PERFBENCH_REAL(SYM_AMBIENT_SIMILARITY);
double WrapAmbientSimilarity(const Samples& phone_ambient,
                             const Samples& watch_ambient,
                             const protocol::AmbientSimilarityConfig& config)
    PERFBENCH_WRAP(SYM_AMBIENT_SIMILARITY);
double WrapAmbientSimilarity(const Samples& phone_ambient,
                             const Samples& watch_ambient,
                             const protocol::AmbientSimilarityConfig& config) {
  ScopedSpan span(kAmbientFilter);
  return RealAmbientSimilarity(phone_ambient, watch_ambient, config);
}

// ---- obs ------------------------------------------------------------

__attribute__((weak)) void RealIngest(obs::TelemetrySink* self,
                                      const obs::SessionRecord& record)
    PERFBENCH_REAL(SYM_INGEST);
void WrapIngest(obs::TelemetrySink* self, const obs::SessionRecord& record)
    PERFBENCH_WRAP(SYM_INGEST);
void WrapIngest(obs::TelemetrySink* self, const obs::SessionRecord& record) {
  ScopedSpan span(kObsIngest);
  RealIngest(self, record);
}

__attribute__((weak)) void RealMerge(obs::TelemetrySink* self,
                                     const obs::TelemetrySink& other)
    PERFBENCH_REAL(SYM_MERGE);
void WrapMerge(obs::TelemetrySink* self, const obs::TelemetrySink& other)
    PERFBENCH_WRAP(SYM_MERGE);
void WrapMerge(obs::TelemetrySink* self, const obs::TelemetrySink& other) {
  ScopedSpan span(kObsMerge);
  RealMerge(self, other);
}

}  // namespace perfbench::wrap

namespace perfbench {

std::vector<Boundary> WrappedBoundaries() {
  using namespace wrap;
  auto linked = [](auto* fn) { return fn != nullptr; };
  return {
      {SYM_TRANSMIT, kAudioTransmit, linked(&RealTransmit)},
      {SYM_AMBIENT, kAudioAmbient, linked(&RealAmbient)},
      {SYM_GAUSSIAN, kRngGaussian, linked(&RealGaussian)},
      {SYM_RUN_UNTIL_IDLE, kMachine, linked(&RealRunUntilIdle)},
      {SYM_RUN_TASKS, kShard, linked(&RealRunTasks)},
      {SYM_FFT_EXECUTE, kFft, linked(&RealFftExecute)},
      {SYM_FFT_INVERSE, kFft, linked(&RealFftInverse)},
      {SYM_WARP, kWarp, linked(&RealWarp)},
      {SYM_CONVOLVE, kConvolve, linked(&RealConvolve)},
      {SYM_PROBE, kModemProbe, linked(&RealProbe)},
      {SYM_DEMOD, kModemDemod, linked(&RealDemod)},
      {SYM_DEMOD_SOFT, kModemDemod, linked(&RealDemodSoft)},
      {SYM_COLOCATED, kMotion, linked(&RealCoLocated)},
      {SYM_INDEPENDENT, kMotion, linked(&RealIndependent)},
      {SYM_SENSOR_FILTER, kDtw, linked(&RealSensorFilter)},
      {SYM_SESSION_CTOR, kSessionSetup, linked(&RealSessionCtor)},
      {SYM_SESSION_DTOR, kSessionTeardown, linked(&RealSessionDtor)},
      {SYM_START_ASYNC, kSessionStart, linked(&RealStartAsync)},
      {SYM_AMBIENT_SIMILARITY, kAmbientFilter, linked(&RealAmbientSimilarity)},
      {SYM_INGEST, kObsIngest, linked(&RealIngest)},
      {SYM_MERGE, kObsMerge, linked(&RealMerge)},
  };
}

}  // namespace perfbench
