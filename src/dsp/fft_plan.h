// Cached FFT plans: precomputed bit-reversal pairs + twiddle tables.
//
// dsp::FftPlan is an immutable, size-keyed execution plan for the same
// radix-2 decimation-in-time transform as dsp::Fft. The permutation
// pairs and per-stage twiddles are computed once at construction, so
// Execute() is pure butterfly arithmetic over a caller-provided buffer.
// Outputs are bit-identical to dsp::Fft/dsp::Ifft by construction: the
// tables are generated with the exact `w *= wlen` recurrence the legacy
// transform evaluates inline, floating-point rounding included.
//
// dsp::PlanCache shares immutable plans across threads: Get() takes a
// mutex for the map lookup, but the returned plan is const and
// lock-free to execute. Hot paths fetch their plans once (at component
// construction or first use) and never touch the cache per symbol.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>

#include "dsp/fft.h"

namespace wearlock::dsp {

class FftPlan {
 public:
  /// @throws std::invalid_argument unless `n` is a power of two.
  explicit FftPlan(std::size_t n);

  std::size_t size() const { return n_; }

  /// In-place unscaled transform of data[0..size()); `inverse` flips the
  /// twiddle sign. Matches the legacy dsp::Fft transform bit-for-bit.
  /// Runs ExecuteAvx2 when the CPU has AVX2 (checked once per process),
  /// else ExecuteScalar; the two are bit-identical.
  void Execute(Complex* data, bool inverse) const;

  /// The portable butterfly loop: the fallback and the reference the
  /// vector kernel is tested against.
  void ExecuteScalar(Complex* data, bool inverse) const;

  /// The same operations per element, two complex values per AVX2
  /// register, without FMA. Falls back to ExecuteScalar on a CPU
  /// without AVX2.
  void ExecuteAvx2(Complex* data, bool inverse) const;

  /// True when this CPU runs ExecuteAvx2's vector kernel.
  static bool HasAvx2();

  /// Forward transform (same result as dsp::Fft).
  void Forward(Complex* data) const { Execute(data, /*inverse=*/false); }

  /// Inverse transform including the 1/N normalization (same as dsp::Ifft).
  void Inverse(Complex* data) const;

 private:
  void Permute(double* x) const;
  const double* TwiddleTable(bool inverse) const;

  std::size_t n_ = 0;
  std::vector<std::uint32_t> swap_a_, swap_b_;  // bit-reversal pairs, i < j
  ComplexVec fwd_, inv_;  // concatenated per-stage twiddle tables
};

/// Thread-safe map of shared immutable plans, keyed by FFT size.
class PlanCache {
 public:
  /// The cached plan for size `n`, built on first request.
  /// @throws std::invalid_argument unless `n` is a power of two.
  std::shared_ptr<const FftPlan> Get(std::size_t n);

  /// Lifetime lookup counters (also exported as the obs counters
  /// `dsp.plan_cache.hit` / `dsp.plan_cache.miss`). Steady state is
  /// all hits: a sweep that keeps missing is rebuilding plans.
  std::uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  std::uint64_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }

  /// The process-wide cache the dsp shims and modem hot paths share.
  static PlanCache& Shared();

 private:
  mutable std::mutex mu_;
  std::map<std::size_t, std::shared_ptr<const FftPlan>> plans_;  // guarded by mu_
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
};

}  // namespace wearlock::dsp
