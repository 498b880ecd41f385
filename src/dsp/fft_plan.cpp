#include "dsp/fft_plan.h"

#include <cmath>
#include <numbers>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/instrument.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define WEARLOCK_FFT_X86 1
#include <immintrin.h>
#else
#define WEARLOCK_FFT_X86 0
#endif

namespace wearlock::dsp {
namespace {

constexpr double kPi = std::numbers::pi;

// The one CPUID check, made at static initialization; everything else
// (plans, tables) is built on first use.
bool DetectAvx2() {
#if WEARLOCK_FFT_X86
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

const bool kCpuHasAvx2 = DetectAvx2();

// Every stage (len = 2 .. n) of the radix-2 transform on interleaved
// doubles. std::complex<double> is layout-compatible with double[2], so
// the butterflies run on raw doubles: same finite-value arithmetic as
// the std::complex operators, but the compiler keeps everything in
// registers instead of spilling temporaries. This is the reference
// arithmetic every other kernel must reproduce bit for bit.
// lint: hot-path
void ScalarStages(double* x, const double* tw, std::size_t n) {
  std::size_t toff = 0;
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    for (std::size_t i = 0; i < n; i += len) {
      double* lo = x + 2 * i;
      double* hi = x + 2 * (i + half);
      for (std::size_t k = 0; k < half; ++k) {
        const double wr = tw[2 * (toff + k)];
        const double wi = tw[2 * (toff + k) + 1];
        const double ur = lo[2 * k], ui = lo[2 * k + 1];
        const double xr = hi[2 * k], xi = hi[2 * k + 1];
        const double vr = xr * wr - xi * wi;
        const double vi = xr * wi + xi * wr;
        lo[2 * k] = ur + vr;
        lo[2 * k + 1] = ui + vi;
        hi[2 * k] = ur - vr;
        hi[2 * k + 1] = ui - vi;
      }
    }
    toff += half;
  }
}

#if WEARLOCK_FFT_X86
// AVX2 butterflies: two complex values per register, and per element
// exactly the scalar multiplies, adds and subtracts. The complex
// product is (xr*wr - xi*wi, xi*wr + xr*wi) via addsub: the imaginary
// sum has its operands swapped against the scalar xr*wi + xi*wr, which
// IEEE addition makes bit-identical. No FMA: a fused multiply-add
// rounds once where the scalar code rounds twice.

// (xr, xi) pairs of `h` times the (wr, wi) pairs of `w`.
__attribute__((target("avx2"))) inline __m256d ComplexMul(__m256d h,
                                                          __m256d w) {
  const __m256d wr = _mm256_movedup_pd(w);       // wr wr
  const __m256d wi = _mm256_permute_pd(w, 0xf);  // wi wi
  const __m256d a = _mm256_mul_pd(h, wr);        // xr*wr xi*wr
  const __m256d b = _mm256_mul_pd(_mm256_permute_pd(h, 0x5), wi);  // xi*wi xr*wi
  return _mm256_addsub_pd(a, b);
}

// Stage len = 2 (one butterfly per block, twiddle tw[0]): blocks i and
// i + 2 share a register, so a 4-point group loads two registers and
// swaps their halves to pair each low point with its high point.
// lint: hot-path
__attribute__((target("avx2"))) void Avx2FirstStage(double* x,
                                                    const double* tw,
                                                    std::size_t n) {
  const __m256d w = _mm256_setr_pd(tw[0], tw[1], tw[0], tw[1]);
  for (std::size_t i = 0; i < n; i += 4) {
    double* p = x + 2 * i;
    const __m256d a = _mm256_loadu_pd(p);      // x0 x1
    const __m256d b = _mm256_loadu_pd(p + 4);  // x2 x3
    const __m256d u = _mm256_permute2f128_pd(a, b, 0x20);  // x0 x2
    const __m256d h = _mm256_permute2f128_pd(a, b, 0x31);  // x1 x3
    const __m256d v = ComplexMul(h, w);
    const __m256d lo = _mm256_add_pd(u, v);
    const __m256d hi = _mm256_sub_pd(u, v);
    _mm256_storeu_pd(p, _mm256_permute2f128_pd(lo, hi, 0x20));
    _mm256_storeu_pd(p + 4, _mm256_permute2f128_pd(lo, hi, 0x31));
  }
}

// Stages len = 4 .. n: half >= 2, so butterflies k and k + 1 of a block
// share a register and their twiddles are adjacent in the table.
// lint: hot-path
__attribute__((target("avx2"))) void Avx2Stages(double* x, const double* tw,
                                                std::size_t n) {
  std::size_t toff = 1;
  for (std::size_t len = 4; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    for (std::size_t i = 0; i < n; i += len) {
      double* lo = x + 2 * i;
      double* hi = x + 2 * (i + half);
      for (std::size_t k = 0; k < half; k += 2) {
        const __m256d w = _mm256_loadu_pd(tw + 2 * (toff + k));
        const __m256d u = _mm256_loadu_pd(lo + 2 * k);
        const __m256d v = ComplexMul(_mm256_loadu_pd(hi + 2 * k), w);
        _mm256_storeu_pd(lo + 2 * k, _mm256_add_pd(u, v));
        _mm256_storeu_pd(hi + 2 * k, _mm256_sub_pd(u, v));
      }
    }
    toff += half;
  }
}
#endif

}  // namespace

FftPlan::FftPlan(std::size_t n) : n_(n) {
  if (!IsPowerOfTwo(n)) {
    throw std::invalid_argument("FftPlan: size must be a power of two, got " +
                                std::to_string(n));
  }
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) {
      swap_a_.push_back(static_cast<std::uint32_t>(i));
      swap_b_.push_back(static_cast<std::uint32_t>(j));
    }
  }
  // The tables replay the legacy transform's twiddle recurrence exactly
  // (w starts at 1 and accumulates `w *= wlen` per butterfly, restarting
  // each stage), so the rounded table values - and therefore Execute()'s
  // outputs - are bit-identical to computing them inline.
  for (int dir = 0; dir < 2; ++dir) {
    ComplexVec& tw = dir == 0 ? fwd_ : inv_;
    if (n > 1) tw.reserve(n - 1);
    for (std::size_t len = 2; len <= n; len <<= 1) {
      const double ang =
          2.0 * kPi / static_cast<double>(len) * (dir == 0 ? -1.0 : 1.0);
      const Complex wlen(std::cos(ang), std::sin(ang));
      Complex w(1.0, 0.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        tw.push_back(w);
        w *= wlen;
      }
    }
  }
}

// lint: hot-path
void FftPlan::Execute(Complex* data, bool inverse) const {
  if (kCpuHasAvx2) {
    ExecuteAvx2(data, inverse);
  } else {
    ExecuteScalar(data, inverse);
  }
}

// lint: hot-path
void FftPlan::ExecuteScalar(Complex* data, bool inverse) const {
  double* x = reinterpret_cast<double*>(data);
  Permute(x);
  ScalarStages(x, TwiddleTable(inverse), n_);
}

// lint: hot-path
void FftPlan::ExecuteAvx2(Complex* data, bool inverse) const {
#if WEARLOCK_FFT_X86
  if (kCpuHasAvx2) {
    double* x = reinterpret_cast<double*>(data);
    Permute(x);
    const double* tw = TwiddleTable(inverse);
    if (n_ >= 4) {
      Avx2FirstStage(x, tw, n_);
      Avx2Stages(x, tw, n_);
    } else {
      ScalarStages(x, tw, n_);
    }
    return;
  }
#endif
  ExecuteScalar(data, inverse);
}

bool FftPlan::HasAvx2() { return kCpuHasAvx2; }

// lint: hot-path
void FftPlan::Permute(double* x) const {
  for (std::size_t s = 0; s < swap_a_.size(); ++s) {
    const std::size_t a = swap_a_[s];
    const std::size_t b = swap_b_[s];
    std::swap(x[2 * a], x[2 * b]);
    std::swap(x[2 * a + 1], x[2 * b + 1]);
  }
}

const double* FftPlan::TwiddleTable(bool inverse) const {
  return reinterpret_cast<const double*>((inverse ? inv_ : fwd_).data());
}

void FftPlan::Inverse(Complex* data) const {
  Execute(data, /*inverse=*/true);
  const double inv_n = 1.0 / static_cast<double>(n_);
  double* x = reinterpret_cast<double*>(data);
  for (std::size_t i = 0; i < 2 * n_; ++i) x[i] *= inv_n;
}

std::shared_ptr<const FftPlan> PlanCache::Get(std::size_t n) {
  std::shared_ptr<const FftPlan> found;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = plans_.find(n);
    if (it != plans_.end()) found = it->second;
  }
  if (found) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    WL_COUNT("dsp.plan_cache.hit");
    return found;
  }
  // Build under the lock: a size misses once per cache, so the O(n log n)
  // build rarely blocks other lookups. A thread that lost the race to the
  // first builder finds its plan here and counts a hit, not a miss.
  bool built = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = plans_.find(n);
    if (it == plans_.end()) {
      it = plans_.emplace(n, std::make_shared<const FftPlan>(n)).first;
      built = true;
    }
    found = it->second;
  }
  if (built) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    WL_COUNT("dsp.plan_cache.miss");
  } else {
    hits_.fetch_add(1, std::memory_order_relaxed);
    WL_COUNT("dsp.plan_cache.hit");
  }
  return found;
}

PlanCache& PlanCache::Shared() {
  // Leaked on purpose: plans may still be executed from atexit-time code
  // and the cache must outlive every worker thread (same reasoning as
  // obs::MetricsRegistry::Default).
  static PlanCache* const cache = new PlanCache();  // NOLINT(banned-api): intentional leak
  return *cache;
}

}  // namespace wearlock::dsp
