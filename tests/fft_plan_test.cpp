// FftPlan, PlanCache, CorrelationTemplate: bit-identity, cache counters and
// concurrent first use (TSan targets: ci.sh runs it with WEARLOCK_THREADS=8).
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "dsp/correlate.h"
#include "dsp/fft.h"
#include "dsp/fft_plan.h"
#include "dsp/workspace.h"
#include "sim/rng.h"

namespace wearlock::dsp {
namespace {

// Bit-identical means bit-identical: compare the raw representation, not
// an epsilon. The whole refactor rests on the plan replaying the legacy
// `w *= wlen` recurrence exactly.
void ExpectBitIdentical(const ComplexVec& a, const ComplexVec& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_NE(a.size(), 0u);
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(Complex)), 0);
}

ComplexVec RandomSignal(std::size_t n, std::uint64_t seed) {
  sim::Rng rng(seed);
  ComplexVec x(n);
  for (auto& c : x) c = Complex(rng.Gaussian(), rng.Gaussian());
  return x;
}

class PlanVsLegacy : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PlanVsLegacy, ForwardMatchesFftBitForBit) {
  const std::size_t n = GetParam();
  const ComplexVec x = RandomSignal(n, n);
  ComplexVec legacy = x;
  Fft(legacy);
  ComplexVec planned = x;
  FftPlan(n).Forward(planned.data());
  ExpectBitIdentical(planned, legacy);
}

TEST_P(PlanVsLegacy, InverseMatchesIfftBitForBit) {
  const std::size_t n = GetParam();
  const ComplexVec x = RandomSignal(n, n + 1);
  ComplexVec legacy = x;
  Ifft(legacy);
  ComplexVec planned = x;
  FftPlan(n).Inverse(planned.data());
  ExpectBitIdentical(planned, legacy);
}

TEST_P(PlanVsLegacy, CachedPlanMatchesFreshPlan) {
  const std::size_t n = GetParam();
  const ComplexVec x = RandomSignal(n, n + 2);
  ComplexVec fresh = x;
  FftPlan(n).Forward(fresh.data());
  ComplexVec cached = x;
  PlanCache::Shared().Get(n)->Forward(cached.data());
  ExpectBitIdentical(cached, fresh);
}

INSTANTIATE_TEST_SUITE_P(Sizes, PlanVsLegacy,
                         ::testing::Values(8, 16, 64, 256, 1024, 4096, 8192, 16384, 32768, 65536),
                         [](const auto& info) {
                           // Piecewise: dodges GCC 12 -Wrestrict at -O3.
                           std::string name(1, 'n');
                           name += std::to_string(info.param);
                           return name;
                         });

TEST(FftPlan, RejectsNonPowerOfTwoSizes) {
  EXPECT_THROW(FftPlan(0), std::invalid_argument);
  EXPECT_THROW(FftPlan(3), std::invalid_argument);
  EXPECT_THROW(FftPlan(96), std::invalid_argument);
  EXPECT_THROW(PlanCache::Shared().Get(6), std::invalid_argument);
}

TEST(PlanCache, SecondLookupIsAHitOnTheSamePlan) {
  // A private cache so the shared singleton's lifetime counters (used by
  // the bench zero-allocation gates) are not perturbed.
  PlanCache cache;
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
  const auto first = cache.Get(512);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 1u);
  const auto second = cache.Get(512);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(first.get(), second.get());  // shared, not rebuilt
  cache.Get(1024);
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(PlanCache, ConcurrentGetReturnsOneSharedPlanPerSize) {
  // 8 threads hammer the same sizes; every thread must see the same
  // immutable plan instance and TSan must stay quiet.
  PlanCache cache;
  constexpr std::size_t kThreads = 8;
  static constexpr std::size_t kSizes[] = {64, 256, 1024};
  std::vector<std::vector<const FftPlan*>> seen(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&cache, &seen, t] {
      for (int round = 0; round < 50; ++round) {
        for (const std::size_t n : kSizes) {
          const auto plan = cache.Get(n);
          // Execute through the shared tables to give TSan real reads.
          ComplexVec buf(n, Complex(1.0, -1.0));
          plan->Forward(buf.data());
          if (round == 0) seen[t].push_back(plan.get());
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  for (std::size_t t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t], seen[0]);
  EXPECT_EQ(cache.misses(), std::size_t{3});  // one build per size, ever
  EXPECT_EQ(cache.hits() + cache.misses(), kThreads * 50 * 3);
}

TEST(Workspace, SlotsGrowOnceThenHoldSteady) {
  Workspace ws;
  const std::uint64_t growths_before = Workspace::TotalGrowths();
  ComplexVec& big = ws.ComplexBuf(CSlot::kFftScratch, 1024);
  EXPECT_EQ(big.size(), 1024u);
  EXPECT_GT(Workspace::TotalGrowths(), growths_before);
  const std::size_t bytes_after_growth = ws.bytes();
  const std::uint64_t growths_after = Workspace::TotalGrowths();
  // Shrinking reuse and same-size reuse keep capacity: no new growth.
  EXPECT_EQ(ws.ComplexBuf(CSlot::kFftScratch, 256).size(), 256u);
  EXPECT_EQ(ws.ComplexBuf(CSlot::kFftScratch, 1024).size(), 1024u);
  EXPECT_EQ(Workspace::TotalGrowths(), growths_after);
  EXPECT_EQ(ws.bytes(), bytes_after_growth);
  ComplexVec& zeroed = ws.ComplexZeroed(CSlot::kFftScratch, 512);
  for (const Complex& c : zeroed) EXPECT_EQ(c, Complex(0.0, 0.0));
}

// ---- AVX2 kernel vs the scalar oracle --------------------------------

enum class Inputs { kGaussian, kZerosAndSubnormals, kNear1e300 };

// kZerosAndSubnormals mixes +0, -0 and subnormals into ordinary values;
// kNear1e300 puts a few huge values among ordinary ones, so later
// stages overflow to inf and then NaN.
ComplexVec KernelInput(std::size_t n, Inputs kind) {
  ComplexVec x = RandomSignal(n, 3 * n + static_cast<std::uint64_t>(kind));
  for (std::size_t i = 0; i < n; ++i) {
    if (kind == Inputs::kZerosAndSubnormals) {
      switch (i % 5) {
        case 0: x[i] = Complex(0.0, -0.0); break;
        case 1: x[i] = Complex(-0.0, 0.0); break;
        case 2: x[i] = Complex(x[i].real() * 1e-310, x[i].imag() * 4e-320); break;
        default: break;
      }
    } else if (kind == Inputs::kNear1e300 && i % 7 == 3) {
      x[i] = Complex(x[i].real() * 1e300, -x[i].imag() * 3e299);
    }
  }
  return x;
}

TEST(FftKernels, Avx2MatchesScalarBitForBit) {
  if (!FftPlan::HasAvx2()) GTEST_SKIP() << "this CPU has no AVX2";
  for (std::size_t n = 2; n <= 65536; n <<= 1) {
    const FftPlan plan(n);
    for (const Inputs kind : {Inputs::kGaussian, Inputs::kZerosAndSubnormals,
                              Inputs::kNear1e300}) {
      for (const bool inverse : {false, true}) {
        ComplexVec scalar = KernelInput(n, kind);
        ComplexVec avx2 = scalar;
        plan.ExecuteScalar(scalar.data(), inverse);
        plan.ExecuteAvx2(avx2.data(), inverse);
        ASSERT_EQ(std::memcmp(scalar.data(), avx2.data(), n * sizeof(Complex)),
                  0)
            << "n " << n << " inputs " << static_cast<int>(kind)
            << (inverse ? " inverse" : " forward");
      }
    }
  }
}

TEST(FftKernels, ExecuteMatchesTheScalarOracle) {
  for (const std::size_t n : {2u, 4u, 512u, 16384u}) {
    const FftPlan plan(n);
    for (const bool inverse : {false, true}) {
      ComplexVec oracle = RandomSignal(n, n + 5);
      ComplexVec dispatched = oracle;
      plan.ExecuteScalar(oracle.data(), inverse);
      plan.Execute(dispatched.data(), inverse);
      ExpectBitIdentical(dispatched, oracle);
    }
  }
}

// ---- fixed-template correlation cache ----------------------------------

std::vector<double> RealSignal(std::size_t n, std::uint64_t seed) {
  sim::Rng rng(seed);
  return rng.GaussianVector(n);
}

// The cached path must reproduce the three-transform path bit for bit,
// at the transform sizes the receiver's preamble search uses.
TEST(CorrelationTemplate, CachedCorrelationMatchesUncachedBitForBit) {
  const std::vector<double> taps = RealSignal(256, 1);
  const CorrelationTemplate tmpl(taps);
  Workspace ws;
  for (const std::size_t x_len : {3000u, 12000u, 20000u}) {
    const std::vector<double> x = RealSignal(x_len, x_len);
    const std::size_t lags = x_len - taps.size() + 1;
    std::vector<double> plain(lags), cached(lags);
    CrossCorrelateFftInto(x, taps, ws, plain);
    CrossCorrelateFftInto(x, tmpl, ws, cached);
    ASSERT_EQ(std::memcmp(plain.data(), cached.data(), lags * sizeof(double)), 0)
        << x_len;
    NormalizedCrossCorrelateInto(x, taps, ws, plain);
    NormalizedCrossCorrelateInto(x, tmpl, ws, cached);
    ASSERT_EQ(std::memcmp(plain.data(), cached.data(), lags * sizeof(double)), 0)
        << x_len;
    EXPECT_EQ(NormalizedCrossCorrelate(x, tmpl), plain);
  }
  EXPECT_EQ(tmpl.builds(), 3u);  // 4096, 16384, 32768: once each
}

TEST(CorrelationTemplate, ConcurrentFirstUseBuildsOnce) {
  // 8 threads fetch the shared template for taps no other test uses and
  // correlate against it at once: one template, one spectrum build, and
  // every thread reads the same spectrum (a TSan target, like
  // PlanCache's concurrent test).
  const std::vector<double> taps = RealSignal(256, 2);
  const std::vector<double> x = RealSignal(12000, 3);
  constexpr std::size_t kThreads = 8;
  std::vector<std::shared_ptr<const CorrelationTemplate>> tmpl(kThreads);
  std::vector<const ComplexVec*> seen(kThreads);
  std::vector<std::vector<double>> scores(kThreads);
  std::atomic<std::size_t> waiting{kThreads};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      waiting.fetch_sub(1);
      while (waiting.load() != 0) std::this_thread::yield();
      tmpl[t] = CorrelationTemplate::Shared(taps);
      seen[t] = &tmpl[t]->Spectrum(*PlanCache::Shared().Get(16384));
      Workspace ws;
      scores[t].resize(x.size() - taps.size() + 1);
      NormalizedCrossCorrelateInto(x, *tmpl[t], ws, scores[t]);
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(tmpl[0]->builds(), 1u);
  for (std::size_t t = 1; t < kThreads; ++t) {
    EXPECT_EQ(tmpl[t], tmpl[0]);
    EXPECT_EQ(seen[t], seen[0]);
    EXPECT_EQ(scores[t], scores[0]);
  }
}

TEST(CorrelationTemplate, SharedIsOnePerBitwiseTapSequence) {
  std::vector<double> a = RealSignal(64, 4);
  const auto first = CorrelationTemplate::Shared(a);
  EXPECT_EQ(CorrelationTemplate::Shared(std::vector<double>(a)), first);
  std::vector<double> b = a;
  b[10] += 1.0;
  EXPECT_NE(CorrelationTemplate::Shared(b), first);
  a[0] = 0.0;
  b = a;
  b[0] = -0.0;  // equal as values, different spectra bits
  EXPECT_NE(CorrelationTemplate::Shared(a), CorrelationTemplate::Shared(b));
  EXPECT_THROW(CorrelationTemplate(std::vector<double>{}), std::invalid_argument);
}

}  // namespace
}  // namespace wearlock::dsp
