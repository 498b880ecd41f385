// Simulation substrate tests: RNG determinism and bit-exactness against
// the standard library, virtual clock, device profiles/energy model,
// wireless link latency models, the inert (empty-plan) fault injector.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/clock.h"
#include "sim/device.h"
#include "sim/faults.h"
#include "sim/parse.h"
#include "sim/rng.h"
#include "sim/wireless.h"

namespace wearlock::sim {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(1234), b(1234);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000000), b.UniformInt(0, 1000000));
  }
}

TEST(Rng, ForkedStreamsDiffer) {
  Rng parent(1);
  Rng c1 = parent.Fork();
  Rng c2 = parent.Fork();
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (c1.UniformInt(0, 1000000) == c2.UniformInt(0, 1000000)) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, GaussianMoments) {
  Rng rng(7);
  const auto v = rng.GaussianVector(20000, 2.0);
  double mean = 0.0, var = 0.0;
  for (double x : v) mean += x;
  mean /= static_cast<double>(v.size());
  for (double x : v) var += (x - mean) * (x - mean);
  var /= static_cast<double>(v.size());
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(Rng, UniformBounds) {
  Rng rng(8);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform(2.0, 3.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 3.0);
  }
}

// ---- bit-exactness: the streams are std's, bit for bit ---------------

TEST(Rng, EngineMatchesStdMt19937_64) {
  std::vector<std::uint64_t> seeds = {0, 1, ~std::uint64_t{0}};
  // Fork() seeds a child with the parent's next raw output.
  std::mt19937_64 parent(20260808);
  seeds.push_back(parent());
  seeds.push_back(parent());
  for (const std::uint64_t seed : seeds) {
    Mt19937_64 ours(seed);
    std::mt19937_64 want(seed);
    long first_mismatch = -1;
    for (long i = 0; i < 1'000'000 && first_mismatch < 0; ++i) {
      if (ours() != want()) first_mismatch = i;
    }
    EXPECT_EQ(first_mismatch, -1) << "seed " << seed;
  }
}

TEST(Rng, FillMatchesSingleCalls) {
  // Batches that start mid-state and straddle twists.
  Mt19937_64 bulk(5), single(5);
  std::vector<std::uint64_t> got(1000);
  for (const std::size_t count : {1u, 7u, 311u, 312u, 313u, 1000u}) {
    bulk.Fill(got.data(), count);
    for (std::size_t i = 0; i < count; ++i) ASSERT_EQ(got[i], single());
  }
}

TEST(Rng, ForkSeedsTheChildWithTheParentsNextOutput) {
  Rng parent(20260808);
  std::mt19937_64 want_parent(20260808);
  Rng child = parent.Fork();
  Rng want_child(want_parent());
  EXPECT_EQ(child.GaussianVector(64), want_child.GaussianVector(64));
  // Uniform() and the std distributions draw through the same engine.
  EXPECT_EQ(parent.Uniform(0.0, 1.0),
            std::uniform_real_distribution<double>(0.0, 1.0)(want_parent));
}

// Bit patterns: -0.0 differs from +0.0 and equal NaNs compare equal.
std::vector<std::uint64_t> Bits(const std::vector<double>& values) {
  std::vector<std::uint64_t> bits;
  bits.reserve(values.size());
  for (const double v : values) bits.push_back(std::bit_cast<std::uint64_t>(v));
  return bits;
}

#ifdef __GLIBCXX__
// The sampler reproduces libstdc++'s std::normal_distribution<double>.
TEST(Rng, GaussianMatchesStdNormalDistributionBitForBit) {
  for (const double stddev : {1.0, 0.37, 0.0, 1e-300}) {
#ifdef _GLIBCXX_ASSERTIONS
    // The checked library asserts stddev > 0 in the oracle itself.
    if (stddev == 0.0) continue;
#endif
    for (const std::size_t n : {0u, 1u, 2u, 3u, 17u, 4097u}) {
      const std::uint64_t seed = 1000 + n;
      Rng ours(seed);
      std::mt19937_64 engine(seed);
      // GaussianVector is one distribution kept across n draws...
      const std::vector<double> got = ours.GaussianVector(n, stddev);
      std::vector<double> want(n);
      std::normal_distribution<double> dist(0.0, stddev);
      for (double& x : want) x = dist(engine);
      ASSERT_EQ(Bits(got), Bits(want)) << "n " << n << " stddev " << stddev;
      // ...that drops the unused partner of its last pair, so a fresh
      // Gaussian() after it stays in step with a fresh distribution.
      for (int i = 0; i < 3; ++i) {
        const double g = ours.Gaussian(stddev);
        const double h = std::normal_distribution<double>(0.0, stddev)(engine);
        ASSERT_EQ(Bits({g}), Bits({h}))
            << "n " << n << " stddev " << stddev << " draw " << i;
      }
    }
  }
}
#endif

// Pins the stream without the standard library as the oracle.
TEST(Rng, FirstDrawsOfAFixedSeedArePinned) {
  static constexpr double kWant[8] = {
      -0x1.9e28d245c9901p-1, 0x1.589b365bbe2ffp-5,  -0x1.4ad4ab6ddfc3bp+0,
      0x1.0b71fabca067bp+1,  0x1.ddc4ad149adfcp-3,  -0x1.b0acb0bb09c4ep-2,
      0x1.86880c452a40fp-2,  0x1.ec3e755309357p-1,
  };
  Rng rng(20260808);
  EXPECT_EQ(Bits(rng.GaussianVector(8)),
            Bits(std::vector<double>(std::begin(kWant), std::end(kWant))));
}

TEST(Rng, U64ToDoubleRoundsLikeStaticCast) {
  constexpr std::uint64_t k53 = std::uint64_t{1} << 53;
  constexpr std::uint64_t k63 = std::uint64_t{1} << 63;
  const std::uint64_t cases[] = {
      0,       1,       k53 - 1, k53, k53 + 1, k53 + 3, k63 - 1,
      k63,     k63 + 1, k63 + 1024, k63 + 1025, ~std::uint64_t{0} - 1024,
      ~std::uint64_t{0}};
  for (const std::uint64_t u : cases) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(U64ToDouble(u)),
              std::bit_cast<std::uint64_t>(static_cast<double>(u)))
        << u;
  }
  Mt19937_64 engine(3);
  for (int i = 0; i < 100000; ++i) {
    const std::uint64_t u = engine();
    ASSERT_EQ(U64ToDouble(u), static_cast<double>(u)) << u;
  }
  // 2^64 - 1 rounds up to 2^64, so the canonical uniform hits 1.0 and
  // must be clamped to the largest double below it.
  EXPECT_EQ(U64ToDouble(~std::uint64_t{0}), 0x1p64);
  EXPECT_EQ(CanonicalFromU64(~std::uint64_t{0}), 0x1.fffffffffffffp-1);
  EXPECT_EQ(CanonicalFromU64(0), 0.0);
  EXPECT_EQ(CanonicalFromU64(k63), 0.5);
}

TEST(Clock, AdvancesMonotonically) {
  VirtualClock clock;
  EXPECT_EQ(clock.now(), 0.0);
  clock.Advance(12.5);
  clock.Advance(0.5);
  EXPECT_EQ(clock.now(), 13.0);
  EXPECT_THROW(clock.Advance(-1.0), std::invalid_argument);
  clock.Reset();
  EXPECT_EQ(clock.now(), 0.0);
}

TEST(Device, ProfileOrdering) {
  // The watch is the slowest device; Nexus 6 the fastest.
  EXPECT_LT(DeviceProfile::Nexus6().compute_scale,
            DeviceProfile::GalaxyNexus().compute_scale);
  EXPECT_LT(DeviceProfile::GalaxyNexus().compute_scale,
            DeviceProfile::Moto360().compute_scale);
}

TEST(Device, ScaleAndEnergy) {
  const auto watch = DeviceProfile::Moto360();
  EXPECT_NEAR(watch.ScaleCompute(2.0), 2.0 * watch.compute_scale, 1e-9);
  // 1000 ms at 380 mW = 380 mJ.
  EXPECT_NEAR(DeviceProfile::EnergyMj(1000.0, 380.0), 380.0, 1e-9);
}

TEST(Device, HostTimerMeasuresWork) {
  const Millis t = TimeHostMs([] {
    volatile double acc = 0.0;
    for (int i = 0; i < 100000; ++i) acc = acc + std::sqrt(static_cast<double>(i));
  });
  EXPECT_GT(t, 0.0);
  EXPECT_LT(t, 1000.0);
  EXPECT_THROW(TimeHostMs(nullptr), std::invalid_argument);
  EXPECT_THROW(TimeHostMedianMs([] {}, 0), std::invalid_argument);
}

TEST(Wireless, WifiFasterThanBluetooth) {
  Rng rng(9);
  WirelessLink bt(LinkModel::Bluetooth(), rng.Fork());
  WirelessLink wifi(LinkModel::Wifi(), rng.Fork());
  double bt_acc = 0.0, wifi_acc = 0.0;
  for (int i = 0; i < 50; ++i) {
    bt_acc += bt.SampleMessageDelay();
    wifi_acc += wifi.SampleMessageDelay();
  }
  EXPECT_GT(bt_acc / 50.0, 2.0 * wifi_acc / 50.0);
}

TEST(Wireless, FileTransferScalesWithSize) {
  Rng rng(10);
  WirelessLink bt(LinkModel::Bluetooth(), rng.Fork());
  double small_acc = 0.0, large_acc = 0.0;
  for (int i = 0; i < 30; ++i) {
    small_acc += bt.SampleFileDelay(10'000);
    large_acc += bt.SampleFileDelay(100'000);
  }
  EXPECT_GT(large_acc, 1.5 * small_acc);
}

TEST(Wireless, DownLinkThrows) {
  Rng rng(11);
  WirelessLink link(LinkModel::Bluetooth(), rng.Fork(), /*connected=*/false);
  EXPECT_FALSE(link.connected());
  EXPECT_THROW(link.SampleMessageDelay(), std::logic_error);
  EXPECT_THROW(link.SampleFileDelay(100), std::logic_error);
  link.set_connected(true);
  EXPECT_NO_THROW(link.SampleMessageDelay());
}

// The attempt machine sends fault-free sessions through an empty-plan
// injector, so that injector must be indistinguishable from the bare
// link: the same delays in the same order, and no other effect.
TEST(Faults, EmptyPlanInjectorIsTheBareLink) {
  VirtualClock clock;
  WirelessLink bare(LinkModel::Bluetooth(), Rng(21));
  WirelessLink wrapped(LinkModel::Bluetooth(), Rng(21));
  FaultInjector inert(FaultPlan{}, Rng(22), &clock);
  for (std::size_t i = 0; i < 20; ++i) {
    const FaultInjector::SendResult message = inert.SendMessage(wrapped, "rts");
    EXPECT_EQ(message.status, FaultInjector::SendStatus::kDelivered);
    EXPECT_FALSE(message.duplicated);
    EXPECT_EQ(message.delay_ms, bare.TrySendMessageDelay().value());
    const std::size_t bytes = 4096 * i;
    const FaultInjector::SendResult file =
        inert.SendFile(wrapped, bytes, "p1-upload");
    EXPECT_EQ(file.status, FaultInjector::SendStatus::kDelivered);
    EXPECT_FALSE(file.duplicated);
    EXPECT_EQ(file.delay_ms, bare.TrySendFileDelay(bytes).value());
    clock.Advance(message.delay_ms + file.delay_ms);
  }

  std::vector<double> recording = {0.5, -0.9, 0.1, 2.0};
  const std::vector<double> original = recording;
  EXPECT_FALSE(inert.MutateRecording("p2-data", &recording));
  EXPECT_EQ(recording, original);

  inert.MaybeReconnect(wrapped);
  EXPECT_TRUE(wrapped.connected());
  wrapped.set_connected(false);  // down for a reason the plan never caused
  inert.MaybeReconnect(wrapped);
  EXPECT_FALSE(wrapped.connected());
  EXPECT_FALSE(inert.flap_down());
  EXPECT_TRUE(inert.events().empty());
}

TEST(Parse, NumbersArePlainFiniteDecimalsInRange) {
  EXPECT_EQ(TryParseNumber("-1.2", -5.0, 5.0), -1.2);
  EXPECT_EQ(TryParseNumber("1e-3", 0.0, 1.0), 1e-3);
  EXPECT_EQ(TryParseNumber<int>("3", 1, 3), 3);
  for (const char* bad : {"", "nan", "-nan", "inf", "-inf", "infinity",
                          "+0.5", " 0.5", "0.5 ", "0x1p-1", "0.5x", "1e400"}) {
    EXPECT_FALSE(TryParseNumber(bad, -kFiniteMax, kFiniteMax)) << bad;
  }
  EXPECT_FALSE(TryParseNumber("0", kAboveZero, 1.0));
  EXPECT_FALSE(TryParseNumber<int>("4", 1, 3));
  EXPECT_FALSE(TryParseNumber<std::size_t>("-1", 0, 10));
  EXPECT_EQ(RangeText(kAboveZero, 1000.0), "(0, 1000]");
  EXPECT_EQ(RangeText(1.0, kFiniteMax), "[1, inf)");
  EXPECT_EQ(RangeText<int>(0, 64), "[0, 64]");
  EXPECT_THROW(ParseNumber("abc", 0.0, 1.0, "--x"), std::invalid_argument);
}

TEST(Parse, SpecLiteralsRoundLikeTheCompiler) {
  // The literals of every committed spec and CLI replay: a parser that
  // rounded one differently would move a golden.
  const struct {
    const char* text;
    double value;
  } kLiterals[] = {{"0.3", 0.3},   {"0.35", 0.35}, {"0.6", 0.6},
                   {"0.25", 0.25}, {"0.4", 0.4},   {"0.7", 0.7},
                   {"1.4", 1.4},   {"-1.2", -1.2}, {"4.5", 4.5},
                   {"1.25", 1.25}, {"3.0", 3.0},   {"0.5", 0.5},
                   {"1.5", 1.5},   {"2.0", 2.0},   {"0.2", 0.2},
                   {"0.05", 0.05}, {"0.1", 0.1},   {"0.8", 0.8},
                   {"0.9", 0.9},   {"1.0", 1.0},   {"0.300000", 0.3},
                   {"1e-3", 1e-3}};
  for (const auto& literal : kLiterals) {
    const std::optional<double> parsed =
        TryParseNumber(literal.text, -kFiniteMax, kFiniteMax);
    ASSERT_TRUE(parsed) << literal.text;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(*parsed),
              std::bit_cast<std::uint64_t>(literal.value))
        << literal.text;
  }
}

TEST(Parse, ListsKeepEmptyItemsAndEntriesSplitAtTheFirstEquals) {
  EXPECT_EQ(SplitList("", '|'), std::vector<std::string>{""});
  EXPECT_EQ(SplitList("a,,b,", ','),
            (std::vector<std::string>{"a", "", "b", ""}));
  const std::vector<SpecEntry> entries =
      SpecEntries("FaultPlan", "drop=0.3,flap@rts,k=a=b", ',');
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].key, "drop");
  EXPECT_EQ(entries[0].Number(0.0, 1.0), 0.3);
  EXPECT_FALSE(entries[1].has_value);
  EXPECT_EQ(entries[1].key, "flap@rts");
  EXPECT_EQ(entries[2].value, "a=b");
  EXPECT_THROW((void)entries[0].Number(0.5, 1.0), std::invalid_argument);
}

TEST(Parse, ArgCursorThrowsOnAMissingOrMalformedValue) {
  char prog[] = "tool", threads[] = "--threads", four[] = "4",
       distance[] = "--distance", junk[] = "abc", trace[] = "--trace";
  char* argv[] = {prog, threads, four, distance, junk, trace};
  ArgCursor args(6, argv);
  ASSERT_TRUE(args.Next());
  EXPECT_EQ(args.arg(), "--threads");
  EXPECT_EQ(args.Number<std::size_t>(0, 1024), 4u);
  ASSERT_TRUE(args.Next());
  EXPECT_THROW((void)args.Number(kAboveZero, 1000.0), std::invalid_argument);
  ASSERT_TRUE(args.Next());
  EXPECT_EQ(args.arg(), "--trace");
  EXPECT_THROW((void)args.Value(), std::invalid_argument);
  EXPECT_FALSE(args.Next());

  constexpr Named<int> kNames[] = {{"one", 1}, {"two", 2}};
  EXPECT_EQ(ParseName("two", kNames, "--n"), 2);
  EXPECT_THROW((void)ParseName("three", kNames, "--n"),
               std::invalid_argument);
}

}  // namespace
}  // namespace wearlock::sim
