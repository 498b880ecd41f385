// Deterministic random-number utilities.
//
// Every stochastic element of the simulation (noise, jammer placement,
// link jitter, motion traces) draws from an explicitly seeded Rng so that
// tests and benchmark tables are reproducible run-to-run.
//
// The streams are pinned to the standard library's: Mt19937_64 is seeded
// and stepped exactly like std::mt19937_64, and Gaussian/GaussianVector
// reproduce libstdc++'s std::normal_distribution<double> (Marsaglia
// polar method) bit for bit. Both are hand-written only because the
// library versions branch on data (the twist's `(y & 1) ? a : 0` and the
// u64 -> double conversion); tests/sim_test.cpp holds them to the std
// oracle.
#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <random>
#include <vector>

namespace wearlock::sim {

/// MT19937-64 with the same seeding, state and output sequence as
/// std::mt19937_64, and a branch-free twist.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;

  explicit Mt19937_64(std::uint64_t seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    if (index_ >= kStateSize) Twist();
    return Temper(state_[index_++]);
  }

  /// The next `count` outputs, in order, as `count` calls would return.
  void Fill(std::uint64_t* out, std::size_t count);

 private:
  static constexpr std::size_t kStateSize = 312;

  static std::uint64_t Temper(std::uint64_t z) {
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    return z ^ (z >> 43);
  }

  void Twist();

  std::array<std::uint64_t, kStateSize> state_;
  std::size_t index_ = kStateSize;
};

/// `u` rounded to the nearest double, ties to even: the value of
/// static_cast<double>(u), computed without its branch for u >= 2^63.
inline double U64ToDouble(std::uint64_t u) {
  // Both halves convert exactly; the one addition rounds once.
  return static_cast<double>(static_cast<std::int64_t>(u >> 32)) * 0x1p32 +
         static_cast<double>(static_cast<std::int64_t>(u & 0xffffffffULL));
}

/// std::generate_canonical<double, 53> over one 64-bit output: u / 2^64,
/// clamped below 1 (u near 2^64 rounds up to exactly 1.0).
inline double CanonicalFromU64(std::uint64_t u) {
  constexpr double kBelowOne = 0x1.fffffffffffffp-1;
  const double c = U64ToDouble(u) * 0x1p-64;
  return c < kBelowOne ? c : kBelowOne;  // a select; GCC 12 branches on std::min
}

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Standard normal (mean 0, stddev 1) scaled by `stddev`.
  double Gaussian(double stddev = 1.0) {
    return NextPolarPair().first * stddev + 0.0;
  }

  /// Uniform in [lo, hi).
  double Uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::uint64_t UniformInt(std::uint64_t lo, std::uint64_t hi) {
    return std::uniform_int_distribution<std::uint64_t>(lo, hi)(engine_);
  }

  /// Bernoulli with probability p.
  bool Chance(double p) {
    return std::bernoulli_distribution(p)(engine_);
  }

  /// n iid Gaussian samples.
  std::vector<double> GaussianVector(std::size_t n, double stddev = 1.0);

  /// Derive an independent child stream (for giving each subsystem its
  /// own deterministic sequence).
  Rng Fork() { return Rng(engine_()); }

 private:
  struct PolarPair {
    double first;   // y * mult: what a fresh distribution returns
    double second;  // x * mult: what it saves for its next call
  };

  /// One accepted Marsaglia-polar pair, drawn as libstdc++ draws it.
  PolarPair NextPolarPair() {
    double x, y, r2;
    do {
      x = 2.0 * CanonicalFromU64(engine_()) - 1.0;
      y = 2.0 * CanonicalFromU64(engine_()) - 1.0;
      r2 = x * x + y * y;
    } while (r2 > 1.0 || r2 == 0.0);
    const double mult = std::sqrt(-2.0 * std::log(r2) / r2);
    return {y * mult, x * mult};
  }

  Mt19937_64 engine_;
};

}  // namespace wearlock::sim
