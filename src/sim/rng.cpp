#include "sim/rng.h"

#include <algorithm>

namespace wearlock::sim {
namespace {

constexpr std::size_t kN = 312;
constexpr std::size_t kM = 156;
constexpr std::uint64_t kUpperMask = ~std::uint64_t{0} << 31;
constexpr std::uint64_t kLowerMask = ~kUpperMask;
constexpr std::uint64_t kMatrixA = 0xb5026f5aa96619e9ULL;

// One twist step: `far ^ (y >> 1) ^ (odd(y) ? a : 0)` with the select
// done by masking, so the loop carries no data-dependent branch.
inline std::uint64_t Mix(std::uint64_t cur, std::uint64_t next,
                         std::uint64_t far) {
  const std::uint64_t y = (cur & kUpperMask) | (next & kLowerMask);
  return far ^ (y >> 1) ^ ((std::uint64_t{0} - (y & 1)) & kMatrixA);
}

}  // namespace

Mt19937_64::Mt19937_64(std::uint64_t seed) {
  state_[0] = seed;
  for (std::size_t i = 1; i < kN; ++i) {
    const std::uint64_t prev = state_[i - 1];
    state_[i] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
  }
}

void Mt19937_64::Twist() {
  std::uint64_t* s = state_.data();
  for (std::size_t k = 0; k < kN - kM; ++k) s[k] = Mix(s[k], s[k + 1], s[k + kM]);
  for (std::size_t k = kN - kM; k < kN - 1; ++k) {
    s[k] = Mix(s[k], s[k + 1], s[k + kM - kN]);
  }
  s[kN - 1] = Mix(s[kN - 1], s[0], s[kM - 1]);
  index_ = 0;
}

void Mt19937_64::Fill(std::uint64_t* out, std::size_t count) {
  while (count > 0) {
    if (index_ >= kN) Twist();
    const std::size_t take = std::min(count, kN - index_);
    for (std::size_t i = 0; i < take; ++i) out[i] = Temper(state_[index_ + i]);
    index_ += take;
    out += take;
    count -= take;
  }
}

std::vector<double> Rng::GaussianVector(std::size_t n, double stddev) {
  // The values of one std::normal_distribution kept across n calls: each
  // accepted polar pair fills two slots (y * mult, then the saved
  // x * mult), and an odd n drops the partner of its last pair.
  //
  // Candidate pairs are drawn in batches no larger than the number of
  // pairs still needed, so the engine never runs past the last accepted
  // pair, exactly as the one-pair-at-a-time loop. Inside a batch the
  // accept test selects by index instead of branching, and the logs of
  // the accepted pairs are independent, so they overlap in the pipeline.
  constexpr std::size_t kBatch = 128;
  std::uint64_t raw[2 * kBatch];
  double xs[kBatch], ys[kBatch], r2s[kBatch];
  std::vector<double> v(n);
  std::size_t filled = 0;
  std::size_t pairs_needed = (n + 1) / 2;
  while (pairs_needed > 0) {
    const std::size_t candidates = std::min(pairs_needed, kBatch);
    engine_.Fill(raw, 2 * candidates);
    std::size_t accepted = 0;
    for (std::size_t j = 0; j < candidates; ++j) {
      const double x = 2.0 * CanonicalFromU64(raw[2 * j]) - 1.0;
      const double y = 2.0 * CanonicalFromU64(raw[2 * j + 1]) - 1.0;
      const double r2 = x * x + y * y;
      xs[accepted] = x;
      ys[accepted] = y;
      r2s[accepted] = r2;
      // Accept unless r2 > 1 || r2 == 0 (r2 is never NaN), with
      // non-short-circuit operators so the compiler emits no branch.
      accepted += static_cast<std::size_t>(r2 <= 1.0) &
                  static_cast<std::size_t>(r2 != 0.0);
    }
    for (std::size_t j = 0; j < accepted; ++j) {
      const double mult = std::sqrt(-2.0 * std::log(r2s[j]) / r2s[j]);
      v[filled++] = ys[j] * mult * stddev + 0.0;
      if (filled < n) v[filled++] = xs[j] * mult * stddev + 0.0;
    }
    pairs_needed -= accepted;
  }
  return v;
}

}  // namespace wearlock::sim
