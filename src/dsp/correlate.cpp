#include "dsp/correlate.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "dsp/fft.h"
#include "dsp/fft_plan.h"
#include "dsp/workspace.h"

namespace wearlock::dsp {
namespace {

void CheckArgs(std::span<const double> x, std::span<const double> y) {
  if (y.empty()) throw std::invalid_argument("CrossCorrelate: empty template");
  if (y.size() > x.size()) {
    throw std::invalid_argument("CrossCorrelate: template longer than signal");
  }
}

void CheckOut(std::span<const double> x, std::span<const double> y,
              std::span<double> out) {
  if (out.size() != x.size() - y.size() + 1) {
    throw std::invalid_argument("CrossCorrelateFftInto: out must have one "
                                "slot per valid lag");
  }
}

// The tail every FFT correlation shares: multiply by the template's
// conjugate spectrum, transform back, keep the valid lags.
// lint: hot-path
void CorrelateSpectra(const FftPlan& plan, ComplexVec& fx, const Complex* fy,
                      std::span<double> out) {
  const std::size_t n = plan.size();
  for (std::size_t i = 0; i < n; ++i) fx[i] *= std::conj(fy[i]);
  plan.Inverse(fx.data());
  for (std::size_t k = 0; k < out.size(); ++k) out[k] = fx[k].real();
}

// Divides each lag of `out` by ||x window|| * y_norm (0 for a zero-energy
// template or window).
// lint: hot-path
void Normalize(std::span<const double> x, std::size_t m, double y_norm,
               std::span<double> out) {
  if (y_norm == 0.0) {
    for (double& v : out) v = 0.0;
    return;
  }
  // Running window energy of x for the denominator.
  double win_energy = 0.0;
  for (std::size_t i = 0; i < m; ++i) win_energy += x[i] * x[i];
  for (std::size_t k = 0; k < out.size(); ++k) {
    const double denom = std::sqrt(std::max(win_energy, 0.0)) * y_norm;
    out[k] = denom > 1e-30 ? out[k] / denom : 0.0;
    if (k + 1 < out.size()) {
      win_energy += x[k + m] * x[k + m] - x[k] * x[k];
    }
  }
}

double Norm(std::span<const double> y) {
  double energy = 0.0;
  for (double v : y) energy += v * v;
  return std::sqrt(energy);
}

}  // namespace

CorrelationTemplate::CorrelationTemplate(std::vector<double> taps)
    : taps_(std::move(taps)), norm_(Norm(taps_)) {
  if (taps_.empty()) {
    throw std::invalid_argument("CorrelationTemplate: empty template");
  }
}

std::shared_ptr<const CorrelationTemplate> CorrelationTemplate::Shared(
    std::span<const double> taps) {
  struct Registry {
    std::mutex mu;
    std::vector<std::shared_ptr<const CorrelationTemplate>> templates;  // guarded by mu
  };
  // Leaked on purpose, like PlanCache::Shared: a detector built during
  // static destruction may still look its template up.
  static Registry* const registry = new Registry();  // NOLINT(banned-api): intentional leak
  std::lock_guard<std::mutex> lock(registry->mu);
  for (const auto& t : registry->templates) {
    // Bitwise equality: a -0.0 tap transforms differently from +0.0.
    if (t->size() == taps.size() &&
        std::memcmp(t->taps_.data(), taps.data(),
                    taps.size() * sizeof(double)) == 0) {
      return t;
    }
  }
  registry->templates.push_back(std::make_shared<const CorrelationTemplate>(
      std::vector<double>(taps.begin(), taps.end())));
  return registry->templates.back();
}

const ComplexVec& CorrelationTemplate::Spectrum(const FftPlan& plan) const {
  const std::size_t n = plan.size();
  if (n < taps_.size()) {
    throw std::invalid_argument(
        "CorrelationTemplate: transform shorter than the template");
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto it = spectra_.find(n);
  if (it == spectra_.end()) {
    auto built = std::make_unique<ComplexVec>(n, Complex(0.0, 0.0));
    for (std::size_t i = 0; i < taps_.size(); ++i) {
      (*built)[i] = Complex(taps_[i], 0.0);
    }
    plan.Forward(built->data());
    it = spectra_.emplace(n, std::move(built)).first;
  }
  return *it->second;
}

std::size_t CorrelationTemplate::builds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spectra_.size();
}

std::vector<double> CrossCorrelate(std::span<const double> x,
                                   std::span<const double> y) {
  CheckArgs(x, y);
  const std::size_t lags = x.size() - y.size() + 1;
  std::vector<double> r(lags, 0.0);
  for (std::size_t k = 0; k < lags; ++k) {
    double acc = 0.0;
    for (std::size_t n = 0; n < y.size(); ++n) acc += x[k + n] * y[n];
    r[k] = acc;
  }
  return r;
}

// lint: hot-path
void CrossCorrelateFftInto(std::span<const double> x,
                           std::span<const double> y, Workspace& ws,
                           std::span<double> out) {
  CheckArgs(x, y);
  CheckOut(x, y, out);
  const std::size_t n = NextPowerOfTwo(x.size() + y.size());
  const auto plan = PlanCache::Shared().Get(n);
  ComplexVec& fx = ws.ComplexZeroed(CSlot::kCorrX, n);
  ComplexVec& fy = ws.ComplexZeroed(CSlot::kCorrY, n);
  for (std::size_t i = 0; i < x.size(); ++i) fx[i] = Complex(x[i], 0.0);
  for (std::size_t i = 0; i < y.size(); ++i) fy[i] = Complex(y[i], 0.0);
  plan->Forward(fx.data());
  plan->Forward(fy.data());
  CorrelateSpectra(*plan, fx, fy.data(), out);
}

// lint: hot-path
void CrossCorrelateFftInto(std::span<const double> x,
                           const CorrelationTemplate& y, Workspace& ws,
                           std::span<double> out) {
  CheckArgs(x, y.taps());
  CheckOut(x, y.taps(), out);
  const std::size_t n = NextPowerOfTwo(x.size() + y.size());
  const auto plan = PlanCache::Shared().Get(n);
  const ComplexVec& fy = y.Spectrum(*plan);
  ComplexVec& fx = ws.ComplexZeroed(CSlot::kCorrX, n);
  for (std::size_t i = 0; i < x.size(); ++i) fx[i] = Complex(x[i], 0.0);
  plan->Forward(fx.data());
  CorrelateSpectra(*plan, fx, fy.data(), out);
}

std::vector<double> CrossCorrelateFft(std::span<const double> x,
                                      std::span<const double> y) {
  CheckArgs(x, y);
  std::vector<double> r(x.size() - y.size() + 1);
  CrossCorrelateFftInto(x, y, Workspace::PerThread(), r);
  return r;
}

// lint: hot-path
void NormalizedCrossCorrelateInto(std::span<const double> x,
                                  std::span<const double> y, Workspace& ws,
                                  std::span<double> out) {
  CrossCorrelateFftInto(x, y, ws, out);
  Normalize(x, y.size(), Norm(y), out);
}

// lint: hot-path
void NormalizedCrossCorrelateInto(std::span<const double> x,
                                  const CorrelationTemplate& y,
                                  Workspace& ws, std::span<double> out) {
  CrossCorrelateFftInto(x, y, ws, out);
  Normalize(x, y.size(), y.norm(), out);
}

std::vector<double> NormalizedCrossCorrelate(std::span<const double> x,
                                             std::span<const double> y) {
  CheckArgs(x, y);
  std::vector<double> r(x.size() - y.size() + 1);
  NormalizedCrossCorrelateInto(x, y, Workspace::PerThread(), r);
  return r;
}

std::vector<double> NormalizedCrossCorrelate(std::span<const double> x,
                                             const CorrelationTemplate& y) {
  CheckArgs(x, y.taps());
  std::vector<double> r(x.size() - y.size() + 1);
  NormalizedCrossCorrelateInto(x, y, Workspace::PerThread(), r);
  return r;
}

PeakResult FindPeak(std::span<const double> scores) {
  if (scores.empty()) throw std::invalid_argument("FindPeak: empty input");
  PeakResult best{0, scores[0]};
  for (std::size_t i = 1; i < scores.size(); ++i) {
    if (scores[i] > best.score) best = {i, scores[i]};
  }
  return best;
}

}  // namespace wearlock::dsp
