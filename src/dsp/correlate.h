// Cross-correlation primitives.
//
// The modem finds its chirp preamble with a normalized sliding
// cross-correlator (paper §III-4); the NLOS detector builds a delay
// profile from the same correlation; the ambient-noise co-location filter
// correlates noise recordings from phone and watch.
//
// The *Into variants are the hot path: they run on a dsp::Workspace and
// write into caller-sized output, so steady-state calls allocate
// nothing. The vector-returning signatures are compatibility shims over
// the same code (identical values).
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "dsp/fft.h"

namespace wearlock::dsp {

class FftPlan;    // dsp/fft_plan.h
class Workspace;  // dsp/workspace.h

/// A correlation template that never changes between calls (a frame's
/// chirp preamble). Its spectrum - the taps zero-padded to a transform
/// size and forward transformed, exactly as CrossCorrelateFftInto pads
/// and transforms its `y` - is built once per size on first request and
/// then shared, immutable, so a correlation against the template costs
/// two transforms instead of three, with identical output bits.
///
/// Spectrum() looks sizes up under a mutex and builds a missing one under
/// it, so concurrent first users build it once (the PlanCache pattern).
class CorrelationTemplate {
 public:
  /// @throws std::invalid_argument if `taps` is empty.
  explicit CorrelationTemplate(std::vector<double> taps);

  /// The process-wide template with exactly these taps (bitwise), made
  /// on first request: every component built for the same frame spec
  /// shares one template and so one set of spectra. Templates are kept
  /// for the life of the process; there is one per distinct tap
  /// sequence, i.e. per frame spec in use.
  static std::shared_ptr<const CorrelationTemplate> Shared(
      std::span<const double> taps);

  std::span<const double> taps() const { return taps_; }
  std::size_t size() const { return taps_.size(); }
  /// sqrt(sum taps^2), summed in order as NormalizedCrossCorrelateInto.
  double norm() const { return norm_; }

  /// The taps' spectrum at transform size plan.size(), which must be at
  /// least size(). The reference stays valid for the template's life.
  const ComplexVec& Spectrum(const FftPlan& plan) const;

  /// Spectra built so far (one per transform size, ever).
  std::size_t builds() const;

 private:
  std::vector<double> taps_;
  double norm_ = 0.0;
  mutable std::mutex mu_;
  // Keyed by transform size; entries are never erased, so references
  // handed out stay valid.
  mutable std::map<std::size_t, std::unique_ptr<const ComplexVec>> spectra_;  // guarded by mu_
};

/// Linear cross-correlation r[k] = sum_n x[n+k] * y[n] for
/// k in [0, x.size() - y.size()] (valid lags only; requires
/// x.size() >= y.size()). Direct O(N*M) evaluation.
/// @throws std::invalid_argument if y is empty or longer than x.
std::vector<double> CrossCorrelate(std::span<const double> x,
                                   std::span<const double> y);

/// Same result as CrossCorrelate but computed via FFT in O(N log N).
std::vector<double> CrossCorrelateFft(std::span<const double> x,
                                      std::span<const double> y);

/// Workspace CrossCorrelateFft: identical values written into `out`,
/// which the caller must size to the lag count x.size() - y.size() + 1.
/// Scratch lives in ws slots CSlot::kCorrX/kCorrY.
void CrossCorrelateFftInto(std::span<const double> x,
                           std::span<const double> y, Workspace& ws,
                           std::span<double> out);

/// CrossCorrelateFftInto against a fixed template: identical values,
/// with the template's cached spectrum in place of its transform.
/// Scratch lives in ws slot CSlot::kCorrX.
void CrossCorrelateFftInto(std::span<const double> x,
                           const CorrelationTemplate& y, Workspace& ws,
                           std::span<double> out);

/// Normalized sliding correlation: each lag's score is divided by
/// ||x_window|| * ||y||, yielding values in [-1, 1]. Zero-energy windows
/// score 0. This is the detector statistic the paper thresholds (0.05).
std::vector<double> NormalizedCrossCorrelate(std::span<const double> x,
                                             std::span<const double> y);

/// Workspace NormalizedCrossCorrelate: identical values into `out`
/// (caller-sized to the lag count, may be a Workspace real slot).
void NormalizedCrossCorrelateInto(std::span<const double> x,
                                  std::span<const double> y, Workspace& ws,
                                  std::span<double> out);

/// NormalizedCrossCorrelate(x, y.taps()) on the cached template path.
std::vector<double> NormalizedCrossCorrelate(std::span<const double> x,
                                             const CorrelationTemplate& y);

/// NormalizedCrossCorrelateInto(x, y.taps(), ...) on the cached
/// template path: identical values into `out`.
void NormalizedCrossCorrelateInto(std::span<const double> x,
                                  const CorrelationTemplate& y,
                                  Workspace& ws, std::span<double> out);

struct PeakResult {
  std::size_t index = 0;  ///< lag of the maximum score
  double score = 0.0;     ///< value at the maximum
};

/// Index and value of the maximum element. @throws if empty.
PeakResult FindPeak(std::span<const double> scores);

}  // namespace wearlock::dsp
