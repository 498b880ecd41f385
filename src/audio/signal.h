// Mono PCM buffer type and elementwise helpers shared across the
// acoustic simulator and the modem.
#pragma once

#include <cstddef>
#include <vector>

namespace wearlock::audio {

/// Mono audio at the session sample rate; values are dimensionless
/// "digital pressure" (see dsp::kReferencePressure for SPL calibration).
using Samples = std::vector<double>;

/// The sampling rate used throughout the system (native rate of the
/// paper's devices).
inline constexpr double kSampleRate = 44100.0;

/// y += x (x may be shorter; added from offset 0). Grows y if x is longer.
void MixInto(Samples& y, const Samples& x);

/// y += x starting at sample `offset` in y; grows y if needed.
void MixIntoAt(Samples& y, const Samples& x, std::size_t offset);

/// Elementwise scale in place.
void Scale(Samples& x, double gain);

/// Scale in place to RMS `rms` (silent buffers stay silent).
void ScaleToRms(Samples& x, double rms);

/// Hard-clip to [-limit, limit] (speaker/mic saturation).
void Clip(Samples& x, double limit);

/// Concatenate b onto a.
void Append(Samples& a, const Samples& b);

/// A silent buffer of n samples.
Samples Silence(std::size_t n);

/// Seconds -> whole samples at kSampleRate (rounded).
std::size_t SamplesFromSeconds(double seconds);

}  // namespace wearlock::audio
