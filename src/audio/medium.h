// The acoustic receive path: what a microphone in a room records of a
// transmitted signal. Both receivers in the simulator - AcousticChannel
// below (one TX -> RX path, used for modem-level experiments) and
// TwoMicScene (scene.h, the two-mic scene of an unlock attempt) - render
// through the four functions here, so the phase-jitter model, the
// ambient-source choice, the receiver noise and the capture framing are
// each decided once. AcousticChannel is what the paper's physical
// testbed (phone speaker, air, watch mic, ambient room) collapses into.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <utility>

#include "audio/microphone.h"
#include "audio/noise.h"
#include "audio/propagation.h"
#include "audio/signal.h"
#include "audio/speaker.h"
#include "sim/rng.h"

namespace wearlock::audio {

/// A receiver's ambient source: `custom_noise` when set (e.g. the
/// calibrated white-noise source used for the Fig. 5 Eb/N0 sweep), else
/// the environment's profile.
NoiseSource MakeAmbient(Environment environment,
                        const std::optional<NoiseProfile>& custom_noise,
                        sim::Rng rng);

/// Receive-chain phase jitter: rotates `x` by Gaussian phase noise,
/// low-passed to `phase_noise_bw_hz` (unfiltered at or above Nyquist)
/// and scaled to `phase_noise_rad` RMS. Models ADC clock jitter / hand
/// micro-Doppler: corrupts the phase dimension while leaving envelopes
/// nearly intact - the reason the paper's hardware favours ASK over PSK
/// per bit and cannot use 16QAM. The bandwidth sits above the symbol
/// rate, so per-symbol pilot equalization cannot fully track it. Draws
/// x.size() Gaussians from `rng` unless the jitter is off or `x` empty.
Samples ApplyPhaseJitter(Samples x, double phase_noise_rad,
                         double phase_noise_bw_hz, sim::Rng& rng);

/// The pressure a mic hears with no signal: `ambient`, plus the jammer
/// when one is set, plus `mic`'s self-noise drawn from `rng`.
Samples ReceiverNoise(Samples ambient, const std::optional<ToneJammer>& jammer,
                      const MicrophoneModel& mic, sim::Rng& rng);

/// A capture window as it reaches the mic.
struct CaptureFrame {
  Samples pressure;        ///< noise bed with the signal mixed in
  double noise_spl = 0.0;  ///< SPL of the noise bed alone
};

/// The capture framing every receiver shares: a window of `lead_in`
/// samples of noise bed, the received signal over the bed, then
/// `lead_out` more. `bed(n)` supplies the window's n samples of noise;
/// its SPL is taken before `at_rx` is mixed in after the lead-in.
CaptureFrame FrameCapture(const Samples& at_rx, std::size_t lead_in,
                          std::size_t lead_out,
                          const std::function<Samples(std::size_t)>& bed);

struct ChannelConfig {
  SpeakerModel speaker{};
  MicrophoneModel microphone = MicrophoneModel::Watch();
  PropagationSpec propagation = PropagationSpec::Los();
  double distance_m = 0.5;
  Environment environment = Environment::kQuietRoom;
  /// When set, overrides `environment` (see MakeAmbient).
  std::optional<NoiseProfile> custom_noise;
  /// Ambient noise recorded before the signal arrives (samples); gives
  /// the receiver material for noise-floor estimation and gives the
  /// protocol its pre-preamble ambient window.
  std::size_t lead_in_samples = 4096;
  std::size_t lead_out_samples = 1024;
  /// RMS (radians) and bandwidth (Hz) of the receive-chain phase jitter
  /// (see ApplyPhaseJitter).
  double phase_noise_rad = 0.04;
  double phase_noise_bw_hz = 600.0;
  /// Radial velocity of the receiver (m/s, positive = approaching).
  /// Walking while unlocking Doppler-shifts the whole signal by a factor
  /// (1 + v/c); the chirp preamble is chosen precisely because its
  /// correlation tolerates this (paper SIII-3).
  double radial_velocity_mps = 0.0;
};

/// Result of pushing a signal through the channel.
struct Reception {
  Samples recording;          ///< what the receiving mic captured
  std::size_t signal_start;   ///< ground-truth first sample of the signal
  double spl_signal_at_rx;    ///< SPL of the clean signal component
  double spl_noise_at_rx;     ///< SPL of the noise component
};

class AcousticChannel {
 public:
  AcousticChannel(ChannelConfig config, sim::Rng rng);

  /// Transmit `signal` at speaker `volume`; returns the receiver-side
  /// recording (lead-in noise + propagated signal + noise + lead-out).
  Reception Transmit(const Samples& signal, double volume);

  /// Install (or clear) a tone jammer audible at the receiver.
  void SetJammer(std::optional<ToneJammer> jammer) {
    jammer_ = std::move(jammer);
  }

 private:
  ChannelConfig config_;
  PropagationModel propagation_;
  NoiseSource ambient_;
  std::optional<ToneJammer> jammer_;
  sim::Rng rng_;
};

}  // namespace wearlock::audio
