#include "audio/medium.h"

#include "dsp/filter.h"
#include "dsp/hilbert.h"
#include "dsp/resample.h"
#include "dsp/spl.h"

namespace wearlock::audio {

NoiseSource MakeAmbient(Environment environment,
                        const std::optional<NoiseProfile>& custom_noise,
                        sim::Rng rng) {
  if (custom_noise) return NoiseSource(*custom_noise, std::move(rng));
  return NoiseSource(environment, std::move(rng));
}

Samples ApplyPhaseJitter(Samples x, double phase_noise_rad,
                         double phase_noise_bw_hz, sim::Rng& rng) {
  if (phase_noise_rad <= 0.0 || x.empty()) return x;
  Samples theta = rng.GaussianVector(x.size());
  if (phase_noise_bw_hz > 0.0 && phase_noise_bw_hz < kSampleRate / 2.0) {
    wearlock::dsp::Biquad lpf =
        wearlock::dsp::Biquad::LowPass(phase_noise_bw_hz, kSampleRate);
    theta = lpf.ProcessBlock(theta);
  }
  ScaleToRms(theta, phase_noise_rad);
  return wearlock::dsp::RotatePhase(x, theta);
}

Samples ReceiverNoise(Samples ambient, const std::optional<ToneJammer>& jammer,
                      const MicrophoneModel& mic, sim::Rng& rng) {
  if (jammer) MixInto(ambient, jammer->Generate(ambient.size()));
  const double self_rms =
      wearlock::dsp::RmsFromSpl(mic.spec().self_noise_spl);
  MixInto(ambient, rng.GaussianVector(ambient.size(), self_rms));
  return ambient;
}

CaptureFrame FrameCapture(const Samples& at_rx, std::size_t lead_in,
                          std::size_t lead_out,
                          const std::function<Samples(std::size_t)>& bed) {
  CaptureFrame frame{bed(lead_in + at_rx.size() + lead_out)};
  frame.noise_spl = wearlock::dsp::SplOf(frame.pressure);
  MixIntoAt(frame.pressure, at_rx, lead_in);
  return frame;
}

AcousticChannel::AcousticChannel(ChannelConfig config, sim::Rng rng)
    : config_(std::move(config)),
      propagation_(config_.propagation),
      ambient_(MakeAmbient(config_.environment, config_.custom_noise,
                           rng.Fork())),
      rng_(std::move(rng)) {}

Reception AcousticChannel::Transmit(const Samples& signal, double volume) {
  // Speaker -> air -> receiver position.
  Samples at_rx = propagation_.Propagate(config_.speaker.Emit(signal, volume),
                                         config_.distance_m);
  // Doppler from receiver motion: uniform time compression/stretch.
  if (config_.radial_velocity_mps != 0.0) {
    const double rate = 1.0 + config_.radial_velocity_mps / kSpeedOfSound;
    at_rx = wearlock::dsp::WarpTimeLinear(at_rx, 1.0 / rate);
  }
  at_rx = ApplyPhaseJitter(std::move(at_rx), config_.phase_noise_rad,
                           config_.phase_noise_bw_hz, rng_);
  const CaptureFrame frame = FrameCapture(
      at_rx, config_.lead_in_samples, config_.lead_out_samples,
      [this](std::size_t n) {
        return ReceiverNoise(ambient_.Generate(n), jammer_,
                             config_.microphone, rng_);
      });
  return {config_.microphone.Capture(frame.pressure),
          config_.lead_in_samples, wearlock::dsp::SplOf(at_rx),
          frame.noise_spl};
}

}  // namespace wearlock::audio
