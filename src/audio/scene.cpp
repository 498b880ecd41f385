#include "audio/scene.h"

#include <cmath>
#include <stdexcept>
#include <string>

#include "audio/medium.h"
#include "dsp/spl.h"

namespace wearlock::audio {
namespace {

/// The Tg-vs-reverberation bound (paper SIII): the speaker keeps
/// radiating for ringing_tail_s after the input stops, and the frame's
/// guard interval must exceed that "largest reverberation length" or
/// the tail smears into the first OFDM symbol. Before this check the
/// bound lived only in a speaker.h comment and an oversized tail was
/// silently absorbed into the symbols.
void ValidateGuardBudget(const SceneConfig& config) {
  const std::size_t tail =
      SamplesFromSeconds(config.phone_speaker.spec().ringing_tail_s);
  if (tail > config.guard_budget_samples) {
    throw std::invalid_argument(
        "TwoMicScene: speaker ringing tail (" + std::to_string(tail) +
        " samples) exceeds the guard interval Tg (" +
        std::to_string(config.guard_budget_samples) +
        " samples); lengthen the guard or shorten the tail");
  }
}

}  // namespace

TwoMicScene::TwoMicScene(SceneConfig config, sim::Rng rng)
    : config_(config),
      propagation_(config.propagation),
      shared_ambient_(
          MakeAmbient(config.environment, config.custom_noise, rng.Fork())),
      watch_ambient_(
          MakeAmbient(config.environment, config.custom_noise, rng.Fork())),
      rng_(std::move(rng)) {
  ValidateGuardBudget(config_);
}

void TwoMicScene::ArmImpairments(const ImpairmentPlan& plan, sim::Rng rng,
                                 std::size_t rx_guard_samples) {
  impairments_.emplace(plan, std::move(rng), rx_guard_samples);
}

void TwoMicScene::AdvanceTimeMs(double ms) {
  if (impairments_ && ms > 0.0) {
    impairments_->AdvanceCursor(SamplesFromSeconds(ms / 1000.0));
  }
}

std::pair<Samples, Samples> TwoMicScene::NoiseBeds(std::size_t n,
                                                   bool watch_first) {
  Samples shared = shared_ambient_.Generate(n);
  Samples watch = config_.co_located ? shared : watch_ambient_.Generate(n);
  Samples phone;
  const auto phone_noise = [&] {
    phone = ReceiverNoise(std::move(shared), std::nullopt, config_.phone_mic,
                          rng_);
  };
  if (!watch_first) phone_noise();
  watch = ReceiverNoise(std::move(watch), jammer_, config_.watch_mic, rng_);
  if (watch_first) phone_noise();
  // Contending neighbors and noise bursts are environmental events:
  // both co-located mics hear the same waveform (the ambient-similarity
  // filter must keep working under contention).
  if (impairments_) {
    if (impairments_->has_neighbors()) {
      const Samples neighbor = impairments_->NeighborWaveform(n);
      MixInto(phone, neighbor);
      MixInto(watch, neighbor);
    }
    const Samples burst =
        impairments_->MaybeBurst(n, wearlock::dsp::Rms(watch));
    if (!burst.empty()) {
      MixInto(phone, burst);
      MixInto(watch, burst);
    }
    impairments_->AdvanceCursor(n);
  }
  return {std::move(phone), std::move(watch)};
}

SceneReception TwoMicScene::TransmitFromPhone(const Samples& signal,
                                              double volume) {
  const Samples emitted = config_.phone_speaker.Emit(signal, volume);

  // Watch side: propagate, jitter, then sit it in ambient noise.
  Samples at_watch = ApplyPhaseJitter(
      propagation_.Propagate(emitted, config_.distance_m),
      config_.phase_noise_rad, config_.phase_noise_bw_hz, rng_);
  if (impairments_) {
    // SRO/Doppler warp + room late field, as the watch's clock hears it.
    at_watch = impairments_->ApplyWatchPath(std::move(at_watch));
  }
  Samples phone_pressure;
  CaptureFrame watch = FrameCapture(
      at_watch, config_.lead_in_samples,
      config_.lead_out_samples +
          (impairments_ ? impairments_->rx_guard_samples() : 0),
      [&](std::size_t n) {
        std::pair<Samples, Samples> beds = NoiseBeds(n, /*watch_first=*/true);
        phone_pressure = std::move(beds.first);
        return std::move(beds.second);
      });

  // Phone side: its own mic is d0 from its speaker and records over the
  // watch's window.
  MixIntoAt(phone_pressure,
            propagation_.Propagate(emitted,
                                   propagation_.spec().reference_distance_m),
            config_.lead_in_samples);

  if (impairments_) {
    // The watch's capture window opened early by the accumulated clock
    // offset: content slides later, the tail past the window is lost.
    watch.pressure = impairments_->ShiftCaptureWindow(
        std::move(watch.pressure), config_.lead_in_samples);
  }

  return {.phone_recording = config_.phone_mic.Capture(phone_pressure),
          .watch_recording = config_.watch_mic.Capture(watch.pressure),
          .signal_start = config_.lead_in_samples,
          .watch_spl_signal = wearlock::dsp::SplOf(at_watch),
          .watch_spl_noise = watch.noise_spl};
}

std::pair<Samples, Samples> TwoMicScene::RecordAmbientPair(std::size_t n) {
  const auto [phone, watch] = NoiseBeds(n, /*watch_first=*/false);
  return {config_.phone_mic.Capture(phone), config_.watch_mic.Capture(watch)};
}

Samples TwoMicScene::RecordAtDistance(const Samples& signal, double volume,
                                      double eavesdropper_distance_m,
                                      const PropagationSpec& path,
                                      double gain_db) {
  const Samples emitted = config_.phone_speaker.Emit(signal, volume);
  Samples at_ear = ApplyPhaseJitter(
      PropagationModel(path).Propagate(emitted, eavesdropper_distance_m),
      config_.phase_noise_rad, config_.phase_noise_bw_hz, rng_);
  if (gain_db != 0.0) Scale(at_ear, std::pow(10.0, gain_db / 20.0));
  const CaptureFrame frame = FrameCapture(
      at_ear, config_.lead_in_samples, config_.lead_out_samples,
      [this](std::size_t n) {
        return ReceiverNoise(watch_ambient_.Generate(n), std::nullopt,
                             config_.phone_mic, rng_);
      });
  // Assume the attacker carries full-band recording gear.
  return MicrophoneModel::Phone().Capture(frame.pressure);
}

}  // namespace wearlock::audio
