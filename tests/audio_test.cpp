// Acoustic hardware/channel model tests: signal ops, speaker,
// microphone, propagation, noise sources, jammer, channel, scene.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <iterator>
#include <numbers>
#include <string>
#include <vector>

#include "audio/medium.h"
#include "audio/scene.h"
#include "dsp/checksum.h"
#include "dsp/fft.h"
#include "dsp/spl.h"
#include "sim/rng.h"

namespace wearlock::audio {
namespace {

Samples Tone(double freq_hz, std::size_t n, double amplitude = 1.0) {
  Samples x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = amplitude * std::sin(2.0 * std::numbers::pi * freq_hz *
                                static_cast<double>(i) / kSampleRate);
  }
  return x;
}

// ---------------------------------------------------------------- signal
TEST(Signal, MixGrowsAndAdds) {
  Samples y = {1.0, 1.0};
  MixIntoAt(y, {0.5, 0.5}, 1);
  ASSERT_EQ(y.size(), 3u);
  EXPECT_EQ(y[0], 1.0);
  EXPECT_EQ(y[1], 1.5);
  EXPECT_EQ(y[2], 0.5);
}

TEST(Signal, ScaleClipAppend) {
  Samples x = {0.5, -2.0};
  Scale(x, 2.0);
  EXPECT_EQ(x[0], 1.0);
  Clip(x, 1.5);
  EXPECT_EQ(x[1], -1.5);
  Append(x, {3.0});
  EXPECT_EQ(x.size(), 3u);
  EXPECT_EQ(SamplesFromSeconds(1.0), 44100u);
}

// --------------------------------------------------------------- speaker
TEST(Speaker, VolumeControlsSpl) {
  const SpeakerModel speaker;
  EXPECT_NEAR(speaker.SplAtVolume(1.0), speaker.spec().max_spl_at_d0, 1e-9);
  EXPECT_NEAR(speaker.SplAtVolume(0.5), speaker.spec().max_spl_at_d0 - 6.02, 0.01);
  EXPECT_NEAR(speaker.VolumeForSpl(speaker.spec().max_spl_at_d0 - 20.0), 0.1,
              1e-6);
  EXPECT_EQ(speaker.VolumeForSpl(200.0), 1.0);  // clamped
}

TEST(Speaker, EmittedSplMatchesRating) {
  const SpeakerModel speaker;
  const Samples out = speaker.Emit(Tone(1000.0, 44100), 1.0);
  // Full-scale sine at volume 1 -> max_spl_at_d0 (ripple/ringing alter it
  // slightly).
  EXPECT_NEAR(wearlock::dsp::SplOf(out), speaker.spec().max_spl_at_d0, 1.5);
}

TEST(Speaker, RingingExtendsOutput) {
  const SpeakerModel speaker;
  const Samples out = speaker.Emit(Tone(2000.0, 1000), 0.5);
  EXPECT_GT(out.size(), 1000u);
  // Tail must decay, not ring forever.
  double tail_peak = 0.0;
  for (std::size_t i = out.size() - 50; i < out.size(); ++i) {
    tail_peak = std::max(tail_peak, std::abs(out[i]));
  }
  double body_peak = 0.0;
  for (std::size_t i = 400; i < 600; ++i) {
    body_peak = std::max(body_peak, std::abs(out[i]));
  }
  EXPECT_LT(tail_peak, 0.05 * body_peak);
}

TEST(Speaker, RiseEffectSoftensOnset) {
  SpeakerSpec spec;
  spec.phase_ripple_rad = 0.0;  // isolate the rise envelope
  const SpeakerModel speaker(spec);
  const Samples out = speaker.Emit(Samples(500, 1.0), 1.0);
  EXPECT_LT(std::abs(out[0]), std::abs(out[300]) * 0.2);
}

TEST(Speaker, VolumeOutOfRangeThrows) {
  const SpeakerModel speaker;
  EXPECT_THROW(speaker.Emit({1.0}, -0.1), std::invalid_argument);
  EXPECT_THROW(speaker.Emit({1.0}, 1.1), std::invalid_argument);
}

// ------------------------------------------------------------ microphone
TEST(Microphone, WatchLowPassKillsNearUltrasound) {
  const MicrophoneModel watch = MicrophoneModel::Watch();
  // "the signal fades significantly from 5kHz to 7kHz".
  EXPECT_GT(watch.ResponseAt(3000.0), 0.9);
  EXPECT_GT(watch.ResponseAt(5000.0), 0.6);
  EXPECT_LT(watch.ResponseAt(7000.0), 0.5);
  EXPECT_LT(watch.ResponseAt(16000.0), 0.02);
}

TEST(Microphone, PhoneIsFullBand) {
  const MicrophoneModel phone = MicrophoneModel::Phone();
  EXPECT_NEAR(phone.ResponseAt(18000.0), 1.0, 1e-9);
}

TEST(Microphone, CaptureAppliesFilterAndClip) {
  const MicrophoneModel watch = MicrophoneModel::Watch();
  const Samples in = Tone(16000.0, 4096, 1.0);
  const Samples out = watch.Capture(in);
  EXPECT_LT(wearlock::dsp::Rms(out), 0.05 * wearlock::dsp::Rms(in));
  // Clipping.
  const MicrophoneModel phone = MicrophoneModel::Phone();
  const Samples clipped = phone.Capture(Samples(10, 100.0));
  for (double v : clipped) EXPECT_LE(std::abs(v), phone.spec().clip_level);
}

// ----------------------------------------------------------- propagation
TEST(Propagation, SixDbPerDoubling) {
  const PropagationModel prop{PropagationSpec::Los()};
  EXPECT_NEAR(prop.LossDbAt(0.2), 6.02, 0.01);
  EXPECT_NEAR(prop.LossDbAt(0.4), 12.04, 0.01);
  EXPECT_NEAR(prop.GainAt(0.1), 1.0, 1e-9);
}

TEST(Propagation, DelayMatchesSpeedOfSound) {
  const PropagationModel prop{PropagationSpec::Los()};
  Samples impulse(10, 0.0);
  impulse[0] = 1.0;
  const Samples out = prop.Propagate(impulse, 1.0);
  // 1 m / 343 m/s * 44100 ~ 128.6 samples.
  double peak = 0.0;
  std::size_t peak_at = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (std::abs(out[i]) > peak) {
      peak = std::abs(out[i]);
      peak_at = i;
    }
  }
  EXPECT_NEAR(static_cast<double>(peak_at), 128.6, 2.0);
}

TEST(Propagation, NlosSpreadsEnergy) {
  const PropagationModel los{PropagationSpec::Los()};
  const PropagationModel nlos{PropagationSpec::BodyBlockedNlos()};
  Samples impulse(10, 0.0);
  impulse[0] = 1.0;
  const Samples out_los = los.Propagate(impulse, 0.5);
  const Samples out_nlos = nlos.Propagate(impulse, 0.5);
  EXPECT_GT(out_nlos.size(), out_los.size());  // late reflections
  // Direct tap much weaker under body blocking.
  double los_peak = 0.0, nlos_peak = 0.0;
  for (double v : out_los) los_peak = std::max(los_peak, std::abs(v));
  for (double v : out_nlos) nlos_peak = std::max(nlos_peak, std::abs(v));
  EXPECT_LT(nlos_peak, 0.5 * los_peak);
}

TEST(Propagation, RejectsTooClose) {
  const PropagationModel prop{PropagationSpec::Los()};
  EXPECT_THROW(prop.Propagate({1.0}, 0.01), std::invalid_argument);
}

// ----------------------------------------------------------------- noise
TEST(Noise, CalibratedSpl) {
  sim::Rng rng(31);
  for (Environment env :
       {Environment::kQuietRoom, Environment::kOffice, Environment::kCafe}) {
    NoiseSource source(env, rng.Fork());
    const Samples noise = source.Generate(44100);
    EXPECT_NEAR(wearlock::dsp::SplOf(noise), NoiseProfile::For(env).spl_db, 0.5)
        << ToString(env);
  }
}

TEST(Noise, EnvironmentOrdering) {
  // Quiet room is the paper's 15-20 dB reference; everything else louder.
  const double quiet = NoiseProfile::For(Environment::kQuietRoom).spl_db;
  EXPECT_GE(quiet, 15.0);
  EXPECT_LE(quiet, 20.0);
  EXPECT_GT(NoiseProfile::For(Environment::kOffice).spl_db, quiet);
  EXPECT_GT(NoiseProfile::For(Environment::kCafe).spl_db,
            NoiseProfile::For(Environment::kOffice).spl_db);
}

TEST(Noise, JammerHitsRequestedBins) {
  const ToneJammer jammer({20, 24}, 256, 60.0);
  const Samples jam = jammer.Generate(8192);
  EXPECT_NEAR(wearlock::dsp::SplOf(jam), 60.0, 0.5);
  // Spectral check: energy concentrated at bins 20/24 of a 256-FFT.
  std::vector<double> window(jam.begin(), jam.begin() + 256);
  const auto spec = wearlock::dsp::FftReal(window);
  const double jammed = std::norm(spec[20]) + std::norm(spec[24]);
  double elsewhere = 0.0;
  for (std::size_t k = 1; k < 128; ++k) {
    if (k != 20 && k != 24) elsewhere += std::norm(spec[k]);
  }
  EXPECT_GT(jammed, 10.0 * elsewhere);
}

TEST(Noise, JammerLimits) {
  EXPECT_THROW(ToneJammer({1, 2, 3, 4, 5, 6, 7}, 256, 50.0),
               std::invalid_argument);
  EXPECT_THROW(ToneJammer({1}, 0, 50.0), std::invalid_argument);
  const ToneJammer silent({}, 256, 50.0);
  for (double v : silent.Generate(100)) EXPECT_EQ(v, 0.0);
}

// --------------------------------------------------------------- channel
TEST(Channel, ReceptionGeometry) {
  sim::Rng rng(32);
  ChannelConfig config;
  config.distance_m = 0.5;
  AcousticChannel channel(config, std::move(rng));
  const Samples signal = Tone(3000.0, 2000, 0.5);
  const Reception r = channel.Transmit(signal, 0.8);
  EXPECT_EQ(r.signal_start, config.lead_in_samples);
  EXPECT_GT(r.recording.size(),
            config.lead_in_samples + signal.size() + config.lead_out_samples - 1);
  EXPECT_GT(r.spl_signal_at_rx, r.spl_noise_at_rx);  // quiet room, close
}

TEST(Channel, SplFallsWithDistance) {
  ChannelConfig config;
  const Samples signal = Tone(3000.0, 2000, 0.5);
  sim::Rng rng(33);
  config.distance_m = 0.2;
  AcousticChannel near(config, rng.Fork());
  config.distance_m = 1.6;
  AcousticChannel far(config, rng.Fork());
  const double spl_near = near.Transmit(signal, 0.8).spl_signal_at_rx;
  const double spl_far = far.Transmit(signal, 0.8).spl_signal_at_rx;
  // 0.2 -> 1.6 m: 3 doublings ~ 18 dB (multipath perturbs slightly).
  EXPECT_NEAR(spl_near - spl_far, 18.0, 2.5);
}

// ----------------------------------------------------------------- scene
TEST(Scene, CoLocatedAmbientIsShared) {
  SceneConfig config;
  config.co_located = true;
  TwoMicScene scene(config, sim::Rng(34));
  const auto [phone, watch] = scene.RecordAmbientPair(8192);
  // Correlation of the raw ambient windows (normalized dot at lag 0).
  double dot = 0.0, ep = 0.0, ew = 0.0;
  for (std::size_t i = 0; i < phone.size(); ++i) {
    dot += phone[i] * watch[i];
    ep += phone[i] * phone[i];
    ew += watch[i] * watch[i];
  }
  EXPECT_GT(dot / std::sqrt(ep * ew), 0.7);
}

TEST(Scene, SeparatedAmbientIsIndependent) {
  SceneConfig config;
  config.co_located = false;
  TwoMicScene scene(config, sim::Rng(35));
  const auto [phone, watch] = scene.RecordAmbientPair(8192);
  double dot = 0.0, ep = 0.0, ew = 0.0;
  for (std::size_t i = 0; i < phone.size(); ++i) {
    dot += phone[i] * watch[i];
    ep += phone[i] * phone[i];
    ew += watch[i] * watch[i];
  }
  EXPECT_LT(std::abs(dot) / std::sqrt(ep * ew), 0.3);
}

TEST(Scene, PhoneSelfRecordingIsLouderThanWatch) {
  SceneConfig config;
  config.distance_m = 0.8;
  TwoMicScene scene(config, sim::Rng(36));
  const auto r = scene.TransmitFromPhone(Tone(3000.0, 2000, 0.5), 0.5);
  // The phone's own mic sits at d0; the watch is 0.8 m away.
  Samples phone_sig(r.phone_recording.begin() + 4096,
                    r.phone_recording.begin() + 6000);
  Samples watch_sig(r.watch_recording.begin() + 4096,
                    r.watch_recording.begin() + 6000);
  EXPECT_GT(wearlock::dsp::SplOf(phone_sig),
            wearlock::dsp::SplOf(watch_sig) + 10.0);
}

TEST(Scene, EavesdropperHearsLessFurtherAway) {
  SceneConfig config;
  TwoMicScene scene(config, sim::Rng(37));
  const Samples signal = Tone(3000.0, 2000, 0.5);
  const Samples near = scene.RecordAtDistance(signal, 0.8, 0.3,
                                              PropagationSpec::Los());
  const Samples far = scene.RecordAtDistance(signal, 0.8, 2.4,
                                             PropagationSpec::Los());
  Samples near_sig(near.begin() + 4096, near.begin() + 6000);
  Samples far_sig(far.begin() + 4096, far.begin() + 6000);
  EXPECT_GT(wearlock::dsp::SplOf(near_sig), wearlock::dsp::SplOf(far_sig) + 12.0);
}


// ------------------------------------------------------ receive-path pins
// Bit-exact fingerprints of every recording the acoustic receive chain
// returns: AcousticChannel::Transmit and the scene's TransmitFromPhone
// (both mics), RecordAmbientPair and RecordAtDistance. The
// configurations take every branch of the chain - jammer, custom noise,
// Doppler warp, jitter off and jitter unfiltered, separated mics, armed
// impairments with neighbors and a firing burst, directional gain - and
// the scenes are driven through a sequence of captures, so the order of
// the Rng draws and of the noise sums is part of the pinned bits. Each
// row hashes the recording followed by the SPLs it reports (if any).
struct Pin {
  std::string name;
  std::uint64_t checksum;
};

std::uint64_t Fingerprint(Samples recording, std::initializer_list<double> spls) {
  recording.insert(recording.end(), spls);
  return wearlock::dsp::ChecksumDoubles(recording);
}

std::vector<Pin> RenderReceivePaths() {
  const Samples signal = Tone(3000.0, 3000, 0.5);
  NoiseProfile white;
  white.spl_db = 40.0;
  white.broadband_mix = 1.0;
  const ToneJammer jammer({24, 31}, 256, 45.0);
  std::vector<Pin> pins;
  const auto channel = [&](const std::string& name, ChannelConfig config,
                           bool jam, std::uint64_t seed) {
    AcousticChannel ch(std::move(config), sim::Rng(seed));
    if (jam) ch.SetJammer(jammer);
    for (int i = 0; i < 2; ++i) {
      const Reception r = ch.Transmit(signal, 0.6);
      pins.push_back({name + "#" + std::to_string(i),
                      Fingerprint(r.recording, {r.spl_signal_at_rx,
                                                r.spl_noise_at_rx})});
    }
  };
  ChannelConfig c;
  channel("channel.default", c, false, 101);
  c.custom_noise = white;
  c.radial_velocity_mps = 1.3;
  channel("channel.jam_custom_doppler", c, true, 102);
  c = ChannelConfig{};
  c.phase_noise_rad = 0.0;
  channel("channel.no_jitter", c, false, 103);
  c = ChannelConfig{};
  c.phase_noise_bw_hz = kSampleRate / 2.0;
  c.environment = Environment::kCafe;
  channel("channel.unfiltered_jitter", c, true, 104);

  const auto scene = [&](const std::string& name, SceneConfig config,
                         bool jam, const std::string& impairments,
                         std::uint64_t seed) {
    TwoMicScene s(std::move(config), sim::Rng(seed));
    if (jam) s.SetJammer(jammer);
    if (!impairments.empty()) {
      s.ArmImpairments(ImpairmentPlan::Parse(impairments), sim::Rng(seed + 1),
                       512);
    }
    for (int i = 0; i < 2; ++i) {
      const std::string at = "#" + std::to_string(i);
      const auto [phone, watch] = s.RecordAmbientPair(6000);
      pins.push_back({name + ".ambient_phone" + at, Fingerprint(phone, {})});
      pins.push_back({name + ".ambient_watch" + at, Fingerprint(watch, {})});
      const SceneReception r = s.TransmitFromPhone(signal, 0.6);
      pins.push_back({name + ".tx_phone" + at,
                      Fingerprint(r.phone_recording, {})});
      pins.push_back({name + ".tx_watch" + at,
                      Fingerprint(r.watch_recording,
                                  {r.watch_spl_signal, r.watch_spl_noise})});
      pins.push_back({name + ".eavesdrop" + at,
                      Fingerprint(s.RecordAtDistance(
                                      signal, 0.6, 1.5,
                                      PropagationSpec::BodyBlockedNlos(), 0.0),
                                  {})});
      pins.push_back({name + ".eavesdrop_gain" + at,
                      Fingerprint(s.RecordAtDistance(
                                      signal, 0.6, 3.0,
                                      PropagationSpec::Los(), 12.0),
                                  {})});
      s.AdvanceTimeMs(40.0);
    }
    if (!impairments.empty()) {
      bool burst = false;
      for (const ChannelEvent& e : s.impairments()->events()) {
        burst = burst || e.kind == "burst";
      }
      EXPECT_TRUE(burst) << name << ": the armed burst never fired";
    }
  };
  SceneConfig sc;
  scene("scene.default", sc, false, "", 201);
  sc.custom_noise = white;
  scene("scene.jam_custom", sc, true, "", 202);
  sc = SceneConfig{};
  sc.co_located = false;
  sc.environment = Environment::kOffice;
  scene("scene.separated_impaired", sc, true,
        "sro=60,reverb=250,pairs=2,burst=1.0x10", 203);
  sc = SceneConfig{};
  sc.phase_noise_rad = 0.0;
  scene("scene.no_jitter", sc, false, "pairs=1,burst=1.0", 204);
  sc = SceneConfig{};
  sc.phase_noise_bw_hz = kSampleRate;
  scene("scene.unfiltered_jitter", sc, true, "", 205);
  return pins;
}

// Regenerate only for an intended model change: the failure message
// prints the table in source form.
const Pin kReceivePathPins[] = {
    {"channel.default#0", 0x556a2430fc282b80ull},
    {"channel.default#1", 0x5562fdf7b4ff576cull},
    {"channel.jam_custom_doppler#0", 0xe378e54c16a4c06dull},
    {"channel.jam_custom_doppler#1", 0x672a66349575d1f4ull},
    {"channel.no_jitter#0", 0xc9c564c209e49803ull},
    {"channel.no_jitter#1", 0xb4741c8c9e63b4e8ull},
    {"channel.unfiltered_jitter#0", 0xb648e477082de3f2ull},
    {"channel.unfiltered_jitter#1", 0xe5a6a49d0db4501bull},
    {"scene.default.ambient_phone#0", 0x9b8e8e3c82a840e3ull},
    {"scene.default.ambient_watch#0", 0x8c6d5dcacf4e0359ull},
    {"scene.default.tx_phone#0", 0x590e340a2fb7b7d5ull},
    {"scene.default.tx_watch#0", 0xea20d58f53f2851eull},
    {"scene.default.eavesdrop#0", 0x9cf1e884170a14f4ull},
    {"scene.default.eavesdrop_gain#0", 0xd40b4cf7684db0c3ull},
    {"scene.default.ambient_phone#1", 0x6c67a459a2214029ull},
    {"scene.default.ambient_watch#1", 0x429917f904001bdbull},
    {"scene.default.tx_phone#1", 0xec15518e75657e47ull},
    {"scene.default.tx_watch#1", 0xc859d480398c08c9ull},
    {"scene.default.eavesdrop#1", 0x7ddf19292336331dull},
    {"scene.default.eavesdrop_gain#1", 0x533a2c731af9cab5ull},
    {"scene.jam_custom.ambient_phone#0", 0x0a3050e4807498f2ull},
    {"scene.jam_custom.ambient_watch#0", 0xeca778154bea6ba0ull},
    {"scene.jam_custom.tx_phone#0", 0xe0c28262cd8f6e6eull},
    {"scene.jam_custom.tx_watch#0", 0xce9849251c13a7b1ull},
    {"scene.jam_custom.eavesdrop#0", 0x0e1b2fdda48c8b35ull},
    {"scene.jam_custom.eavesdrop_gain#0", 0x760855956225d0eaull},
    {"scene.jam_custom.ambient_phone#1", 0xe8b229973f2ee690ull},
    {"scene.jam_custom.ambient_watch#1", 0x5a3c326a2a62aabcull},
    {"scene.jam_custom.tx_phone#1", 0x91660c9bda82e67cull},
    {"scene.jam_custom.tx_watch#1", 0xeb0ba151609dd479ull},
    {"scene.jam_custom.eavesdrop#1", 0x4c308d945a577644ull},
    {"scene.jam_custom.eavesdrop_gain#1", 0x57a9e97a2286be73ull},
    {"scene.separated_impaired.ambient_phone#0", 0xfe148803bcbe7e8aull},
    {"scene.separated_impaired.ambient_watch#0", 0xad15f067224e3e45ull},
    {"scene.separated_impaired.tx_phone#0", 0xc32b708712b59992ull},
    {"scene.separated_impaired.tx_watch#0", 0xae9eeaf230522b3full},
    {"scene.separated_impaired.eavesdrop#0", 0x2aaf88618bf91ab8ull},
    {"scene.separated_impaired.eavesdrop_gain#0", 0x5c90e34db09055c7ull},
    {"scene.separated_impaired.ambient_phone#1", 0xe74e2692295770e4ull},
    {"scene.separated_impaired.ambient_watch#1", 0x7f0266528656e0ecull},
    {"scene.separated_impaired.tx_phone#1", 0x97c6e0a161c88dbbull},
    {"scene.separated_impaired.tx_watch#1", 0x35250a2ee3f7cd03ull},
    {"scene.separated_impaired.eavesdrop#1", 0x8d38166a00d41861ull},
    {"scene.separated_impaired.eavesdrop_gain#1", 0x72b979ad13c03770ull},
    {"scene.no_jitter.ambient_phone#0", 0x5e2ab54cb6991234ull},
    {"scene.no_jitter.ambient_watch#0", 0xf4669a3da7370082ull},
    {"scene.no_jitter.tx_phone#0", 0x50cd93aa85d4cea5ull},
    {"scene.no_jitter.tx_watch#0", 0x37fa124bc63cd79dull},
    {"scene.no_jitter.eavesdrop#0", 0x3121f548b15355faull},
    {"scene.no_jitter.eavesdrop_gain#0", 0xfdbc53f65da14eccull},
    {"scene.no_jitter.ambient_phone#1", 0x30fc2cf5bbb78340ull},
    {"scene.no_jitter.ambient_watch#1", 0x4a985a5c17d8feb9ull},
    {"scene.no_jitter.tx_phone#1", 0xa0f6b1642f4002c8ull},
    {"scene.no_jitter.tx_watch#1", 0x8055c2171637f2e8ull},
    {"scene.no_jitter.eavesdrop#1", 0x4f1c8234b96e4f93ull},
    {"scene.no_jitter.eavesdrop_gain#1", 0xb64e41f84ebe70e0ull},
    {"scene.unfiltered_jitter.ambient_phone#0", 0xb7d0950f8ff58cf9ull},
    {"scene.unfiltered_jitter.ambient_watch#0", 0x390d2260241a06c3ull},
    {"scene.unfiltered_jitter.tx_phone#0", 0x7a5c0ea8556b1451ull},
    {"scene.unfiltered_jitter.tx_watch#0", 0x86482cfef701daf9ull},
    {"scene.unfiltered_jitter.eavesdrop#0", 0xc60e06de2a0effa2ull},
    {"scene.unfiltered_jitter.eavesdrop_gain#0", 0x64bc62a683bdb3e1ull},
    {"scene.unfiltered_jitter.ambient_phone#1", 0x7e7eea41c2e3511bull},
    {"scene.unfiltered_jitter.ambient_watch#1", 0x96b3d3fa77d73bd3ull},
    {"scene.unfiltered_jitter.tx_phone#1", 0x44edb7c93f2b9fb0ull},
    {"scene.unfiltered_jitter.tx_watch#1", 0xa4a5473a90c99db6ull},
    {"scene.unfiltered_jitter.eavesdrop#1", 0xdb3602054859937bull},
    {"scene.unfiltered_jitter.eavesdrop_gain#1", 0xc991f0d34d7d3512ull},
};

std::string PinTable(const Pin* pins, std::size_t n) {
  std::string table;
  for (std::size_t i = 0; i < n; ++i) {
    char line[128];
    std::snprintf(line, sizeof line, "    {\"%s\", 0x%016llxull},\n",
                  pins[i].name.c_str(),
                  static_cast<unsigned long long>(pins[i].checksum));
    table += line;
  }
  return table;
}

TEST(ReceivePath, EveryRecordingMatchesItsPin) {
  const std::vector<Pin> actual = RenderReceivePaths();
  EXPECT_EQ(PinTable(kReceivePathPins, std::size(kReceivePathPins)),
            PinTable(actual.data(), actual.size()));
}

}  // namespace
}  // namespace wearlock::audio
