#include "protocol/attempt_machine.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>
#include <tuple>
#include <utility>

#include "dsp/spl.h"
#include "modem/coding.h"
#include "modem/drift.h"
#include "modem/snr.h"
#include "obs/instrument.h"
#include "obs/log.h"
#include "protocol/acoustic_mac.h"

namespace wearlock::protocol {
namespace {

sim::Millis AudioMs(std::size_t samples) {
  return static_cast<double>(samples) / audio::kSampleRate * 1000.0;
}

std::string Fmt(double v, int prec = 2) {
  std::ostringstream oss;
  oss.setf(std::ios::fixed);
  oss.precision(prec);
  oss << v;
  return oss.str();
}

#if WEARLOCK_OBS_ENABLED
// Token BER lives in [0, 1]; bound finely near the accept thresholds.
std::vector<double> BerBounds() {
  return wearlock::obs::Histogram::LinearBounds(0.025, 0.025, 20);
}

// Attribute per-bit token errors to the sub-channels that carried them:
// within each OFDM symbol, consecutive groups of log2(M) bits map to
// the plan's data bins in ascending-frequency order (the demodulator's
// demap order).
void RecordSubchannelBer(const modem::SubchannelPlan& plan,
                         modem::Modulation mode,
                         const std::vector<std::uint8_t>& received,
                         const std::vector<std::uint8_t>& expected) {
  const std::size_t bps = modem::BitsPerSymbol(mode);
  std::vector<std::size_t> bins = plan.data;
  std::sort(bins.begin(), bins.end());
  const std::size_t bits_per_ofdm = bins.size() * bps;
  if (bits_per_ofdm == 0) return;
  const std::size_t n = std::min(received.size(), expected.size());
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t bin = bins[(i % bits_per_ofdm) / bps];
    const std::string prefix = "modem.subchannel." + std::to_string(bin);
    WL_COUNT(prefix + ".bits");
    if ((received[i] & 1) != (expected[i] & 1)) WL_COUNT(prefix + ".errors");
  }
}
#endif

}  // namespace

AttemptMachine::AttemptMachine(const PhoneConfig& config, OtpService* otp,
                               Keyguard* keyguard, std::uint64_t session_id,
                               audio::TwoMicScene& scene,
                               WatchController& watch, sim::WirelessLink& link,
                               sensors::MotionPair motion,
                               OffloadPlanner offload, sim::VirtualClock& clock,
                               AttackInjection attack,
                               sim::FaultInjector* faults,
                               sim::EventQueue& queue, AttemptHooks hooks)
    : config_(config),
      otp_(otp),
      keyguard_(keyguard),
      session_id_(session_id),
      scene_(scene),
      watch_(watch),
      link_(link),
      motion_(std::move(motion)),
      offload_(offload),
      clock_(clock),
      attack_(std::move(attack)),
      inert_faults_(sim::FaultPlan{}, sim::Rng(0), &clock),
      faults_(faults ? *faults : inert_faults_),
      // Campaign mode (force_transmit) stays single-shot so the Table-I
      // style raw-channel BER measurements are unaffected.
      resilient_(faults && !config.force_transmit),
      chan_(scene.impairments()),
      hardened_(config.channel.enable && chan_ != nullptr),
      queue_(queue),
      hooks_(std::move(hooks)) {}

void AttemptMachine::Start() {
  root_ = Run();  // lazy: no protocol code runs until the slice fires
  const std::coroutine_handle<> handle = root_.handle();
  // Unconditional, like every slice: nothing ever cancels one.
  (void)queue_.ScheduleAfter(0.0, [this, handle] { ResumeSlice(handle); });
}

void AttemptMachine::ScheduleResume(sim::Millis ms,
                                    std::coroutine_handle<> handle) {
  (void)queue_.ScheduleAfter(ms, [this, ms, handle] {
    // The session's own clock carries the session's own waits - never
    // the queue's global time, which co-tenant sessions also advance.
    clock_.Advance(ms);
    ResumeSlice(handle);
  });
}

void AttemptMachine::ResumeSlice(std::coroutine_handle<> handle) {
  {
    // Observability is ambient (thread-local); under multiplexing each
    // slice reinstalls this session's sinks so interleaved sessions
    // never mix samples. Null hooks (the synchronous shim) leave the
    // caller's installs in effect.
    std::optional<obs::ScopedTracer> install_tracer;
    std::optional<obs::ScopedMetricsRegistry> install_metrics;
    if (hooks_.tracer != nullptr) install_tracer.emplace(hooks_.tracer);
    if (hooks_.metrics != nullptr) install_metrics.emplace(hooks_.metrics);
    handle.resume();
  }
  if (root_.done() && !notified_) {
    done_ = true;
    notified_ = true;
    if (hooks_.on_done) {
      const std::function<void()> on_done = std::move(hooks_.on_done);
      on_done();  // may schedule new work; must not destroy the machine
    }
  }
}

UnlockReport AttemptMachine::TakeReport() {
  root_.Take();  // rethrows the protocol body's exception, if any
  return std::move(report_);
}

sim::CoTask<> AttemptMachine::Run() {
  const UnlockReport& report = report_;
  WL_SPAN_V(root, "session.attempt");
  WL_COUNT("protocol.attempt.calls");
  co_await RunStages();
  {
    WL_SPAN_V(verdict, "session.verdict");
    WL_SPAN_ATTR(verdict, "outcome", ToString(report.outcome));
    WL_SPAN_ATTR(verdict, "unlocked", report.unlocked ? 1.0 : 0.0);
  }
  WL_SPAN_ATTR(root, "outcome", ToString(report.outcome));
  WL_SPAN_ATTR(root, "offload_site", ToString(offload_.site));
  WL_COUNT("protocol.attempt.outcome." + ToString(report.outcome));
  WL_HIST("protocol.attempt.total_ms", report.timings.total_ms());
  WL_HIST("protocol.phase1.audio_ms", report.timings.phase1_audio_ms);
  WL_HIST("protocol.phase1.comm_ms", report.timings.phase1_comm_ms);
  WL_HIST("protocol.phase1.compute_ms", report.timings.phase1_compute_ms);
  WL_HIST("protocol.phase2.audio_ms", report.timings.phase2_audio_ms);
  WL_HIST("protocol.phase2.comm_ms", report.timings.phase2_comm_ms);
  WL_HIST("protocol.phase2.compute_ms", report.timings.phase2_compute_ms);
  WL_HIST("protocol.attempt.watch_energy_mj", report.watch_energy_mj);
  WL_HIST("protocol.attempt.phone_energy_mj", report.phone_energy_mj);
  if (report.unlocked) {
    WL_COUNT("protocol.attempt.unlocked");
    WL_SERIES("protocol.unlock.total_ms", report.timings.total_ms());
  }
  obs::Log(obs::LogLevel::kDebug, "protocol.phone",
           "attempt finished: " + ToString(report.outcome));
}

sim::CoTask<> AttemptMachine::RunStages() {
  if (LinkCheck()) co_return;
  modem::AcousticModem modem(config_.frame, config_.demod);
  if (co_await RtsCts()) co_return;
  ProbeResult probed;
  if (co_await ProbeStage(modem, probed)) co_return;
  double required_ber = config_.adaptive.max_ber;
  bool skip_phase2 = false;
  if (Filters(probed, required_ber, skip_phase2) || RangeGate()) co_return;
  if (co_await DistanceBounding()) co_return;
  if (skip_phase2) {
    // Algorithm 1 fast path: motion similarity alone vouches for
    // co-location; skip the acoustic token round.
    Unlock();
    co_return;
  }
  Phase2Config p2;
  if (co_await SelectMode(modem, *probed.probe, required_ber, p2)) co_return;
  co_await Phase2Rounds(modem, p2, required_ber);
}

AttemptMachine::StageResult AttemptMachine::LinkCheck() {
  if (!keyguard_->CanAttemptWearlock()) return Fail(UnlockOutcome::kLockedOut);
  // A flap scheduled during an earlier attempt may have elapsed during
  // the inter-attempt backoff; recover before the link check.
  faults_.MaybeReconnect(link_);
  // Filter 0: no wireless link, no WearLock (cheapest possible skip).
  {
    WL_SPAN("phase1.link_check");
    if (!link_.connected()) {
      return Fail(UnlockOutcome::kNoWirelessLink, "link-check",
                  "no wireless link, aborting");
    }
  }
  Trace("link-check", "wireless link up");
  return std::nullopt;
}

// --- Phase 1: channel probing ----------------------------------------
// Start message + watch ack.
AttemptMachine::Stage AttemptMachine::RtsCts() {
  WL_SPAN("phase1.rts_cts");
  // RTS out, CTS back - each leg individually subject to faults.
  for (int leg = 0; leg < 2; ++leg) {
    if (auto fail = co_await Send("rts", report_.timings.phase1_comm_ms)) {
      co_return Fail(*fail, "rts-cts",
                     "control channel failed: " + ToString(*fail));
    }
  }
  co_return std::nullopt;
}

AttemptMachine::Stage AttemptMachine::ProbeStage(
    const modem::AcousticModem& modem, ProbeResult& probed) {
  UnlockReport& report = report_;
  // Phone self-records a short ambient window to size the probe volume
  // (paper: "The noise level is also used to set proper speaker volume").
  const std::size_t ambient_n =
      audio::SamplesFromSeconds(config_.ambient_window_s);
  WL_SPAN_V(ambient_span, "phase1.ambient_record");
  std::tie(probed.phone_ambient, probed.watch_ambient) =
      scene_.RecordAmbientPair(ambient_n);
  report.timings.phase1_audio_ms += AudioMs(ambient_n);
  co_await Charge(AudioMs(ambient_n));
  report.ambient_spl_db = dsp::SplOf(probed.phone_ambient);
  WL_SPAN_ATTR(ambient_span, "ambient_spl_db", report.ambient_spl_db);
  WL_SPAN_END(ambient_span);

  WL_SPAN_V(volume_span, "phase1.volume_rule");
  const double target_spl =
      modem::ProbeTxSpl(report.ambient_spl_db, config_.snr_min_db,
                        config_.secure_range_m,
                        scene_.config().propagation.reference_distance_m) +
      config_.frame_papr_db;
  report.probe_volume =
      scene_.config().phone_speaker.VolumeForSpl(target_spl);
  WL_SPAN_ATTR(volume_span, "probe_volume", report.probe_volume);
  WL_SPAN_END(volume_span);
  Trace("volume-rule", "ambient " + Fmt(report.ambient_spl_db, 1) +
                           " dB -> volume " + Fmt(report.probe_volume));

  // Emit the RTS probe; both mics record. Under the resilience policy a
  // probe the watch did not hear (e.g. the capture was truncated or
  // lost) is re-emitted up to max_probe_retransmits times.
  const modem::TxFrame probe_tx = modem.MakeProbeFrame();
  for (int round = 0;; ++round) {
    if (!co_await AcquireBand("probe", report.timings.phase1_audio_ms)) {
      co_return Fail(UnlockOutcome::kChannelUnusable, "mac",
                     "band never cleared for the probe: channel unusable");
    }
    WL_SPAN_V(probe_tx_span, "phase1.probe_tx");
    const audio::SceneReception probe_rx =
        scene_.TransmitFromPhone(probe_tx.samples, report.probe_volume);
    // A spliced channel (relay attack) substitutes what the watch hears;
    // the phone still emitted, so scene draws and the phone-side state
    // advance identically either way.
    audio::Samples watch_probe =
        attack_.channel_splice
            ? attack_.channel_splice(probe_tx.samples, report.probe_volume)
            : probe_rx.watch_recording;
    report.timings.phase1_audio_ms += AudioMs(watch_probe.size());
    co_await Charge(AudioMs(watch_probe.size()));
    WL_SPAN_ATTR(probe_tx_span, "samples",
                 static_cast<double>(probe_tx.samples.size()));
    WL_SPAN_END(probe_tx_span);

    faults_.MutateRecording("rts", &watch_probe);

    // The watch ships its Phase-1 data (recording + sensors).
    probed.phase1 = watch_.MakePhase1Report(session_id_, std::move(watch_probe),
                                            motion_.watch);

    // Probe processing runs at the offload site; the analysis itself
    // runs before the upload, so a degraded upload keeps it.
    WL_SPAN_V(probe_span, "phase1.probe_analysis");
    probed.probe.reset();
    const sim::Millis probe_host_ms = sim::TimeHostMs(
        [&] { probed.probe = modem.AnalyzeProbe(probed.phase1.recording); });
    StepCost cost;
    if (auto fail = co_await Offload(1, probed.phase1.recording.size(),
                                     probe_host_ms, nullptr, &cost)) {
      co_return fail;
    }
    // Recording the probe costs the watch energy too.
    report.watch_energy_mj += sim::DeviceProfile::EnergyMj(
        AudioMs(probed.phase1.recording.size()),
        offload_.watch.record_power_mw);
    WL_SPAN_ATTR(probe_span, "compute_ms", cost.compute_ms);
    WL_SPAN_ATTR(probe_span, "transfer_ms", cost.transfer_ms);
    WL_SPAN_END(probe_span);

    if (probed.probe) break;
    ++sync_failures_;
    if (hardened_) {
      chan_->RecordEvent("sync-failure", "probe analysis found no preamble",
                         clock_.now());
    }
    // A hardened receiver on an impaired channel retries sync like the
    // fault-resilient path does; past the budget it fails closed with
    // the channel verdict rather than blaming range.
    if (OutOfRetries(round, config_.resilience.max_probe_retransmits)) {
      if (hardened_) {
        co_return Fail(UnlockOutcome::kChannelUnusable, "probe-analysis",
                       "no sync on the impaired channel: failing closed");
      }
      co_return Fail(UnlockOutcome::kNoPreamble, "probe-analysis",
                     "no preamble found in the watch recording");
    }
    WL_COUNT("protocol.retransmit.probe");
    Trace("probe-retransmit", "no preamble heard; re-emitting the RTS probe");
    co_await Backoff(round, report.timings.phase1_comm_ms);
  }
  // Sync-driven drift tracking on the probe capture (modem/drift.h): the
  // preamble offset recovers the accumulated clock shift, the pilot
  // spacing the ongoing warp rate. On a detected warp the capture is run
  // through the fractional resampler and the probe analysis - pilot
  // equalizer included - re-estimated on the de-warped audio.
  if (hardened_) {
    const ChannelHardeningConfig& hard = config_.channel;
    modem::DriftEstimate drift;
    std::optional<modem::ProbeAnalysis> reprobe;
    const sim::Millis drift_host_ms = sim::TimeHostMs([&] {
      drift = modem::EstimateDrift(probed.phase1.recording, config_.frame,
                                   scene_.config().lead_in_samples,
                                   hard.drift);
      if (drift.valid && std::abs(drift.rate_ppm) >= hard.min_compensate_ppm) {
        reprobe = modem.AnalyzeProbe(
            modem::CompensateRate(probed.phase1.recording, drift.rate_ppm));
      }
    });
    report.timings.phase1_compute_ms += drift_host_ms;
    co_await Wait(drift_host_ms);
    if (drift.valid) {
      chan_->RecordEvent("drift-estimate",
                         "shift " + std::to_string(drift.shift_samples) +
                             " samples (" + Fmt(drift.sro_ppm, 1) +
                             " ppm SRO), warp " + Fmt(drift.rate_ppm, 0) +
                             " ppm at score " + Fmt(drift.rate_score, 2),
                         clock_.now());
      WL_HIST("protocol.drift.sro_ppm", drift.sro_ppm);
    }
    if (reprobe) {
      compensate_ppm_ = drift.rate_ppm;
      probed.probe = reprobe;
      WL_COUNT("protocol.drift.compensated");
      chan_->RecordEvent(
          "drift-compensate",
          "probe re-equalized at " + Fmt(compensate_ppm_, 0) + " ppm",
          clock_.now());
      Trace("drift-compensate", "warp " + Fmt(compensate_ppm_, 0) +
                                    " ppm compensated; equalizer "
                                    "re-estimated");
    }
  }

  const modem::ProbeAnalysis& probe = *probed.probe;
  report.preamble_score = probe.preamble_score;
  Trace("probe-analysis",
        "score " + Fmt(probe.preamble_score) + ", pilot SNR " +
            Fmt(probe.pilot_snr_db, 1) + " dB" +
            (probe.nlos ? ", NLOS detected" : ""));
  report.nlos = probe.nlos;
  report.pilot_snr_db = probe.pilot_snr_db;
  WL_HIST_BOUNDS("protocol.pilot_snr_db",
                 ::wearlock::obs::Histogram::LinearBounds(-10.0, 2.5, 24),
                 report.pilot_snr_db);
  co_return std::nullopt;
}

AttemptMachine::StageResult AttemptMachine::Filters(
    const ProbeResult& probed, double& required_ber, bool& skip_phase2) {
  UnlockReport& report = report_;
  // Ambient-noise co-location filter (Sound-Proof style), on the
  // pre-signal windows of both sides.
  if (config_.enable_ambient_filter) {
    WL_SPAN_V(ambient_filter_span, "phase1.ambient_filter");
    report.ambient_similarity = AmbientSimilarity(
        probed.phone_ambient, probed.watch_ambient, config_.ambient);
    WL_SPAN_ATTR(ambient_filter_span, "similarity", report.ambient_similarity);
    if (report.ambient_similarity < config_.ambient.threshold) {
      return Fail(UnlockOutcome::kAmbientMismatch, "ambient-filter",
                  "similarity " + Fmt(report.ambient_similarity) + " below " +
                      Fmt(config_.ambient.threshold) + ": not co-located");
    }
    Trace("ambient-filter", "similarity " + Fmt(report.ambient_similarity));
  }

  // Motion filter (Algorithm 1).
  if (config_.enable_sensor_filter) {
    WL_SPAN_V(motion_span, "phase1.motion_filter");
    const sensors::FilterResult motion_result = sensors::SensorBasedFilter(
        motion_.phone, probed.phase1.sensor_trace, config_.sensor_thresholds);
    report.dtw_score = motion_result.score;
    WL_SPAN_ATTR(motion_span, "dtw_score", motion_result.score);
    Trace("motion-filter", "DTW score " + Fmt(motion_result.score, 3));
    switch (motion_result.decision) {
      case sensors::FilterDecision::kAbort:
        return Fail(UnlockOutcome::kMotionMismatch);
      case sensors::FilterDecision::kSkipSecondPhase:
        if (config_.sensor_policy == SensorSkipPolicy::kSkipSecondPhase) {
          skip_phase2 = true;
        } else {
          required_ber = std::max(required_ber, config_.sensor_relaxed_ber);
        }
        break;
      case sensors::FilterDecision::kContinue:
        break;
    }
  }

  // NLOS handling (case study: relax required BER to 0.25, or abort).
  if (report.nlos) {
    if (config_.nlos_policy == NlosPolicy::kAbort) {
      return Fail(UnlockOutcome::kNlosAborted);
    }
    required_ber = std::max(required_ber, config_.nlos_relaxed_ber);
  }
  report.required_ber = required_ber;
  return std::nullopt;
}

// Secure-range bound: a receiver at secure_range_m, given the volume
// actually used, would measure this much pilot SNR; anything below it
// is farther away. Do NOT adapt the modulation down to reach it.
AttemptMachine::StageResult AttemptMachine::RangeGate() {
  const UnlockReport& report = report_;
  WL_SPAN_V(gate_span, "phase1.range_gate");
  const double achieved_tx_spl =
      scene_.config().phone_speaker.SplAtVolume(report.probe_volume);
  const double expected_at_range =
      achieved_tx_spl - config_.frame_papr_db -
      dsp::SpreadingLossDb(config_.secure_range_m,
                           scene_.config().propagation.reference_distance_m) -
      report.ambient_spl_db;
  double gate = std::max(expected_at_range - config_.pilot_snr_domain_offset_db,
                         config_.min_pilot_snr_floor_db);
  if (report.nlos && config_.nlos_policy == NlosPolicy::kRelaxMaxBer) {
    gate = std::max(gate - config_.nlos_gate_relief_db,
                    config_.min_pilot_snr_floor_db);
  }
  WL_SPAN_ATTR(gate_span, "gate_db", gate);
  if (report.pilot_snr_db < gate && !config_.force_transmit) {
    return Fail(UnlockOutcome::kInsufficientSnr, "range-gate",
                "pilot SNR " + Fmt(report.pilot_snr_db, 1) + " dB under gate " +
                    Fmt(gate, 1) + ": receiver beyond secure range");
  }
  Trace("range-gate", "pilot SNR clears gate " + Fmt(gate, 1) + " dB");
  return std::nullopt;
}

// Relay defense: acoustic distance bounding (docs/security.md). Sound
// is slow - 1 m of air costs ~2.9 ms - so a relay's capture-transport-
// re-emit latency inflates the round-trip estimate past the bound no
// matter how much it amplifies. Runs before the motion fast path so a
// wormhole cannot ride the skip-phase-2 shortcut; fails closed.
AttemptMachine::Stage AttemptMachine::DistanceBounding() {
  const DistanceBoundingPolicy& db = config_.distance_bounding;
  if (!db.enable) co_return std::nullopt;
  WL_SPAN_V(bound_span, "phase1.distance_bounding");
  // Ranging noise draws come from a session-salted stream of their
  // own: deterministic per seed, invisible to the scene stream.
  sim::Rng ranging_rng(db.seed ^ (session_id_ * 0x9E3779B97F4A7C15ULL));
  const RangingResult ranging = AcousticRangeMedian(
      scene_, config_.frame, report_.probe_volume, ranging_rng, db.rounds,
      db.ranging, attack_.ranging_extra_delay_ms,
      attack_.channel_splice ? &attack_.channel_splice : nullptr);
  report_.ranging_distance_m = ranging.estimated_distance_m;
  // Each round's chirp exchange is real audio time (lead-in + chirp +
  // lead-out at both ends of the synchronized clock); the whole
  // exchange is one scheduled wait, charged exactly as the blocking
  // path charged it so proto_ms_ stays bit-identical.
  const std::size_t chirp_n = scene_.config().lead_in_samples +
                              modem::MakePreamble(config_.frame).size() +
                              scene_.config().lead_out_samples;
  const sim::Millis ranging_audio_ms = db.rounds * AudioMs(chirp_n);
  report_.timings.phase1_audio_ms += ranging_audio_ms;
  co_await Charge(ranging_audio_ms);
  WL_SPAN_ATTR(bound_span, "estimate_m", ranging.estimated_distance_m);
  WL_SPAN_ATTR(bound_span, "detected", ranging.chirp_detected ? 1.0 : 0.0);
  if (!ranging.chirp_detected || !ranging.within_bound) {
    keyguard_->ReportFailure();
    co_return Fail(UnlockOutcome::kDistanceBoundViolation, "distance-bounding",
                   ranging.chirp_detected
                       ? "estimate " + Fmt(ranging.estimated_distance_m) +
                             " m beyond bound " +
                             Fmt(db.ranging.max_distance_m) +
                             " m: relay suspected"
                       : "ranging chirp not heard: relay suspected");
  }
  Trace("distance-bounding", "estimate " + Fmt(ranging.estimated_distance_m) +
                                 " m within bound " +
                                 Fmt(db.ranging.max_distance_m) + " m");
  co_return std::nullopt;
}

AttemptMachine::Stage AttemptMachine::SelectMode(
    modem::AcousticModem& modem, const modem::ProbeAnalysis& probe,
    double required_ber, Phase2Config& p2) {
  UnlockReport& report = report_;
  // Sub-channel selection from the probed noise ranking.
  {
    WL_SPAN_V(select_span, "phase1.subchannel_select");
    report.plan = config_.frame.plan;
    if (config_.enable_subchannel_selection) {
      std::vector<double> noise = probe.noise_power;
      // Carrier-sense reselection: a neighbor quiet during the probe's
      // own airtime still showed up in the MAC's sense window; merging
      // the per-bin sense power (element-wise max) steers the data bins
      // away from every bin any co-channel transmitter touched.
      if (hardened_ && sense_ && !sense_->bin_power.empty()) {
        const std::size_t n = std::min(noise.size(), sense_->bin_power.size());
        for (std::size_t i = 0; i < n; ++i) {
          noise[i] = std::max(noise[i], sense_->bin_power[i]);
        }
        Trace("carrier-sense", "sense spectrum merged into sub-band ranking");
      }
      report.plan = modem::SelectSubchannels(config_.frame.plan, noise);
      modem = modem.WithPlan(report.plan);
    }
    WL_SPAN_ATTR(select_span, "data_bins",
                 static_cast<double>(report.plan.data.size()));
    WL_GAUGE_SET("modem.plan.data_bins",
                 static_cast<double>(report.plan.data.size()));
  }

  // Transmission-mode decision from the probed SNR. The adaptive config's
  // max_ber follows any relaxation decided above. Under detected NLOS the
  // Fig. 5 thresholds (measured on a LOS channel) no longer hold for the
  // dense phase constellations - delay-spread ICI hits 8PSK first - so
  // the candidate set shrinks to the robust modes, matching the paper's
  // field test where every body-blocked cell ran QPSK.
  WL_SPAN_V(mode_span, "phase1.mode_select");
  modem::AdaptiveConfig adaptive = config_.adaptive;
  adaptive.max_ber = required_ber;
  if (report.nlos) {
    adaptive.modes = {modem::Modulation::kQpsk, modem::Modulation::kQask};
  }
  // Extended degrade ladder: repeated sync losses mean the channel
  // estimate cannot be trusted at dense constellations - restrict the
  // candidate set to the robust low-rate modes before adapting.
  if (hardened_ &&
      sync_failures_ >= config_.channel.robust_after_sync_failures) {
    adaptive.modes = {modem::Modulation::kBpsk, modem::Modulation::kQpsk};
    chan_->RecordEvent("degrade-robust",
                       std::to_string(sync_failures_) +
                           " sync failures: robust low-rate modes only",
                       clock_.now());
    Trace("degrade", "repeated sync failures: robust low-rate modes only");
  }
  auto mode =
      modem::SelectModeFromSnr(modem.spec(), report.pilot_snr_db, adaptive);
  if (!mode) {
    if (!config_.force_transmit) {
      co_return Fail(UnlockOutcome::kInsufficientSnr, "mode-select",
                     "no mode meets MaxBER " + Fmt(required_ber));
    }
    // Measurement campaign: transmit anyway with the measurably most
    // robust candidate (lowest required Eb/N0 at a loose bound) and let
    // the BER land where it lands.
    double best_req = 1e30;
    for (modem::Modulation candidate : adaptive.modes) {
      const double req = modem::MeasuredRequiredEbN0Db(candidate, 0.2);
      if (req < best_req) {
        best_req = req;
        mode = candidate;
      }
    }
    Trace("mode-select", "forced " + ToString(*mode) + " (campaign mode)");
  }
  report.mode = *mode;
  Trace("mode-select", ToString(*mode) + " at MaxBER " + Fmt(required_ber));
  report.ebn0_db = modem::EbN0Db(modem.spec(), *mode, report.pilot_snr_db);
  WL_SPAN_ATTR(mode_span, "mode", ToString(*mode));
  WL_SPAN_ATTR(mode_span, "required_ber", required_ber);
  WL_SPAN_ATTR(mode_span, "ebn0_db", report.ebn0_db);
  WL_SPAN_END(mode_span);

  // Ship the Phase-2 configuration to the watch over the control channel.
  p2.session_id = session_id_;
  p2.plan = report.plan;
  p2.modulation = *mode;
  p2.payload_bits = 32;
  WL_SPAN("phase2.config_send");
  watch_.ApplyPhase2Config(p2);
  if (auto fail = co_await Send("p2-config", report.timings.phase2_comm_ms)) {
    co_return Fail(*fail, "phase2-config",
                   "control channel failed: " + ToString(*fail));
  }
  co_return std::nullopt;
}

// --- Phase 2: OFDM-modulated OTP -------------------------------------
AttemptMachine::Stage AttemptMachine::Phase2Rounds(
    const modem::AcousticModem& modem, const Phase2Config& p2,
    double required_ber) {
  UnlockReport& report = report_;
  WL_SPAN_V(otp_span, "phase2.otp_generate");
  const std::vector<std::uint8_t> token_bits = otp_->NextTokenBits();
  WL_SPAN_END(otp_span);

  // ARQ over the acoustic hop: the SAME token frame is re-emitted up to
  // max_phase2_retransmits times, and the receiver chase-combines the
  // per-bit LLRs of every copy before each decision, so late rounds
  // decode at the summed SNR instead of starting blind
  // (docs/robustness.md). Fault-free sessions run exactly one round.
  const modem::TxFrame data_tx = modem.Modulate(p2.modulation, token_bits);
  const bool want_soft =
      resilient_ && config_.resilience.enable_chase_combining;
  modem::SoftCombiner combiner;
  for (int round = 0;; ++round) {
    if (!co_await AcquireBand("phase2", report.timings.phase2_audio_ms)) {
      co_return Fail(UnlockOutcome::kChannelUnusable, "mac",
                     "band never cleared for phase 2: channel unusable");
    }
    WL_SPAN_V(data_tx_span, "phase2.data_tx");
    const audio::SceneReception data_rx =
        scene_.TransmitFromPhone(data_tx.samples, report.probe_volume);

    // Optional eavesdropper tap on the first emission.
    if (round == 0 && attack_.eavesdrop_distance_m) {
      report.eavesdropped_recording = scene_.RecordAtDistance(
          data_tx.samples, report.probe_volume, *attack_.eavesdrop_distance_m,
          audio::PropagationSpec::IndoorLos(), attack_.eavesdrop_gain_db);
    }

    // Acoustic-path manipulation, in attacker-capability order: a live
    // splice owns the whole path (relay), a replayed capture substitutes
    // it wholesale, and co-channel interference adds on top of whatever
    // the watch hears. Substitutions apply to every ARQ round - a
    // retransmission must not rescue an attacked session.
    audio::Samples recording;
    if (attack_.channel_splice) {
      recording = attack_.channel_splice(data_tx.samples, report.probe_volume);
    } else if (attack_.replayed_phase2_recording) {
      recording = *attack_.replayed_phase2_recording;
    } else {
      recording = data_rx.watch_recording;
    }
    if (attack_.phase2_interference) {
      audio::MixInto(recording, *attack_.phase2_interference);
    }
    const sim::Millis round_audio_ms = AudioMs(recording.size());
    report.timings.phase2_audio_ms += round_audio_ms;
    co_await Charge(round_audio_ms);
    WL_SPAN_ATTR(data_tx_span, "samples",
                 static_cast<double>(data_tx.samples.size()));
    WL_SPAN_END(data_tx_span);
    report.timings.phase2_audio_ms += attack_.extra_acoustic_delay_ms;
    co_await Charge(attack_.extra_acoustic_delay_ms);

    // Timing-window replay defense, per round: this round's acoustic
    // exchange cannot take longer than frame duration + stack slack.
    // Fails closed immediately - no retransmission after a violation.
    {
      WL_SPAN("phase2.timing_gate");
      const sim::Millis observed_audio_ms =
          round_audio_ms + attack_.extra_acoustic_delay_ms;
      if (observed_audio_ms > round_audio_ms + config_.timing_slack_ms) {
        keyguard_->ReportFailure();
        co_return Fail(UnlockOutcome::kTimingViolation);
      }
    }

    faults_.MutateRecording("p2-data", &recording);

    // Timing-drift compensation carried over from the probe: the same
    // warp rate holds for this capture (one walker, one clock pair), so
    // the receiver resamples before demodulating.
    if (hardened_ && compensate_ppm_ != 0.0) {
      const sim::Millis comp_host_ms = sim::TimeHostMs([&] {
        recording = modem::CompensateRate(recording, compensate_ppm_);
      });
      report.timings.phase2_compute_ms += comp_host_ms;
      co_await Wait(comp_host_ms);
    }

    // Demodulation at the offload site (post-degrade-ladder site).
    WL_SPAN_V(demod_span, "phase2.demod");
    const bool watch_local = effective_.site == ProcessingSite::kWatchLocal;
    WL_SPAN_ATTR(demod_span, "watch_local", watch_local ? 1.0 : 0.0);
    sim::Millis watch_host_ms = 0.0;
    const Phase2Report phase2 =
        watch_.MakePhase2Report(session_id_, std::move(recording), p2,
                                watch_local, &watch_host_ms, want_soft);
    std::vector<std::uint8_t> bits;
    std::vector<double> round_llrs;
    if (watch_local) {
      bits = phase2.demodulated_bits;
      round_llrs = phase2.demodulated_llrs;
      const sim::Millis t = offload_.watch.ScaleCompute(watch_host_ms);
      report.timings.phase2_compute_ms += t;
      report.watch_energy_mj +=
          sim::DeviceProfile::EnergyMj(t, offload_.watch.compute_power_mw);
      co_await Wait(t);
      // Result bits travel back as a small message.
      if (auto fail = co_await Send("p2-result", report.timings.phase2_comm_ms)) {
        co_return Fail(*fail, "phase2-result",
                       "control channel failed: " + ToString(*fail));
      }
    } else {
      std::optional<modem::DemodResult> demod;
      std::optional<std::vector<double>> soft;
      StepCost cost;
      const auto demodulate = [&] {
        demod = modem.Demodulate(phase2.recording, p2.modulation,
                                 p2.payload_bits);
        if (want_soft) {
          soft = modem.DemodulateSoft(phase2.recording, p2.modulation,
                                      p2.payload_bits);
        }
      };
      if (auto fail = co_await Offload(2, phase2.recording.size(), 0.0,
                                       demodulate, &cost)) {
        co_return fail;
      }
      if (demod) bits = demod->bits;
      if (soft) round_llrs = *soft;
    }
    report.watch_energy_mj += sim::DeviceProfile::EnergyMj(
        AudioMs(data_rx.watch_recording.size()),
        offload_.watch.record_power_mw);
    WL_SPAN_END(demod_span);

    // Chase combining: fold this round's soft output into the running
    // LLR sum; from the second copy on, the combined LLRs (not this
    // round's alone) drive the hard decision.
    if (want_soft && round_llrs.size() == p2.payload_bits &&
        (combiner.empty() ||
         round_llrs.size() == combiner.combined().size())) {
      combiner.Add(round_llrs);
      if (combiner.rounds() > 1) {
        bits = combiner.HardBits();
        WL_COUNT("protocol.chase.decisions");
      }
    }

    WL_SPAN_V(validate_span, "phase2.token_validate");
    const bool synced = bits.size() == p2.payload_bits;
    TokenValidation validation;
    if (synced) {
      // Token validation: BER against the expected counter window (the
      // counter only advances on acceptance, so re-validating across
      // ARQ rounds cannot burn the window).
      validation = otp_->ValidateBits(bits, required_ber);
      report.token_ber = validation.ber;
      WL_SPAN_ATTR(validate_span, "token_ber", validation.ber);
      WL_SPAN_ATTR(validate_span, "accepted", validation.accepted ? 1.0 : 0.0);
#if WEARLOCK_OBS_ENABLED
      WL_HIST_BOUNDS("protocol.token_ber", BerBounds(), validation.ber);
      RecordSubchannelBer(report.plan, p2.modulation, bits,
                          validation.expected_bits);
#endif
      Trace("token-validate",
            "BER " + Fmt(validation.ber, 3) + " vs bound " +
                Fmt(required_ber) +
                (validation.accepted ? ": accepted" : ": rejected"));
    }
    if (validation.accepted) co_return Unlock();
    // Failed round. One keyguard strike per *attempt*, charged at final
    // failure only - in-protocol retransmissions are not user mistakes.
    if (!synced) {
      ++sync_failures_;
      if (hardened_) {
        chan_->RecordEvent("sync-failure", "phase-2 frame did not demodulate",
                           clock_.now());
      }
    }
    if (OutOfRetries(round, config_.resilience.max_phase2_retransmits)) {
      if (hardened_ && !synced) {
        // The channel, not the token, is at fault: fail closed with the
        // channel verdict and no strike (an environmental condition, not
        // a user mistake).
        co_return Fail(UnlockOutcome::kChannelUnusable, "phase2",
                       "no frame sync on the impaired channel: failing closed");
      }
      keyguard_->ReportFailure();
      co_return Fail(UnlockOutcome::kTokenRejected);
    }
    WL_COUNT("protocol.retransmit.phase2");
    Trace("phase2-retransmit",
          "token rejected; retransmitting for chase combining (round " +
              std::to_string(round + 2) + ")");
    co_await Backoff(round, report.timings.phase2_comm_ms);
  }
}

// --- Toolkit ---------------------------------------------------------

AttemptMachine::WaitAwaiter AttemptMachine::Charge(sim::Millis ms) {
  proto_ms_ += ms;
  return Wait(ms);
}

sim::Millis AttemptMachine::TotalLeft() const {
  return config_.resilience.total_deadline_ms - proto_ms_;
}

void AttemptMachine::Trace(const std::string& step,
                           const std::string& detail) {
  report_.trace.push_back({step, detail, clock_.now()});
}

AttemptMachine::StageResult AttemptMachine::Fail(
    UnlockOutcome outcome, const char* step, const std::string& detail) {
  report_.outcome = outcome;
  if (step != nullptr) Trace(step, detail);
  return outcome;
}

AttemptMachine::StageResult AttemptMachine::Unlock() {
  keyguard_->ReportSuccess();
  report_.outcome = UnlockOutcome::kUnlocked;
  report_.unlocked = true;
  return UnlockOutcome::kUnlocked;
}

// Degrade ladder: after degrade_after_link_faults link faults,
// processing falls back from offload to watch-local for the rest of
// this attempt.
void AttemptMachine::MaybeDegrade() {
  if (effective_.site == ProcessingSite::kOffloadToPhone &&
      link_faults_ >= config_.resilience.degrade_after_link_faults) {
    effective_.site = ProcessingSite::kWatchLocal;
    WL_COUNT("protocol.degrade.count");
    Trace("degrade", "flaky link: processing falls back to watch-local");
  }
}

// Bounded exponential pause between retransmissions, charged to the
// virtual clock like every other wait.
sim::CoTask<> AttemptMachine::Backoff(int attempt, sim::Millis& comm_ms) {
  const sim::Millis backoff = config_.resilience.BackoffMs(attempt);
  WL_HIST("protocol.backoff_ms", backoff);
  comm_ms += backoff;
  co_await Charge(backoff);
  faults_.MaybeReconnect(link_);
}

// Probe and Phase-2 rounds share one budget rule: only the resilient or
// hardened receiver retries, at most max_retransmits times, and never
// past the attempt deadline.
bool AttemptMachine::OutOfRetries(int round, int max_retransmits) const {
  return (!resilient_ && !hardened_) || round >= max_retransmits ||
         TotalLeft() <= 0.0;
}

// A message is presumed lost after message_timeout_ms and retransmitted
// with bounded backoff; outage waits are charged but not counted against
// the retry budget. Only delivery differs between the two kinds: a
// control message delayed past the timeout counts as lost, while a bulk
// transfer is streamed - spikes slow it down but never time it out - and
// its duration is returned for the offload cost accounting rather than
// charged here.
AttemptMachine::Stage AttemptMachine::Send(
    const char* stage, sim::Millis& comm_ms, sim::Millis* transfer_ms,
    std::size_t bytes) {
  const ResilienceConfig& res = config_.resilience;
  const sim::Millis stage_budget = std::min(res.stage_budget_ms, TotalLeft());
  const sim::Millis stage_start = proto_ms_;
  int sends = 0;
  while (true) {
    if (proto_ms_ - stage_start >= stage_budget) {
      WL_COUNT("protocol.timeout.stage");
      co_return UnlockOutcome::kStageTimeout;
    }
    const sim::FaultInjector::SendResult r =
        transfer_ms != nullptr ? faults_.SendFile(link_, bytes, stage)
                               : faults_.SendMessage(link_, stage);
    if (r.status == sim::FaultInjector::SendStatus::kLinkDown) {
      // The link went down mid-protocol. Wait out the scheduled outage
      // (if any) up to the stage budget; a link that stays down is a
      // defined failure, not a hang.
      ++link_faults_;
      MaybeDegrade();
      if (!faults_.flap_down()) {
        WL_COUNT("protocol.link_lost");
        co_return UnlockOutcome::kLinkFlapped;
      }
      // All three bounds are durations, not absolute clock readings, so
      // the wait (and whether the link recovers within it) is a pure
      // function of the seed.
      const sim::Millis outage_left =
          std::max(0.0, faults_.reconnect_at_ms() - clock_.now());
      const sim::Millis stage_left = stage_budget - (proto_ms_ - stage_start);
      const sim::Millis wait =
          std::max(0.0, std::min({outage_left, stage_left, TotalLeft()}));
      if (wait > 0.0) {
        WL_HIST("protocol.link_wait_ms", wait);
        comm_ms += wait;
        co_await Charge(wait);
      }
      faults_.MaybeReconnect(link_);
      if (!link_.connected()) {
        WL_COUNT("protocol.link_lost");
        co_return UnlockOutcome::kLinkFlapped;
      }
      continue;  // outage waits do not burn the retransmit budget
    }
    if (r.status == sim::FaultInjector::SendStatus::kDelivered) {
      if (transfer_ms != nullptr) {
        *transfer_ms = r.delay_ms;
        co_return std::nullopt;
      }
      if (r.delay_ms <= res.message_timeout_ms) {
        comm_ms += r.delay_ms;
        co_await Charge(r.delay_ms);
        co_return std::nullopt;
      }
    }
    // Dropped, or delay-spiked past the timeout: the sender sees only
    // silence for message_timeout_ms, then retransmits.
    ++link_faults_;
    MaybeDegrade();
    WL_COUNT("protocol.timeout.count");
    comm_ms += res.message_timeout_ms;
    co_await Charge(res.message_timeout_ms);
    if (sends >= res.max_message_retries) {
      WL_COUNT("protocol.retries_exhausted");
      co_return UnlockOutcome::kRetriesExhausted;
    }
    WL_COUNT("protocol.retransmit.count");
    co_await Backoff(sends, comm_ms);
    ++sends;
  }
}

AttemptMachine::Stage AttemptMachine::Offload(
    int phase, std::size_t samples, sim::Millis host_ms,
    std::function<void()> work, StepCost* cost) {
  PhaseTimings& timings = report_.timings;
  sim::Millis& comm_ms =
      phase == 1 ? timings.phase1_comm_ms : timings.phase2_comm_ms;
  sim::Millis& compute_ms =
      phase == 1 ? timings.phase1_compute_ms : timings.phase2_compute_ms;
  const char* const step = phase == 1 ? "phase1-upload" : "phase2-upload";
  sim::Millis transfer_ms = 0.0;  // modeled upload delay (seed-derived)
  bool arrived = true;
  if (effective_.site == ProcessingSite::kOffloadToPhone) {
    if (auto fail = co_await Send(phase == 1 ? "p1-upload" : "p2-upload",
                                  comm_ms, &transfer_ms,
                                  RecordingBytes(samples))) {
      MaybeDegrade();
      if (effective_.site == ProcessingSite::kOffloadToPhone ||
          *fail == UnlockOutcome::kStageTimeout) {
        co_return Fail(*fail, step, "upload failed: " + ToString(*fail));
      }
      // Degrade ladder: the rest of the attempt processes on the watch.
      // Phase 1 keeps its analysis; a Phase-2 round loses this copy and
      // the next round demodulates on the watch.
      Trace(step, "upload failed (" + ToString(*fail) +
                      "); degraded to watch-local " +
                      (phase == 1 ? "analysis" : "demod"));
      arrived = false;
      transfer_ms = 0.0;
    }
  }
  if (work) {
    host_ms = sim::TimeHostMs([&] {
      if (arrived) work();
    });
  }
  *cost = effective_.CostWithTransfer(host_ms, transfer_ms, link_.radio());
  compute_ms += cost->compute_ms;
  comm_ms += cost->transfer_ms;
  report_.watch_energy_mj += cost->watch_energy_mj;
  report_.phone_energy_mj += cost->phone_energy_mj;
  // Charge the modeled upload delay directly: the cost mixes in the
  // host-measured compute, and modeled time may only absorb seed-derived
  // values (CostWithTransfer passes transfer_ms through unchanged, so
  // this is the same quantity).
  co_await Charge(transfer_ms);
  co_await Wait(cost->compute_ms);
  co_return std::nullopt;
}

// Listen-before-talk (the acoustic MAC): sense the band through the
// phone's own mic and defer the emission with bounded-exponential
// backoff while a neighbor holds it. All waits are modeled time, and
// the scene's acoustic cursor advances with them, so a re-listen sees
// every neighbor's duty cycle progressed. Returns false when the band
// never cleared within the attempt budget.
sim::CoTask<bool> AttemptMachine::AcquireBand(const char* stage,
                                              sim::Millis& audio_ms) {
  if (!hardened_ || !chan_->has_neighbors()) co_return true;
  const AcousticMacConfig& mac = config_.channel.mac;
  for (int attempt = 0; attempt <= mac.max_attempts; ++attempt) {
    const std::size_t n = mac.sense_window_samples;
    const auto [phone_sense, watch_sense] = scene_.RecordAmbientPair(n);
    (void)watch_sense;
    const sim::Millis sense_ms = AudioMs(n);
    audio_ms += sense_ms;
    co_await Charge(sense_ms);
    sense_ = SenseChannel(config_.frame, phone_sense, mac.busy_over_floor_db);
    if (!sense_->busy) {
      chan_->RecordEvent("mac-clear",
                         std::string(stage) + ": in-band " +
                             Fmt(sense_->inband_db, 1) + " dB, floor " +
                             Fmt(sense_->floor_db, 1) + " dB",
                         clock_.now());
      co_return true;
    }
    if (attempt == mac.max_attempts || TotalLeft() <= 0.0) break;
    const sim::Millis backoff = mac.BackoffMs(attempt);
    WL_COUNT("protocol.mac.defer");
    chan_->RecordEvent("mac-defer",
                       std::string(stage) + ": busy, backoff " +
                           Fmt(backoff, 0) + " ms",
                       clock_.now());
    Trace("mac-defer", std::string(stage) + " deferred " + Fmt(backoff, 0) +
                           " ms: band busy");
    scene_.AdvanceTimeMs(backoff);
    co_await Charge(backoff);
  }
  WL_COUNT("protocol.mac.unusable");
  chan_->RecordEvent("mac-unusable", stage, clock_.now());
  co_return false;
}

}  // namespace wearlock::protocol
