// Event-driven unlock attempt: the Fig. 2 protocol as a coroutine state
// machine scheduled on a sim::EventQueue.
//
// One AttemptMachine is one power-button press. Every modeled wait of
// the protocol - RTS/CTS round trips, probe and token airtime, ARQ
// timeouts, bounded backoff, link-outage waits, upload transfers, the
// distance-bounding exchange - suspends the coroutine and schedules its
// continuation on the queue, so a single thread multiplexes thousands
// of in-flight attempts at different protocol stages. The blocking
// UnlockSession::Attempt() drives one machine on a private queue to
// completion.
//
// The protocol body is one function per Fig. 2 stage (LinkCheck,
// RtsCts, ProbeStage, Filters, RangeGate, DistanceBounding, SelectMode,
// Phase2Rounds) over one toolkit: Charge, Send (the one retransmission
// loop), Offload (upload, degrade, cost and energy), Backoff and Fail.
//
// Every control message and upload takes one transport path, through
// a sim::FaultInjector. A caller that wires none gets an inert one (an
// empty plan whose Rng is never drawn), so fault-free sessions see the
// bare link's delays; the resilience policy (ARQ, probe and Phase-2
// retransmission, degrade ladder) engages only under a caller-supplied
// injector.
//
// Clock doctrine (docs/architecture.md): the queue's clock is shared
// and only orders the interleave; the machine advances its *session's*
// sim::VirtualClock by its own wait amounts when each event fires, so
// per-session timelines are independent of co-tenants. Observability is
// ambient (thread-local), so each resume slice reinstalls the session's
// tracer/metrics around the coroutine step (AttemptHooks); with null
// hooks the caller's ambient sinks stay in effect - the shim path.
#pragma once

#include <coroutine>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "audio/scene.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "protocol/acoustic_mac.h"
#include "protocol/phone_controller.h"
#include "sensors/filter.h"
#include "sim/clock.h"
#include "sim/co_task.h"
#include "sim/event_queue.h"
#include "sim/faults.h"
#include "sim/wireless.h"

namespace wearlock::protocol {

/// Per-slice ambient wiring plus completion notification for one
/// event-driven attempt. All members optional: null sinks leave the
/// caller's ambient tracer/metrics installed (the synchronous shim),
/// an empty on_done means the owner polls done() after the drain.
struct AttemptHooks {
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  /// Runs once, after the report is final and the slice's ambient
  /// sinks are uninstalled. May start other work on the queue, but
  /// must not destroy this machine (a frame is live on the stack).
  std::function<void()> on_done;
};

class AttemptMachine {
 public:
  /// Collaborators must outlive the machine; `motion`, `offload` and
  /// `attack` are captured by value so async callers need not keep
  /// them alive. A null `faults` runs the attempt fault-free, through
  /// the machine's own inert injector. Construction is inert - Start()
  /// schedules the first slice at the queue's current time.
  AttemptMachine(const PhoneConfig& config, OtpService* otp,
                 Keyguard* keyguard, std::uint64_t session_id,
                 audio::TwoMicScene& scene, WatchController& watch,
                 sim::WirelessLink& link, sensors::MotionPair motion,
                 OffloadPlanner offload, sim::VirtualClock& clock,
                 AttackInjection attack, sim::FaultInjector* faults,
                 sim::EventQueue& queue, AttemptHooks hooks);
  AttemptMachine(const AttemptMachine&) = delete;
  AttemptMachine& operator=(const AttemptMachine&) = delete;

  /// Schedule the first slice. The machine must stay alive until
  /// done() (pending events hold a pointer to it).
  void Start();

  bool done() const { return done_; }

  /// The finished attempt's report; rethrows if the protocol body
  /// threw. Call at most once, after done().
  UnlockReport TakeReport();

 private:
  struct WaitAwaiter {
    AttemptMachine* machine;
    sim::Millis wait_ms;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> handle) const {
      machine->ScheduleResume(wait_ms, handle);
    }
    void await_resume() const noexcept {}
  };

  /// Awaitable modeled wait: suspends, schedules the continuation
  /// `ms` later on the queue, and advances the session clock by `ms`
  /// when the event fires (the event-queue form of clock.Advance).
  WaitAwaiter Wait(sim::Millis ms) { return WaitAwaiter{this, ms}; }

  void ScheduleResume(sim::Millis ms, std::coroutine_handle<> handle);
  /// Run one coroutine step with the session's ambient sinks
  /// installed; fires on_done when the root task completes.
  void ResumeSlice(std::coroutine_handle<> handle);

  /// Root span, protocol body, verdict span, end-of-attempt metrics.
  sim::CoTask<> Run();
  /// The protocol body: the stages in order, until one ends the attempt.
  sim::CoTask<> RunStages();

  /// What the probe stage hands the filters and mode selection.
  struct ProbeResult {
    audio::Samples phone_ambient;  ///< pre-signal windows of both sides
    audio::Samples watch_ambient;
    Phase1Report phase1;  ///< the watch's probe recording + sensor trace
    std::optional<modem::ProbeAnalysis> probe;
  };

  // Stages, in protocol order. Each returns the outcome that ends the
  // attempt (already set through Fail), or nullopt to go on.
  using StageResult = std::optional<UnlockOutcome>;
  using Stage = sim::CoTask<StageResult>;
  StageResult LinkCheck();
  Stage RtsCts();
  Stage ProbeStage(const modem::AcousticModem& modem, ProbeResult& probed);
  StageResult Filters(const ProbeResult& probed, double& required_ber,
                      bool& skip_phase2);
  StageResult RangeGate();
  Stage DistanceBounding();
  Stage SelectMode(modem::AcousticModem& modem,
                   const modem::ProbeAnalysis& probe, double required_ber,
                   Phase2Config& p2);
  Stage Phase2Rounds(const modem::AcousticModem& modem, const Phase2Config& p2,
                     double required_ber);

  // Toolkit shared by the stages.
  /// A modeled wait on seed-derived time: counts toward proto_ms_.
  WaitAwaiter Charge(sim::Millis ms);
  sim::Millis TotalLeft() const;
  void Trace(const std::string& step, const std::string& detail);
  /// Set the attempt's outcome, logging `step` when given.
  StageResult Fail(UnlockOutcome outcome, const char* step = nullptr,
                   const std::string& detail = "");
  StageResult Unlock();
  void MaybeDegrade();
  sim::CoTask<> Backoff(int attempt, sim::Millis& comm_ms);
  bool OutOfRetries(int round, int max_retransmits) const;
  /// A control message, or with `transfer_ms` set a bulk upload.
  Stage Send(const char* stage, sim::Millis& comm_ms,
             sim::Millis* transfer_ms = nullptr, std::size_t bytes = 0);
  Stage Offload(int phase, std::size_t samples, sim::Millis host_ms,
                std::function<void()> work, StepCost* cost);
  sim::CoTask<bool> AcquireBand(const char* stage, sim::Millis& audio_ms);

  const PhoneConfig& config_;
  OtpService* otp_;
  Keyguard* keyguard_;
  const std::uint64_t session_id_;
  audio::TwoMicScene& scene_;
  WatchController& watch_;
  sim::WirelessLink& link_;
  const sensors::MotionPair motion_;
  const OffloadPlanner offload_;
  sim::VirtualClock& clock_;
  const AttackInjection attack_;
  /// Stands in for a null caller injector: empty plan, session clock.
  sim::FaultInjector inert_faults_;
  sim::FaultInjector& faults_;
  /// ARQ and degrade policy on: a caller-supplied injector and no
  /// force_transmit campaign mode.
  const bool resilient_;
  audio::ChannelImpairments* const chan_;  ///< null on a clean scene
  /// Crowded-world hardening (docs/channels.md). Every hardening branch
  /// is gated on the scene actually having channel impairments armed,
  /// so clean scenes take the exact pre-existing path and consume the
  /// exact pre-existing scene draws (the PR-3/4/5/8 goldens pin this).
  const bool hardened_;
  sim::EventQueue& queue_;
  AttemptHooks hooks_;

  sim::CoTask<> root_;
  UnlockReport report_;
  /// Deterministic protocol-time accumulator: audio, communication and
  /// waits - everything modeled from the seed - but NOT host-measured
  /// compute, whose virtual charge varies with machine load. Budget and
  /// deadline decisions run on this accumulator, so a seed's fault
  /// handling replays bit-identically at any thread count (the
  /// 1-vs-8-thread gate in tests/fault_matrix_test.cpp); the virtual
  /// clock still carries compute for the latency reports.
  sim::Millis proto_ms_ = 0.0;
  OffloadPlanner effective_ = offload_;  ///< after the degrade ladder
  int link_faults_ = 0;
  std::optional<CarrierSenseReport> sense_;  ///< feeds reselection
  double compensate_ppm_ = 0.0;  ///< warp undone on Phase-2 captures
  int sync_failures_ = 0;
  bool done_ = false;
  bool notified_ = false;
};

}  // namespace wearlock::protocol
