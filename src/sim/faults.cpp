#include "sim/faults.h"

#include <algorithm>
#include <stdexcept>

#include "obs/instrument.h"
#include "obs/json.h"
#include "sim/parse.h"

namespace wearlock::sim {

std::string ToString(FaultKind kind) {
  switch (kind) {
    case FaultKind::kMessageDrop: return "message-drop";
    case FaultKind::kMessageDuplicate: return "message-duplicate";
    case FaultKind::kDelaySpike: return "delay-spike";
    case FaultKind::kLinkFlap: return "link-flap";
    case FaultKind::kLinkRecover: return "link-recover";
    case FaultKind::kRecordingTruncate: return "recording-truncate";
    case FaultKind::kRecordingClip: return "recording-clip";
    case FaultKind::kRecordingDrop: return "recording-drop";
  }
  return "?";
}

bool FaultPlan::empty() const {
  return message_drop_p == 0.0 && message_dup_p == 0.0 &&
         delay_spike_p == 0.0 && flap_stage.empty() &&
         recording_truncate_keep >= 1.0 && recording_clip_level == 0.0 &&
         recording_drop_p == 0.0;
}

FaultPlan FaultPlan::Parse(const std::string& spec) {
  FaultPlan plan;
  plan.spec = spec;
  for (const SpecEntry& entry : SpecEntries("FaultPlan", spec, ',')) {
    if (entry.text.empty()) continue;

    if (entry.text.starts_with("flap@")) {
      std::string_view stage = std::string_view(entry.text).substr(5);
      const std::size_t colon = stage.find(':');
      if (colon != std::string_view::npos) {
        plan.flap_down_ms = entry.Number(stage.substr(colon + 1), 0.0,
                                         kFiniteMax);
        stage = stage.substr(0, colon);
      }
      if (stage.empty()) entry.Reject("empty stage");
      plan.flap_stage = stage;
      continue;
    }

    if (!entry.has_value) entry.Reject("expected key=value or flap@stage");
    if (entry.key == "drop") {
      plan.message_drop_p = entry.Number(0.0, 1.0);
    } else if (entry.key == "dup") {
      plan.message_dup_p = entry.Number(0.0, 1.0);
    } else if (entry.key == "spike") {
      const std::size_t x = entry.value.find('x');
      plan.delay_spike_p = entry.Number(entry.value.substr(0, x), 0.0, 1.0);
      if (x != std::string::npos) {
        plan.delay_spike_mult =
            entry.Number(entry.value.substr(x + 1), 1.0, kFiniteMax);
      }
    } else if (entry.key == "trunc") {
      plan.recording_truncate_keep = entry.Number(kAboveZero, 1.0);
    } else if (entry.key == "clip") {
      plan.recording_clip_level = entry.Number(kAboveZero, kFiniteMax);
    } else if (entry.key == "recdrop") {
      plan.recording_drop_p = entry.Number(0.0, 1.0);
    } else {
      entry.Reject("unknown key '" + entry.key + "'");
    }
  }
  return plan;
}

std::string FaultTraceJsonl(const std::vector<FaultEvent>& events) {
  std::string out;
  for (const FaultEvent& e : events) {
    out += "{\"at_ms\":" + obs::JsonNumber(e.at_ms) + ",\"fault\":\"" +
           obs::JsonEscape(ToString(e.kind)) + "\",\"stage\":\"" +
           obs::JsonEscape(e.stage) + "\",\"value\":" +
           obs::JsonNumber(e.value) + "}\n";
  }
  return out;
}

FaultInjector::FaultInjector(FaultPlan plan, Rng rng, VirtualClock* clock)
    : plan_(std::move(plan)), rng_(std::move(rng)), clock_(clock) {
  if (clock_ == nullptr) {
    throw std::invalid_argument("FaultInjector: null clock");
  }
}

void FaultInjector::Record(FaultKind kind, const std::string& stage,
                           double value) {
  events_.push_back({kind, stage, clock_->now(), value});
  WL_COUNT("faults.injected." + ToString(kind));
}

bool FaultInjector::ShouldFlap(const std::string& stage) {
  if (flap_fired_ || plan_.flap_stage.empty()) return false;
  return plan_.flap_stage == "any" || plan_.flap_stage == stage;
}

void FaultInjector::MaybeReconnect(WirelessLink& link) {
  if (!flap_down_) return;
  if (clock_->now() + 1e-9 < reconnect_at_ms_) return;
  flap_down_ = false;
  link.set_connected(true);
  Record(FaultKind::kLinkRecover, "link", 0.0);
}

FaultInjector::SendResult FaultInjector::SendMessage(WirelessLink& link,
                                                     const std::string& stage) {
  return Send(link, stage, std::nullopt);
}

FaultInjector::SendResult FaultInjector::SendFile(WirelessLink& link,
                                                  std::size_t bytes,
                                                  const std::string& stage) {
  return Send(link, stage, bytes);
}

FaultInjector::SendResult FaultInjector::Send(
    WirelessLink& link, const std::string& stage,
    std::optional<std::size_t> file_bytes) {
  MaybeReconnect(link);
  // The flap fires before the link draws its delay, so a flapped send
  // consumes no jitter.
  if (ShouldFlap(stage)) {
    flap_fired_ = true;
    flap_down_ = true;
    reconnect_at_ms_ = clock_->now() + plan_.flap_down_ms;
    link.set_connected(false);
    Record(FaultKind::kLinkFlap, stage, plan_.flap_down_ms);
    return {SendStatus::kLinkDown};
  }
  const std::optional<Millis> delay =
      file_bytes ? link.TrySendFileDelay(*file_bytes)
                 : link.TrySendMessageDelay();
  if (!delay) return {SendStatus::kLinkDown};
  // Fixed draw order (drop, spike, dup) keeps the stream replayable.
  if (plan_.message_drop_p > 0.0 && rng_.Chance(plan_.message_drop_p)) {
    Record(FaultKind::kMessageDrop, stage, 0.0);
    return {SendStatus::kDropped};
  }
  SendResult result{SendStatus::kDelivered, *delay, false};
  if (plan_.delay_spike_p > 0.0 && rng_.Chance(plan_.delay_spike_p)) {
    result.delay_ms *= plan_.delay_spike_mult;
    Record(FaultKind::kDelaySpike, stage, result.delay_ms);
  }
  if (plan_.message_dup_p > 0.0 && rng_.Chance(plan_.message_dup_p)) {
    result.duplicated = true;
    Record(FaultKind::kMessageDuplicate, stage, 0.0);
  }
  return result;
}

bool FaultInjector::MutateRecording(const std::string& stage,
                                    std::vector<double>* recording) {
  if (recording == nullptr || recording->empty()) return false;
  if (plan_.recording_drop_p > 0.0 && rng_.Chance(plan_.recording_drop_p)) {
    recording->clear();
    Record(FaultKind::kRecordingDrop, stage, 0.0);
    return true;
  }
  if (plan_.recording_truncate_keep < 1.0) {
    const std::size_t keep = static_cast<std::size_t>(
        static_cast<double>(recording->size()) * plan_.recording_truncate_keep);
    recording->resize(keep);
    Record(FaultKind::kRecordingTruncate, stage,
           static_cast<double>(keep));
    if (recording->empty()) return true;
  }
  if (plan_.recording_clip_level > 0.0) {
    const double limit = plan_.recording_clip_level;
    for (double& s : *recording) s = std::clamp(s, -limit, limit);
    Record(FaultKind::kRecordingClip, stage, limit);
  }
  return false;
}

}  // namespace wearlock::sim
