#include "sim/adversary.h"

#include <stdexcept>
#include <utility>

#include "obs/instrument.h"
#include "obs/json.h"
#include "sim/parse.h"

namespace wearlock::sim {
namespace {

// The kinds' names, in the spec grammar and in every report.
constexpr Named<AttackKind> kAttackKinds[] = {
    {"eavesdrop", AttackKind::kEavesdrop}, {"replay", AttackKind::kReplay},
    {"relay", AttackKind::kRelay},         {"probe", AttackKind::kProbe},
    {"overshadow", AttackKind::kOvershadow},
};

// Each kind's default geometry/electronics, so "relay" alone is a
// sensible attack and the grammar only names what it overrides.
void ApplyKindDefaults(AttackSpec& out) {
  switch (out.kind) {
    case AttackKind::kEavesdrop:
      out.distance_m = 2.0;
      break;
    case AttackKind::kReplay:
      out.distance_m = 0.5;
      out.handling_delay_ms = 250.0;
      break;
    case AttackKind::kRelay:
      out.distance_m = 3.0;
      out.handling_delay_ms = 4.0;
      out.gain_db = 40.0;
      break;
    case AttackKind::kProbe:
      out.distance_m = 1.0;
      break;
    case AttackKind::kOvershadow:
      out.distance_m = 1.5;
      out.level = 2.0;
      break;
  }
}

}  // namespace

std::string ToString(AttackKind kind) {
  for (const Named<AttackKind>& named : kAttackKinds) {
    if (named.value == kind) return std::string(named.name);
  }
  return "?";
}

AttackSpec AttackSpec::Parse(const std::string& spec) {
  if (spec.empty()) {
    throw std::invalid_argument("AttackSpec: empty spec");
  }
  AttackSpec out;
  out.spec = spec;

  // KIND[@DISTANCE][:key=value]...
  const std::vector<SpecEntry> entries = SpecEntries("AttackSpec", spec, ':');
  const SpecEntry& head = entries.front();
  const std::size_t at = head.text.find('@');
  out.kind = ParseName(head.text.substr(0, at), kAttackKinds,
                       "AttackSpec '" + spec + "'");
  ApplyKindDefaults(out);
  if (at != std::string::npos) {
    // The same (0, 1000] m bound as every CLI distance.
    out.distance_m = head.Number(head.text.substr(at + 1), kAboveZero, 1000.0);
  }

  for (std::size_t i = 1; i < entries.size(); ++i) {
    const SpecEntry& entry = entries[i];
    if (!entry.has_value || entry.key.empty()) {
      entry.Reject("expected key=value");
    }
    if (entry.key == "gain") {
      out.gain_db = entry.Number(-40.0, 80.0);
    } else if (entry.key == "delay") {
      out.handling_delay_ms = entry.Number(0.0, kFiniteMax);
    } else if (entry.key == "level") {
      out.level = entry.Number(kAboveZero, kFiniteMax);
    } else {
      entry.Reject("unknown key '" + entry.key + "'");
    }
  }
  return out;
}

std::string AttackTraceJsonl(const std::vector<AttackEvent>& events) {
  std::string out;
  for (const AttackEvent& e : events) {
    out += "{\"at_ms\":" + obs::JsonNumber(e.at_ms) + ",\"attack\":\"" +
           obs::JsonEscape(ToString(e.kind)) + "\",\"stage\":\"" +
           obs::JsonEscape(e.stage) + "\",\"value\":" +
           obs::JsonNumber(e.value) + "}\n";
  }
  return out;
}

AdversaryDevice::AdversaryDevice(AttackSpec spec, Rng rng, VirtualClock* clock)
    : spec_(std::move(spec)), rng_(std::move(rng)), clock_(clock) {
  if (clock_ == nullptr) {
    throw std::invalid_argument("AdversaryDevice: null clock");
  }
}

void AdversaryDevice::Record(const std::string& stage, double value) {
  events_.push_back({spec_.kind, stage, clock_->now(), value});
  WL_COUNT("adversary.event." + ToString(spec_.kind));
}

void AdversaryDevice::StoreCapture(std::vector<double> samples) {
  Record("capture", static_cast<double>(samples.size()));
  tape_.push_back(std::move(samples));
}

}  // namespace wearlock::sim
