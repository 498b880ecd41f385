// Attack demonstration: the three §IV threats run against a live
// deployment, each defeated by a different mechanism.
//
//   brute force  -> 3-strike keyguard lockout over a 2^32 keyspace
//   co-located   -> propagation loss: BER explodes past ~1 m
//   replay       -> OTP freshness + the acoustic timing window
//
// Build & run:  ./build/examples/example_attack_demo
#include <algorithm>
#include <cstdio>

#include "protocol/attack_agents.h"

int main() {
  using namespace wearlock;
  using namespace wearlock::protocol;

  std::printf("=== 1. Brute force ===\n");
  std::printf("The attacker holds the victim's phone out of acoustic range\n"
              "and fires random 32-bit token guesses at the validator.\n");
  {
    sim::Rng rng(99);
    OtpService otp({'s', 'e', 'c', 'r', 'e', 't'});
    Keyguard keyguard;
    const auto result = BruteForceAttack(otp, keyguard, rng,
                                         /*required_ber=*/0.1,
                                         /*max_attempts=*/50);
    std::printf("  guesses fired : %zu\n", result.attempts);
    std::printf("  any accepted  : %s\n", result.succeeded ? "YES (!)" : "no");
    std::printf("  keyguard      : %s\n\n",
                result.locked_out ? "LOCKED OUT after 3 failures" : "open");
  }

  std::printf("=== 2. Co-located attacker ===\n");
  std::printf("The attacker carries the phone toward the victim's watch and\n"
              "presses power at decreasing distances.\n");
  for (double d : {3.0, 2.0, 1.4, 0.8, 0.4}) {
    ScenarioConfig scenario = ScenarioConfig::Config1();
    scenario.seed = 31;
    scenario.scene.distance_m = d;
    // The attacker holds still next to a still victim: motion gets
    // through, and the modem's range bound does the work.
    scenario.phone.enable_sensor_filter = false;
    const UnlockReport report = UnlockSession(scenario).Attempt();
    std::printf("  %.1f m: %-16s (token BER %.3f)%s\n", d,
                ToString(report.outcome).c_str(), report.token_ber,
                report.unlocked ? "  <- inside the secure range" : "");
  }
  std::printf("  The modem itself is the rangefinder: beyond ~1 m no mode\n"
              "  meets the BER bound, so the phone refuses to transmit.\n\n");

  std::printf("=== 3. Record-and-replay ===\n");
  std::printf("The attacker tapes Phase 2 of a legitimate unlock from 60 cm\n"
              "away, then replays the tape into a later session.\n");
  {
    ScenarioConfig scenario = ScenarioConfig::Config1();
    scenario.seed = 32;
    const AttackReport slow =
        RunAttackScenario(scenario, sim::AttackSpec::Parse("replay@0.6:delay=800"));
    const bool taped = std::any_of(
        slow.events.begin(), slow.events.end(),
        [](const sim::AttackEvent& e) { return e.stage == "capture"; });
    std::printf("  capture succeeded    : %s\n",
                taped ? "yes (the channel is public)" : "no");
    std::printf("  replay w/ 800 ms lag : %s\n",
                ToString(slow.victim_outcome).c_str());
    const AttackReport instant =
        RunAttackScenario(scenario, sim::AttackSpec::Parse("replay@0.6:delay=0"));
    std::printf("  hypothetical 0-lag   : %s (stale token, BER %.2f)\n",
                ToString(instant.victim_outcome).c_str(),
                instant.attacker_token_ber);
  }
  std::printf("  Every unlock burns its counter: the recorded token never\n"
              "  validates again, and real replay gear adds detectable lag.\n");
  return 0;
}
