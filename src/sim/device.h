// Device compute/energy profiles.
//
// The paper evaluates three Android devices: Nexus 6 (fast phone), Galaxy
// Nexus (slow phone), and the Moto 360 smartwatch. We reproduce their
// *relative* behaviour (Figs. 6, 10, 12) by timing the real C++ DSP
// kernels on the host and scaling by a per-device slowdown factor
// (Java/Dalvik on old mobile silicon vs. native code on a modern x86).
// Energy is modeled as power x active time.
#pragma once

#include <chrono>
#include <functional>
#include <string>

#include "sim/clock.h"

namespace wearlock::sim {

struct DeviceProfile {
  std::string name;
  /// Multiplier applied to host-measured kernel time to model this
  /// device's execution time (includes Java-vs-native overhead).
  double compute_scale = 1.0;
  /// Average power draw while computing (mW).
  double compute_power_mw = 0.0;
  /// Power draw while recording audio (mW).
  double record_power_mw = 0.0;
  /// Power draw while the Bluetooth radio is active (mW).
  double bt_power_mw = 0.0;
  /// Power draw while the WiFi radio is active (mW).
  double wifi_power_mw = 0.0;

  /// The phone in the paper's fast configuration (Config1).
  static DeviceProfile Nexus6();
  /// The low-end phone (Config2).
  static DeviceProfile GalaxyNexus();
  /// The smartwatch (Config3 runs the DSP here locally).
  static DeviceProfile Moto360();

  /// Modeled execution time (ms) on this device for work that took
  /// `host_ms` on the host.
  Millis ScaleCompute(Millis host_ms) const { return host_ms * compute_scale; }

  /// Energy (mJ) for `ms` of activity at `power_mw`.
  static double EnergyMj(Millis ms, double power_mw) {
    return power_mw * ms / 1000.0;
  }
};

/// Wall-clock timing of a callable on the host, in milliseconds.
/// Runs the workload once and returns the elapsed time - unless fixed
/// host timing is armed (below), in which case the workload still runs
/// but the fixed value is returned instead of a measurement.
Millis TimeHostMs(const std::function<void()>& work);

/// Fixed host timing: campaigns that must be byte-identical across
/// thread counts (the fleet-telemetry determinism gate) cannot let
/// measured kernel wall time leak into modeled timelines - under load
/// the same seed would report different compute_ms. Arming this makes
/// every TimeHostMs call report `ms` (>= 0); a negative value restores
/// real measurement. Also armed by the WEARLOCK_FIXED_HOST_MS
/// environment variable (a number >= 0; anything else keeps measuring),
/// read once at first use. Set before spawning
/// campaign workers; flipping it mid-Map is a determinism bug.
void SetFixedHostTimingMs(double ms);
/// The armed fixed value, or a negative sentinel when measuring.
double FixedHostTimingMs();

/// Median of `reps` timed runs (robust against scheduler noise).
Millis TimeHostMedianMs(const std::function<void()>& work, int reps);

}  // namespace wearlock::sim
