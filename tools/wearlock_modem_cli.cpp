// Command-line acoustic modem: frame text into a WAV file and recover it
// back - the quickest way to poke at the modem with real audio tools
// (play the WAV through actual speakers, re-record, feed it back).
//
// Usage:
//   wearlock_modem_cli send "hello watch" out.wav [qpsk|qask|8psk] [none|hamming|rep3]
//   wearlock_modem_cli recv in.wav [qpsk|qask|8psk] [none|hamming|rep3]
//   wearlock_modem_cli probe out.wav
//
// Telemetry flags (anywhere on the line): --trace <out.json> writes a
// Chrome trace_event JSON of the modem spans (host-clock timestamps,
// since this tool has no virtual time); --metrics <out.json> dumps the
// metrics registry; --session-log <out.jsonl> appends one telemetry
// SessionRecord for the transaction (config "modem-<command>",
// host-clock total_ms), so modem experiments land in the same
// wearlock_telemetry pipeline as unlock campaigns.
//
// An unknown modulation or code name, a flag missing its value, or a
// --threads that is not an integer in [0, 1024] exits 2.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "audio/wav.h"
#include "dsp/spectrogram.h"
#include "modem/datagram.h"
#include "modem/golden.h"
#include "obs/metrics.h"
#include "obs/record.h"
#include "obs/trace.h"
#include "sim/executor.h"
#include "sim/parse.h"

namespace {

using namespace wearlock;

constexpr sim::Named<modem::Modulation> kModulations[] = {
    {"qpsk", modem::Modulation::kQpsk}, {"qask", modem::Modulation::kQask},
    {"8psk", modem::Modulation::k8Psk}, {"bpsk", modem::Modulation::kBpsk},
    {"bask", modem::Modulation::kBask}, {"16qam", modem::Modulation::k16Qam},
};

constexpr sim::Named<modem::CodeScheme> kCodes[] = {
    {"none", modem::CodeScheme::kNone},
    {"hamming", modem::CodeScheme::kHamming74},
    {"rep3", modem::CodeScheme::kRepetition3},
};

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  wearlock_modem_cli send <text> <out.wav> [mod] [code]\n"
               "  wearlock_modem_cli recv <in.wav> [mod] [code]\n"
               "  wearlock_modem_cli probe <out.wav>\n"
               "  wearlock_modem_cli spectrogram <in.wav>\n"
               "  wearlock_modem_cli --regen-golden\n"
               "  mod:  qpsk (default) | qask | 8psk | bpsk | bask | 16qam\n"
               "  code: none (default) | hamming | rep3\n"
               "  --regen-golden reprints the tests/modem_golden_test.cpp\n"
               "  table after an intentional DSP change; --threads <n> sizes\n"
               "  its worker pool (default: WEARLOCK_THREADS or all cores).\n");
  return 2;
}

/// Recompute the golden table in parallel (one task per modulation) and
/// print pasteable rows for tests/modem_golden_test.cpp.
int RegenGolden(std::size_t threads) {
  sim::ParallelExecutor executor(threads);
  const std::vector<modem::Modulation>& mods = modem::AllModulations();
  const auto rows =
      executor.Map(mods.size(), modem::kGoldenSeed, [&](sim::TaskContext& ctx) {
        const auto golden =
            modem::ComputeGoldenVector(mods[ctx.index], modem::kGoldenSeed);
        if (!golden.demodulated) {
          throw std::runtime_error("clean loopback failed for " +
                                   ToString(golden.modulation));
        }
        return modem::FormatGoldenRow(golden);
      });
  std::printf("// seed 0x%llX, %zu payload bits, clean loopback\n",
              static_cast<unsigned long long>(modem::kGoldenSeed),
              modem::kGoldenBits);
  for (const std::string& row : rows) std::printf("    %s\n", row.c_str());
  return 0;
}

int Run(int argc, char** argv) {
  // Pull the telemetry/parallelism flags out; everything else stays
  // positional.
  std::string trace_path;
  std::string metrics_path;
  std::string session_log_path;
  std::size_t threads = 0;  // 0 = WEARLOCK_THREADS or hardware default
  bool regen_golden = false;
  std::vector<std::string> pos;  // pos[0] is the command
  for (sim::ArgCursor args(argc, argv); args.Next();) {
    if (args.arg() == "--trace") {
      trace_path = args.Value();
    } else if (args.arg() == "--metrics") {
      metrics_path = args.Value();
    } else if (args.arg() == "--session-log") {
      session_log_path = args.Value();
    } else if (args.arg() == "--threads") {
      threads = args.Number<std::size_t>(0, sim::ParallelExecutor::kMaxThreads);
    } else if (args.arg() == "--regen-golden") {
      regen_golden = true;
    } else {
      pos.push_back(args.arg());
    }
  }

  if (regen_golden) return RegenGolden(threads);
  if (pos.size() < 2) return Usage();
  const std::string& command = pos[0];
  // send <text> <out.wav> [mod] [code] | recv <in.wav> [mod] [code]
  const std::size_t mod_at = command == "send" ? 3 : 2;
  const bool names_mod =
      (command == "send" || command == "recv") && pos.size() > mod_at;
  modem::DatagramConfig config;
  if (names_mod) {
    config.modulation = sim::ParseName(pos[mod_at], kModulations, "modulation");
  }
  if (names_mod && pos.size() > mod_at + 1) {
    config.code = sim::ParseName(pos[mod_at + 1], kCodes, "code");
  }

  // Host-clock tracer: this tool has no virtual time.
  const auto t0 = std::chrono::steady_clock::now();
  wearlock::obs::Tracer tracer([t0] {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
  });
  wearlock::obs::MetricsRegistry registry;
  wearlock::obs::ScopedTracer install_tracer(&tracer);
  wearlock::obs::ScopedMetricsRegistry install_metrics(&registry);
  // False, after saying which, when an output path cannot be opened.
  auto cannot_open = [](const std::string& path) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return false;
  };
  auto dump_telemetry = [&]() {
    if (!trace_path.empty()) {
      std::ofstream os(trace_path);
      if (!os) return cannot_open(trace_path);
      tracer.WriteChromeTrace(os);
      std::fprintf(stderr, "wrote %zu spans to %s\n", tracer.spans().size(),
                   trace_path.c_str());
    }
    if (!metrics_path.empty()) {
      std::ofstream os(metrics_path);
      if (!os) return cannot_open(metrics_path);
      registry.WriteJson(os);
      std::fprintf(stderr, "wrote metrics to %s\n", metrics_path.c_str());
    }
    return true;
  };

  modem::AcousticModem acoustic_modem;

  auto run = [&]() -> int {
  try {
    if (command == "send" && pos.size() >= 3) {
      const std::vector<std::uint8_t> payload(pos[1].begin(), pos[1].end());
      const auto tx = modem::SendDatagram(acoustic_modem, config, payload);
      audio::WriteWav(pos[2], tx.samples);
      std::printf("wrote %zu samples (%.2f s, %zu OFDM symbols, %s/%s) to %s\n",
                  tx.samples.size(),
                  static_cast<double>(tx.samples.size()) / audio::kSampleRate,
                  tx.n_symbols, ToString(config.modulation).c_str(),
                  ToString(config.code).c_str(), pos[2].c_str());
      return 0;
    }
    if (command == "recv") {
      const audio::WavData wav = audio::ReadWav(pos[1]);
      const auto result =
          modem::ReceiveDatagram(acoustic_modem, config, wav.samples);
      if (!result) {
        std::printf("no frame found in %s\n", pos[1].c_str());
        return 1;
      }
      const std::string text(result->payload.begin(), result->payload.end());
      std::printf("payload (%zu bytes, CRC %s, preamble score %.2f):\n%s\n",
                  result->payload.size(), result->crc_ok ? "OK" : "BAD",
                  result->preamble_score, text.c_str());
      return result->crc_ok ? 0 : 1;
    }
    if (command == "spectrogram") {
      const audio::WavData wav = audio::ReadWav(pos[1]);
      const auto spec = dsp::ComputeSpectrogram(wav.samples);
      std::printf("%s", dsp::RenderAscii(spec).c_str());
      std::printf("%zu frames x %zu bins, %.1f Hz/bin, %.1f ms/frame\n",
                  spec.power_db.size(),
                  spec.power_db.empty() ? 0 : spec.power_db.front().size(),
                  spec.bin_hz, spec.frame_s * 1000.0);
      return 0;
    }
    if (command == "probe") {
      const auto tx = acoustic_modem.MakeProbeFrame();
      audio::WriteWav(pos[1], tx.samples);
      std::printf("wrote RTS probe frame (%zu samples) to %s\n",
                  tx.samples.size(), pos[1].c_str());
      return 0;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return Usage();
  };

  const int rc = run();
  if (!dump_telemetry()) return 2;
  if (!session_log_path.empty()) {
    obs::SessionRecord record;
    record.config = "modem-" + command;
    record.environment = "host";
    record.outcome = rc == 0 ? "ok" : "error";
    record.unlocked = rc == 0;
    record.total_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    if (names_mod) record.mode = ToString(config.modulation);
    std::ofstream os(session_log_path, std::ios::app);
    if (!os) {
      cannot_open(session_log_path);
      return 2;
    }
    os << record.ToJsonl() << "\n";
    std::fprintf(stderr, "appended session record to %s\n",
                 session_log_path.c_str());
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  return sim::RunCli("wearlock_modem_cli", argc, argv, Run);
}
