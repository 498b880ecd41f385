// OTP service (paper §IV): RFC 4226 HOTP tokens over the acoustic
// channel.
//
// The phone generates the token and transmits it acoustically; the
// *phone* also validates what came back from the watch's recording, so
// validation is a BER comparison against the expected token(s) rather
// than an exact match - the acoustic loop proves the watch heard *this*
// token *now*, bounding proximity. Freshness comes from the counter; a
// replayed recording encodes a stale counter's token and fails.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "crypto/hotp.h"

namespace wearlock::protocol {

struct TokenValidation {
  bool accepted = false;
  double ber = 1.0;                 ///< best BER over the resync window
  std::uint64_t matched_counter = 0;
  /// Bits of the best-matching expected token (empty when the payload
  /// was malformed). Lets telemetry attribute bit errors to the
  /// sub-channels that carried them.
  std::vector<std::uint8_t> expected_bits;
};

/// Phone-side token authority: one shared key, a send counter, and a
/// validation window for counters burned by failed deliveries.
class OtpService {
 public:
  /// @param key shared secret negotiated over the wireless channel.
  /// @param window how many counters ahead the validator searches.
  OtpService(std::vector<std::uint8_t> key, std::uint64_t initial_counter = 0,
             unsigned window = 3);

  /// Bits of the next token to transmit (advances the counter).
  std::vector<std::uint8_t> NextTokenBits();

  /// Validate demodulated bits against the expected counter window: the
  /// token whose bits are nearest (lowest BER) wins; accepted if its BER
  /// is <= required_ber. On acceptance the counter moves past the match
  /// (one-time semantics).
  TokenValidation ValidateBits(const std::vector<std::uint8_t>& bits,
                               double required_ber);

  /// The 6-digit human-readable form of the current token (fallback
  /// display / debugging).
  std::string CurrentCode(unsigned digits = 6) const;

  std::uint64_t send_counter() const { return send_counter_; }
  std::uint64_t expected_counter() const { return expected_counter_; }

 private:
  std::uint32_t TokenAt(std::uint64_t counter) const;

  std::vector<std::uint8_t> key_;
  std::uint64_t send_counter_;
  std::uint64_t expected_counter_;
  unsigned window_;
};

}  // namespace wearlock::protocol
