#include "protocol/otp_service.h"

#include <stdexcept>

#include "modem/modem.h"

namespace wearlock::protocol {

OtpService::OtpService(std::vector<std::uint8_t> key,
                       std::uint64_t initial_counter, unsigned window)
    : key_(std::move(key)),
      send_counter_(initial_counter),
      expected_counter_(initial_counter),
      window_(window) {
  if (key_.empty()) throw std::invalid_argument("OtpService: empty key");
}

std::uint32_t OtpService::TokenAt(std::uint64_t counter) const {
  return crypto::HotpValue(key_, counter);
}

std::vector<std::uint8_t> OtpService::NextTokenBits() {
  return modem::BitsFromWord(TokenAt(send_counter_++));
}

TokenValidation OtpService::ValidateBits(const std::vector<std::uint8_t>& bits,
                                         double required_ber) {
  TokenValidation v;
  if (bits.size() != 32) return v;  // malformed payload: reject
  // Search every issued-but-unvalidated counter within the window.
  const std::uint64_t hi =
      std::min(send_counter_, expected_counter_ + window_ + 1);
  for (std::uint64_t c = expected_counter_; c < hi; ++c) {
    auto expected = modem::BitsFromWord(TokenAt(c));
    const double ber = modem::BitErrorRate(expected, bits);
    if (ber < v.ber) {
      v.ber = ber;
      v.matched_counter = c;
      v.expected_bits = std::move(expected);
    }
  }
  if (v.ber <= required_ber && hi > expected_counter_) {
    v.accepted = true;
    expected_counter_ = v.matched_counter + 1;
  }
  return v;
}

std::string OtpService::CurrentCode(unsigned digits) const {
  return crypto::HotpCode(key_, send_counter_, digits);
}

}  // namespace wearlock::protocol
