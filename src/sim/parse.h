// Strict parsing for every number a person types: the fault, attack and
// impairment spec grammars, CLI flags and environment variables.
//
// One rule everywhere (docs/robustness.md, "Numbers in specs and
// flags"): a number is the whole token as std::from_chars reads it, a
// plain finite decimal with an optional '-' and exponent, inside an
// inclusive [lo, hi]. No '+', whitespace, hex, nan or inf. Anything else
// throws std::invalid_argument naming the flag or spec entry, which a
// CLI run through RunCli turns into exit code 2.
#pragma once

#include <charconv>
#include <cmath>
#include <concepts>
#include <cstdlib>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace wearlock::sim {

/// Open-ended bounds: [kAboveZero, hi] is (0, hi], and [lo, kFiniteMax]
/// has no upper limit yet still excludes inf.
inline constexpr double kAboveZero = std::numeric_limits<double>::denorm_min();
inline constexpr double kFiniteMax = std::numeric_limits<double>::max();

/// `text` as a finite number in [lo, hi], or nullopt.
template <typename T>
std::optional<T> TryParseNumber(std::string_view text, T lo, T hi) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end ||
      !(value >= lo && value <= hi) || !std::isfinite(double(value))) {
    return std::nullopt;
  }
  return value;
}

/// "[0, 1]", "(0, 1000]", "[1, inf)": a range for error messages.
std::string RangeText(double lo, double hi);
template <std::integral T>
std::string RangeText(T lo, T hi) {
  return "[" + std::to_string(lo) + ", " + std::to_string(hi) + "]";
}

/// `text` as a finite number in [lo, hi]. @throws std::invalid_argument
/// "<what>: '<text>' is not a number in <range>".
template <typename T>
T ParseNumber(std::string_view text, T lo, T hi, std::string_view what) {
  if (const std::optional<T> value = TryParseNumber(text, lo, hi)) {
    return *value;
  }
  throw std::invalid_argument(std::string(what) + ": '" + std::string(text) +
                              "' is not a number in " + RangeText(lo, hi));
}

/// The environment variable `name` as a number in [lo, hi]; nullopt
/// when it is unset or malformed, so the caller keeps its default.
template <typename T>
std::optional<T> EnvNumber(const char* name, T lo, T hi) {
  const char* value = std::getenv(name);
  return value ? TryParseNumber<T>(value, lo, hi) : std::nullopt;
}

/// `list` cut at every `sep`, empty items kept: "" is one empty item.
std::vector<std::string> SplitList(std::string_view list, char sep);

/// One entry of a spec grammar, split at its first '='.
struct SpecEntry {
  std::string_view grammar;  ///< "FaultPlan", ...: prefixes every error
  std::string text;          ///< the whole entry, quoted in errors
  std::string key;           ///< before the first '=' (all without one)
  std::string value;         ///< after the first '='
  bool has_value = false;    ///< the entry holds an '='

  /// `part` (the value, or a piece of it) as a finite number in [lo, hi].
  double Number(std::string_view part, double lo, double hi) const;
  double Number(double lo, double hi) const { return Number(value, lo, hi); }
  /// @throws std::invalid_argument "<grammar>: <why> in '<text>'".
  [[noreturn]] void Reject(const std::string& why) const;
};

/// The entry walker the spec grammars share: `spec` cut at every `sep`.
/// Empty entries are kept; each grammar decides whether they are legal.
std::vector<SpecEntry> SpecEntries(std::string_view grammar,
                                   std::string_view spec, char sep);

/// One accepted name of an enumerated value.
template <typename T>
struct Named {
  std::string_view name;
  T value;
};

/// The value `text` names in `table`.
/// @throws std::invalid_argument naming `what` and the accepted names.
template <typename T, std::size_t N>
T ParseName(std::string_view text, const Named<T> (&table)[N],
            std::string_view what) {
  std::string names;
  for (const Named<T>& entry : table) {
    if (entry.name == text) return entry.value;
    names += names.empty() ? "" : "|";
    names += entry.name;
  }
  throw std::invalid_argument(std::string(what) + ": unknown name '" +
                              std::string(text) + "' (want " + names + ")");
}

/// A CLI's flag loop: steps through argv and hands out each flag's
/// value, throwing std::invalid_argument naming the flag when the value
/// is missing or malformed.
class ArgCursor {
 public:
  ArgCursor(int argc, char** argv) : argc_(argc), argv_(argv) {}

  /// Steps to the next argument; false once argv is used up.
  bool Next();
  const std::string& arg() const { return arg_; }
  /// The argument after the current flag, consumed.
  std::string Value();
  /// Value() as a finite number in [lo, hi].
  template <typename T>
  T Number(T lo, T hi) {
    return ParseNumber<T>(Value(), lo, hi, arg_);
  }

 private:
  int argc_;
  char** argv_;
  int index_ = 0;
  std::string arg_;
};

/// A CLI's main: returns body(argc, argv). A std::exception escaping
/// the body is reported on stderr as "<tool>: <what>" and exits 2.
int RunCli(const char* tool, int argc, char** argv, int (*body)(int, char**));

}  // namespace wearlock::sim
