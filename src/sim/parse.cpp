#include "sim/parse.h"

#include <cstdio>
#include <exception>
#include <utility>

namespace wearlock::sim {

std::string RangeText(double lo, double hi) {
  char low[32] = "(0";
  if (lo != kAboveZero) std::snprintf(low, sizeof(low), "[%g", lo);
  char high[32] = "inf)";
  if (hi != kFiniteMax) std::snprintf(high, sizeof(high), "%g]", hi);
  return std::string(low) + ", " + high;
}

std::vector<std::string> SplitList(std::string_view list, char sep) {
  std::vector<std::string> items;
  for (std::size_t pos = 0;;) {
    const std::size_t end = list.find(sep, pos);
    items.emplace_back(list.substr(pos, end - pos));
    if (end == std::string_view::npos) return items;
    pos = end + 1;
  }
}

double SpecEntry::Number(std::string_view part, double lo, double hi) const {
  if (const std::optional<double> v = TryParseNumber(part, lo, hi)) return *v;
  Reject("'" + std::string(part) + "' is not a number in " +
         RangeText(lo, hi));
}

void SpecEntry::Reject(const std::string& why) const {
  throw std::invalid_argument(std::string(grammar) + ": " + why + " in '" +
                              std::string(text) + "'");
}

std::vector<SpecEntry> SpecEntries(std::string_view grammar,
                                   std::string_view spec, char sep) {
  std::vector<SpecEntry> entries;
  for (std::string& text : SplitList(spec, sep)) {
    const std::size_t eq = text.find('=');
    const bool has_value = eq != std::string::npos;
    std::string key = text.substr(0, eq);
    std::string value = has_value ? text.substr(eq + 1) : "";
    entries.push_back(
        {grammar, std::move(text), std::move(key), std::move(value), has_value});
  }
  return entries;
}

bool ArgCursor::Next() {
  if (++index_ >= argc_) return false;
  arg_ = argv_[index_];
  return true;
}

std::string ArgCursor::Value() {
  if (index_ + 1 >= argc_) {
    throw std::invalid_argument("missing value for " + arg_);
  }
  return argv_[++index_];
}

int RunCli(const char* tool, int argc, char** argv, int (*body)(int, char**)) {
  try {
    return body(argc, argv);
  } catch (const std::exception& error) {
    // A CLI's stderr is its interface; library code never calls this.
    std::fprintf(stderr, "%s: %s\n", tool, error.what());  // NOLINT(banned-api)
    return 2;
  }
}

}  // namespace wearlock::sim
