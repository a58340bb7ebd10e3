// The lexical layer of every operator-facing text format: the
// tapo-datacenter, tapo-scenarios, tapo-traces and tapo-faults v1 documents,
// the trace CSV and the command-line numeric options read through it, and
// the JSON writers write through it, so the token and line rules exist once.
// docs/SCENARIOS.md "Lexical rules" states them; each format keeps its own
// grammar (keywords, record order, range checks and their messages).
#pragma once

#include <cstddef>
#include <fstream>
#include <istream>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/status.h"

namespace tapo::util::text {

// One significant line: its 1-based number in the document and its tokens
// (never empty).
struct Line {
  std::size_t number = 0;
  std::vector<std::string> tokens;
};

class LineReader {
 public:
  explicit LineReader(std::istream& is) : is_(is) {}

  // Reads the next significant line into `line`; false at end of document.
  bool next(Line& line);

  // Reads the first significant line, which must spell `header` (tokens
  // joined by single spaces, e.g. "tapo-faults v1").
  Status expect_header(std::string_view header);

  // Number of the last physical line read, blank or comment lines included.
  std::size_t line_number() const { return number_; }

 private:
  std::istream& is_;
  std::size_t number_ = 0;
};

// "line N: <message>" as an INVALID_ARGUMENT status.
Status at_line(std::size_t line, const std::string& message);

// A finite number spelled by the whole token.
bool parse_number(const std::string& token, double& out);

// An index, count or seed: decimal digits only, within T's range.
template <typename T>
bool parse_unsigned(std::string_view token, T& out) {
  static_assert(std::is_unsigned_v<T>);
  if (token.empty()) return false;
  T value = 0;
  for (const char c : token) {
    if (c < '0' || c > '9') return false;
    const T digit = static_cast<T>(c - '0');
    if (value > (std::numeric_limits<T>::max() - digit) / 10) return false;
    value = static_cast<T>(value * 10 + digit);
  }
  out = value;
  return true;
}

// %.17g: round-trips every finite double through parse_number while
// keeping short values readable (0.5 stays "0.5").
std::string format_double(double v);
// %a: the exact hex-float spelling the archive uses.
std::string format_hex(double v);

// A JSON string literal, quotes included.
std::string json_string(std::string_view s);
// %.17g, or null for a non-finite value (JSON has no spelling for it).
std::string json_number(double v);

// Opens `path` and parses it with `load` (a loader taking std::istream&
// and returning StatusOr); failures gain a "<path>: " prefix, and an
// unreadable path is NOT_FOUND.
template <typename Load>
auto load_file(const std::string& path, Load load)
    -> decltype(load(std::declval<std::istream&>())) {
  std::ifstream is(path);
  if (!is) return Status::NotFound("cannot open '" + path + "'");
  auto loaded = load(is);
  if (!loaded.ok()) return loaded.status().with_context(path);
  return loaded;
}

}  // namespace tapo::util::text
