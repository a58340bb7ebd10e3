#include "util/text.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <istream>
#include <sstream>

namespace tapo::util::text {

bool LineReader::next(Line& line) {
  std::string raw;
  while (std::getline(is_, raw)) {
    ++number_;
    if (!raw.empty() && raw.back() == '\r') raw.pop_back();
    line.number = number_;
    line.tokens.clear();
    std::istringstream split(raw);
    for (std::string token; split >> token;) line.tokens.push_back(token);
    if (!line.tokens.empty() && line.tokens[0][0] != '#') return true;
  }
  return false;
}

Status LineReader::expect_header(std::string_view header) {
  Line line;
  if (!next(line)) {
    return Status::InvalidArgument("empty document (expected header '" +
                                   std::string(header) + "')");
  }
  std::string got = line.tokens[0];
  for (std::size_t i = 1; i < line.tokens.size(); ++i) {
    got += ' ' + line.tokens[i];
  }
  if (got != header) {
    return at_line(line.number, "expected header '" + std::string(header) +
                                    "', got '" + got + "'");
  }
  return Status::Ok();
}

Status at_line(std::size_t line, const std::string& message) {
  return Status::InvalidArgument("line " + std::to_string(line) + ": " +
                                 message);
}

bool parse_number(const std::string& token, double& out) {
  // strtod would skip leading whitespace; a token never has any.
  if (token.empty() || std::isspace(static_cast<unsigned char>(token[0]))) {
    return false;
  }
  char* end = nullptr;
  const double value = std::strtod(token.c_str(), &end);
  if (end != token.c_str() + token.size() || !std::isfinite(value)) {
    return false;
  }
  out = value;
  return true;
}

std::string format_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string format_hex(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + '"';
}

std::string json_number(double v) {
  return std::isfinite(v) ? format_double(v) : "null";
}

}  // namespace tapo::util::text
