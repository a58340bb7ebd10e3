#include "util/text.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <sstream>

namespace tapo::util::text {
namespace {

std::vector<Line> read_all(const std::string& text) {
  std::istringstream is(text);
  LineReader reader(is);
  std::vector<Line> lines;
  for (Line line; reader.next(line);) lines.push_back(line);
  return lines;
}

TEST(Text, CrlfBlankAndCommentLinesAreSkippedBeforeTheHeader) {
  std::istringstream is(
      "# archived by hand\r\n"
      "\r\n"
      "   \t\r\n"
      "tapo-faults   v1\r\n"
      "5 node_fail 0\r\n");
  LineReader reader(is);
  ASSERT_TRUE(reader.expect_header("tapo-faults v1").ok());
  Line line;
  ASSERT_TRUE(reader.next(line));
  EXPECT_EQ(line.number, 5u);
  EXPECT_EQ(line.tokens, (std::vector<std::string>{"5", "node_fail", "0"}));
  EXPECT_FALSE(reader.next(line));
  EXPECT_EQ(reader.line_number(), 5u);
}

TEST(Text, HeaderMismatchAndEmptyDocumentAreErrors) {
  std::istringstream wrong("\n# c\ntapo-faults v2\n");
  const Status s = LineReader(wrong).expect_header("tapo-faults v1");
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(),
            "line 3: expected header 'tapo-faults v1', got 'tapo-faults v2'");

  std::istringstream empty("# only a comment\n\n");
  EXPECT_FALSE(LineReader(empty).expect_header("tapo-faults v1").ok());
}

TEST(Text, LinesCarryThePhysicalLineNumberOfTheirTokens) {
  const auto lines = read_all("a\n\n# b\n  c d  \n#e f\ng #h\n");
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0].number, 1u);
  EXPECT_EQ(lines[1].number, 4u);
  EXPECT_EQ(lines[1].tokens, (std::vector<std::string>{"c", "d"}));
  // Only a leading '#' makes a comment line; a later one is a token.
  EXPECT_EQ(lines[2].number, 6u);
  EXPECT_EQ(lines[2].tokens, (std::vector<std::string>{"g", "#h"}));
  // A last line without a newline still counts, and a token at the end of a
  // line belongs to that line, not the next.
  const auto tail = read_all("x\ny 1.5");
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[1].number, 2u);
  EXPECT_EQ(at_line(tail[1].number, "bad").message(), "line 2: bad");
}

TEST(Text, IndicesAreUnsignedDecimalDigitsWithinTheirType) {
  std::uint64_t u = 7;
  EXPECT_TRUE(parse_unsigned("18446744073709551615", u));
  EXPECT_EQ(u, std::numeric_limits<std::uint64_t>::max());
  EXPECT_TRUE(parse_unsigned("007", u));
  EXPECT_EQ(u, 7u);
  u = 3;
  for (const char* bad : {"18446744073709551616", "99999999999999999999",
                          "+5", "-0", "-1", "", " 5", "5 ", "5x", "0x10",
                          "1e3", "1.0"}) {
    EXPECT_FALSE(parse_unsigned(bad, u)) << bad;
  }
  EXPECT_EQ(u, 3u) << "a rejected token leaves the output untouched";

  std::uint8_t small = 0;
  EXPECT_TRUE(parse_unsigned("255", small));
  EXPECT_EQ(small, 255);
  EXPECT_FALSE(parse_unsigned("256", small));
  std::size_t size = 0;
  EXPECT_TRUE(parse_unsigned("1152921504606846976", size));  // 2^60
  EXPECT_EQ(size, std::size_t{1} << 60);
}

TEST(Text, NumbersAreWholeFiniteStrtodTokens) {
  double v = 0.0;
  EXPECT_TRUE(parse_number("0.5", v));
  EXPECT_EQ(v, 0.5);
  EXPECT_TRUE(parse_number("-0", v));
  EXPECT_TRUE(std::signbit(v));
  EXPECT_TRUE(parse_number("+2.5e-3", v));
  EXPECT_EQ(v, 2.5e-3);
  v = 42.0;
  for (const char* bad : {"1e999", "-1e999", "nan", "NaN", "inf", "-inf",
                          "infinity", "", "1.5x", "0.5,1", " 1", "1 ", "--1"}) {
    EXPECT_FALSE(parse_number(bad, v)) << bad;
  }
  EXPECT_EQ(v, 42.0);
}

TEST(Text, HexFloatsRoundTripExactly) {
  const double values[] = {0.1, -1.0 / 3.0, 5e-324, 1.7976931348623157e308,
                           123456.789, -0.0};
  for (double x : values) {
    double back = 0.0;
    ASSERT_TRUE(parse_number(format_hex(x), back)) << format_hex(x);
    EXPECT_EQ(std::memcmp(&back, &x, sizeof x), 0) << format_hex(x);
    ASSERT_TRUE(parse_number(format_double(x), back)) << format_double(x);
    EXPECT_EQ(std::memcmp(&back, &x, sizeof x), 0) << format_double(x);
  }
  EXPECT_EQ(format_hex(1.0), "0x1p+0");
  EXPECT_EQ(format_double(0.5), "0.5");
  EXPECT_EQ(format_double(0.1), "0.10000000000000001");
}

TEST(Text, JsonStringsAndNumbers) {
  EXPECT_EQ(json_string("plain"), "\"plain\"");
  EXPECT_EQ(json_string("q\"b\\n\nt\tr\r"), "\"q\\\"b\\\\n\\nt\\tr\\r\"");
  EXPECT_EQ(json_string(std::string("\x01\x1f", 2)), "\"\\u0001\\u001f\"");
  EXPECT_EQ(json_string("caf\xc3\xa9"), "\"caf\xc3\xa9\"");  // bytes pass
  EXPECT_EQ(json_number(0.25), "0.25");
  EXPECT_EQ(json_number(std::nan("")), "null");
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_number(-std::numeric_limits<double>::infinity()), "null");
}

}  // namespace
}  // namespace tapo::util::text
