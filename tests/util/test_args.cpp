#include "util/args.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

namespace tapo::util {
namespace {

ArgParser make_parser() {
  ArgParser parser("tool", "test tool");
  parser.add_flag("verbose", "be chatty");
  parser.add_option("nodes", "node count", "150");
  parser.add_option("psi", "psi percent", "50.0");
  return parser;
}

TEST(Args, DefaultsApplyWithoutArguments) {
  auto parser = make_parser();
  EXPECT_TRUE(parser.parse({}));
  EXPECT_FALSE(parser.flag("verbose"));
  EXPECT_EQ(parser.option("nodes"), "150");
  EXPECT_EQ(parser.option_int("nodes"), 150);
  EXPECT_DOUBLE_EQ(parser.option_double("psi"), 50.0);
}

TEST(Args, EqualsSyntax) {
  auto parser = make_parser();
  EXPECT_TRUE(parser.parse({"--nodes=40", "--psi=25.5"}));
  EXPECT_EQ(parser.option_int("nodes"), 40);
  EXPECT_DOUBLE_EQ(parser.option_double("psi"), 25.5);
}

TEST(Args, SpaceSyntax) {
  auto parser = make_parser();
  EXPECT_TRUE(parser.parse({"--nodes", "40"}));
  EXPECT_EQ(parser.option_int("nodes"), 40);
}

TEST(Args, FlagSetting) {
  auto parser = make_parser();
  EXPECT_TRUE(parser.parse({"--verbose"}));
  EXPECT_TRUE(parser.flag("verbose"));
}

TEST(Args, FlagRejectsValue) {
  auto parser = make_parser();
  EXPECT_FALSE(parser.parse({"--verbose=yes"}));
  EXPECT_NE(parser.error().find("does not take a value"), std::string::npos);
}

TEST(Args, UnknownArgumentFails) {
  auto parser = make_parser();
  EXPECT_FALSE(parser.parse({"--bogus"}));
  EXPECT_NE(parser.error().find("unknown"), std::string::npos);
}

TEST(Args, MissingValueFails) {
  auto parser = make_parser();
  EXPECT_FALSE(parser.parse({"--nodes"}));
  EXPECT_NE(parser.error().find("requires a value"), std::string::npos);
}

TEST(Args, HelpRequested) {
  auto parser = make_parser();
  EXPECT_FALSE(parser.parse({"--help"}));
  EXPECT_TRUE(parser.help_requested());
}

TEST(Args, PositionalArguments) {
  auto parser = make_parser();
  EXPECT_TRUE(parser.parse({"assign", "--nodes=10", "extra"}));
  ASSERT_EQ(parser.positional().size(), 2u);
  EXPECT_EQ(parser.positional()[0], "assign");
  EXPECT_EQ(parser.positional()[1], "extra");
}

TEST(Args, ArgcArgvInterface) {
  auto parser = make_parser();
  const char* argv[] = {"tool", "--nodes=7", "--verbose"};
  EXPECT_TRUE(parser.parse(3, argv));
  EXPECT_EQ(parser.option_int("nodes"), 7);
  EXPECT_TRUE(parser.flag("verbose"));
}

TEST(Args, UsageListsEverything) {
  const auto parser = make_parser();
  const std::string usage = parser.usage();
  EXPECT_NE(usage.find("--verbose"), std::string::npos);
  EXPECT_NE(usage.find("--nodes"), std::string::npos);
  EXPECT_NE(usage.find("default: 150"), std::string::npos);
  EXPECT_NE(usage.find("--help"), std::string::npos);
}

TEST(Args, NonNumericOptionExitsWithStatusTwo) {
  auto parser = make_parser();
  ASSERT_TRUE(parser.parse({"--nodes=abc"}));
  EXPECT_EXIT(parser.option_int("nodes"), ::testing::ExitedWithCode(2),
              "--nodes: 'abc' is not an integer");
}

TEST(Args, NumericOptionsFollowTheSharedLexicalRules) {
  auto parser = make_parser();
  ASSERT_TRUE(parser.parse({"--nodes=-5", "--psi=0x1p-1"}));
  EXPECT_EQ(parser.option_int("nodes"), -5);  // ranges are the caller's
  EXPECT_EQ(parser.option_double("psi"), 0.5);
  for (const char* bad : {"--nodes=12x", "--nodes=+5", "--nodes=",
                          "--nodes=9223372036854775808", "--nodes=1.0"}) {
    auto p = make_parser();
    ASSERT_TRUE(p.parse({bad}));
    EXPECT_EXIT(p.option_int("nodes"), ::testing::ExitedWithCode(2),
                "option --nodes")
        << bad;
  }
  for (const char* bad : {"--psi=12x", "--psi=nan", "--psi=inf", "--psi=1e999"}) {
    auto p = make_parser();
    ASSERT_TRUE(p.parse({bad}));
    EXPECT_EXIT(p.option_double("psi"), ::testing::ExitedWithCode(2),
                "option --psi: .* is not a finite number")
        << bad;
  }
  auto extremes = make_parser();
  ASSERT_TRUE(extremes.parse({"--nodes=-9223372036854775808"}));
  EXPECT_EQ(extremes.option_int("nodes"),
            std::numeric_limits<std::int64_t>::min());
}

}  // namespace
}  // namespace tapo::util
