#include "cli/args.hpp"

#include "common/bytes.hpp"

#include <gtest/gtest.h>

namespace repro::cli {
namespace {

Args parse(std::initializer_list<const char*> tokens) {
  std::vector<const char*> argv(tokens);
  auto result = Args::parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_TRUE(result.is_ok());
  return std::move(result).value();
}

TEST(Args, PositionalsInOrder) {
  const Args args = parse({"compare", "a.ckpt", "b.ckpt"});
  ASSERT_EQ(args.positional().size(), 3U);
  EXPECT_EQ(args.positional()[0], "compare");
  EXPECT_EQ(args.positional()[2], "b.ckpt");
}

TEST(Args, FlagWithSeparateValue) {
  const Args args = parse({"--eps", "1e-6", "--chunk", "64K"});
  EXPECT_EQ(args.get("eps", ""), "1e-6");
  EXPECT_EQ(args.get("chunk", ""), "64K");
}

TEST(Args, FlagWithEqualsValue) {
  const Args args = parse({"--eps=1e-7"});
  EXPECT_DOUBLE_EQ(args.get_f64("eps", 0).value(), 1e-7);
}

TEST(Args, BooleanFlagBeforeAnotherFlag) {
  const Args args = parse({"--stop-early", "--eps", "1e-6"});
  EXPECT_TRUE(args.has("stop-early"));
  EXPECT_EQ(args.get("stop-early", ""), "true");
  EXPECT_EQ(args.get("eps", ""), "1e-6");
}

TEST(Args, TrailingBooleanFlag) {
  const Args args = parse({"cmd", "--verbose"});
  EXPECT_TRUE(args.has("verbose"));
}

TEST(Args, MixedPositionalAndFlags) {
  const Args args = parse({"history", "root", "--eps", "1e-5", "run-a",
                           "run-b"});
  ASSERT_EQ(args.positional().size(), 4U);
  EXPECT_EQ(args.positional()[1], "root");
  EXPECT_EQ(args.positional()[3], "run-b");
  EXPECT_TRUE(args.has("eps"));
}

TEST(Args, DefaultsWhenMissing) {
  const Args args = parse({"cmd"});
  EXPECT_EQ(args.get("missing", "fallback"), "fallback");
  EXPECT_EQ(args.get_u64("missing", 7).value(), 7U);
  EXPECT_DOUBLE_EQ(args.get_f64("missing", 2.5).value(), 2.5);
  EXPECT_EQ(args.get_size("missing", 4096).value(), 4096U);
}

TEST(Args, TypedParsing) {
  const Args args =
      parse({"--count", "42", "--ratio", "0.5", "--size", "2M"});
  EXPECT_EQ(args.get_u64("count", 0).value(), 42U);
  EXPECT_DOUBLE_EQ(args.get_f64("ratio", 0).value(), 0.5);
  EXPECT_EQ(args.get_size("size", 0).value(), 2 * kMiB);
}

TEST(Args, TypedParsingErrors) {
  const Args args = parse({"--count", "xyz", "--ratio", "abc"});
  EXPECT_FALSE(args.get_u64("count", 0).is_ok());
  EXPECT_FALSE(args.get_f64("ratio", 0).is_ok());
}

TEST(Args, BareDoubleDashRejected) {
  const char* argv[] = {"--"};
  EXPECT_FALSE(Args::parse(1, argv).is_ok());
}

}  // namespace
}  // namespace repro::cli
