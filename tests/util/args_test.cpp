#include "util/args.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace webcache::util {
namespace {

Args make_args(std::initializer_list<const char*> argv) {
  std::vector<const char*> full = {"prog"};
  full.insert(full.end(), argv.begin(), argv.end());
  return Args(static_cast<int>(full.size()), full.data());
}

TEST(Args, EmptyHasNothing) {
  Args args = make_args({});
  EXPECT_FALSE(args.has("x"));
  EXPECT_TRUE(args.positional().empty());
  EXPECT_EQ(args.get("x", "fallback"), "fallback");
}

TEST(Args, KeyValueParsing) {
  Args args = make_args({"--scale=0.5", "--name=dfn"});
  EXPECT_TRUE(args.has("scale"));
  EXPECT_EQ(args.get("name", ""), "dfn");
  EXPECT_DOUBLE_EQ(args.get_double("scale", 1.0), 0.5);
}

TEST(Args, BareFlagIsTrue) {
  Args args = make_args({"--verbose"});
  EXPECT_TRUE(args.get_bool("verbose", false));
}

TEST(Args, BooleanSpellings) {
  EXPECT_TRUE(make_args({"--f=yes"}).get_bool("f", false));
  EXPECT_TRUE(make_args({"--f=on"}).get_bool("f", false));
  EXPECT_TRUE(make_args({"--f=1"}).get_bool("f", false));
  EXPECT_FALSE(make_args({"--f=no"}).get_bool("f", true));
  EXPECT_FALSE(make_args({"--f=off"}).get_bool("f", true));
  EXPECT_FALSE(make_args({"--f=0"}).get_bool("f", true));
  EXPECT_THROW(make_args({"--f=maybe"}).get_bool("f", true),
               std::invalid_argument);
}

TEST(Args, IntegerParsing) {
  Args args = make_args({"--n=-42", "--m=7"});
  EXPECT_EQ(args.get_int("n", 0), -42);
  EXPECT_EQ(args.get_uint("m", 0), 7u);
  EXPECT_EQ(args.get_int("absent", 5), 5);
}

TEST(Args, RejectsMalformedNumbers) {
  Args args = make_args({"--neg=-1", "--tail=4x", "--frac=0.04x", "--empty=",
                         "--int=-42", "--sci=1e-3"});
  EXPECT_THROW(args.get_uint("neg", 0), std::invalid_argument);
  EXPECT_THROW(args.get_uint("tail", 0), std::invalid_argument);
  EXPECT_THROW(args.get_int("tail", 0), std::invalid_argument);
  EXPECT_THROW(args.get_double("frac", 0.0), std::invalid_argument);
  EXPECT_THROW(args.get_uint("empty", 0), std::invalid_argument);
  EXPECT_THROW(args.get_int("empty", 0), std::invalid_argument);
  EXPECT_THROW(args.get_double("empty", 0.0), std::invalid_argument);
  EXPECT_EQ(args.get_int("int", 0), -42);
  EXPECT_DOUBLE_EQ(args.get_double("sci", 0.0), 1e-3);
  try {
    args.get_uint("neg", 0);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "--neg: expected a non-negative integer, got '-1'");
  }
}

TEST(Args, PositionalCollected) {
  Args args = make_args({"first", "--k=v", "second"});
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "first");
  EXPECT_EQ(args.positional()[1], "second");
}

TEST(Args, LastValueWins) {
  Args args = make_args({"--k=1", "--k=2"});
  EXPECT_EQ(args.get("k", ""), "2");
}

TEST(Args, EmptyValueAllowed) {
  Args args = make_args({"--k="});
  EXPECT_TRUE(args.has("k"));
  EXPECT_EQ(args.get("k", "zz"), "");
}

}  // namespace
}  // namespace webcache::util
