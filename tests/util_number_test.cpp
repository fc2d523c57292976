#include "util/number.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>

namespace jsched::util {
namespace {

template <class T>
bool rejects(const char* text) {
  T out{7};
  return !parse_number(text, out) && out == T{7};
}

TEST(ParseNumber, ReadsWholeTokens) {
  int i = 0;
  ASSERT_TRUE(parse_number("256", i));
  EXPECT_EQ(i, 256);
  std::int64_t t = 0;
  ASSERT_TRUE(parse_number("-3600", t));
  EXPECT_EQ(t, -3600);
  std::size_t n = 1;
  ASSERT_TRUE(parse_number("0", n));
  EXPECT_EQ(n, 0u);
  double d = 0.0;
  ASSERT_TRUE(parse_number("2.5e3", d));
  EXPECT_EQ(d, 2500.0);
  ASSERT_TRUE(parse_number("-0.25", d));
  EXPECT_EQ(d, -0.25);
}

TEST(ParseNumber, RejectsJunk) {
  EXPECT_TRUE(rejects<int>(""));
  EXPECT_TRUE(rejects<int>("abc"));
  EXPECT_TRUE(rejects<int>("x1"));
  EXPECT_TRUE(rejects<double>("abc"));
  EXPECT_TRUE(rejects<double>(""));
}

TEST(ParseNumber, RejectsTrailingJunk) {
  EXPECT_TRUE(rejects<int>("12abc"));
  EXPECT_TRUE(rejects<int>("12 "));
  EXPECT_TRUE(rejects<std::size_t>("4k"));
  EXPECT_TRUE(rejects<double>("1.5s"));
  EXPECT_TRUE(rejects<double>("1.5 "));
}

TEST(ParseNumber, SignsFollowTheTargetType) {
  EXPECT_TRUE(rejects<std::size_t>("-1"));
  EXPECT_TRUE(rejects<std::uint16_t>("-1"));
  EXPECT_TRUE(rejects<int>("+5"));
  EXPECT_TRUE(rejects<double>("+5"));
  EXPECT_TRUE(rejects<int>(" 5"));
  EXPECT_TRUE(rejects<int>("--5"));
}

TEST(ParseNumber, RejectsOverflow) {
  EXPECT_TRUE(rejects<int>("2147483648"));
  EXPECT_TRUE(rejects<int>("-2147483649"));
  EXPECT_TRUE(rejects<std::uint16_t>("65536"));
  EXPECT_TRUE(rejects<std::uint64_t>("18446744073709551616"));
  EXPECT_TRUE(rejects<std::int64_t>("9223372036854775808"));
  EXPECT_TRUE(rejects<double>("1e999"));
  std::uint16_t port = 0;
  ASSERT_TRUE(parse_number("65535", port));
  EXPECT_EQ(port, 65535);
  std::uint64_t seed = 0;
  ASSERT_TRUE(parse_number("18446744073709551615", seed));
  EXPECT_EQ(seed, UINT64_MAX);
}

TEST(ParseNumber, DoublesAreFiniteAndIntegersWhole) {
  EXPECT_TRUE(rejects<double>("inf"));
  EXPECT_TRUE(rejects<double>("nan"));
  EXPECT_TRUE(rejects<double>("-inf"));
  EXPECT_TRUE(rejects<int>("1.5"));
  EXPECT_TRUE(rejects<int>("1e3"));
  double d = 0.0;
  ASSERT_TRUE(parse_number("7", d));
  EXPECT_EQ(d, 7.0);
}

}  // namespace
}  // namespace jsched::util
