#include "util/env.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>

namespace jsched::util {
namespace {

class EnvTest : public ::testing::Test {
 protected:
  void SetEnv(const char* name, const char* value) {
    ::setenv(name, value, 1);
    names_.push_back(name);
  }
  void TearDown() override {
    for (const auto& n : names_) ::unsetenv(n.c_str());
  }
  std::vector<std::string> names_;
};

TEST_F(EnvTest, StringUnsetIsNullopt) {
  ::unsetenv("JSCHED_TEST_UNSET");
  EXPECT_FALSE(env_string("JSCHED_TEST_UNSET").has_value());
}

TEST_F(EnvTest, StringSet) {
  SetEnv("JSCHED_TEST_STR", "hello");
  EXPECT_EQ(env_string("JSCHED_TEST_STR").value(), "hello");
}

TEST_F(EnvTest, IntFallback) {
  ::unsetenv("JSCHED_TEST_INT");
  EXPECT_EQ(env_int("JSCHED_TEST_INT", 42), 42);
}

TEST_F(EnvTest, IntParses) {
  SetEnv("JSCHED_TEST_INT", "-17");
  EXPECT_EQ(env_int("JSCHED_TEST_INT", 0), -17);
}

TEST_F(EnvTest, IntRejectsGarbage) {
  SetEnv("JSCHED_TEST_INT", "12abc");
  EXPECT_THROW(env_int("JSCHED_TEST_INT", 0), std::invalid_argument);
  SetEnv("JSCHED_TEST_INT", "9223372036854775808");
  EXPECT_THROW(env_int("JSCHED_TEST_INT", 0), std::invalid_argument);
}

TEST_F(EnvTest, DoubleParses) {
  SetEnv("JSCHED_TEST_DBL", "2.5");
  EXPECT_DOUBLE_EQ(env_double("JSCHED_TEST_DBL", 0.0), 2.5);
}

TEST_F(EnvTest, DoubleRejectsGarbage) {
  SetEnv("JSCHED_TEST_DBL", "x");
  EXPECT_THROW(env_double("JSCHED_TEST_DBL", 0.0), std::invalid_argument);
}

TEST_F(EnvTest, BoolVariants) {
  SetEnv("JSCHED_TEST_BOOL", "TRUE");
  EXPECT_TRUE(env_bool("JSCHED_TEST_BOOL", false));
  SetEnv("JSCHED_TEST_BOOL", "off");
  EXPECT_FALSE(env_bool("JSCHED_TEST_BOOL", true));
  SetEnv("JSCHED_TEST_BOOL", "1");
  EXPECT_TRUE(env_bool("JSCHED_TEST_BOOL", false));
}

TEST_F(EnvTest, BoolRejectsGarbage) {
  SetEnv("JSCHED_TEST_BOOL", "maybe");
  EXPECT_THROW(env_bool("JSCHED_TEST_BOOL", false), std::invalid_argument);
}

TEST_F(EnvTest, BoolFallback) {
  ::unsetenv("JSCHED_TEST_BOOL");
  EXPECT_TRUE(env_bool("JSCHED_TEST_BOOL", true));
}

}  // namespace
}  // namespace jsched::util
