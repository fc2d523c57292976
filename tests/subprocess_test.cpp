// util::Subprocess — the child-process layer under the sharded sweep
// coordinator.
#include "util/subprocess.h"

#include <gtest/gtest.h>

#include <csignal>
#include <string>

namespace jsched::util {
namespace {

TEST(Subprocess, ReportsExitCode) {
  auto ok = Subprocess::spawn({"sh", "-c", "exit 0"});
  const ExitStatus s0 = ok.wait();
  EXPECT_TRUE(s0.success());
  EXPECT_FALSE(s0.signaled);
  EXPECT_EQ(s0.code, 0);

  auto bad = Subprocess::spawn({"sh", "-c", "exit 3"});
  const ExitStatus s3 = bad.wait();
  EXPECT_FALSE(s3.success());
  EXPECT_EQ(s3.code, 3);
  EXPECT_NE(s3.describe().find("3"), std::string::npos);
}

TEST(Subprocess, ReportsFatalSignal) {
  auto p = Subprocess::spawn({"sh", "-c", "kill -KILL $$"});
  const ExitStatus s = p.wait();
  EXPECT_FALSE(s.success());
  EXPECT_TRUE(s.signaled);
  EXPECT_EQ(s.code, SIGKILL);
}

TEST(Subprocess, ExecFailureSurfacesAs127) {
  auto p = Subprocess::spawn({"jsched-no-such-binary-for-testing"});
  const ExitStatus s = p.wait();
  EXPECT_FALSE(s.success());
  EXPECT_EQ(s.code, 127);
}

TEST(Subprocess, PollIsNonBlockingAndKillWorks) {
  auto p = Subprocess::spawn({"sleep", "30"});
  EXPECT_FALSE(p.poll().has_value());  // still running
  p.kill();
  const ExitStatus s = p.wait();
  EXPECT_TRUE(s.signaled);
  EXPECT_EQ(s.code, SIGKILL);
  // Idempotent after reaping.
  ASSERT_TRUE(p.poll().has_value());
  EXPECT_EQ(p.poll()->code, SIGKILL);
}

TEST(Subprocess, ExtraEnvReachesChild) {
  auto p = Subprocess::spawn({"sh", "-c", "test \"$JSCHED_TEST_VAR\" = hello"},
                             {{"JSCHED_TEST_VAR", "hello"}});
  EXPECT_TRUE(p.wait().success());
}

TEST(Subprocess, EmptyArgvThrows) {
  EXPECT_THROW(Subprocess::spawn({}), std::invalid_argument);
}

TEST(Subprocess, SelfExePathIsAbsolute) {
  const std::string self = self_exe_path();
  ASSERT_FALSE(self.empty());
  EXPECT_EQ(self.front(), '/');
  EXPECT_NE(self.find("jsched_tests"), std::string::npos);
}

}  // namespace
}  // namespace jsched::util
