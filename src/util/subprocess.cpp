#include "util/subprocess.h"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <utility>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "util/journal.h"

namespace jsched::util {

std::string ExitStatus::describe() const {
  if (signaled) return "signal " + std::to_string(code);
  return "exit " + std::to_string(code);
}

Subprocess Subprocess::spawn(
    const std::vector<std::string>& argv,
    const std::vector<std::pair<std::string, std::string>>& extra_env) {
  if (argv.empty()) {
    throw std::invalid_argument("Subprocess::spawn: empty argv");
  }
  // Build the exec vectors before forking: the child must only call
  // async-signal-safe functions, and heap allocation after fork() in a
  // multithreaded parent is not.
  std::vector<char*> cargv;
  cargv.reserve(argv.size() + 1);
  for (const std::string& a : argv) {
    cargv.push_back(const_cast<char*>(a.c_str()));
  }
  cargv.push_back(nullptr);
  std::vector<std::string> env_strings;
  env_strings.reserve(extra_env.size());
  for (const auto& [k, v] : extra_env) env_strings.push_back(k + "=" + v);

  const pid_t pid = ::fork();
  if (pid < 0) {
    throw std::runtime_error(std::string("Subprocess::spawn: fork: ") +
                             std::strerror(errno));
  }
  if (pid == 0) {
    // Child. putenv/execvp are not strictly async-signal-safe but operate
    // on pre-built buffers; this matches common practice for fork+exec
    // helpers without vfork/posix_spawn's portability baggage.
    for (std::string& kv : env_strings) ::putenv(kv.data());
    ::execvp(cargv[0], cargv.data());
    // Exec failed: report via the shell's 127 convention and die without
    // running parent atexit handlers.
    ::_exit(127);
  }
  return Subprocess(pid);
}

Subprocess::Subprocess(Subprocess&& other) noexcept
    : pid_(std::exchange(other.pid_, -1)), status_(std::move(other.status_)) {}

Subprocess& Subprocess::operator=(Subprocess&& other) noexcept {
  pid_ = std::exchange(other.pid_, -1);
  status_ = std::move(other.status_);
  return *this;
}

namespace {

ExitStatus decode(int wstatus) {
  ExitStatus s;
  if (WIFSIGNALED(wstatus)) {
    s.signaled = true;
    s.code = WTERMSIG(wstatus);
  } else {
    s.code = WEXITSTATUS(wstatus);
  }
  return s;
}

}  // namespace

std::optional<ExitStatus> Subprocess::poll() {
  if (status_.has_value()) return status_;
  if (pid_ < 0) return std::nullopt;
  int wstatus = 0;
  const pid_t r = ::waitpid(pid_, &wstatus, WNOHANG);
  if (r == 0) return std::nullopt;  // still running
  if (r < 0) {
    throw std::runtime_error(std::string("Subprocess::poll: waitpid: ") +
                             std::strerror(errno));
  }
  status_ = decode(wstatus);
  return status_;
}

ExitStatus Subprocess::wait() {
  if (status_.has_value()) return *status_;
  if (pid_ < 0) {
    throw std::logic_error("Subprocess::wait: no child (moved-from handle)");
  }
  int wstatus = 0;
  if (::waitpid(pid_, &wstatus, 0) < 0) {
    throw std::runtime_error(std::string("Subprocess::wait: waitpid: ") +
                             std::strerror(errno));
  }
  status_ = decode(wstatus);
  return *status_;
}

void Subprocess::kill(int sig) {
  if (status_.has_value() || pid_ < 0) return;
  ::kill(pid_, sig);
}

void Subprocess::kill() { kill(SIGKILL); }

std::string self_exe_path() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) {
    throw std::runtime_error("self_exe_path: cannot read /proc/self/exe");
  }
  buf[n] = '\0';
  return std::string(buf);
}

std::size_t count_complete_lines(const std::string& path,
                                 std::string_view prefix) {
  std::size_t count = 0;
  AppendLog::for_each_line(path, [&](const std::string& line) {
    if (line.compare(0, prefix.size(), prefix) == 0) ++count;
  });
  return count;
}

}  // namespace jsched::util
