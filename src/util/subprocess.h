// Minimal child-process management for the sharded sweep driver.
//
// The multi-process sweep coordinator spawns one worker per shard, polls
// them for exit, and restarts crashed ones. Workers need no IPC channel:
// their only observable state is the shard journal they append to, so the
// coordinator's "heartbeat" is the number of complete cell records in that
// file (eval::SweepJournal::count_cells). This keeps the protocol
// trivially robust — a worker that can write its journal is making
// progress, and one that cannot is indistinguishable from a dead one,
// which is exactly how the restart logic should treat it.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include <sys/types.h>

namespace jsched::util {

/// How a child ended: a normal exit (code) or a fatal signal.
struct ExitStatus {
  bool signaled = false;
  int code = 0;  // exit code, or the signal number when `signaled`

  bool success() const noexcept { return !signaled && code == 0; }
  /// "exit 3" / "signal 9 (SIGKILL is 9)" style description.
  std::string describe() const;
};

/// One spawned child process (fork + execvp). Movable, not copyable; the
/// destructor does NOT kill or reap a still-running child — callers that
/// want an orphan-free exit must wait() or kill() explicitly (the sweep
/// coordinator always does: an abandoned shard worker would keep writing
/// its journal).
class Subprocess {
 public:
  /// Launch `argv` (argv[0] is the program, resolved via PATH). The
  /// current environment is inherited; `extra_env` entries are added (or
  /// overridden) on top. Throws std::invalid_argument on an empty argv and
  /// std::runtime_error when fork fails. An exec failure inside the child
  /// surfaces as exit code 127 — the shell convention — since the parent
  /// has already returned by then.
  static Subprocess spawn(
      const std::vector<std::string>& argv,
      const std::vector<std::pair<std::string, std::string>>& extra_env = {});

  Subprocess(Subprocess&& other) noexcept;
  Subprocess& operator=(Subprocess&& other) noexcept;
  Subprocess(const Subprocess&) = delete;
  Subprocess& operator=(const Subprocess&) = delete;
  ~Subprocess() = default;

  pid_t pid() const noexcept { return pid_; }

  /// Non-blocking: the exit status when the child has ended, nullopt while
  /// it is still running. Idempotent after the child is reaped.
  std::optional<ExitStatus> poll();

  /// Blocking wait; returns the exit status. Idempotent.
  ExitStatus wait();

  /// Send `sig` (default SIGKILL) to the child. No-op after it is reaped.
  void kill(int sig);
  void kill();

 private:
  explicit Subprocess(pid_t pid) : pid_(pid) {}

  pid_t pid_ = -1;
  std::optional<ExitStatus> status_;
};

/// Absolute path of the running executable (/proc/self/exe), so a driver
/// can respawn itself in worker mode. Throws std::runtime_error when the
/// link cannot be read (non-Linux /proc-less environments).
std::string self_exe_path();

}  // namespace jsched::util
