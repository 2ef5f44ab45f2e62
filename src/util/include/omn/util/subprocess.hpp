#pragma once
// Subprocess: a spawned child process with piped stdin/stdout.
//
// Used by test_serve's SIGKILL crash-replay suite, which spawns a `serve`
// daemon, talks to it over its stdin/stdout, kills it and resumes from
// its journal.  This class owns exactly that plumbing — fork/exec with
// two pipes, blocking exact-count reads and writes, kill, and reaping —
// and nothing protocol-specific.  stderr is inherited from the parent so
// child diagnostics land in the parent's stderr.
//
// Failure model: a dead or misbehaving child surfaces as a short read
// (read_exact returns fewer bytes than asked) or a failed write
// (write_exact returns false) — never as a signal.  SIGPIPE is set to
// SIG_IGN process-wide on first spawn, so writing to a crashed child
// yields EPIPE instead of killing the parent.
//
// POSIX-only (fork/execvp/pipe).  On unsupported platforms spawn()
// throws std::runtime_error.

#include <cstddef>
#include <string>
#include <vector>

namespace omn::util {

class Subprocess {
 public:
  /// An empty handle (valid() == false); assign from spawn().
  Subprocess() = default;

  /// Spawns `argv` (argv[0] looked up via PATH when not a path) with
  /// stdin/stdout piped to this handle and stderr inherited.  Throws
  /// std::runtime_error when the pipes or the fork cannot be created;
  /// exec failure inside the child surfaces as exit status 127.
  static Subprocess spawn(const std::vector<std::string>& argv);

  Subprocess(Subprocess&& other) noexcept;
  Subprocess& operator=(Subprocess&& other) noexcept;
  Subprocess(const Subprocess&) = delete;
  Subprocess& operator=(const Subprocess&) = delete;

  /// Kills (if still running) and reaps the child.
  ~Subprocess();

  bool valid() const { return pid_ > 0; }

  /// Writes all `size` bytes to the child's stdin.  Returns false on any
  /// error (e.g. EPIPE after a child crash) — a partial write never goes
  /// unreported.
  bool write_exact(const void* data, std::size_t size);

  /// Reads until `size` bytes arrived from the child's stdout or the
  /// stream ended.  Returns the bytes actually read; anything short of
  /// `size` means EOF or error (child exit, kill, closed pipe).
  std::size_t read_exact(void* data, std::size_t size);

  /// SIGKILL.  Safe to call repeatedly or after exit; reap with wait().
  void kill();

  /// Blocks until the child exits and reaps it (idempotent).  Returns the
  /// exit code for a normal exit, 128 + signal for a signalled death, or
  /// -1 for an invalid handle.
  int wait();

 private:
  void reset() noexcept;

  long pid_ = -1;
  int stdin_fd_ = -1;
  int stdout_fd_ = -1;
  bool reaped_ = false;
  int exit_code_ = -1;
};

/// Absolute path of the running executable (/proc/self/exe on Linux),
/// or an empty string when the platform offers no way to recover it.
/// Self-spawning drivers (a test re-invoking itself as a child) use this
/// instead of trusting argv[0], which may be a bare name.
std::string current_executable_path();

}  // namespace omn::util
