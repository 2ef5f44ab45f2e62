#include "omn/util/subprocess.hpp"

#include <new>
#include <stdexcept>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#define OMN_SUBPROCESS_POSIX 1
#include <csignal>
#include <cstring>
#include <mutex>

#include <errno.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#if defined(__APPLE__)
#include <cstdint>

#include <mach-o/dyld.h>
#endif
#endif

namespace omn::util {

#if defined(OMN_SUBPROCESS_POSIX)

namespace {

/// Writing to a child that died mid-message must surface as EPIPE on the
/// write, not as a process-killing SIGPIPE.  Installed once, process-wide;
/// an application that set its own SIGPIPE handler keeps it.
void ignore_sigpipe_once() {
  static std::once_flag flag;
  std::call_once(flag, [] {
    struct sigaction current {};
    if (sigaction(SIGPIPE, nullptr, &current) == 0 &&
        current.sa_handler == SIG_DFL) {
      std::signal(SIGPIPE, SIG_IGN);
    }
  });
}

void close_fd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

}  // namespace

Subprocess Subprocess::spawn(const std::vector<std::string>& argv) {
  if (argv.empty()) {
    throw std::runtime_error("Subprocess::spawn: empty argv");
  }
  ignore_sigpipe_once();

  // in_pipe: parent writes -> child stdin; out_pipe: child stdout -> parent.
  int in_pipe[2] = {-1, -1};
  int out_pipe[2] = {-1, -1};
  if (::pipe(in_pipe) != 0) {
    throw std::runtime_error("Subprocess::spawn: pipe() failed");
  }
  if (::pipe(out_pipe) != 0) {
    ::close(in_pipe[0]);
    ::close(in_pipe[1]);
    throw std::runtime_error("Subprocess::spawn: pipe() failed");
  }
  const auto close_all = [&] {
    for (int fd : {in_pipe[0], in_pipe[1], out_pipe[0], out_pipe[1]}) {
      if (fd >= 0) ::close(fd);
    }
  };
  // Two fd invariants, established before fork:
  //  - every pipe end sits ABOVE the stdio range, so the child's dup2
  //    below is always a real duplication (a parent launched with stdin
  //    or stdout closed can be handed fd 0/1 by pipe(), and dup2(fd, fd)
  //    would be a no-op that leaves CLOEXEC set);
  //  - CLOEXEC on every end, so a LATER-spawned sibling does not inherit
  //    this child's fds — a sibling holding a stray stdin write end
  //    would keep this child's stdin open forever after the parent dies.
  //    The child's dup2 clears the flag on the two fds it keeps.
  for (int* fd : {&in_pipe[0], &in_pipe[1], &out_pipe[0], &out_pipe[1]}) {
    if (*fd < 3) {
      const int raised = ::fcntl(*fd, F_DUPFD, 3);
      ::close(*fd);
      *fd = raised;
      if (raised < 0) {
        close_all();
        throw std::runtime_error("Subprocess::spawn: fcntl(F_DUPFD) failed");
      }
    }
    ::fcntl(*fd, F_SETFD, FD_CLOEXEC);
  }

  // Built BEFORE fork: the child may only make async-signal-safe calls
  // until exec (the parent may be multi-threaded, and another thread
  // could hold the allocator lock at fork time).
  std::vector<char*> c_argv;
  c_argv.reserve(argv.size() + 1);
  for (const std::string& arg : argv) {
    c_argv.push_back(const_cast<char*>(arg.c_str()));
  }
  c_argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    close_all();
    throw std::runtime_error("Subprocess::spawn: fork() failed");
  }

  if (pid == 0) {
    // Child: async-signal-safe calls only, then exec.
    ::dup2(in_pipe[0], STDIN_FILENO);
    ::dup2(out_pipe[1], STDOUT_FILENO);
    ::close(in_pipe[0]);
    ::close(in_pipe[1]);
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    ::execvp(c_argv[0], c_argv.data());
    ::_exit(127);  // exec failed; 127 matches the shell convention
  }

  // Parent: keep the write end of the child's stdin and the read end of
  // its stdout; close the child-side ends so EOF propagates.
  ::close(in_pipe[0]);
  ::close(out_pipe[1]);
  Subprocess child;
  child.pid_ = pid;
  child.stdin_fd_ = in_pipe[1];
  child.stdout_fd_ = out_pipe[0];
  return child;
}

bool Subprocess::write_exact(const void* data, std::size_t size) {
  if (stdin_fd_ < 0) return false;
  const char* cursor = static_cast<const char*>(data);
  std::size_t left = size;
  while (left > 0) {
    const ssize_t n = ::write(stdin_fd_, cursor, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    cursor += n;
    left -= static_cast<std::size_t>(n);
  }
  return true;
}

std::size_t Subprocess::read_exact(void* data, std::size_t size) {
  if (stdout_fd_ < 0) return 0;
  char* cursor = static_cast<char*>(data);
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::read(stdout_fd_, cursor + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (n == 0) break;  // EOF: the child exited or closed stdout
    done += static_cast<std::size_t>(n);
  }
  return done;
}

void Subprocess::kill() {
  if (pid_ > 0 && !reaped_) ::kill(static_cast<pid_t>(pid_), SIGKILL);
}

int Subprocess::wait() {
  if (pid_ <= 0) return -1;
  if (!reaped_) {
    int status = 0;
    pid_t r = 0;
    do {
      r = ::waitpid(static_cast<pid_t>(pid_), &status, 0);
    } while (r < 0 && errno == EINTR);
    reaped_ = true;
    exit_code_ = r < 0                 ? -1
                 : WIFEXITED(status)   ? WEXITSTATUS(status)
                 : WIFSIGNALED(status) ? 128 + WTERMSIG(status)
                                       : -1;
  }
  return exit_code_;
}

Subprocess::~Subprocess() {
  if (pid_ > 0 && !reaped_) {
    kill();
    wait();
  }
  reset();
}

std::string current_executable_path() {
#if defined(__linux__)
  char buffer[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buffer, sizeof(buffer) - 1);
  if (n > 0) return std::string(buffer, static_cast<std::size_t>(n));
#elif defined(__APPLE__)
  std::uint32_t size = 0;
  _NSGetExecutablePath(nullptr, &size);  // reports the needed size
  std::string buffer(size, '\0');
  if (_NSGetExecutablePath(buffer.data(), &size) == 0) {
    return std::string(buffer.c_str());  // trim at the NUL
  }
#endif
  return {};
}

#else  // !OMN_SUBPROCESS_POSIX

Subprocess Subprocess::spawn(const std::vector<std::string>&) {
  throw std::runtime_error("Subprocess: unsupported platform");
}
bool Subprocess::write_exact(const void*, std::size_t) { return false; }
std::size_t Subprocess::read_exact(void*, std::size_t) { return 0; }
void Subprocess::kill() {}
int Subprocess::wait() { return -1; }
Subprocess::~Subprocess() { reset(); }

std::string current_executable_path() { return {}; }

#endif  // OMN_SUBPROCESS_POSIX

Subprocess::Subprocess(Subprocess&& other) noexcept
    : pid_(other.pid_),
      stdin_fd_(other.stdin_fd_),
      stdout_fd_(other.stdout_fd_),
      reaped_(other.reaped_),
      exit_code_(other.exit_code_) {
  other.pid_ = -1;
  other.stdin_fd_ = -1;
  other.stdout_fd_ = -1;
  other.reaped_ = false;
  other.exit_code_ = -1;
}

Subprocess& Subprocess::operator=(Subprocess&& other) noexcept {
  if (this != &other) {
    this->~Subprocess();
    new (this) Subprocess(std::move(other));
  }
  return *this;
}

void Subprocess::reset() noexcept {
#if defined(OMN_SUBPROCESS_POSIX)
  close_fd(stdin_fd_);
  close_fd(stdout_fd_);
#endif
  pid_ = -1;
}

}  // namespace omn::util
