#include "orchestrate/subprocess.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <string_view>

#include <fcntl.h>
#include <poll.h>
#include <sys/stat.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/error.hpp"

namespace parmis::orchestrate {

namespace {

/// Longest single sleep of a wait: abort and the timeout are re-checked
/// at least this often.
constexpr std::uint64_t kWaitSliceMs = 10;

/// Opens `path` (or /dev/null) for append, close-on-exec, so only the
/// dup2'd copies reach the child.  Throws parmis::Error naming the path.
int open_log(const std::string& path) {
  const char* name = path.empty() ? "/dev/null" : path.c_str();
  const int fd =
      ::open(name, O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  require(fd >= 0, std::string("subprocess: cannot open log ") + name +
                       ": " + std::strerror(errno));
  return fd;
}

/// Child-side only: dup2 and fcntl are async-signal-safe.  A `fd` that
/// already is `target` keeps its close-on-exec flag through dup2, so it
/// is cleared by hand.  Failures _exit(126): there is nobody to throw to.
void redirect_or_die(int fd, int target) {
  if (fd == target) {
    if (::fcntl(fd, F_SETFD, 0) < 0) _exit(126);
  } else if (::dup2(fd, target) < 0) {
    _exit(126);
  }
}

/// The inherited environment with every key of `overrides` replaced by
/// its value, as "KEY=VALUE" strings for execvpe.
std::vector<std::string> child_environment(
    const std::vector<std::pair<std::string, std::string>>& overrides) {
  std::vector<std::string> env;
  for (char** entry = environ; entry != nullptr && *entry != nullptr;
       ++entry) {
    const std::string_view kv(*entry);
    const std::string_view key = kv.substr(0, kv.find('='));
    const bool replaced = std::any_of(
        overrides.begin(), overrides.end(),
        [&](const auto& o) { return o.first == key; });
    if (!replaced) env.emplace_back(kv);
  }
  for (const auto& [key, value] : overrides) env.push_back(key + "=" + value);
  return env;
}

std::vector<char*> c_strings(const std::vector<std::string>& strings) {
  std::vector<char*> out;
  out.reserve(strings.size() + 1);
  for (const auto& s : strings) out.push_back(const_cast<char*>(s.c_str()));
  out.push_back(nullptr);
  return out;
}

}  // namespace

ChildProcess::~ChildProcess() {
  if (pid_ > 0 && !reaped_) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
  }
  if (pidfd_ >= 0) ::close(pidfd_);
}

void ChildProcess::spawn(const SpawnSpec& spec) {
  require(!spec.argv.empty(), "subprocess: empty argv");
  require(pid_ < 0, "subprocess: already spawned");
  // Everything that allocates or can fail happens here, in the parent:
  // between fork and exec the child of a multithreaded parent may only
  // make async-signal-safe calls.
  const std::vector<char*> argv = c_strings(spec.argv);
  const std::vector<std::string> env = child_environment(spec.env);
  const std::vector<char*> envp = c_strings(env);
  const int out = open_log(spec.stdout_path);
  int err = -1;
  try {
    err = open_log(spec.stderr_path);
  } catch (...) {
    ::close(out);
    throw;
  }

  const pid_t pid = ::fork();
  const int fork_errno = errno;
  if (pid == 0) {
    redirect_or_die(out, STDOUT_FILENO);
    redirect_or_die(err, STDERR_FILENO);
    ::execvpe(argv[0], argv.data(), envp.data());
    _exit(127);  // exec failed; distinguishable from any campaign exit
  }
  ::close(out);
  ::close(err);
  require(pid > 0, std::string("subprocess: fork: ") +
                       std::strerror(fork_errno));
  pid_ = pid;
  // A pidfd turns readable when the child exits, so wait() can sleep
  // until then.  Without one (a kernel before 5.3, a seccomp filter)
  // wait() sleeps in 10 ms slices instead.
  pidfd_ = static_cast<int>(::syscall(SYS_pidfd_open, pid, 0));
}

int ChildProcess::wait(std::uint64_t timeout_ms,
                       const std::atomic<bool>* abort) {
  require(pid_ > 0 && !reaped_, "subprocess: nothing to wait for");
  // Elapsed time is compared against the timeout rather than a
  // deadline computed up front, which would overflow the clock for a
  // timeout of centuries.
  const auto start = std::chrono::steady_clock::now();
  const auto elapsed_ms = [&] {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
  };
  bool killed = false;
  for (;;) {
    int status = 0;
    const pid_t rc = ::waitpid(pid_, &status, WNOHANG);
    if (rc < 0 && errno == EINTR) continue;
    if (rc < 0) {
      // ECHILD: someone else reaped the child (SIGCHLD ignored, say).
      // Its pid may already name another process, so never signal it.
      reaped_ = true;
      throw Error(std::string("subprocess: waitpid: ") +
                  std::strerror(errno));
    }
    if (rc == pid_) {
      reaped_ = true;
      if (WIFEXITED(status)) return WEXITSTATUS(status);
      if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
      return 128;
    }
    std::uint64_t slice_ms = kWaitSliceMs;
    if (!killed) {
      const std::uint64_t elapsed = elapsed_ms();
      if ((abort != nullptr && abort->load()) ||
          (timeout_ms > 0 && elapsed >= timeout_ms)) {
        ::kill(pid_, SIGKILL);
        killed = true;  // keep waiting; the SIGKILL resolves the wait
      } else if (timeout_ms > 0) {
        slice_ms = std::min(slice_ms, timeout_ms - elapsed);
      }
    }
    // Wakes when the child exits, or after the slice so abort and the
    // timeout are re-checked; with no pidfd this is a plain sleep.
    pollfd exited{pidfd_, POLLIN, 0};
    ::poll(&exited, pidfd_ >= 0 ? 1 : 0, static_cast<int>(slice_ms));
  }
}

void ChildProcess::kill_now() {
  if (pid_ > 0 && !reaped_) ::kill(pid_, SIGKILL);
}

std::string sibling_binary(const std::string& argv0,
                           const std::string& name) {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  std::string dir;
  if (n > 0) {
    buf[n] = '\0';
    dir = buf;
  } else {
    dir = argv0;
  }
  const std::size_t slash = dir.rfind('/');
  if (slash == std::string::npos) return name;  // PATH lookup
  return dir.substr(0, slash + 1) + name;
}

}  // namespace parmis::orchestrate
