#include "orchestrate/subprocess.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <string_view>

#include <fcntl.h>
#include <poll.h>
#include <spawn.h>
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

/// Exit status wait() reports when the child could not exec its binary
/// (the shell's convention, distinguishable from any campaign exit).
constexpr int kExecFailedStatus = 127;

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

/// Closes the descriptor it holds.
struct Fd {
  int fd;
  explicit Fd(int f) : fd(f) {}
  ~Fd() { ::close(fd); }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
};

/// Throws parmis::Error for a non-zero posix_spawn_* setup result.
void check_setup(int rc) {
  require(rc == 0,
          std::string("subprocess: spawn setup: ") + std::strerror(rc));
}

/// posix_spawn file actions, destroyed on every path.
struct SpawnActions {
  posix_spawn_file_actions_t value;
  SpawnActions() { check_setup(::posix_spawn_file_actions_init(&value)); }
  ~SpawnActions() { ::posix_spawn_file_actions_destroy(&value); }
  SpawnActions(const SpawnActions&) = delete;
  SpawnActions& operator=(const SpawnActions&) = delete;
};

/// posix_spawn attributes, destroyed on every path.
struct SpawnAttributes {
  posix_spawnattr_t value;
  SpawnAttributes() { check_setup(::posix_spawnattr_init(&value)); }
  ~SpawnAttributes() { ::posix_spawnattr_destroy(&value); }
  SpawnAttributes(const SpawnAttributes&) = delete;
  SpawnAttributes& operator=(const SpawnAttributes&) = delete;
};

/// The inherited environment with every key of `overrides` replaced by
/// its value, as "KEY=VALUE" strings for posix_spawnp.
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
  require(pid_ < 0 && !exec_failed_ && !reaped_,
          "subprocess: already spawned");
  const std::vector<char*> argv = c_strings(spec.argv);
  const std::vector<std::string> env = child_environment(spec.env);
  const std::vector<char*> envp = c_strings(env);
  const Fd out{open_log(spec.stdout_path)};
  const Fd err{open_log(spec.stderr_path)};

  // The logs become the child's stdout and stderr (a log that already
  // is fd 1 or 2 just loses close-on-exec), and the child starts with
  // no signal blocked, whichever supervisor thread spawned it.
  SpawnActions actions;
  check_setup(::posix_spawn_file_actions_adddup2(&actions.value, out.fd,
                                                 STDOUT_FILENO));
  check_setup(::posix_spawn_file_actions_adddup2(&actions.value, err.fd,
                                                 STDERR_FILENO));
  SpawnAttributes attributes;
  sigset_t none;
  sigemptyset(&none);
  check_setup(::posix_spawnattr_setsigmask(&attributes.value, &none));
  check_setup(
      ::posix_spawnattr_setflags(&attributes.value, POSIX_SPAWN_SETSIGMASK));

  pid_t pid = -1;
  const int rc = ::posix_spawnp(&pid, argv[0], &actions.value,
                                &attributes.value, argv.data(), envp.data());
  // glibc reports a failed exec (or redirection) here, after reaping
  // the child; only EAGAIN and ENOMEM mean no child was started.
  require(rc != EAGAIN && rc != ENOMEM,
          std::string("subprocess: spawn: ") + std::strerror(rc));
  if (rc != 0) {
    exec_failed_ = true;
    return;
  }
  pid_ = pid;
  // A pidfd turns readable when the child exits, so wait() can sleep
  // until then.  Without one (a kernel before 5.3, a seccomp filter)
  // wait() sleeps in 10 ms slices instead.
  pidfd_ = static_cast<int>(::syscall(SYS_pidfd_open, pid, 0));
}

int ChildProcess::wait(std::uint64_t timeout_ms,
                       const std::atomic<bool>* abort) {
  if (exec_failed_) {  // spawn saw the failed exec; the child is gone
    exec_failed_ = false;
    reaped_ = true;
    return kExecFailedStatus;
  }
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
