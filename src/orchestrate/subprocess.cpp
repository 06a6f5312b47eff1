#include "orchestrate/subprocess.hpp"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <thread>

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/error.hpp"

namespace parmis::orchestrate {

namespace {

/// Opens `path` (or /dev/null) for append and dup2s it onto `target`.
/// Child-side only: failures _exit(126) — there is nobody to throw to.
void redirect_or_die(const std::string& path, int target) {
  const char* name = path.empty() ? "/dev/null" : path.c_str();
  const int fd = ::open(name, O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0 || ::dup2(fd, target) < 0) _exit(126);
  if (fd != target) ::close(fd);
}

}  // namespace

ChildProcess::~ChildProcess() {
  if (pid_ > 0 && !reaped_) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
  }
}

void ChildProcess::spawn(const SpawnSpec& spec) {
  require(!spec.argv.empty(), "subprocess: empty argv");
  require(pid_ < 0, "subprocess: already spawned");
  std::vector<char*> argv;
  argv.reserve(spec.argv.size() + 1);
  for (const auto& arg : spec.argv) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  require(pid >= 0, std::string("subprocess: fork: ") +
                        std::strerror(errno));
  if (pid == 0) {
    redirect_or_die(spec.stdout_path, STDOUT_FILENO);
    redirect_or_die(spec.stderr_path, STDERR_FILENO);
    for (const auto& [key, value] : spec.env) {
      if (::setenv(key.c_str(), value.c_str(), 1) != 0) _exit(126);
    }
    ::execvp(argv[0], argv.data());
    _exit(127);  // exec failed; distinguishable from any campaign exit
  }
  pid_ = pid;
}

int ChildProcess::wait(std::uint64_t timeout_ms,
                       const std::atomic<bool>* abort) {
  require(pid_ > 0 && !reaped_, "subprocess: nothing to wait for");
  // Elapsed time is compared against the timeout rather than a
  // deadline computed up front, which would overflow the clock for a
  // timeout of centuries.
  const auto start = std::chrono::steady_clock::now();
  const auto timed_out = [&] {
    using std::chrono::milliseconds;
    const auto elapsed = std::chrono::duration_cast<milliseconds>(
        std::chrono::steady_clock::now() - start);
    return timeout_ms > 0 &&
           static_cast<std::uint64_t>(elapsed.count()) >= timeout_ms;
  };
  bool killed = false;
  for (;;) {
    int status = 0;
    const pid_t rc = ::waitpid(pid_, &status, WNOHANG);
    if (rc < 0 && errno == EINTR) continue;
    if (rc == pid_) {
      reaped_ = true;
      if (WIFEXITED(status)) return WEXITSTATUS(status);
      if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
      return 128;
    }
    if (!killed &&
        ((abort != nullptr && abort->load()) || timed_out())) {
      ::kill(pid_, SIGKILL);
      killed = true;  // keep polling; the SIGKILL resolves the wait
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
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
