// Minimal child-process supervision for the orchestrator.
//
// Each work unit is one invocation of the existing campaign CLI, so
// the supervisor needs exactly: spawn with stdout/stderr redirected to
// a log file, wait with a timeout and an abort flag (both resolve to
// SIGKILL — campaign runs are idempotent against the shared cache, so
// killing a worker mid-cell never corrupts anything), and a SIGKILL
// escape hatch for fault injection.
//
// spawn opens the logs and builds argv and the environment in the
// parent, then starts the child with posix_spawnp: the log
// redirections are file actions and an empty signal mask an attribute.
// glibc implements it with clone(CLONE_VM | CLONE_VFORK), so no page
// table is copied and the cost of a spawn does not grow with the
// supervisor's size (fork's copy would).  A failed exec comes back from
// posix_spawnp itself; spawn records it and wait() reports it as exit
// status 127, the shell's exec-failure status.  spawn also opens a
// pidfd for the child.  wait reaps with waitpid(WNOHANG)
// and between misses poll()s the pidfd, so it returns as soon as the
// child exits; a warm campaign chunk takes a few ms, and a fixed sleep
// would round every chunk up to it.  The poll never sleeps longer than
// 10 ms (or past the timeout), so abort and the timeout still resolve
// to SIGKILL within 10 ms.  Where no pidfd can be opened (a kernel
// before 5.3, a seccomp filter) the same poll runs on no fds, which is
// a plain 10 ms sleep.
#ifndef PARMIS_ORCHESTRATE_SUBPROCESS_HPP
#define PARMIS_ORCHESTRATE_SUBPROCESS_HPP

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <sys/types.h>

namespace parmis::orchestrate {

/// One child invocation: argv[0] is the binary (resolved via PATH).
/// Redirect paths are opened for append (created 0644); empty means
/// /dev/null.  `env` entries override the inherited environment of the
/// child (the parent environment is otherwise passed on unchanged) —
/// how the orchestrator hands each worker its PARMIS_TRACE_PARENT
/// context without touching the worker CLI surface.
struct SpawnSpec {
  std::vector<std::string> argv;
  std::string stdout_path;
  std::string stderr_path;
  std::vector<std::pair<std::string, std::string>> env;
};

class ChildProcess {
 public:
  ChildProcess() = default;
  ~ChildProcess();  // SIGKILLs and reaps a still-running child
  ChildProcess(const ChildProcess&) = delete;
  ChildProcess& operator=(const ChildProcess&) = delete;

  /// Starts the child (posix_spawnp).  Throws parmis::Error naming the
  /// path if a log cannot be opened, and if no process can be started
  /// (EAGAIN, ENOMEM); either way no child runs.  An exec failure
  /// surfaces as exit status 127 from wait().
  void spawn(const SpawnSpec& spec);

  pid_t pid() const { return pid_; }

  /// Waits for exit, waking on the pidfd (see file comment).  Returns
  /// the exit code for a normal exit and 128 + signal for a signal
  /// death.  A positive `timeout_ms` elapsing, or `abort` (optional)
  /// becoming true, SIGKILLs the child first — the result then reports
  /// the SIGKILL.  Throws parmis::Error if the child was reaped
  /// elsewhere.
  int wait(std::uint64_t timeout_ms = 0,
           const std::atomic<bool>* abort = nullptr);

  /// Immediate SIGKILL; harmless on an already-exited child.  wait()
  /// still must be called to reap.
  void kill_now();

 private:
  pid_t pid_ = -1;
  int pidfd_ = -1;  ///< -1 when pidfd_open is unavailable
  bool reaped_ = false;
  /// posix_spawnp reported a failed exec (its child is already reaped);
  /// wait() returns 127 once.
  bool exec_failed_ = false;
};

/// Directory of the running executable (via /proc/self/exe), for
/// resolving sibling binaries like `campaign` next to
/// `campaign-launch`; falls back to the dirname of `argv0`, then to ""
/// (PATH lookup).
std::string sibling_binary(const std::string& argv0,
                           const std::string& name);

}  // namespace parmis::orchestrate

#endif  // PARMIS_ORCHESTRATE_SUBPROCESS_HPP
