// Process-control primitives for the multi-process sweep fabric:
// spawn/wait/kill of worker processes, pid liveness probes, mtime-based
// file freshness (worker heartbeats), and a pid-stamped lockfile that
// keeps two dispatchers out of one fabric directory.
//
// Everything here is POSIX (fork/execv/waitpid/kill/stat); the fabric's
// crash-tolerance story leans on two properties: a SIGKILLed child is
// always reapable and detectable through waitpid, and a lockfile whose
// recorded owner pid is no longer alive is stale and may be broken.

#ifndef IPDA_UTIL_PROC_H_
#define IPDA_UTIL_PROC_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/result.h"
#include "util/status.h"

namespace ipda::util {

struct SpawnOptions {
  // Redirect targets for the child's stdout/stderr; "" inherits the
  // parent's stream. Files are created/truncated.
  std::string stdout_path;
  std::string stderr_path;
};

// fork+execv of argv (argv[0] is the binary path). Returns the child
// pid; a failed exec surfaces as the child exiting 127.
Result<int64_t> SpawnProcess(const std::vector<std::string>& argv,
                             const SpawnOptions& options = {});

// Terminal state of a reaped child.
struct WaitOutcome {
  bool running = false;   // TryWaitProcess only: child not yet exited.
  bool signaled = false;  // Killed by a signal (term_signal set).
  int exit_code = 0;      // Valid when !signaled.
  int term_signal = 0;    // Valid when signaled.
};

// Non-blocking reap (waitpid WNOHANG). outcome.running is true while the
// child is still alive; once it reports exited, the pid is reaped and
// must not be waited again.
Result<WaitOutcome> TryWaitProcess(int64_t pid);

// Blocking reap.
Result<WaitOutcome> WaitProcess(int64_t pid);

// kill(pid, signum). Ok also when the process is already gone (ESRCH):
// revoking a lease of a just-exited worker is not an error.
Status KillProcess(int64_t pid, int signum);

// True while a process with this pid exists (kill(pid, 0), with EPERM
// counting as alive).
bool PidAlive(int64_t pid);

// Creates `path` if missing and bumps its mtime to now — the worker
// heartbeat primitive.
Status TouchFile(const std::string& path);

// Seconds since `path`'s last mtime (clamped at 0); the dispatcher's
// heartbeat-staleness probe.
Result<double> FileAgeSeconds(const std::string& path);

// mkdir -p: creates `path` and any missing parents.
Status MakeDirs(const std::string& path);

// This process's peak resident set (VmHWM) in KiB; 0 when
// /proc/self/status is unavailable.
size_t PeakRssKb();

// Exclusive pid-stamped lockfile. Acquire creates the file O_EXCL and
// writes the owner pid; if the file already exists but its recorded pid
// is dead, the stale lock is broken and re-acquired. The lock is
// released (file unlinked) on destruction.
class LockFile {
 public:
  static Result<LockFile> Acquire(const std::string& path);

  LockFile() = default;
  LockFile(LockFile&& other) noexcept;
  LockFile& operator=(LockFile&& other) noexcept;
  ~LockFile();

  LockFile(const LockFile&) = delete;
  LockFile& operator=(const LockFile&) = delete;

  bool held() const { return !path_.empty(); }
  const std::string& path() const { return path_; }

  void Release();

 private:
  explicit LockFile(std::string path) : path_(std::move(path)) {}

  std::string path_;
};

}  // namespace ipda::util

#endif  // IPDA_UTIL_PROC_H_
