#include "util/proc.h"

#include <errno.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/time.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <utility>

namespace ipda::util {
namespace {

std::string Errno(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

// Child-side redirect; async-signal-safe (open/dup2 only). Returns false
// on failure so the child can _exit(127) like a failed exec.
bool RedirectTo(const char* path, int target_fd) {
  int fd;
  do {
    fd = ::open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) return false;
  if (::dup2(fd, target_fd) < 0) {
    ::close(fd);
    return false;
  }
  if (fd != target_fd) ::close(fd);
  return true;
}

WaitOutcome DecodeWaitStatus(int status) {
  WaitOutcome outcome;
  if (WIFSIGNALED(status)) {
    outcome.signaled = true;
    outcome.term_signal = WTERMSIG(status);
  } else if (WIFEXITED(status)) {
    outcome.exit_code = WEXITSTATUS(status);
  }
  return outcome;
}

}  // namespace

Result<int64_t> SpawnProcess(const std::vector<std::string>& argv,
                             const SpawnOptions& options) {
  if (argv.empty()) return InvalidArgumentError("spawn of empty argv");
  std::vector<char*> args;
  args.reserve(argv.size() + 1);
  for (const std::string& arg : argv) {
    args.push_back(const_cast<char*>(arg.c_str()));
  }
  args.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) return UnavailableError(Errno("fork"));
  if (pid == 0) {
    // Child: only async-signal-safe calls until execv (the parent may
    // hold locks in other threads).
    if (!options.stdout_path.empty() &&
        !RedirectTo(options.stdout_path.c_str(), STDOUT_FILENO)) {
      _exit(127);
    }
    if (!options.stderr_path.empty() &&
        !RedirectTo(options.stderr_path.c_str(), STDERR_FILENO)) {
      _exit(127);
    }
    ::execv(args[0], args.data());
    _exit(127);
  }
  return static_cast<int64_t>(pid);
}

Result<WaitOutcome> TryWaitProcess(int64_t pid) {
  int status = 0;
  pid_t reaped;
  do {
    reaped = ::waitpid(static_cast<pid_t>(pid), &status, WNOHANG);
  } while (reaped < 0 && errno == EINTR);
  if (reaped < 0) return UnavailableError(Errno("waitpid"));
  if (reaped == 0) {
    WaitOutcome outcome;
    outcome.running = true;
    return outcome;
  }
  return DecodeWaitStatus(status);
}

Result<WaitOutcome> WaitProcess(int64_t pid) {
  int status = 0;
  pid_t reaped;
  do {
    reaped = ::waitpid(static_cast<pid_t>(pid), &status, 0);
  } while (reaped < 0 && errno == EINTR);
  if (reaped < 0) return UnavailableError(Errno("waitpid"));
  return DecodeWaitStatus(status);
}

Status KillProcess(int64_t pid, int signum) {
  if (::kill(static_cast<pid_t>(pid), signum) == 0) return OkStatus();
  if (errno == ESRCH) return OkStatus();
  return UnavailableError(Errno("kill"));
}

bool PidAlive(int64_t pid) {
  if (pid <= 0) return false;
  if (::kill(static_cast<pid_t>(pid), 0) == 0) return true;
  return errno == EPERM;
}

Status TouchFile(const std::string& path) {
  // Create if missing (a fresh file's mtime is already "now")...
  int fd;
  do {
    fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_CLOEXEC, 0644);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) return UnavailableError(Errno("cannot touch " + path));
  ::close(fd);
  // ...and bump the mtime when it already existed.
  if (::utimensat(AT_FDCWD, path.c_str(), nullptr, 0) != 0) {
    return UnavailableError(Errno("utimensat of " + path));
  }
  return OkStatus();
}

Result<double> FileAgeSeconds(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) {
    return UnavailableError(Errno("stat of " + path));
  }
  struct timespec now;
  ::clock_gettime(CLOCK_REALTIME, &now);
  const double age =
      (static_cast<double>(now.tv_sec) - static_cast<double>(st.st_mtim.tv_sec)) +
      (static_cast<double>(now.tv_nsec) -
       static_cast<double>(st.st_mtim.tv_nsec)) *
          1e-9;
  return age < 0.0 ? 0.0 : age;
}

Status MakeDirs(const std::string& path) {
  if (path.empty()) return InvalidArgumentError("mkdir of empty path");
  std::string partial;
  partial.reserve(path.size());
  size_t start = 0;
  while (start <= path.size()) {
    const size_t slash = path.find('/', start);
    const size_t end = slash == std::string::npos ? path.size() : slash;
    partial.assign(path, 0, end);
    start = end + 1;
    if (partial.empty()) continue;  // Leading '/'.
    if (::mkdir(partial.c_str(), 0755) != 0 && errno != EEXIST) {
      return UnavailableError(Errno("mkdir " + partial));
    }
    if (slash == std::string::npos) break;
  }
  return OkStatus();
}

LockFile::LockFile(LockFile&& other) noexcept : path_(std::move(other.path_)) {
  other.path_.clear();
}

LockFile& LockFile::operator=(LockFile&& other) noexcept {
  if (this != &other) {
    Release();
    path_ = std::move(other.path_);
    other.path_.clear();
  }
  return *this;
}

LockFile::~LockFile() { Release(); }

void LockFile::Release() {
  if (!path_.empty()) {
    ::unlink(path_.c_str());
    path_.clear();
  }
}

Result<LockFile> LockFile::Acquire(const std::string& path) {
  for (int round = 0; round < 2; ++round) {
    int fd;
    do {
      fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC,
                  0644);
    } while (fd < 0 && errno == EINTR);
    if (fd >= 0) {
      char buf[32];
      const int n = std::snprintf(buf, sizeof(buf), "%lld\n",
                                  static_cast<long long>(::getpid()));
      (void)!::write(fd, buf, static_cast<size_t>(n));
      ::fsync(fd);
      ::close(fd);
      return LockFile(path);
    }
    if (errno != EEXIST) {
      return UnavailableError(Errno("cannot create lockfile " + path));
    }
    // Held or stale? The file records the owner pid.
    int64_t owner = 0;
    {
      std::FILE* f = std::fopen(path.c_str(), "r");
      if (f != nullptr) {
        long long parsed = 0;
        if (std::fscanf(f, "%lld", &parsed) == 1) owner = parsed;
        std::fclose(f);
      }
    }
    if (owner > 0 && PidAlive(owner)) {
      return FailedPreconditionError("lockfile " + path +
                                     " is held by live pid " +
                                     std::to_string(owner));
    }
    // Stale (owner dead or unreadable): break it and retry once. The
    // unlink+recreate race between two breakers resolves via O_EXCL.
    ::unlink(path.c_str());
  }
  return UnavailableError("lockfile " + path +
                          " kept reappearing while breaking a stale lock");
}

size_t PeakRssKb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  size_t kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %zu kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb;
}

}  // namespace ipda::util
