/* A frame-pointer sampling profiler, loaded with LD_PRELOAD.
 *
 * On load it arms setitimer(ITIMER_PROF) at a 1-ms interval of the
 * process's CPU time. Each SIGPROF walks the interrupted thread's frame
 * pointers (x86-64: the program must be built with
 * -fno-omit-frame-pointer) and appends one record to a buffer: the number
 * of addresses, then the interrupted pc followed by the return addresses,
 * innermost first. Only the main thread's stack is walked, and only within
 * its mapping; a sample taken on another thread keeps its pc alone. The
 * program should be single-threaded, as roundbench's timed loop is: a
 * sample that arrives while another thread's is being taken is dropped.
 * A full buffer is written out from the handler (write(2)
 * is async-signal-safe). At exit the rest is written, and /proc/self/maps
 * is copied beside it so the addresses can be symbolized.
 *
 * Output, in the working directory: sigprof.<pid>.samples (native-endian
 * uint64 words) and sigprof.<pid>.maps. scripts/sigprof_symbolize.py turns
 * them into self and inclusive tables; scripts/profile_roundbench.sh
 * builds and runs all of it.
 *
 * Build: cc -O2 -shared -fPIC -o sigprof_sampler.so sigprof_sampler.c
 */
#define _GNU_SOURCE
#include <fcntl.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_DEPTH 64
#define BUFFER_WORDS (1u << 16)
/* A frame pointer more than this far above the previous one is taken for
 * garbage and ends the walk. */
#define MAX_FRAME_BYTES (1u << 20)

static uint64_t buffer[BUFFER_WORDS];
static size_t used;
static int out_fd = -1;
static pid_t owner;
static int busy;
/* The main thread's stack: the top of its mapping in /proc/self/maps, and
 * a floor far enough below it for any depth it grows to. */
#define STACK_BYTES ((uintptr_t)64 << 20)
static uintptr_t stack_lo, stack_hi;

static void flush(void) {
  const char* p = (const char*)buffer;
  size_t left = used * sizeof(uint64_t);
  while (left > 0) {
    const ssize_t n = write(out_fd, p, left);
    if (n <= 0) break;
    p += n;
    left -= (size_t)n;
  }
  used = 0;
}

static void on_sigprof(int sig, siginfo_t* info, void* context) {
  (void)sig;
  (void)info;
  if (out_fd < 0 || __atomic_exchange_n(&busy, 1, __ATOMIC_ACQUIRE)) return;
  if (used + MAX_DEPTH + 1 > BUFFER_WORDS) flush();
  const mcontext_t* regs = &((const ucontext_t*)context)->uc_mcontext;
  uint64_t* record = buffer + used;
  size_t depth = 0;
  record[1 + depth++] = (uint64_t)regs->gregs[REG_RIP];
  uintptr_t fp = (uintptr_t)regs->gregs[REG_RBP];
  const uintptr_t sp = (uintptr_t)regs->gregs[REG_RSP];
  uintptr_t low = sp;
  const int on_stack = sp >= stack_lo && sp < stack_hi;
  while (on_stack && depth < MAX_DEPTH && fp >= low &&
         fp - low < MAX_FRAME_BYTES &&
         fp + 2 * sizeof(uintptr_t) <= stack_hi && (fp & 7) == 0) {
    const uintptr_t* frame = (const uintptr_t*)fp;
    const uintptr_t ret = frame[1];
    if (ret == 0) break;
    record[1 + depth++] = ret;
    low = fp + 2 * sizeof(uintptr_t);
    fp = frame[0];
  }
  record[0] = depth;
  used += 1 + depth;
  __atomic_store_n(&busy, 0, __ATOMIC_RELEASE);
}

static void find_stack(void) {
  FILE* maps = fopen("/proc/self/maps", "r");
  if (maps == NULL) return;
  char line[512];
  while (fgets(line, sizeof line, maps) != NULL) {
    unsigned long hi;
    if (strstr(line, "[stack]") != NULL &&
        sscanf(line, "%*x-%lx", &hi) == 1) {
      stack_hi = hi;
      stack_lo = hi > STACK_BYTES ? hi - STACK_BYTES : 0;
    }
  }
  fclose(maps);
}

static void write_maps(void) {
  char path[64];
  snprintf(path, sizeof path, "sigprof.%d.maps", (int)owner);
  const int in = open("/proc/self/maps", O_RDONLY);
  const int out = open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  char chunk[4096];
  ssize_t n;
  while (in >= 0 && out >= 0 && (n = read(in, chunk, sizeof chunk)) > 0) {
    if (write(out, chunk, (size_t)n) != n) break;
  }
  if (in >= 0) close(in);
  if (out >= 0) close(out);
}

__attribute__((constructor)) static void start(void) {
  owner = getpid();
  find_stack();
  char path[64];
  snprintf(path, sizeof path, "sigprof.%d.samples", (int)owner);
  out_fd = open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (out_fd < 0) return;
  struct sigaction action;
  memset(&action, 0, sizeof action);
  action.sa_sigaction = on_sigprof;
  action.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&action.sa_mask);
  sigaction(SIGPROF, &action, NULL);
  const struct itimerval every_ms = {{0, 1000}, {0, 1000}};
  setitimer(ITIMER_PROF, &every_ms, NULL);
}

__attribute__((destructor)) static void stop(void) {
  if (out_fd < 0 || getpid() != owner) return;
  const struct itimerval off = {{0, 0}, {0, 0}};
  setitimer(ITIMER_PROF, &off, NULL);
  flush();
  close(out_fd);
  out_fd = -1;
  write_maps();
}
