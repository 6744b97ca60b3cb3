/* cpuprof: a CPU sampler loaded with LD_PRELOAD, for hosts without `perf`.
 *
 * Every 5 ms of process CPU time (ITIMER_PROF) the interrupted thread
 * records its leaf RIP and the return addresses of a frame-pointer walk; at
 * exit the samples and /proc/self/maps go to cpuprof.<pid>.out in the working
 * directory. tools/cpuprof/report.py symbolizes them.
 *
 * Build the sampler, and the program with frame pointers and symbols in a
 * target dir of its own (from the repository root):
 *
 *   mkdir -p target/cpuprof && cc -O2 -shared -fPIC -o target/cpuprof/cpuprof.so tools/cpuprof/sampler.c
 *   RUSTFLAGS=-Cforce-frame-pointers=yes CARGO_PROFILE_RELEASE_DEBUG=1 CARGO_TARGET_DIR=target/cpuprof \
 *       cargo build --release --offline --manifest-path benchmark/Cargo.toml
 *
 * Run, then report:
 *
 *   LD_PRELOAD=$PWD/target/cpuprof/cpuprof.so \
 *       target/cpuprof/release/ulpbench child --workload pooled_churn --window-ms 20000
 *   python3 tools/cpuprof/report.py cpuprof.<pid>.out target/cpuprof/release/ulpbench
 *
 * A frame pointer may be garbage where code was built without them (libc),
 * so each frame is read with process_vm_readv, which fails instead of
 * faulting. x86-64 Linux only.
 */
#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <sys/time.h>
#include <sys/uio.h>
#include <ucontext.h>
#include <unistd.h>

#define DEPTH 48
#define MAX_SAMPLES (1 << 16)

static uintptr_t samples[MAX_SAMPLES][DEPTH + 1]; /* [0] = frame count */
static long taken;

static void on_prof(int sig, siginfo_t *si, void *ctx) {
    (void)sig, (void)si;
    long i = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (i >= MAX_SAMPLES) return;
    mcontext_t *mc = &((ucontext_t *)ctx)->uc_mcontext;
    uintptr_t *s = samples[i], fp = mc->gregs[REG_RBP], frame[2];
    int n = 0;
    s[1 + n++] = mc->gregs[REG_RIP];
    while (n < DEPTH && fp && !(fp & 7)) {
        struct iovec local = {frame, sizeof frame}, remote = {(void *)fp, sizeof frame};
        if (process_vm_readv(getpid(), &local, 1, &remote, 1, 0) != sizeof frame) break;
        if (frame[1] < 4096) break;
        s[1 + n++] = frame[1];
        if (frame[0] <= fp || frame[0] - fp > (1 << 22)) break; /* stacks grow down */
        fp = frame[0];
    }
    s[0] = n;
}

__attribute__((constructor)) static void start(void) {
    struct sigaction sa = {.sa_sigaction = on_prof, .sa_flags = SA_SIGINFO | SA_RESTART};
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, 0);
    struct itimerval it = {{0, 5000}, {0, 5000}};
    setitimer(ITIMER_PROF, &it, 0);
}

__attribute__((destructor)) static void finish(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, 0);
    char path[64], line[512];
    snprintf(path, sizeof path, "cpuprof.%d.out", (int)getpid());
    FILE *out = fopen(path, "w"), *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps) return;
    long n = taken < MAX_SAMPLES ? taken : MAX_SAMPLES;
    fprintf(out, "samples %ld of %ld\n", n, taken);
    for (long i = 0; i < n; i++) {
        for (uintptr_t j = 1; j <= samples[i][0]; j++) fprintf(out, "%lx ", (unsigned long)samples[i][j]);
        fputc('\n', out);
    }
    fputs("maps\n", out);
    while (fgets(line, sizeof line, maps)) fputs(line, out);
    fclose(maps);
    fclose(out);
    fprintf(stderr, "cpuprof: %ld samples -> %s\n", n, path);
}
