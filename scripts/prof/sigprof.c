/* LD_PRELOAD sampler for scripts/profile.sh: SIGPROF on process CPU time,
 * each sample the word at the interrupted rsp, the interrupted rip and a
 * bounded frame-pointer walk, written with the process's memory map at
 * exit to $SPASM_PROF_OUT as `S top rip frames...`.
 *
 * A leaf built without a frame pointer (libc's memmove) leaves rbp at its
 * caller's frame, so the walk's first return address is the caller's
 * caller's; the leaf's own return address is usually the word at rsp,
 * which symbolize.py puts back.
 *
 * The walk crosses code built without frame pointers (libc, the prebuilt
 * std) and coroutine stacks that end at a guard page, so rbp may be
 * anything: every frame is read through a pipe, which makes the kernel
 * do the access and answer EFAULT where this handler would have died. */
#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_SAMPLES (1 << 17)
#define DEPTH 32
#define HZ 1000 /* asked for; the kernel rounds to its own tick (250 Hz is common) */

static uintptr_t samples[MAX_SAMPLES][DEPTH], tops[MAX_SAMPLES];
static volatile size_t taken, lost;
static int probe[2];

/* Copies the `n` words at `at`; 0 if unreadable. */
static int read_words(uintptr_t at, uintptr_t *out, size_t n) {
    if (write(probe[1], (const void *)at, 8 * n) != (ssize_t)(8 * n)) return 0;
    return read(probe[0], out, 8 * n) == (ssize_t)(8 * n);
}

static void on_sigprof(int sig, siginfo_t *info, void *uctx) {
    (void)sig, (void)info;
    if (taken == MAX_SAMPLES) { lost++; return; }
    const greg_t *regs = ((ucontext_t *)uctx)->uc_mcontext.gregs;
    uintptr_t *s = samples[taken], fp = (uintptr_t)regs[REG_RBP];
    uintptr_t floor = (uintptr_t)regs[REG_RSP], frame[2];
    int d = 0;
    if (!read_words(floor, &tops[taken], 1)) tops[taken] = 0;
    s[d++] = (uintptr_t)regs[REG_RIP];
    /* A frame record lies above the interrupted rsp and below its caller's. */
    while (d < DEPTH && fp >= floor && fp % 8 == 0 && read_words(fp, frame, 2) && frame[1]) {
        s[d++] = frame[1];
        floor = fp + 16;
        fp = frame[0];
    }
    if (d < DEPTH) s[d] = 0;
    taken++;
}

__attribute__((destructor)) static void dump(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("SPASM_PROF_OUT");
    FILE *out = path ? fopen(path, "w") : NULL, *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps) return;
    char line[4096];
    while (fgets(line, sizeof line, maps)) fprintf(out, "M %s", line);
    for (size_t i = 0; i < taken; i++) {
        fprintf(out, "S %lx", (unsigned long)tops[i]);
        for (int d = 0; d < DEPTH && samples[i][d]; d++) fprintf(out, " %lx", (unsigned long)samples[i][d]);
        fputc('\n', out);
    }
    fprintf(out, "L %zu\n", (size_t)lost);
    fclose(out);
}

__attribute__((constructor)) static void start(void) {
    if (!getenv("SPASM_PROF_OUT") || pipe(probe) != 0) return;
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_sigprof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval tick = {{0, 1000000 / HZ}, {0, 1000000 / HZ}};
    setitimer(ITIMER_PROF, &tick, NULL);
}
