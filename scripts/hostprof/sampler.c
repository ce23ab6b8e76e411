/* SIGPROF sampling profiler, loaded with LD_PRELOAD.
 *
 * Every process that loads it samples its own stack every PERIOD_US of CPU
 * time with glibc's backtrace(), keeps the raw return addresses in memory,
 * and at exit
 * writes $HOSTPROF_OUT/<pid>.frames (one sample per line, innermost frame
 * first, hex) and $HOSTPROF_OUT/<pid>.maps (a copy of /proc/self/maps)
 * for fold.py to symbolize.  A process that took no sample writes nothing.
 *
 *   cc -shared -fPIC -O2 -o libhostprof.so sampler.c
 */
#define _GNU_SOURCE
#include <execinfo.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <unistd.h>

/* ITIMER_PROF fires at most once per kernel tick, so with CONFIG_HZ=250 a
 * shorter period samples no more often: 250 samples per CPU-second. */
#define PERIOD_US 4000
#define DEPTH 64
#define WORDS (1 << 22) /* 32 MiB of frames, about 65 k full-depth samples */

static void *frames[WORDS];
static volatile long used; /* words of `frames` taken */

static void on_prof(int sig) {
    (void)sig;
    void *buf[DEPTH + 2];
    /* buf[0] is this handler and buf[1] the signal trampoline. */
    int n = backtrace(buf, DEPTH + 2) - 2;
    if (n <= 0)
        return;
    long at = __atomic_fetch_add(&used, n + 1, __ATOMIC_RELAXED);
    if (at + n + 1 > WORDS)
        return;
    frames[at] = (void *)(long)n;
    memcpy(&frames[at + 1], buf + 2, n * sizeof(void *));
}

__attribute__((constructor)) static void start(void) {
    void *warm[1];
    backtrace(warm, 1); /* loads libgcc_s now, not inside the handler */
    struct sigaction sa = {.sa_handler = on_prof, .sa_flags = SA_RESTART};
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval it = {{0, PERIOD_US}, {0, PERIOD_US}};
    setitimer(ITIMER_PROF, &it, NULL);
}

__attribute__((destructor)) static void stop(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    long end = used < WORDS ? used : WORDS;
    if (end == 0)
        return;
    const char *dir = getenv("HOSTPROF_OUT") ? getenv("HOSTPROF_OUT") : "/tmp/hostprof";
    char path[4096], line[4096];
    snprintf(path, sizeof path, "%s/%d.maps", dir, (int)getpid());
    FILE *maps = fopen("/proc/self/maps", "r"), *out = fopen(path, "w");
    while (maps && out && fgets(line, sizeof line, maps))
        fputs(line, out);
    if (maps)
        fclose(maps);
    if (out)
        fclose(out);
    snprintf(path, sizeof path, "%s/%d.frames", dir, (int)getpid());
    if (!(out = fopen(path, "w")))
        return;
    for (long at = 0; at < end;) {
        long n = (long)frames[at++];
        if (n <= 0 || at + n > end) /* the buffer filled up here */
            break;
        for (long k = 0; k < n; k++)
            fprintf(out, k ? " %lx" : "%lx", (unsigned long)frames[at + k]);
        fputc('\n', out);
        at += n;
    }
    fclose(out);
}
