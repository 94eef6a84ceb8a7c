/* The sampler behind scripts/profile.sh, loaded with LD_PRELOAD: a SIGPROF
 * every millisecond of CPU time, the stack at each one kept as raw return
 * addresses, and everything written out — after the process's memory map,
 * which is what turns the addresses back into file offsets — when the
 * process exits. Nothing is symbolised here; the script does that. */
#define _GNU_SOURCE
#include <execinfo.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>

#define MAX_SAMPLES 120000 /* two minutes of CPU time */
#define MAX_DEPTH 24

static void *frames[MAX_SAMPLES][MAX_DEPTH];
static int depth[MAX_SAMPLES];
static volatile int taken;

static void on_sigprof(int sig) {
    (void)sig;
    if (taken < MAX_SAMPLES) {
        depth[taken] = backtrace(frames[taken], MAX_DEPTH);
        taken++;
    }
}

static void set_interval(long usec) {
    struct itimerval every = {{0, usec}, {0, usec}};
    setitimer(ITIMER_PROF, &every, NULL);
}

__attribute__((constructor)) static void arm(void) {
    void *warm[4];
    backtrace(warm, 4); /* loads the unwinder now, not inside the handler */
    struct sigaction action = {0};
    action.sa_handler = on_sigprof;
    action.sa_flags = SA_RESTART;
    sigaction(SIGPROF, &action, NULL);
    set_interval(1000);
}

__attribute__((destructor)) static void dump(void) {
    set_interval(0);
    const char *path = getenv("SIGPROF_OUT");
    FILE *out = fopen(path ? path : "sigprof.out", "w");
    if (!out)
        return;
    FILE *maps = fopen("/proc/self/maps", "r");
    char line[1024];
    while (maps && fgets(line, sizeof line, maps))
        fprintf(out, "M %s", line);
    if (maps)
        fclose(maps);
    for (int i = 0; i < taken; i++) {
        fputc('S', out);
        for (int j = 0; j < depth[i]; j++)
            fprintf(out, " %p", frames[i][j]);
        fputc('\n', out);
    }
    fclose(out);
}
