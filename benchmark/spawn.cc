/**
 * @file
 * HetBench job launcher: runs one job and reports its wall time, peak
 * RSS and exit status.
 *
 *   hetbench_spawn TIMEOUT_S DIR -- PROGRAM [ARGS...]
 *
 * The job runs in DIR with stdout and stderr appended to DIR/job.log,
 * in its own process group, and is killed with the group (forked sweep
 * cells included) after TIMEOUT_S seconds. Prints one JSON object:
 *
 *   {"wall_s": 1.234, "maxrss_kb": 14336, "status": 0}
 *
 * status is the exit code, or minus the signal that ended the job.
 *
 * A launcher is needed because Linux charges the memory image a process
 * execs from to its ru_maxrss: forked straight from the Python harness,
 * every job would report at least the interpreter's RSS. This small
 * process is that image instead.
 */

#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace
{

volatile sig_atomic_t g_job = 0;

extern "C" void
onAlarm(int)
{
    if (g_job > 0)
        kill(-g_job, SIGKILL);
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 5 || std::strcmp(argv[3], "--") != 0) {
        std::fprintf(stderr, "usage: hetbench_spawn TIMEOUT_S DIR -- "
                             "PROGRAM [ARGS...]\n");
        return 2;
    }
    const unsigned timeout = static_cast<unsigned>(std::atoi(argv[1]));
    const char *dir = argv[2];

    const auto start = std::chrono::steady_clock::now();
    const pid_t pid = fork();
    if (pid < 0) {
        std::perror("hetbench_spawn: fork");
        return 2;
    }
    if (pid == 0) {
        setpgid(0, 0);
        if (chdir(dir) != 0)
            _exit(126);
        const int log = open("job.log", O_WRONLY | O_CREAT | O_APPEND, 0644);
        if (log < 0 || dup2(log, 1) < 0 || dup2(log, 2) < 0)
            _exit(126);
        execv(argv[4], argv + 4);
        _exit(127);
    }
    setpgid(pid, pid);
    g_job = pid;

    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = onAlarm;
    sa.sa_flags = SA_RESTART;
    sigaction(SIGALRM, &sa, nullptr);
    alarm(timeout);

    // Observe the exit without reaping, so the alarm can never signal a
    // recycled process group; then reap and collect the usage.
    siginfo_t info;
    while (waitid(P_PID, static_cast<id_t>(pid), &info,
                  WEXITED | WNOWAIT) != 0) {
    }
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    alarm(0);
    g_job = 0;

    int status = 0;
    struct rusage usage;
    std::memset(&usage, 0, sizeof(usage));
    if (wait4(pid, &status, 0, &usage) != pid) {
        std::perror("hetbench_spawn: wait4");
        return 2;
    }
    const int code = WIFEXITED(status) ? WEXITSTATUS(status)
                                       : -WTERMSIG(status);
    std::printf("{\"wall_s\": %.9f, \"maxrss_kb\": %ld, \"status\": %d}\n",
                wall, usage.ru_maxrss, code);
    return 0;
}
