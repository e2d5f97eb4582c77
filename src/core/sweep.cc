#include "core/sweep.hh"

#include <poll.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "common/file.hh"
#include "common/logging.hh"
#include "common/serialize.hh"
#include "common/table.hh"
#include "core/checkpoint.hh"
#include "cpu/multicore.hh"
#include "workload/trace_file.hh"

namespace hetsim::core
{

namespace
{

double
monotonicMs()
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return ts.tv_sec * 1e3 + ts.tv_nsec / 1e6;
}

/** The sweep's options with the cell's scale and watchdog applied:
 *  what the cell runs with and what its key names. */
ExperimentOptions
cellOptions(const SweepCell &cell, const SweepOptions &opts)
{
    ExperimentOptions exp = opts.exp;
    if (cell.scaleOverride > 0.0)
        exp.scale = cell.scaleOverride;
    if (cell.watchdogCycles != ~0ull)
        exp.watchdogCycles = cell.watchdogCycles;
    return exp;
}

/** Design hash of the cell's Table IV configuration. The parent keys
 *  every cell before it forks, so an out-of-range config hashes to 0
 *  here instead of panicking: it fails alone, in its own child. */
uint64_t
cellDesignHash(const SweepCell &cell)
{
    if (cell.kind == SweepCell::Kind::GpuKernel)
        return static_cast<unsigned>(cell.gpuCfg) < kNumGpuConfigs
            ? designHash(gpuHybridFromConfig(cell.gpuCfg)) : 0;
    return static_cast<unsigned>(cell.cpuCfg) < kNumCpuConfigs
        ? designHash(cpuHybridFromConfig(cell.cpuCfg)) : 0;
}

/** The record of a cell that stopped with `status` before it ran. */
RunRecord
recordOf(Status status)
{
    RunRecord rec;
    rec.status = std::move(status);
    return rec;
}

/** A cell's result from its run record: the outcome follows from the
 *  status code, and a preempted cell is never journaled or retried. */
CellResult
cellResult(RunRecord rec)
{
    CellResult res;
    const ErrorCode code = rec.status.code();
    res.outcome = code == ErrorCode::Ok ? CellOutcome::Ok
        : code == ErrorCode::Timeout    ? CellOutcome::TimedOut
                                        : CellOutcome::Failed;
    res.preempted = res.transient = code == ErrorCode::Preempted;
    res.status = std::move(rec.status);
    res.cycles = rec.cycles;
    res.ops = rec.ops;
    res.seconds = rec.seconds;
    res.energyJ = rec.energyJ;
    return res;
}

/** Mid-run checkpoint file of one cell, named by the FNV-64 of its
 *  durable key so any workload name maps to a flat filename. */
std::string
cellCheckpointPath(const std::string &cell_key,
                   const SweepOptions &opts)
{
    char hex[24];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(fnv1a(cell_key)));
    return opts.checkpointDir + "/cell-" + hex + kCheckpointSuffix;
}

/** Execute one cell in this process. Input errors come back as a
 *  failed record; internal invariants still panic (isolation turns
 *  that into a contained child death). */
RunRecord
runCellInProcess(const SweepCell &cell, const SweepOptions &opts)
{
    ExperimentOptions exp = cellOptions(cell, opts);
    // Per-cell mid-run checkpoints (synthetic cells only: a trace
    // cell's progress is its file cursor, which the journal already
    // covers at cell granularity).
    if (!opts.checkpointDir.empty() &&
        cell.kind != SweepCell::Kind::CpuTrace)
        exp.checkpointPath =
            cellCheckpointPath(cellStoreKey(cell, opts), opts);

    // A frequency below the DRAM/L3 round-trip floor fails synthesis,
    // and so the cell, with that error.
    const auto cpu_bundle = [&] {
        return synthesizeCpuBundle(cpuHybridFromConfig(cell.cpuCfg),
                                   exp.freqGhz);
    };
    switch (cell.kind) {
      case SweepCell::Kind::CpuApp:
      {
        const auto app = workload::findCpuApp(cell.workload);
        if (!app.ok())
            return recordOf(app.status());
        const Result<CpuConfigBundle> bundle = cpu_bundle();
        if (!bundle.ok())
            return recordOf(bundle.status());
        return runRecord(runCpuBundle(
            bundle.value(), cpuConfigName(cell.cpuCfg),
            cellDesignHash(cell), *app.value(), exp));
      }

      case SweepCell::Kind::CpuTrace:
      {
        auto trace = workload::FileTrace::open(cell.workload);
        if (!trace.ok())
            return recordOf(trace.status());
        const Result<CpuConfigBundle> bundle = cpu_bundle();
        if (!bundle.ok())
            return recordOf(bundle.status());
        cpu::MulticoreParams sim = bundle.value().sim;
        sim.mem.numCores = 1;
        applyChipOptions(sim, exp);
        cpu::Multicore mc(sim, {trace.value().get()});
        const cpu::MulticoreResult run = mc.run();
        if (!trace.value()->status().ok())
            return recordOf(trace.value()->status());
        CpuOutcome out;
        out.cycles = run.cycles;
        out.committedOps = run.committedOps;
        out.timedOut = run.timedOut;
        out.metrics.seconds = run.seconds;
        return runRecord(out);
      }

      case SweepCell::Kind::GpuKernel:
      {
        const auto kernel = workload::findGpuKernel(cell.workload);
        if (!kernel.ok())
            return recordOf(kernel.status());
        return runRecord(
            runGpuExperiment(cell.gpuCfg, *kernel.value(), exp));
      }
    }
    return recordOf(Status::error(ErrorCode::Internal,
                                  "unhandled cell kind %d",
                                  static_cast<int>(cell.kind)));
}

/** Child side: run the cell and ship its encoded result up the pipe.
 *  A failed write leaves the parent a short payload, which it
 *  reports as a crashed cell. */
[[noreturn]] void
childRunCell(int fd, const SweepCell &cell, const SweepOptions &opts)
{
    const std::string payload =
        encodeRunRecord(runCellInProcess(cell, opts));
    (void)writeAllFd(fd, payload.data(), payload.size(),
                     "sweep result pipe");
    // _exit keeps the child from re-running parent atexit hooks.
    ::_exit(0);
}

std::string
describeChildDeath(int wstatus)
{
    if (WIFSIGNALED(wstatus))
        return std::string("killed by signal ") +
            strsignal(WTERMSIG(wstatus));
    if (WIFEXITED(wstatus))
        return "exited with code " +
            std::to_string(WEXITSTATUS(wstatus));
    return "died abnormally";
}

/** Run one cell in this process under the soft wall-clock deadline:
 *  without a child process the cell cannot be stopped, so an overrun
 *  is reported loudly once it completes instead of silently dropping
 *  the guarantee. */
CellResult
runCellInline(const SweepCell &cell, const SweepOptions &opts)
{
    const double start = monotonicMs();
    CellResult res = cellResult(runCellInProcess(cell, opts));
    const double elapsed = monotonicMs() - start;
    if (opts.wallLimitMs > 0.0 && elapsed > opts.wallLimitMs &&
        res.outcome == CellOutcome::Ok) {
        res.outcome = CellOutcome::TimedOut;
        res.status = Status::error(
            ErrorCode::Timeout,
            "soft wall-clock deadline (%.0f ms) exceeded: "
            "inline cell ran %.0f ms to completion "
            "(no preemption without isolation)",
            opts.wallLimitMs, elapsed);
        res.transient = true;
    }
    return res;
}

/**
 * Bounded exponential backoff before retry `attempt` (1-based),
 * scaled by a deterministic jitter factor in [0.5, 1.0) hashed from
 * (seed, attempt). Jitter decorrelates the retry herd when many cells
 * fail together (e.g. a shared resource blip under high -j), and
 * seeding it from the cell key keeps every run of the same sweep
 * sleeping the same schedule — no hidden wall-clock nondeterminism.
 */
double
backoffMs(double first_ms, uint32_t attempt, uint64_t seed)
{
    double ms = first_ms;
    for (uint32_t i = 1; i < attempt; ++i)
        ms *= 2.0;
    // splitmix64-style finalizer over (seed, attempt).
    uint64_t h = seed + 0x9e3779b97f4a7c15ull * attempt;
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ull;
    h ^= h >> 27;
    h *= 0x94d049bb133111ebull;
    h ^= h >> 31;
    ms *= 0.5 + 0.5 * static_cast<double>(h >> 11) * 0x1.0p-53;
    if (ms > 5000.0)
        ms = 5000.0;
    return ms > 0.0 ? ms : 0.0;
}

/**
 * The sweep executor. Up to `opts.jobs` forked cells are in flight at
 * once (one when jobs is 0 or 1), multiplexed over their result pipes
 * from the calling thread — children are only ever forked from this
 * loop, never from worker threads. Inline cells (isolate == false)
 * run in this process as they launch and settle at once. Per cell:
 * journal replay on resume, bounded retry of transient failures
 * after a backoff, and the durable journal write of deterministic
 * outcomes. Results land in plan order, so the report is
 * byte-identical for any job count and either isolation. A pending
 * preemption stops new launches, forwards SIGTERM to *every*
 * in-flight child (each drains to its own resumable checkpoint),
 * marks unlaunched cells preempted-without-running, and retires a
 * cell waiting out a backoff with its last transient failure.
 */
SweepReport
runScheduler(const std::vector<SweepCell> &cells,
             const SweepOptions &opts)
{
    struct Task
    {
        enum class Phase
        {
            Pending, ///< Not launched (or relaunching after backoff).
            Running, ///< Forked child in flight.
            Backoff, ///< Transient failure; waiting out the delay.
            Done,
        };

        Phase phase = Phase::Pending;
        uint32_t attempt = 0; ///< Execution attempts started.
        double readyAt = 0.0; ///< Backoff release (monotonic ms).
        double startMs = 0.0; ///< First launch (for wallMs).
        pid_t pid = -1;
        int fd = -1;
        std::string buf;
        double deadline = 0.0; ///< Wall-clock kill time (0 = none).
        bool preemptSent = false;
        CellResult res;
    };
    using Phase = Task::Phase;

    const unsigned jobs = std::max(opts.jobs, 1u);
    std::vector<Task> tasks(cells.size());
    std::vector<std::string> keys;
    keys.reserve(cells.size());
    for (const SweepCell &cell : cells)
        keys.push_back(cellStoreKey(cell, opts));

    size_t done = 0;
    size_t running = 0;

    const auto preemptPending = [&opts] {
        return opts.exp.preempt && *opts.exp.preempt;
    };

    // One execution attempt of cell i finished with result r: either
    // park the task for a retry or journal and retire it.
    const auto settle = [&](size_t i, CellResult r) {
        Task &t = tasks[i];
        r.retries = t.attempt - 1;
        // Preemption is deliberate, not a fault: never retried. A
        // pending preemption also stops retries of ordinary transient
        // failures — the sweep is shutting down, not healing.
        if (!r.preempted && r.transient &&
            t.attempt - 1 < opts.maxRetries && !preemptPending()) {
            t.res = std::move(r);
            t.phase = Phase::Backoff;
            t.readyAt = monotonicMs() + backoffMs(
                opts.retryBackoffMs, t.attempt,
                fnv1a(keys[i]));
            return;
        }
        // Journal only deterministic terminal outcomes: a replayed
        // crash or wall-clock kill would freeze a nondeterministic
        // failure into every future resume.
        if (opts.store != nullptr && !r.transient && !r.fromStore) {
            const Status put = opts.store->put(
                keys[i], encodeRunRecord({r.status, r.cycles, r.ops,
                                          r.seconds, r.energyJ, ""}));
            if (!put.ok())
                warn("sweep journal write failed: %s",
                     put.toString().c_str());
        }
        r.wallMs = monotonicMs() - t.startMs;
        if (opts.verbose)
            inform("sweep [%zu/%zu] %s / %s: %s%s%s%s", i + 1,
                   cells.size(), cellConfigName(cells[i]).c_str(),
                   cellWorkloadName(cells[i]).c_str(),
                   cellOutcomeName(r.outcome),
                   r.fromStore ? " (replayed)" : "",
                   r.status.ok() ? "" : " - ",
                   r.status.ok() ? ""
                                 : r.status.toString().c_str());
        t.res = std::move(r);
        t.phase = Phase::Done;
        ++done;
    };

    // The child delivered its payload, closed its pipe or overran its
    // wall-clock deadline: reap it and settle the attempt.
    const auto finishRunning = [&](size_t i, bool timed_out) {
        Task &t = tasks[i];
        ::close(t.fd);
        --running;
        if (timed_out)
            ::kill(t.pid, SIGKILL);
        int wstatus = 0;
        ::waitpid(t.pid, &wstatus, 0);
        CellResult r;
        if (timed_out) {
            r.outcome = CellOutcome::TimedOut;
            r.status = Status::error(
                ErrorCode::Timeout,
                "wall-clock watchdog fired after %.0f ms",
                opts.wallLimitMs);
            r.transient = true; // Host-load dependent: retryable.
        } else if (Result<RunRecord> rec = decodeRunRecord(t.buf);
                   rec.ok()) {
            r = cellResult(std::move(rec).value());
        } else {
            // Died before delivering a result: crash, contained.
            r.outcome = CellOutcome::Failed;
            r.status = Status::error(
                ErrorCode::Crashed, "cell process %s",
                describeChildDeath(wstatus).c_str());
            r.transient = true; // May be environmental: retryable.
        }
        t.buf.clear();
        settle(i, std::move(r));
    };

    while (done < tasks.size()) {
        const double now = monotonicMs();

        // Preemption: stop launching, tell every in-flight child to
        // drain to its checkpoint, retire everything else.
        if (preemptPending()) {
            for (Task &t : tasks) {
                if (t.phase == Phase::Running) {
                    // Only with mid-run checkpoints on does a SIGTERM
                    // preserve (rather than discard) progress.
                    if (!t.preemptSent && !opts.checkpointDir.empty()) {
                        ::kill(t.pid, SIGTERM);
                        t.preemptSent = true;
                    }
                } else if (t.phase != Phase::Done) {
                    // A cell waiting out a backoff keeps its last
                    // transient failure.
                    if (t.attempt == 0)
                        t.res = cellResult(recordOf(Status::error(
                            ErrorCode::Preempted,
                            "sweep preempted before this cell ran")));
                    t.phase = Phase::Done;
                    ++done;
                }
            }
        }

        // Release elapsed backoffs back into the launch queue.
        for (Task &t : tasks)
            if (t.phase == Phase::Backoff && t.readyAt <= now)
                t.phase = Phase::Pending;

        // Launch pending cells, plan order first, up to the cap.
        for (size_t i = 0;
             i < tasks.size() && running < jobs && !preemptPending();
             ++i) {
            Task &t = tasks[i];
            if (t.phase != Phase::Pending)
                continue;
            if (t.attempt == 0) {
                t.startMs = monotonicMs();
                if (opts.store != nullptr && opts.resume) {
                    const Result<std::string> hit =
                        opts.store->get(keys[i]);
                    Result<RunRecord> rec = hit.ok()
                        ? decodeRunRecord(hit.value())
                        : Result<RunRecord>(hit.status());
                    if (rec.ok()) {
                        CellResult replay =
                            cellResult(std::move(rec).value());
                        replay.fromStore = true;
                        ++t.attempt;
                        settle(i, std::move(replay));
                        continue;
                    }
                }
            }
            ++t.attempt;
            if (!opts.isolate) {
                settle(i, runCellInline(cells[i], opts));
                continue;
            }
            int fds[2];
            pid_t pid = -1;
            if (::pipe(fds) == 0)
                pid = ::fork();
            else
                fds[0] = fds[1] = -1;
            if (pid < 0) {
                if (fds[0] >= 0) {
                    ::close(fds[0]);
                    ::close(fds[1]);
                }
                warn("fork() failed (%s); running cell in-process",
                     std::strerror(errno));
                settle(i, cellResult(runCellInProcess(cells[i], opts)));
                continue;
            }
            if (pid == 0) {
                ::close(fds[0]);
                childRunCell(fds[1], cells[i], opts);
            }
            ::close(fds[1]);
            t.pid = pid;
            t.fd = fds[0];
            t.preemptSent = false;
            t.deadline = opts.wallLimitMs > 0.0
                ? monotonicMs() + opts.wallLimitMs : 0.0;
            t.phase = Phase::Running;
            ++running;
        }

        if (done >= tasks.size())
            break;

        // Wait for the earliest of: child output, a wall-clock
        // deadline, or a backoff release. A SIGTERM to the sweep
        // interrupts the poll (EINTR), so preemption is noticed
        // immediately.
        double wake = 0.0; // 0 = wait for output only.
        std::vector<struct pollfd> pfds;
        std::vector<size_t> pfd_task;
        for (size_t i = 0; i < tasks.size(); ++i) {
            const Task &t = tasks[i];
            if (t.phase == Phase::Running) {
                pfds.push_back({t.fd, POLLIN, 0});
                pfd_task.push_back(i);
                if (t.deadline > 0.0 &&
                    (wake == 0.0 || t.deadline < wake))
                    wake = t.deadline;
            } else if (t.phase == Phase::Backoff &&
                       (wake == 0.0 || t.readyAt < wake)) {
                wake = t.readyAt;
            }
        }
        int wait_ms = -1;
        if (wake > 0.0)
            wait_ms = std::max(
                0, static_cast<int>(wake - monotonicMs())) + 1;
        // With a preempt flag registered, bound the wait: a flag set
        // without a signal delivery to this thread (e.g. from another
        // thread, or a signal handled elsewhere in the process) must
        // still be noticed promptly.
        if (opts.exp.preempt && (wait_ms < 0 || wait_ms > 100))
            wait_ms = 100;
        // With nothing in flight and no backoff to wait out, only a
        // preemption is left to handle: loop straight back to it.
        int ready = 0;
        if (!pfds.empty())
            ready = ::poll(pfds.data(),
                           static_cast<nfds_t>(pfds.size()),
                           wait_ms);
        else if (wake > 0.0)
            ready = ::poll(nullptr, 0, wait_ms);
        if (ready < 0 && errno != EINTR)
            warn("sweep: poll() failed: %s", std::strerror(errno));

        for (size_t k = 0; k < pfds.size(); ++k) {
            if (!(pfds[k].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            Task &t = tasks[pfd_task[k]];
            char chunk[4096];
            const ssize_t r = ::read(t.fd, chunk, sizeof(chunk));
            const bool eof =
                r == 0 || (r < 0 && errno != EINTR && errno != EAGAIN);
            if (r > 0)
                t.buf.append(chunk, static_cast<size_t>(r));
            // Settle once the whole record is in, without waiting for
            // the pipe to close: waitpid() then waits only for the exit.
            if (eof || decodeRunRecord(t.buf).ok())
                finishRunning(pfd_task[k], false);
        }
        // Kill every child past its wall-clock deadline.
        const double after = monotonicMs();
        for (size_t i = 0; i < tasks.size(); ++i) {
            const Task &t = tasks[i];
            if (t.phase == Phase::Running && t.deadline > 0.0 &&
                after >= t.deadline)
                finishRunning(i, true);
        }
    }

    SweepReport report;
    report.cells = cells;
    report.results.reserve(cells.size());
    for (Task &t : tasks)
        report.results.push_back(std::move(t.res));
    return report;
}

} // namespace

const char *
cellOutcomeName(CellOutcome outcome)
{
    switch (outcome) {
      case CellOutcome::Ok:
        return "ok";
      case CellOutcome::Failed:
        return "failed";
      case CellOutcome::TimedOut:
        return "timeout";
      default:
        return "?";
    }
}

SweepCell
cpuAppCell(CpuConfig cfg, const std::string &app, double scale)
{
    SweepCell c;
    c.kind = SweepCell::Kind::CpuApp;
    c.cpuCfg = cfg;
    c.workload = app;
    c.scaleOverride = scale;
    return c;
}

SweepCell
cpuTraceCell(CpuConfig cfg, const std::string &path)
{
    SweepCell c;
    c.kind = SweepCell::Kind::CpuTrace;
    c.cpuCfg = cfg;
    c.workload = path;
    return c;
}

SweepCell
gpuKernelCell(GpuConfig cfg, const std::string &kernel, double scale)
{
    SweepCell c;
    c.kind = SweepCell::Kind::GpuKernel;
    c.gpuCfg = cfg;
    c.workload = kernel;
    c.scaleOverride = scale;
    return c;
}

Result<SweepCell>
parseWorkloadSpec(const std::string &spec)
{
    SweepCell cell;
    std::string body = spec;

    if (body.rfind("trace:", 0) == 0) {
        cell.kind = SweepCell::Kind::CpuTrace;
        cell.workload = body.substr(6);
        if (cell.workload.empty())
            return Status::error(ErrorCode::InvalidArgument,
                                 "empty trace path in spec '%s'",
                                 spec.c_str());
        return cell;
    }

    if (body.rfind("kernel:", 0) == 0) {
        cell.kind = SweepCell::Kind::GpuKernel;
        body = body.substr(7);
    } else if (body.rfind("app:", 0) == 0) {
        cell.kind = SweepCell::Kind::CpuApp;
        body = body.substr(4);
    } else {
        cell.kind = SweepCell::Kind::CpuApp;
    }

    const size_t at = body.find('@');
    if (at != std::string::npos) {
        const std::string opt = body.substr(at + 1);
        body = body.substr(0, at);
        if (opt.rfind("scale=", 0) != 0)
            return Status::error(ErrorCode::InvalidArgument,
                                 "bad workload option '%s' in '%s' "
                                 "(expected scale=<x>)",
                                 opt.c_str(), spec.c_str());
        char *end = nullptr;
        const double scale =
            std::strtod(opt.c_str() + 6, &end);
        if (end == opt.c_str() + 6 || *end != '\0' || scale <= 0.0)
            return Status::error(ErrorCode::InvalidArgument,
                                 "bad scale value in spec '%s'",
                                 spec.c_str());
        cell.scaleOverride = scale;
    }
    if (body.empty())
        return Status::error(ErrorCode::InvalidArgument,
                             "empty workload name in spec '%s'",
                             spec.c_str());
    cell.workload = body;
    return cell;
}

Result<std::vector<SweepCell>>
crossCpuCells(const std::vector<CpuConfig> &cfgs,
              const std::vector<std::string> &specs)
{
    std::vector<SweepCell> cells;
    cells.reserve(cfgs.size() * specs.size());
    for (CpuConfig cfg : cfgs) {
        for (const std::string &spec : specs) {
            Result<SweepCell> cell = parseWorkloadSpec(spec);
            if (!cell.ok())
                return cell.status();
            if (cell.value().kind == SweepCell::Kind::GpuKernel)
                return Status::error(
                    ErrorCode::InvalidArgument,
                    "GPU kernel spec '%s' in a CPU config cross",
                    spec.c_str());
            cell.value().cpuCfg = cfg;
            cells.push_back(std::move(cell.value()));
        }
    }
    return cells;
}

size_t
SweepReport::count(CellOutcome outcome) const
{
    size_t n = 0;
    for (const CellResult &r : results)
        if (r.outcome == outcome)
            ++n;
    return n;
}

size_t
SweepReport::fromStoreCount() const
{
    size_t n = 0;
    for (const CellResult &r : results)
        if (r.fromStore)
            ++n;
    return n;
}

uint64_t
SweepReport::totalRetries() const
{
    uint64_t n = 0;
    for (const CellResult &r : results)
        n += r.retries;
    return n;
}

bool
SweepReport::preempted() const
{
    for (const CellResult &r : results)
        if (r.preempted)
            return true;
    return false;
}

std::string
cellStoreKey(const SweepCell &cell, const SweepOptions &opts)
{
    return runKey(cellDesignHash(cell),
                  cell.kind == SweepCell::Kind::CpuTrace
                      ? "trace:" + cell.workload
                      : cell.workload,
                  cellOptions(cell, opts));
}

std::string
cellConfigName(const SweepCell &cell)
{
    return cell.kind == SweepCell::Kind::GpuKernel
        ? gpuConfigName(cell.gpuCfg)
        : cpuConfigName(cell.cpuCfg);
}

std::string
cellWorkloadName(const SweepCell &cell)
{
    switch (cell.kind) {
      case SweepCell::Kind::CpuTrace:
        return "trace:" + cell.workload;
      case SweepCell::Kind::GpuKernel:
        return "kernel:" + cell.workload;
      default:
        return cell.workload;
    }
}

SweepReport
runSweep(const std::vector<SweepCell> &cells,
         const SweepOptions &opts)
{
    if (!opts.isolate && opts.wallLimitMs > 0.0)
        warn("sweep: inline cells honor the wall-clock limit as a "
             "soft deadline only (no preemption without isolation); "
             "pair it with a cycle watchdog to bound hung cells");
    if (opts.resume && opts.store == nullptr)
        warn("sweep: resume requested without a result store; "
             "every cell will re-execute");
    if (opts.jobs > 1 && !opts.isolate)
        warn("sweep: --jobs > 1 needs process isolation (inline "
             "cells share one address space); running serially");
    return runScheduler(cells, opts);
}

Status
printSweepReport(const SweepReport &report,
                 const std::string &csv_path)
{
    TablePrinter t("sweep summary",
                   {"config", "workload", "outcome", "cycles",
                    "sim ms", "energy mJ", "wall ms", "detail"});
    for (size_t i = 0; i < report.cells.size(); ++i) {
        const SweepCell &cell = report.cells[i];
        const CellResult &res = report.results[i];
        std::string detail =
            res.status.ok() ? "" : res.status.toString();
        if (detail.size() > 72)
            detail = detail.substr(0, 69) + "...";
        t.addRow({cellConfigName(cell), cellWorkloadName(cell),
                  cellOutcomeName(res.outcome),
                  std::to_string(res.cycles),
                  formatDouble(res.seconds * 1e3, 4),
                  formatDouble(res.energyJ * 1e3, 4),
                  formatDouble(res.wallMs, 1), detail});
    }
    t.print();
    std::printf("cells: %zu ok, %zu failed, %zu timed out "
                "(of %zu)\n",
                report.okCount(), report.failedCount(),
                report.timedOutCount(), report.results.size());
    if (report.fromStoreCount() > 0 || report.totalRetries() > 0)
        std::printf("journal: %zu cells replayed from the store, "
                    "%llu transient-failure retries\n",
                    report.fromStoreCount(),
                    static_cast<unsigned long long>(
                        report.totalRetries()));
    if (!csv_path.empty() && !t.writeCsv(csv_path))
        return ioError("cannot write csv", csv_path, errno);
    return Status();
}

std::string
sweepReportToJson(const SweepReport &report)
{
    std::string j;
    j += "{\n";
    j += "  \"schema\": \"hetsim-sweep-report-v1\",\n";
    j += "  \"cells\": [\n";
    for (size_t i = 0; i < report.cells.size(); ++i) {
        const SweepCell &cell = report.cells[i];
        const CellResult &res = report.results[i];
        j += "    {\n";
        j += "      \"config\": \"" +
             obs::jsonEscape(cellConfigName(cell)) + "\",\n";
        j += "      \"workload\": \"" +
             obs::jsonEscape(cellWorkloadName(cell)) + "\",\n";
        j += "      \"outcome\": \"";
        j += cellOutcomeName(res.outcome);
        j += "\",\n";
        j += "      \"detail\": \"" +
             obs::jsonEscape(res.status.ok() ? ""
                                             : res.status.toString()) +
             "\",\n";
        j += "      \"cycles\": " + std::to_string(res.cycles) + ",\n";
        j += "      \"ops\": " + std::to_string(res.ops) + ",\n";
        j += "      \"seconds\": " + obs::jsonDouble(res.seconds) +
             ",\n";
        j += "      \"energy_j\": " + obs::jsonDouble(res.energyJ) +
             "\n";
        j += i + 1 < report.cells.size() ? "    },\n" : "    }\n";
    }
    j += "  ]\n";
    j += "}\n";
    return j;
}

Status
writeSweepReportJson(const SweepReport &report,
                     const std::string &path)
{
    return writeFile(path, sweepReportToJson(report));
}

} // namespace hetsim::core
