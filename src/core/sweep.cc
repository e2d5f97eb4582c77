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

/** Fixed-size prefix of the result a child sends up its pipe; also
 *  the layout of a journaled cell payload in the ResultStore (the
 *  store's own header supplies versioning and checksums). */
#pragma pack(push, 1)
struct WireResult
{
    uint8_t outcome;
    uint8_t code;
    uint64_t cycles;
    uint64_t ops;
    double seconds;
    double energyJ;
    uint32_t msgLen;
};
#pragma pack(pop)

/** Journal payload: WireResult + the status message bytes. */
std::string
encodeCellPayload(const CellResult &res)
{
    WireResult wire;
    wire.outcome = static_cast<uint8_t>(res.outcome);
    wire.code = static_cast<uint8_t>(res.status.code());
    wire.cycles = res.cycles;
    wire.ops = res.ops;
    wire.seconds = res.seconds;
    wire.energyJ = res.energyJ;
    const std::string &msg = res.status.message();
    wire.msgLen = static_cast<uint32_t>(msg.size());
    std::string payload(reinterpret_cast<const char *>(&wire),
                        sizeof(wire));
    payload += msg;
    return payload;
}

/** Inverse of encodeCellPayload; false on a malformed payload (the
 *  caller then re-executes — a journal can only ever cost a rerun). */
bool
decodeCellPayload(const std::string &payload, CellResult *res)
{
    WireResult wire;
    if (payload.size() < sizeof(wire))
        return false;
    std::memcpy(&wire, payload.data(), sizeof(wire));
    if (payload.size() != sizeof(wire) + wire.msgLen)
        return false;
    if (wire.outcome > static_cast<uint8_t>(CellOutcome::TimedOut))
        return false;
    res->outcome = static_cast<CellOutcome>(wire.outcome);
    const auto code = static_cast<ErrorCode>(wire.code);
    const std::string msg = payload.substr(sizeof(wire), wire.msgLen);
    res->status = code == ErrorCode::Ok
        ? Status()
        : Status::error(code, "%s", msg.c_str());
    res->cycles = wire.cycles;
    res->ops = wire.ops;
    res->seconds = wire.seconds;
    res->energyJ = wire.energyJ;
    // Defensive: preempted results are never journaled, but an
    // entry claiming preemption must keep its never-journal / never-
    // retry semantics if one ever appears.
    if (code == ErrorCode::Preempted) {
        res->transient = true;
        res->preempted = true;
    }
    return true;
}

double
effectiveScale(const SweepCell &cell, const SweepOptions &opts)
{
    return cell.scaleOverride > 0.0 ? cell.scaleOverride
                                    : opts.exp.scale;
}

uint64_t
effectiveWatchdog(const SweepCell &cell, const SweepOptions &opts)
{
    return cell.watchdogCycles != ~0ull ? cell.watchdogCycles
                                        : opts.exp.watchdogCycles;
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

/** Mark a result as preempted-at-checkpoint: never journaled, never
 *  retried; a resumed sweep re-executes (and mid-run-restores) it. */
void
markPreempted(CellResult *res, const char *what)
{
    res->outcome = CellOutcome::Failed;
    res->status = Status::error(ErrorCode::Preempted, "%s", what);
    res->transient = true;
    res->preempted = true;
}

/** Execute one cell in this process. Input errors come back as a
 *  Failed result; internal invariants still panic (isolation turns
 *  that into a contained child death). */
CellResult
runCellInProcess(const SweepCell &cell, const SweepOptions &opts)
{
    CellResult res;
    ExperimentOptions exp = opts.exp;
    exp.scale = effectiveScale(cell, opts);
    exp.watchdogCycles = effectiveWatchdog(cell, opts);
    // Per-cell mid-run checkpoints (synthetic cells only: a trace
    // cell's progress is its file cursor, which the journal already
    // covers at cell granularity).
    if (!opts.checkpointDir.empty() &&
        cell.kind != SweepCell::Kind::CpuTrace) {
        // The cell key already fences the cadence, so it doubles as
        // the checkpoint identity key.
        const std::string key = cellStoreKey(cell, opts);
        exp.checkpointPath = cellCheckpointPath(key, opts);
        exp.checkpointKey = key;
    }

    switch (cell.kind) {
      case SweepCell::Kind::CpuApp:
      {
        const auto app = workload::findCpuApp(cell.workload);
        if (!app.ok()) {
            res.status = app.status();
            return res;
        }
        const CpuOutcome out =
            runCpuExperiment(cell.cpuCfg, *app.value(), exp);
        if (out.preempted) {
            markPreempted(&res,
                          "preempted at a mid-run checkpoint");
            res.cycles = out.cycles;
            return res;
        }
        res.outcome = out.timedOut ? CellOutcome::TimedOut
                                   : CellOutcome::Ok;
        if (out.timedOut)
            res.status = Status::error(
                ErrorCode::Timeout,
                "cycle watchdog fired at %llu cycles",
                static_cast<unsigned long long>(out.cycles));
        res.cycles = out.cycles;
        res.ops = out.committedOps;
        res.seconds = out.metrics.seconds;
        res.energyJ = out.metrics.energyJ;
        return res;
      }

      case SweepCell::Kind::CpuTrace:
      {
        auto trace = workload::FileTrace::open(cell.workload);
        if (!trace.ok()) {
            res.status = trace.status();
            return res;
        }
        CpuConfigBundle bundle =
            makeCpuConfig(cell.cpuCfg, exp.freqGhz);
        cpu::MulticoreParams sim = bundle.sim;
        sim.mem.numCores = 1;
        sim.watchdogCycles = exp.watchdogCycles;
        cpu::Multicore mc(sim, {trace.value().get()});
        const cpu::MulticoreResult run = mc.run();
        if (!trace.value()->status().ok()) {
            res.status = trace.value()->status();
            return res;
        }
        res.outcome = run.timedOut ? CellOutcome::TimedOut
                                   : CellOutcome::Ok;
        if (run.timedOut)
            res.status = Status::error(
                ErrorCode::Timeout,
                "cycle watchdog fired at %llu cycles",
                static_cast<unsigned long long>(run.cycles));
        res.cycles = run.cycles;
        res.ops = run.committedOps;
        res.seconds = run.seconds;
        return res;
      }

      case SweepCell::Kind::GpuKernel:
      {
        const auto kernel = workload::findGpuKernel(cell.workload);
        if (!kernel.ok()) {
            res.status = kernel.status();
            return res;
        }
        const GpuOutcome out =
            runGpuExperiment(cell.gpuCfg, *kernel.value(), exp);
        if (out.preempted) {
            markPreempted(&res,
                          "preempted at a mid-run checkpoint");
            res.cycles = out.cycles;
            return res;
        }
        res.outcome = out.timedOut ? CellOutcome::TimedOut
                                   : CellOutcome::Ok;
        if (out.timedOut)
            res.status = Status::error(
                ErrorCode::Timeout,
                "cycle watchdog fired at %llu cycles",
                static_cast<unsigned long long>(out.cycles));
        res.cycles = out.cycles;
        res.ops = out.issuedOps;
        res.seconds = out.metrics.seconds;
        res.energyJ = out.metrics.energyJ;
        return res;
      }
    }
    res.status = Status::error(ErrorCode::Internal,
                               "unhandled cell kind %d",
                               static_cast<int>(cell.kind));
    return res;
}

/** Child side: run the cell and ship the result up the pipe. */
[[noreturn]] void
childRunCell(int fd, const SweepCell &cell, const SweepOptions &opts)
{
    const CellResult res = runCellInProcess(cell, opts);
    WireResult wire;
    wire.outcome = static_cast<uint8_t>(res.outcome);
    wire.code = static_cast<uint8_t>(res.status.code());
    wire.cycles = res.cycles;
    wire.ops = res.ops;
    wire.seconds = res.seconds;
    wire.energyJ = res.energyJ;
    const std::string &msg = res.status.message();
    wire.msgLen = static_cast<uint32_t>(msg.size());
    // A failed write leaves the parent a short payload, which it
    // reports as a failed cell.
    if (writeAllFd(fd, &wire, sizeof(wire), "sweep result pipe").ok())
        (void)writeAllFd(fd, msg.data(), msg.size(), "sweep result pipe");
    // _exit keeps the child from re-running parent atexit hooks.
    ::_exit(0);
}

CellResult
decodeWire(const WireResult &wire, const std::string &msg)
{
    CellResult res;
    res.outcome = static_cast<CellOutcome>(wire.outcome);
    const auto code = static_cast<ErrorCode>(wire.code);
    res.status = code == ErrorCode::Ok
        ? Status()
        : Status::error(code, "%s", msg.c_str());
    res.cycles = wire.cycles;
    res.ops = wire.ops;
    res.seconds = wire.seconds;
    res.energyJ = wire.energyJ;
    // A preempted child saved a checkpoint and stopped: keep the
    // never-journal / never-retry semantics across the pipe.
    if (code == ErrorCode::Preempted) {
        res.transient = true;
        res.preempted = true;
    }
    return res;
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

/** Parent side: fork, read the pipe under the wall-clock watchdog. */
CellResult
runCellIsolated(const SweepCell &cell, const SweepOptions &opts)
{
    int fds[2];
    if (::pipe(fds) != 0) {
        CellResult res;
        res.status = Status::error(ErrorCode::Internal,
                                   "pipe() failed: %s",
                                   std::strerror(errno));
        return res;
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
        ::close(fds[0]);
        ::close(fds[1]);
        warn("fork() failed (%s); running cell in-process",
             std::strerror(errno));
        return runCellInProcess(cell, opts);
    }
    if (pid == 0) {
        ::close(fds[0]);
        childRunCell(fds[1], cell, opts);
    }
    ::close(fds[1]);

    const double deadline = opts.wallLimitMs > 0.0
        ? monotonicMs() + opts.wallLimitMs : 0.0;
    std::string buf;
    bool timed_out = false;
    bool eof = false;
    bool preempt_sent = false;
    while (true) {
        // A preemption request (SIGTERM to the sweep) must reach the
        // in-flight cell, which lives in its own process: forward it.
        // The child inherited the caller's signal disposition, so its
        // own handler sets its preempt flag and the cell stops at the
        // next periodic drain with a resumable checkpoint. Only done
        // when mid-run checkpoints are on — without them, preempting
        // the cell would just discard its progress.
        if (!preempt_sent && !opts.checkpointDir.empty() &&
            opts.exp.preempt && *opts.exp.preempt) {
            ::kill(pid, SIGTERM);
            preempt_sent = true;
        }
        if (buf.size() >= sizeof(WireResult)) {
            WireResult wire;
            std::memcpy(&wire, buf.data(), sizeof(wire));
            if (buf.size() >= sizeof(wire) + wire.msgLen)
                break; // Full payload in hand.
        }
        if (eof)
            break;
        int wait_ms = -1;
        if (deadline > 0.0) {
            const double remaining = deadline - monotonicMs();
            if (remaining <= 0.0) {
                timed_out = true;
                break;
            }
            wait_ms = static_cast<int>(remaining) + 1;
        }
        struct pollfd pfd{fds[0], POLLIN, 0};
        const int ready = ::poll(&pfd, 1, wait_ms);
        if (ready < 0 && errno == EINTR)
            continue;
        if (ready == 0) {
            timed_out = true;
            break;
        }
        char chunk[4096];
        const ssize_t r = ::read(fds[0], chunk, sizeof(chunk));
        if (r < 0) {
            if (errno == EINTR)
                continue;
            eof = true;
        } else if (r == 0) {
            eof = true;
        } else {
            buf.append(chunk, static_cast<size_t>(r));
        }
    }
    ::close(fds[0]);

    CellResult res;
    if (timed_out) {
        ::kill(pid, SIGKILL);
        int wstatus = 0;
        ::waitpid(pid, &wstatus, 0);
        res.outcome = CellOutcome::TimedOut;
        res.status = Status::error(
            ErrorCode::Timeout,
            "wall-clock watchdog fired after %.0f ms",
            opts.wallLimitMs);
        res.transient = true; // Host-load dependent: retryable.
        return res;
    }

    int wstatus = 0;
    ::waitpid(pid, &wstatus, 0);

    WireResult wire;
    if (buf.size() >= sizeof(wire)) {
        std::memcpy(&wire, buf.data(), sizeof(wire));
        if (buf.size() >= sizeof(wire) + wire.msgLen) {
            const std::string msg =
                buf.substr(sizeof(wire), wire.msgLen);
            return decodeWire(wire, msg);
        }
    }
    // The child died before delivering a result: crash, contained.
    res.outcome = CellOutcome::Failed;
    res.status = Status::error(ErrorCode::Crashed, "cell process %s",
                               describeChildDeath(wstatus).c_str());
    res.transient = true; // Crashes may be environmental: retryable.
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

void
sleepBackoff(double first_ms, uint32_t attempt, uint64_t seed)
{
    const double ms = backoffMs(first_ms, attempt, seed);
    if (ms <= 0.0)
        return;
    struct timespec ts;
    ts.tv_sec = static_cast<time_t>(ms / 1e3);
    ts.tv_nsec = static_cast<long>(
        (ms - ts.tv_sec * 1e3) * 1e6);
    ::nanosleep(&ts, nullptr);
}

/**
 * One cell, end to end: journal replay (resume), execution with the
 * chosen isolation, the inline soft wall-clock deadline, bounded
 * retry of transient failures, and the durable journal write.
 */
CellResult
executeCell(const SweepCell &cell, const SweepOptions &opts)
{
    const std::string key = cellStoreKey(cell, opts);

    if (opts.store != nullptr && opts.resume) {
        const Result<std::string> hit = opts.store->get(key);
        CellResult replay;
        if (hit.ok() && decodeCellPayload(hit.value(), &replay)) {
            replay.fromStore = true;
            return replay;
        }
    }

    CellResult res;
    for (uint32_t attempt = 0;; ++attempt) {
        if (opts.isolate) {
            res = runCellIsolated(cell, opts);
        } else {
            const double start = monotonicMs();
            res = runCellInProcess(cell, opts);
            const double elapsed = monotonicMs() - start;
            // Soft wall-clock deadline: the cell cannot be preempted
            // without a child process, but an overrun is reported
            // loudly instead of silently dropping the guarantee.
            if (opts.wallLimitMs > 0.0 &&
                elapsed > opts.wallLimitMs &&
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
        }
        res.retries = attempt;
        // Preemption is deliberate, not a fault: never retried. A
        // pending preemption also stops retries of ordinary transient
        // failures — the sweep is shutting down, not healing.
        if (res.preempted || !res.transient ||
            attempt >= opts.maxRetries ||
            (opts.exp.preempt && *opts.exp.preempt))
            break;
        sleepBackoff(opts.retryBackoffMs, attempt + 1,
                     fnv1a(key));
    }

    // Journal only deterministic terminal outcomes: a replayed crash
    // or wall-clock kill would freeze a nondeterministic failure into
    // every future resume.
    if (opts.store != nullptr && !res.transient) {
        const Status put =
            opts.store->put(key, encodeCellPayload(res));
        if (!put.ok())
            warn("sweep journal write failed: %s",
                 put.toString().c_str());
    }
    return res;
}

/**
 * Parallel scheduler: up to `jobs` forked cells in flight at once,
 * multiplexed over their result pipes from the calling thread —
 * children are only ever forked from this loop, never from worker
 * threads. Every cell runs exactly the computation the serial path
 * runs and results land in plan order, so a jobs=N report is
 * byte-identical to the jobs=1 report. A pending preemption stops
 * new launches, forwards SIGTERM to *every* in-flight child (each
 * drains to its own resumable checkpoint), and marks unlaunched
 * cells preempted-without-running, matching the serial semantics.
 */
SweepReport
runSweepParallel(const std::vector<SweepCell> &cells,
                 const SweepOptions &opts, unsigned jobs)
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
    // retire the task or park it for a retry. Mirrors the serial
    // executeCell retry/journal policy exactly.
    const auto settle = [&](size_t i, CellResult r) {
        Task &t = tasks[i];
        const double now = monotonicMs();
        r.retries = t.attempt - 1;
        if (!r.preempted && r.transient &&
            t.attempt - 1 < opts.maxRetries && !preemptPending()) {
            t.res = std::move(r);
            t.phase = Phase::Backoff;
            t.readyAt = now + backoffMs(
                opts.retryBackoffMs, t.attempt,
                fnv1a(keys[i]));
            return;
        }
        r.wallMs = now - t.startMs;
        if (opts.store != nullptr && !r.transient && !r.fromStore) {
            const Status put =
                opts.store->put(keys[i], encodeCellPayload(r));
            if (!put.ok())
                warn("sweep journal write failed: %s",
                     put.toString().c_str());
        }
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

    // The child delivered (full payload / EOF) or overran its
    // wall-clock deadline: reap it and settle the attempt.
    const auto finishRunning = [&](size_t i, bool timed_out) {
        Task &t = tasks[i];
        ::close(t.fd);
        t.fd = -1;
        --running;
        t.phase = Phase::Pending; // settle() decides Done/Backoff.
        if (timed_out)
            ::kill(t.pid, SIGKILL);
        int wstatus = 0;
        ::waitpid(t.pid, &wstatus, 0);
        t.pid = -1;
        if (timed_out) {
            t.buf.clear();
            CellResult r;
            r.outcome = CellOutcome::TimedOut;
            r.status = Status::error(
                ErrorCode::Timeout,
                "wall-clock watchdog fired after %.0f ms",
                opts.wallLimitMs);
            r.transient = true; // Host-load dependent: retryable.
            settle(i, std::move(r));
            return;
        }
        WireResult wire;
        if (t.buf.size() >= sizeof(wire)) {
            std::memcpy(&wire, t.buf.data(), sizeof(wire));
            if (t.buf.size() >= sizeof(wire) + wire.msgLen) {
                const std::string msg =
                    t.buf.substr(sizeof(wire), wire.msgLen);
                t.buf.clear();
                settle(i, decodeWire(wire, msg));
                return;
            }
        }
        // Died before delivering a result: crash, contained.
        t.buf.clear();
        CellResult r;
        r.outcome = CellOutcome::Failed;
        r.status = Status::error(ErrorCode::Crashed,
                                 "cell process %s",
                                 describeChildDeath(wstatus).c_str());
        r.transient = true;
        settle(i, std::move(r));
    };

    while (done < tasks.size()) {
        double now = monotonicMs();

        // Preemption: stop launching, tell every in-flight child to
        // drain to its checkpoint, retire everything not yet started.
        if (preemptPending()) {
            for (size_t i = 0; i < tasks.size(); ++i) {
                Task &t = tasks[i];
                if (t.phase == Phase::Pending) {
                    if (t.attempt == 0)
                        markPreempted(&t.res, "sweep preempted "
                                              "before this cell ran");
                    // else keep the last transient failure, as the
                    // serial retry loop does when a preemption stops
                    // it mid-backoff.
                    t.res.retries =
                        t.attempt > 0 ? t.attempt - 1 : 0;
                    t.phase = Phase::Done;
                    ++done;
                } else if (t.phase == Phase::Backoff) {
                    t.phase = Phase::Done;
                    ++done;
                } else if (t.phase == Phase::Running &&
                           !t.preemptSent &&
                           !opts.checkpointDir.empty()) {
                    // Same forwarding rule as the serial path: only
                    // with mid-run checkpoints on does a SIGTERM
                    // preserve (rather than discard) progress.
                    ::kill(t.pid, SIGTERM);
                    t.preemptSent = true;
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
                t.startMs = now;
                if (opts.store != nullptr && opts.resume) {
                    const Result<std::string> hit =
                        opts.store->get(keys[i]);
                    CellResult replay;
                    if (hit.ok() &&
                        decodeCellPayload(hit.value(), &replay)) {
                        replay.fromStore = true;
                        ++t.attempt;
                        settle(i, std::move(replay));
                        continue;
                    }
                }
            }
            int fds[2];
            pid_t pid = -1;
            if (::pipe(fds) == 0)
                pid = ::fork();
            else
                fds[0] = fds[1] = -1;
            ++t.attempt;
            if (pid < 0) {
                if (fds[0] >= 0) {
                    ::close(fds[0]);
                    ::close(fds[1]);
                }
                warn("fork() failed (%s); running cell in-process",
                     std::strerror(errno));
                settle(i, runCellInProcess(cells[i], opts));
                continue;
            }
            if (pid == 0) {
                ::close(fds[0]);
                childRunCell(fds[1], cells[i], opts);
            }
            ::close(fds[1]);
            t.pid = pid;
            t.fd = fds[0];
            t.buf.clear();
            t.preemptSent = false;
            t.deadline = opts.wallLimitMs > 0.0
                ? now + opts.wallLimitMs : 0.0;
            t.phase = Phase::Running;
            ++running;
        }

        if (done >= tasks.size())
            break;

        // Wait for the earliest of: child output, a wall-clock
        // deadline, or a backoff release. A SIGTERM to the sweep
        // interrupts the poll (EINTR), so preemption is noticed
        // immediately.
        now = monotonicMs();
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
            wait_ms = std::max(0, static_cast<int>(wake - now)) + 1;
        // With a preempt flag registered, bound the wait: a flag set
        // without a signal delivery to this thread (e.g. from another
        // thread, or a signal handled elsewhere in the process) must
        // still be noticed promptly.
        if (opts.exp.preempt && (wait_ms < 0 || wait_ms > 100))
            wait_ms = 100;
        int ready = 0;
        if (!pfds.empty())
            ready = ::poll(pfds.data(),
                           static_cast<nfds_t>(pfds.size()),
                           wait_ms);
        else if (wait_ms > 0)
            ready = ::poll(nullptr, 0, wait_ms);
        if (ready < 0 && errno != EINTR)
            warn("sweep: poll() failed: %s", std::strerror(errno));

        now = monotonicMs();
        for (size_t k = 0; k < pfds.size(); ++k) {
            const size_t i = pfd_task[k];
            Task &t = tasks[i];
            if (t.phase != Phase::Running)
                continue;
            if (pfds[k].revents & (POLLIN | POLLHUP | POLLERR)) {
                char chunk[4096];
                const ssize_t r =
                    ::read(t.fd, chunk, sizeof(chunk));
                if (r > 0)
                    t.buf.append(chunk, static_cast<size_t>(r));
                const bool eof = r == 0 ||
                    (r < 0 && errno != EINTR && errno != EAGAIN);
                bool complete = false;
                if (t.buf.size() >= sizeof(WireResult)) {
                    WireResult wire;
                    std::memcpy(&wire, t.buf.data(), sizeof(wire));
                    complete =
                        t.buf.size() >= sizeof(wire) + wire.msgLen;
                }
                if (complete || eof) {
                    finishRunning(i, false);
                    continue;
                }
            }
            if (t.deadline > 0.0 && now >= t.deadline)
                finishRunning(i, true);
        }
        // Deadlines fire even for children producing no output.
        for (size_t i = 0; i < tasks.size(); ++i) {
            Task &t = tasks[i];
            if (t.phase == Phase::Running && t.deadline > 0.0 &&
                now >= t.deadline)
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
    const char *kind = "app";
    switch (cell.kind) {
      case SweepCell::Kind::CpuTrace:
        kind = "trace";
        break;
      case SweepCell::Kind::GpuKernel:
        kind = "kernel";
        break;
      default:
        break;
    }
    // The checkpoint cadence participates: a drain pauses fetch for
    // some cycles, so runs with different cadences report different
    // (equally valid) cycle counts and must not share journal bytes.
    char buf[144];
    std::snprintf(buf, sizeof(buf),
                  "|x%.9g|w%llu|s%llu|f%.9g|g%d|c%u|k%d|e%llu",
                  effectiveScale(cell, opts),
                  static_cast<unsigned long long>(
                      effectiveWatchdog(cell, opts)),
                  static_cast<unsigned long long>(opts.exp.seed),
                  opts.exp.freqGhz,
                  opts.exp.variationGuardband ? 1 : 0,
                  opts.exp.coresOverride, opts.exp.noSkip ? 1 : 0,
                  static_cast<unsigned long long>(
                      opts.exp.checkpointEveryCycles));
    return std::string("sweep-cell-v1|") + kind + "|" +
        cellConfigName(cell) + "|" + cell.workload + buf;
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
    unsigned jobs = opts.jobs > 0 ? opts.jobs : 1;
    if (jobs > 1 && !opts.isolate) {
        warn("sweep: --jobs > 1 needs process isolation (inline "
             "cells share one address space); running serially");
        jobs = 1;
    }
    if (jobs > 1)
        return runSweepParallel(cells, opts, jobs);

    SweepReport report;
    report.cells = cells;
    report.results.reserve(cells.size());
    for (size_t i = 0; i < cells.size(); ++i) {
        const SweepCell &cell = cells[i];
        // A preemption request stops the sweep between cells too:
        // the remaining plan is marked preempted-without-running and
        // re-executes on resume.
        if (opts.exp.preempt && *opts.exp.preempt) {
            CellResult skipped;
            markPreempted(&skipped,
                          "sweep preempted before this cell ran");
            report.results.push_back(std::move(skipped));
            continue;
        }
        const double start = monotonicMs();
        CellResult res = executeCell(cell, opts);
        res.wallMs = monotonicMs() - start;
        if (opts.verbose)
            inform("sweep [%zu/%zu] %s / %s: %s%s%s%s", i + 1,
                   cells.size(), cellConfigName(cell).c_str(),
                   cellWorkloadName(cell).c_str(),
                   cellOutcomeName(res.outcome),
                   res.fromStore ? " (replayed)" : "",
                   res.status.ok() ? "" : " - ",
                   res.status.ok() ? ""
                                   : res.status.toString().c_str());
        report.results.push_back(std::move(res));
    }
    return report;
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
