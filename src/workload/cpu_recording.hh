/**
 * @file
 * A recorded CPU workload: every thread's micro-ops of one
 * (application, threads, seed, scale) identity, generated once and
 * replayed by any number of runs.
 *
 * A generator is a pure function of its profile, thread, thread count,
 * seed and scale, and takes no feedback from timing, so a run that
 * replays the recording is the run that streams from
 * makeCpuWorkload: same ops, same end, same checkpoint bytes. Design
 * searches and figure suites, which run one workload on many
 * machines, record it once instead of regenerating it per run.
 */

#ifndef HETSIM_WORKLOAD_CPU_RECORDING_HH
#define HETSIM_WORKLOAD_CPU_RECORDING_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cpu/microop.hh"
#include "workload/cpu_profiles.hh"

namespace hetsim::workload
{

/** One workload identity, held as every thread's micro-ops. Read-only
 *  once built: threads may share it and each open() its own cursors. */
class CpuRecording
{
  public:
    /** Drain the generators makeCpuWorkload(profile, num_threads,
     *  seed, scale) builds. */
    CpuRecording(const AppProfile &profile, uint32_t num_threads,
                 uint64_t seed, double scale);

    uint32_t
    numThreads() const
    {
        return static_cast<uint32_t>(threads_.size());
    }

    /** Whether this records makeCpuWorkload(profile, ..., seed,
     *  scale) for some thread count. */
    bool records(const AppProfile &profile, uint64_t seed,
                 double scale) const;

    /** One cursor per thread at the thread's first op, in thread
     *  order, as makeCpuWorkload returns its generators. */
    std::vector<std::unique_ptr<cpu::TraceSource>> open() const;

  private:
    std::string app_;
    uint64_t seed_;
    double scale_;
    std::vector<std::vector<cpu::MicroOp>> threads_;
};

/** The recordings a batch of runs of one workload shares: one per
 *  thread count that at least two of the runs use, since a recording
 *  replayed once costs its generation plus a copy. */
class SharedCpuRecordings
{
  public:
    /** `run_threads` holds each run's thread (core) count. */
    SharedCpuRecordings(const AppProfile &profile,
                        const std::vector<uint32_t> &run_threads,
                        uint64_t seed, double scale);

    /** The recording with `threads` threads, or null when fewer than
     *  two runs use that count. */
    const CpuRecording *find(uint32_t threads) const;

  private:
    std::map<uint32_t, CpuRecording> byThreads_;
};

} // namespace hetsim::workload

#endif // HETSIM_WORKLOAD_CPU_RECORDING_HH
