/**
 * @file
 * Shared helpers for the figure/table bench harnesses.
 *
 * Every bench binary reproduces one table or figure of the paper: it
 * runs the relevant (configuration x workload) matrix, prints the same
 * rows/series the paper reports (normalized to the paper's baseline),
 * and mirrors the table to a CSV file next to the binary.
 *
 * Usage of every bench binary:
 *   bench_figN [scale]
 * where `scale` (default 1.0) multiplies workload sizes; use smaller
 * values for quick runs.
 */

#ifndef HETSIM_BENCH_BENCH_UTIL_HH
#define HETSIM_BENCH_BENCH_UTIL_HH

#include <functional>
#include <string>
#include <vector>

#include "common/table.hh"
#include "core/experiment.hh"

namespace hetsim::bench
{

/** Parse the common [scale] argument: the whole of argv[1] must be a
 *  finite number > 0, else the harness exits 1 with one error line. */
core::ExperimentOptions parseOptions(int argc, char **argv,
                                     double default_scale = 1.0);

/** Results of a CPU config x app matrix with the baseline first. */
struct CpuSuite
{
    std::vector<core::CpuConfig> configs;
    std::vector<workload::AppProfile> apps;
    std::vector<core::CpuOutcome> outcomes;

    const core::CpuOutcome &at(size_t cfg, size_t app) const;
    const core::CpuOutcome &baseline(size_t app) const;
};

/** Run a CPU suite (configs x all 14 paper apps). The cells run on
 *  ThreadPool::defaultThreads() workers; every outcome is the one a
 *  serial runCpuExperiment loop computes. */
CpuSuite runCpuSuite(const std::vector<core::CpuConfig> &configs,
                     const core::ExperimentOptions &opts);

/** Results of a GPU config x kernel matrix with the baseline first. */
struct GpuSuite
{
    std::vector<core::GpuConfig> configs;
    std::vector<workload::KernelProfile> kernels;
    std::vector<core::GpuOutcome> outcomes;

    const core::GpuOutcome &at(size_t cfg, size_t kernel) const;
    const core::GpuOutcome &baseline(size_t kernel) const;
};

/** Run a GPU suite (configs x all paper kernels). The cells run on
 *  at most two workers; every outcome is the one a serial
 *  runGpuExperiment loop computes. */
GpuSuite runGpuSuite(const std::vector<core::GpuConfig> &configs,
                     const core::ExperimentOptions &opts);

/** Per-app normalized metric selected by `metric`. */
using CpuMetricFn =
    std::function<double(const core::CpuOutcome &run,
                         const core::CpuOutcome &base)>;
using GpuMetricFn =
    std::function<double(const core::GpuOutcome &run,
                         const core::GpuOutcome &base)>;

/**
 * Print (and CSV-mirror) a figure table: one row per app, one column
 * per configuration, values normalized to the suite baseline, plus a
 * trailing arithmetic-mean row (the paper's "Average" bars).
 */
void printCpuFigure(const std::string &title, const CpuSuite &suite,
                    const CpuMetricFn &metric,
                    const std::string &csv_path);

void printGpuFigure(const std::string &title, const GpuSuite &suite,
                    const GpuMetricFn &metric,
                    const std::string &csv_path);

/** Normalized time / energy / ED / ED^2 metric functions. @{ */
double cpuNormTime(const core::CpuOutcome &r, const core::CpuOutcome &b);
double cpuNormEnergy(const core::CpuOutcome &r,
                     const core::CpuOutcome &b);
double cpuNormEd(const core::CpuOutcome &r, const core::CpuOutcome &b);
double cpuNormEd2(const core::CpuOutcome &r, const core::CpuOutcome &b);
double gpuNormTime(const core::GpuOutcome &r, const core::GpuOutcome &b);
double gpuNormEnergy(const core::GpuOutcome &r,
                     const core::GpuOutcome &b);
double gpuNormEd2(const core::GpuOutcome &r, const core::GpuOutcome &b);
/** @} */

} // namespace hetsim::bench

#endif // HETSIM_BENCH_BENCH_UTIL_HH
