#include "bench/bench_util.hh"

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <optional>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "workload/gpu_profiles.hh"

namespace hetsim::bench
{

namespace
{

/** Workers of the GPU suite, set by memory rather than CPUs. At
 *  scale 0.15 (4 vCPUs, RelWithDebInfo), with 8-byte cache lines, 3
 *  workers peak at 4.54 MiB, where 2 did with 16-byte lines, and 4 at
 *  4.94-4.98 MiB, too close to 10% over that (DESIGN.md section 9). */
constexpr unsigned kGpuSuiteWorkers = 3;

} // namespace

core::ExperimentOptions
parseOptions(int argc, char **argv, double default_scale)
{
    core::ExperimentOptions opts;
    opts.scale = default_scale;
    if (argc < 2)
        return opts;
    const char *text = argv[1];
    char *end = nullptr;
    errno = 0;
    opts.scale = std::strtod(text, &end);
    if (std::isspace(static_cast<unsigned char>(text[0])) ||
        end == text || *end != '\0' || errno == ERANGE ||
        !std::isfinite(opts.scale) || opts.scale <= 0.0) {
        // Bench harnesses are front ends: they may exit directly.
        std::fprintf(stderr, "error: scale must be a finite number > 0, "
                     "got '%s'\n", text);
        std::exit(1);
    }
    return opts;
}

const core::CpuOutcome &
CpuSuite::at(size_t cfg, size_t app) const
{
    return outcomes[cfg * apps.size() + app];
}

const core::CpuOutcome &
CpuSuite::baseline(size_t app) const
{
    return at(0, app);
}

CpuSuite
runCpuSuite(const std::vector<core::CpuConfig> &configs,
            const core::ExperimentOptions &opts)
{
    CpuSuite suite;
    suite.configs = configs;
    suite.apps = workload::cpuApps();
    const size_t n_configs = configs.size();
    const size_t n_apps = suite.apps.size();
    suite.outcomes.resize(n_configs * n_apps);
    std::vector<uint32_t> run_cores;
    for (core::CpuConfig cfg : configs) {
        std::fprintf(stderr, "  running %s...\n",
                     core::cpuConfigName(cfg));
        run_cores.push_back(core::cpuRunCores(
            core::cpuHybridFromConfig(cfg).numCores, opts));
    }

    // The recordings the configs sharing an app's workload replay:
    // built by the first of the app's cells to run, freed after its
    // last cell finishes.
    struct AppRecordings
    {
        std::once_flag built;
        std::optional<workload::SharedCpuRecordings> recordings;
        std::atomic<size_t> cellsLeft;
    };
    std::vector<AppRecordings> shared(n_apps);
    for (AppRecordings &app : shared)
        app.cellsLeft = n_configs;

    // Cells are claimed app-major, so the cells in flight belong to
    // few apps and few recordings are alive at once. Each cell writes
    // only its own outcome slot.
    ThreadPool pool(ThreadPool::defaultThreads());
    pool.parallelFor(n_configs * n_apps, [&](size_t cell) {
        const size_t a = cell / n_configs;
        const size_t c = cell % n_configs;
        AppRecordings &app = shared[a];
        std::call_once(app.built, [&] {
            app.recordings.emplace(suite.apps[a], run_cores, opts.seed,
                                   opts.scale);
        });
        suite.outcomes[c * n_apps + a] = core::runCpuExperiment(
            configs[c], suite.apps[a], opts, nullptr, nullptr,
            app.recordings->find(run_cores[c]));
        if (--app.cellsLeft == 0) {
            app.recordings.reset();
            // The recording's memory returns to the allocator arena
            // of the pool thread that built it, where the other
            // threads cannot reuse it: give it back to the system.
            malloc_trim(0);
        }
    });
    return suite;
}

const core::GpuOutcome &
GpuSuite::at(size_t cfg, size_t kernel) const
{
    return outcomes[cfg * kernels.size() + kernel];
}

const core::GpuOutcome &
GpuSuite::baseline(size_t kernel) const
{
    return at(0, kernel);
}

GpuSuite
runGpuSuite(const std::vector<core::GpuConfig> &configs,
            const core::ExperimentOptions &opts)
{
    GpuSuite suite;
    suite.configs = configs;
    suite.kernels = workload::gpuKernels();
    const size_t n_kernels = suite.kernels.size();
    suite.outcomes.resize(configs.size() * n_kernels);
    for (core::GpuConfig cfg : configs)
        std::fprintf(stderr, "  running %s...\n",
                     core::gpuConfigName(cfg));

    // Each cell writes only its own outcome slot.
    ThreadPool pool(std::min(kGpuSuiteWorkers,
                             ThreadPool::defaultThreads()));
    pool.parallelFor(suite.outcomes.size(), [&](size_t cell) {
        suite.outcomes[cell] = core::runGpuExperiment(
            configs[cell / n_kernels], suite.kernels[cell % n_kernels],
            opts);
    });
    return suite;
}

void
printCpuFigure(const std::string &title, const CpuSuite &suite,
               const CpuMetricFn &metric, const std::string &csv_path)
{
    std::vector<std::string> columns = {"app"};
    for (core::CpuConfig cfg : suite.configs)
        columns.push_back(core::cpuConfigName(cfg));
    TablePrinter t(title, columns);

    std::vector<double> sums(suite.configs.size(), 0.0);
    for (size_t a = 0; a < suite.apps.size(); ++a) {
        std::vector<double> row;
        for (size_t c = 0; c < suite.configs.size(); ++c) {
            const double v = metric(suite.at(c, a),
                                    suite.baseline(a));
            row.push_back(v);
            sums[c] += v;
        }
        t.addRow(suite.apps[a].name, row);
    }
    std::vector<double> means;
    for (double s : sums)
        means.push_back(s / suite.apps.size());
    t.addRow("Average", means);
    t.print();
    if (!csv_path.empty() && !t.writeCsv(csv_path))
        warn("could not write %s", csv_path.c_str());
}

void
printGpuFigure(const std::string &title, const GpuSuite &suite,
               const GpuMetricFn &metric, const std::string &csv_path)
{
    std::vector<std::string> columns = {"kernel"};
    for (core::GpuConfig cfg : suite.configs)
        columns.push_back(core::gpuConfigName(cfg));
    TablePrinter t(title, columns);

    std::vector<double> sums(suite.configs.size(), 0.0);
    for (size_t k = 0; k < suite.kernels.size(); ++k) {
        std::vector<double> row;
        for (size_t c = 0; c < suite.configs.size(); ++c) {
            const double v = metric(suite.at(c, k),
                                    suite.baseline(k));
            row.push_back(v);
            sums[c] += v;
        }
        t.addRow(suite.kernels[k].name, row);
    }
    std::vector<double> means;
    for (double s : sums)
        means.push_back(s / suite.kernels.size());
    t.addRow("Average", means);
    t.print();
    if (!csv_path.empty() && !t.writeCsv(csv_path))
        warn("could not write %s", csv_path.c_str());
}

double
cpuNormTime(const core::CpuOutcome &r, const core::CpuOutcome &b)
{
    return r.metrics.seconds / b.metrics.seconds;
}

double
cpuNormEnergy(const core::CpuOutcome &r, const core::CpuOutcome &b)
{
    return r.metrics.energyJ / b.metrics.energyJ;
}

double
cpuNormEd(const core::CpuOutcome &r, const core::CpuOutcome &b)
{
    return r.metrics.edJs() / b.metrics.edJs();
}

double
cpuNormEd2(const core::CpuOutcome &r, const core::CpuOutcome &b)
{
    return r.metrics.ed2Js2() / b.metrics.ed2Js2();
}

double
gpuNormTime(const core::GpuOutcome &r, const core::GpuOutcome &b)
{
    return r.metrics.seconds / b.metrics.seconds;
}

double
gpuNormEnergy(const core::GpuOutcome &r, const core::GpuOutcome &b)
{
    return r.metrics.energyJ / b.metrics.energyJ;
}

double
gpuNormEd2(const core::GpuOutcome &r, const core::GpuOutcome &b)
{
    return r.metrics.ed2Js2() / b.metrics.ed2Js2();
}

} // namespace hetsim::bench
