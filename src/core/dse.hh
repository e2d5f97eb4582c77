/**
 * @file
 * Design-space exploration over free-form hybrid device assignments.
 *
 * Table IV hand-picks 16 configurations out of a combinatorial space
 * of per-unit CMOS/TFET choices. This subsystem asks the question the
 * paper could not afford to: which of the hundreds of free-form
 * hybrid assignments are actually Pareto-optimal? It searches the
 * designs of core/configs (CpuHybridDesign / GpuHybridDesign), which
 * the same synthesizer that builds every Table IV configuration turns
 * into bundles, and which a canonical name and a stable 64-bit hash
 * identify.
 *
 * Evaluation fans (design x workload) cells out over a common
 * ThreadPool with a thread-safe memoization cache keyed by the run key
 * (design hash, workload, ExperimentOptions; core/experiment.hh). It
 * is the key `run`, `gpu` and `sweep` store the same computation
 * under, so the optional durable store behind the memo shares entries
 * with them wherever a design is a Table IV configuration. Each cell
 * writes only its own pre-allocated result slot, so the output is
 * bit-identical for any job count. Search strategies: exhaustive
 * enumeration (optionally filtered by an area budget) and a greedy
 * unit-flip hill-climb for spaces too large to enumerate. Pareto
 * fronts are extracted over (time, energy, area); ED^2 is monotone in
 * (time, energy), so the front is also ED^2-complete.
 */

#ifndef HETSIM_CORE_DSE_HH
#define HETSIM_CORE_DSE_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.hh"
#include "common/thread_pool.hh"
#include "core/experiment.hh"
#include "core/result_store.hh"

namespace hetsim::core
{

/**
 * Every valid CPU design: 3 ALU x 3 FPU x 2 DL1 x 2 L2 x 2 L3 devices
 * x Enh x asym x split (TFET ALUs only) x scratchpad off / CMOS /
 * TFET, plus the half-clock all-TFET chip (1153 designs).
 * Deterministic order.
 */
std::vector<CpuHybridDesign> enumerateCpuDesigns();

/** The 17-point GPU space (2 x 2 devices x RF cache x 8 or 16 CUs,
 *  + half clock). */
std::vector<GpuHybridDesign> enumerateGpuDesigns();

/** What the search optimizes. */
enum class DseObjective
{
    Ed2,    ///< energy x time^2 (the paper's headline metric).
    Energy,
    Time,
};

const char *dseObjectiveName(DseObjective o);
Result<DseObjective> dseObjectiveFromName(const std::string &name);

/** One evaluated design point. */
struct DsePoint
{
    std::string name;    ///< Canonical design name.
    uint64_t hash = 0;
    double seconds = 0.0;
    double energyJ = 0.0;
    double areaMm2 = 0.0; ///< Chip area (0 for GPU designs).
    uint32_t cores = 0;   ///< Cores (CPU) or CUs (GPU).
    bool cached = false;  ///< Served from the memo cache.

    double ed2() const { return energyJ * seconds * seconds; }
    double objective(DseObjective o) const;
};

/**
 * Thread-safe memoization cache for evaluated cells, keyed by the run
 * key. Shared across search passes so a repeated run reports hits
 * instead of re-simulating. It stays in front of the durable store:
 * `dse --repeat`, the greedy climb and HetBench revisit designs in
 * one process, and a memo hit is a map lookup where a store hit reads
 * and verifies a file (and without a store there is no other memo).
 */
class DseCache
{
  public:
    bool lookup(const std::string &key, DsePoint *out);
    void insert(const std::string &key, const DsePoint &point);

    uint64_t hits() const;
    uint64_t misses() const;

  private:
    mutable std::mutex mutex_;
    std::unordered_map<std::string, DsePoint> map_;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
};

/** Exploration knobs shared by both search strategies. */
struct DseOptions
{
    ExperimentOptions exp;
    unsigned jobs = 1;          ///< Thread-pool width.
    double areaBudgetMm2 = 0.0; ///< Skip designs above this (0=off).
    DseObjective objective = DseObjective::Ed2;
    /** Durable second cache tier behind the in-memory memo
     *  (optional, not owned): memo misses consult the store before
     *  simulating, and fresh records are journaled back, so a
     *  repeated exploration in a *new process* is warm, and a record
     *  `run`, `gpu` or `sweep` stored for a Table IV design serves
     *  it. Verified, checksummed reads only — see core/result_store. */
    ResultStore *store = nullptr;
};

/**
 * Evaluate every design on one CPU application, fanning cells out
 * over `pool` and memoizing through `cache`. Results are in design
 * order and bit-identical for any job count. Designs that fail the
 * area budget or fail to synthesize are skipped (absent from the
 * result).
 */
std::vector<DsePoint>
evaluateCpuDesigns(const std::vector<CpuHybridDesign> &designs,
                   const workload::AppProfile &app,
                   const DseOptions &opts, ThreadPool &pool,
                   DseCache &cache);

std::vector<DsePoint>
evaluateGpuDesigns(const std::vector<GpuHybridDesign> &designs,
                   const workload::KernelProfile &kernel,
                   const DseOptions &opts, ThreadPool &pool,
                   DseCache &cache);

/**
 * Greedy unit-flip hill-climb seeded from the all-CMOS design: each
 * round evaluates every single-axis neighbor of the incumbent (in
 * parallel) and moves to the best improvement under opts.objective,
 * stopping at a local optimum. Returns every point evaluated along
 * the way (the climb's footprint), best first. Deterministic:
 * neighbor order and tie-breaks are fixed.
 */
std::vector<DsePoint>
greedyCpuSearch(const workload::AppProfile &app, const DseOptions &opts,
                ThreadPool &pool, DseCache &cache);

/**
 * Indices of the Pareto-optimal points over (seconds, energyJ,
 * areaMm2) — minimize all three. A point is dominated when another is
 * no worse in every coordinate and strictly better in one. Returned
 * sorted by the given objective (best first), ties by name.
 */
std::vector<size_t> paretoFront(const std::vector<DsePoint> &points,
                                DseObjective objective);

/**
 * Evaluated points as a deterministic JSON document
 * ("hetsim-dse-report-v1"). The memo-cache `cached` flag is excluded
 * on purpose: it depends on thread timing, while the document must be
 * byte-identical for any job count (diffing a jobs=1 report against a
 * jobs=8 report is the determinism smoke test). Store provenance is
 * excluded for the same reason: a warm-store rerun must produce the
 * same bytes as a cold run.
 */
std::string dseReportToJson(const std::vector<DsePoint> &points,
                            const std::string &workload,
                            DseObjective objective);

/** dseReportToJson() to a file. */
Status writeDseReportJson(const std::vector<DsePoint> &points,
                          const std::string &workload,
                          DseObjective objective,
                          const std::string &path);

} // namespace hetsim::core

#endif // HETSIM_CORE_DSE_HH
