/**
 * @file
 * Design-space exploration over free-form hybrid device assignments.
 *
 * Table IV hand-picks ~15 configurations out of a combinatorial space
 * of per-unit CMOS/TFET choices. This subsystem asks the question the
 * paper could not afford to: which of the hundreds of free-form
 * hybrid assignments are actually Pareto-optimal? A HybridDesign
 * names a per-unit device choice (plus ROB / FP-RF sizing and the
 * AdvHet mechanisms) directly, synthesizes the same CpuConfigBundle /
 * GpuConfigBundle the Table IV factory builds, and carries a
 * canonical name and a stable 64-bit hash.
 *
 * Evaluation fans (design x workload) cells out over a common
 * ThreadPool with a thread-safe memoization cache keyed by the run key
 * (design hash, workload, ExperimentOptions; core/experiment.hh). It
 * is the key `run`, `gpu` and `sweep` store the same computation
 * under, so the optional durable store behind the memo shares entries
 * with them wherever a design is a Table IV configuration. Each cell
 * writes only its own pre-allocated result slot, so the output is
 * bit-identical for any job count. Search strategies: exhaustive enumeration (optionally
 * filtered by an area budget) and a greedy unit-flip hill-climb for
 * spaces too large to enumerate. Pareto fronts are extracted over
 * (time, energy, area); ED^2 is monotone in (time, energy), so the
 * front is also ED^2-complete.
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
 * Free-form per-unit device assignment for a CPU core. Unlike the
 * CpuConfig enum this can express any point in the space; every
 * Table IV configuration is one particular setting (see
 * cpuHybridFromConfig), which tests pin field-by-field against
 * makeCpuConfig.
 */
struct CpuHybridDesign
{
    /** ALUs + integer multiply/divide (Table III ties their device
     *  choice together: they share the dual-V_dd ALU cluster rail). */
    power::DeviceClass alu = power::DeviceClass::Cmos;
    power::DeviceClass fpu = power::DeviceClass::Cmos;
    power::DeviceClass dl1 = power::DeviceClass::Cmos;
    power::DeviceClass l2 = power::DeviceClass::Cmos;
    power::DeviceClass l3 = power::DeviceClass::Cmos;

    uint32_t robSize = 160; ///< 160 (base) or 192 (Enh).
    uint32_t fpRf = 80;     ///< 80 (base) or 128 (Enh).

    /** Optional per-core software-managed scratchpad: a 16 KB
     *  direct-addressed array beside the DL1, bypassing the cache
     *  hierarchy for in-window accesses. `spadDev` picks its device
     *  (CMOS: 2-cycle access; TFET: 4-cycle, 4x/10x energy/leakage
     *  advantage) and must stay Cmos while the scratchpad is off so
     *  the canonical name stays unique. */
    bool scratchpad = false;
    power::DeviceClass spadDev = power::DeviceClass::Cmos;

    /** AdvHet asymmetric DL1: way 0 becomes a CMOS fast array. */
    bool asymDl1 = false;
    /** AdvHet dual-speed ALU cluster (requires alu == Tfet). */
    bool dualSpeedAlu = false;
    /** All-TFET chip at half clock (BaseTFET style); exclusive with
     *  any per-unit choice above. */
    bool halfClock = false;

    uint32_t numCores = 4;

    bool operator==(const CpuHybridDesign &o) const = default;
};

/** Free-form device assignment for the GPU. */
struct GpuHybridDesign
{
    power::DeviceClass simdFpu = power::DeviceClass::Cmos;
    power::DeviceClass vectorRf = power::DeviceClass::Cmos;
    bool rfCache = false; ///< AdvHet register-file cache.
    /** All-TFET GPU at half clock; exclusive with per-unit choices. */
    bool halfClock = false;
    uint32_t numCus = 8;

    bool operator==(const GpuHybridDesign &o) const = default;
};

/**
 * Canonical, stable display name, e.g.
 * "cpu(alu=T fpu=T dl1=T l2=T l3=T rob=192 fprf=128 asym split c4)".
 * Two designs are equal iff their names are equal.
 */
std::string designName(const CpuHybridDesign &d);
std::string designName(const GpuHybridDesign &d);

/** Stable 64-bit FNV-1a hash of the canonical encoding (memo key). */
uint64_t designHash(const CpuHybridDesign &d);
uint64_t designHash(const GpuHybridDesign &d);

/** The Table IV configuration as a free-form design. */
CpuHybridDesign cpuHybridFromConfig(CpuConfig cfg);
GpuHybridDesign gpuHybridFromConfig(GpuConfig cfg);

/**
 * Synthesize the full simulation + energy-model bundle for a design.
 * InvalidArgument when the design is inexpressible: halfClock mixed
 * with per-unit choices, dualSpeedAlu without a TFET ALU cluster,
 * high-V_t arrays (Table I characterizes high-V_t for logic only), or
 * off-catalog ROB / FP-RF sizes.
 */
Result<CpuConfigBundle> synthesizeCpuBundle(const CpuHybridDesign &d,
                                            double freq_ghz = 2.0);
Result<GpuConfigBundle> synthesizeGpuBundle(const GpuHybridDesign &d,
                                            double freq_ghz = 1.0);

/** Axes included in exhaustive CPU enumeration. */
struct CpuSpaceOptions
{
    bool includeHighVt = true;   ///< HighVt choice for ALU/FPU.
    bool includeEnh = true;      ///< ROB/FP-RF resizing axis.
    bool includeAsymDl1 = true;
    bool includeDualSpeed = true;
    bool includeHalfClock = true; ///< The all-TFET corner design.
    /** Scratchpad axis: off / CMOS / TFET per design. */
    bool includeScratchpad = true;
};

/**
 * Every valid design over the requested axes (full default space:
 * 3 ALU x 3 FPU x 2 DL1 x 2 L2 x 2 L3 devices x Enh x asym x split
 * validity-filtered, a few hundred designs). Deterministic order.
 */
std::vector<CpuHybridDesign>
enumerateCpuDesigns(const CpuSpaceOptions &space = {});

/** The 17-point GPU space (2 x 2 devices x RF cache, + half clock). */
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
