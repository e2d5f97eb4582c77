#include "core/dse.hh"

#include <algorithm>
#include <cstdio>

#include "common/file.hh"
#include "common/logging.hh"
#include "core/area.hh"

namespace hetsim::core
{

using power::DeviceClass;

std::vector<CpuHybridDesign>
enumerateCpuDesigns()
{
    const DeviceClass logic[] = {DeviceClass::Cmos, DeviceClass::Tfet,
                                 DeviceClass::HighVt};
    const DeviceClass arrays[] = {DeviceClass::Cmos,
                                  DeviceClass::Tfet};
    const bool flag_axis[] = {false, true};

    // Scratchpad axis: absent, CMOS array, or TFET array.
    const int spad_axis[] = {0, 1, 2};

    std::vector<CpuHybridDesign> out;
    for (DeviceClass alu : logic)
        for (DeviceClass fpu : logic)
            for (DeviceClass dl1 : arrays)
                for (DeviceClass l2 : arrays)
                    for (DeviceClass l3 : arrays)
                        for (bool enh : flag_axis)
                            for (bool asym : flag_axis)
                                for (bool split : flag_axis)
                                    for (int spad : spad_axis) {
        if (split && alu != DeviceClass::Tfet)
            continue;
        CpuHybridDesign d;
        d.alu = alu;
        d.fpu = fpu;
        d.dl1 = dl1;
        d.l2 = l2;
        d.l3 = l3;
        if (enh) {
            d.robSize = kEnhRob;
            d.fpRf = kEnhFpRf;
        }
        d.scratchpad = spad != 0;
        d.spadDev = spad == 2 ? DeviceClass::Tfet : DeviceClass::Cmos;
        d.asymDl1 = asym;
        d.dualSpeedAlu = split;
        out.push_back(d);
    }
    CpuHybridDesign d;
    d.halfClock = true;
    out.push_back(d);
    return out;
}

std::vector<GpuHybridDesign>
enumerateGpuDesigns()
{
    std::vector<GpuHybridDesign> out;
    const DeviceClass devs[] = {DeviceClass::Cmos, DeviceClass::Tfet};
    const bool flag_axis[] = {false, true};
    for (DeviceClass fma : devs)
        for (DeviceClass vrf : devs)
            for (bool rfc : flag_axis)
                for (bool twox : flag_axis) {
                    GpuHybridDesign d;
                    d.simdFpu = fma;
                    d.vectorRf = vrf;
                    d.rfCache = rfc;
                    d.numCus = twox ? 16 : 8;
                    out.push_back(d);
                }
    GpuHybridDesign d;
    d.halfClock = true;
    out.push_back(d);
    return out;
}

const char *
dseObjectiveName(DseObjective o)
{
    switch (o) {
      case DseObjective::Ed2:
        return "ed2";
      case DseObjective::Energy:
        return "energy";
      case DseObjective::Time:
        return "time";
      default:
        return "?";
    }
}

Result<DseObjective>
dseObjectiveFromName(const std::string &name)
{
    for (DseObjective o : {DseObjective::Ed2, DseObjective::Energy,
                           DseObjective::Time})
        if (name == dseObjectiveName(o))
            return o;
    return Status::error(ErrorCode::NotFound,
                         "unknown objective '%s' "
                         "(valid: ed2, energy, time)",
                         name.c_str());
}

double
DsePoint::objective(DseObjective o) const
{
    switch (o) {
      case DseObjective::Energy:
        return energyJ;
      case DseObjective::Time:
        return seconds;
      case DseObjective::Ed2:
      default:
        return ed2();
    }
}

bool
DseCache::lookup(const std::string &key, DsePoint *out)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = map_.find(key);
    if (it == map_.end()) {
        ++misses_;
        return false;
    }
    ++hits_;
    *out = it->second;
    out->cached = true;
    return true;
}

void
DseCache::insert(const std::string &key, const DsePoint &point)
{
    std::lock_guard<std::mutex> lock(mutex_);
    map_.emplace(key, point);
}

uint64_t
DseCache::hits() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return hits_;
}

uint64_t
DseCache::misses() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return misses_;
}

namespace
{

/** A synthesized, budget-admitted cell awaiting evaluation. */
template <typename Bundle>
struct PreparedCell
{
    std::string name;
    uint64_t hash = 0;
    std::string key;
    Bundle bundle;
    double areaMm2 = 0.0;
    uint32_t cores = 0;
};

/**
 * Shared fan-out: every prepared cell runs `simulate` unless the
 * in-memory memo holds its key, or — behind that — the durable store
 * holds a record for it. Fresh records are journaled back to the
 * store. Each cell writes only slot i, so the result vector is
 * identical for any job count and any mix of memo/store/simulated
 * sources.
 */
template <typename Bundle, typename Simulate>
std::vector<DsePoint>
evaluateCells(const std::vector<PreparedCell<Bundle>> &cells,
              ThreadPool &pool, DseCache &cache, ResultStore *store,
              const Simulate &simulate)
{
    std::vector<DsePoint> results(cells.size());
    pool.parallelFor(cells.size(), [&](size_t i) {
        const auto &cell = cells[i];
        DsePoint p;
        if (!cache.lookup(cell.key, &p)) {
            p.name = cell.name;
            p.hash = cell.hash;
            p.areaMm2 = cell.areaMm2;
            p.cores = cell.cores;
            Result<RunRecord> rec =
                Status::error(ErrorCode::NotFound, "no store");
            if (store != nullptr) {
                const Result<std::string> hit = store->get(cell.key);
                if (hit.ok())
                    rec = decodeRunRecord(hit.value());
            }
            if (!rec.ok()) {
                rec = simulate(cell);
                if (store != nullptr) {
                    const Status s =
                        store->put(cell.key, encodeRunRecord(*rec));
                    if (!s.ok())
                        warn("dse store write failed: %s",
                             s.toString().c_str());
                }
            }
            p.seconds = rec->seconds;
            p.energyJ = rec->energyJ;
            cache.insert(cell.key, p);
        }
        results[i] = p;
    });
    return results;
}

} // namespace

std::vector<DsePoint>
evaluateCpuDesigns(const std::vector<CpuHybridDesign> &designs,
                   const workload::AppProfile &app,
                   const DseOptions &opts, ThreadPool &pool,
                   DseCache &cache)
{
    // Synthesis and the area filter are cheap; doing them serially
    // keeps cell admission deterministic and the fan-out pure.
    std::vector<PreparedCell<CpuConfigBundle>> cells;
    cells.reserve(designs.size());
    for (const CpuHybridDesign &d : designs) {
        Result<CpuConfigBundle> bundle =
            synthesizeCpuBundle(d, opts.exp.freqGhz);
        if (!bundle.ok())
            continue;
        const double area = chipAreaMm2(bundle.value());
        if (opts.areaBudgetMm2 > 0.0 && area > opts.areaBudgetMm2)
            continue;
        PreparedCell<CpuConfigBundle> cell;
        cell.name = designName(d);
        cell.hash = designHash(d);
        cell.key = runKey(cell.hash, app.name, opts.exp);
        cell.bundle = std::move(bundle.value());
        cell.areaMm2 = area;
        cell.cores = cell.bundle.numCores;
        cells.push_back(std::move(cell));
    }

    // Designs with the same core count run the same workload: record
    // it once, and the pool threads replay it read-only.
    std::vector<uint32_t> run_cores;
    for (const auto &cell : cells)
        run_cores.push_back(cpuRunCores(cell.cores, opts.exp));
    const workload::SharedCpuRecordings recordings(
        app, run_cores, opts.exp.seed, opts.exp.scale);

    return evaluateCells(
        cells, pool, cache, opts.store,
        [&](const PreparedCell<CpuConfigBundle> &cell) {
            return runRecord(runCpuBundle(
                cell.bundle, cell.name, cell.hash, app, opts.exp,
                nullptr, nullptr,
                recordings.find(cpuRunCores(cell.cores, opts.exp))));
        });
}

std::vector<DsePoint>
evaluateGpuDesigns(const std::vector<GpuHybridDesign> &designs,
                   const workload::KernelProfile &kernel,
                   const DseOptions &opts, ThreadPool &pool,
                   DseCache &cache)
{
    std::vector<PreparedCell<GpuConfigBundle>> cells;
    cells.reserve(designs.size());
    for (const GpuHybridDesign &d : designs) {
        // The GPU design point is half the CPU frequency.
        Result<GpuConfigBundle> bundle =
            synthesizeGpuBundle(d, opts.exp.freqGhz / 2.0);
        if (!bundle.ok())
            continue;
        PreparedCell<GpuConfigBundle> cell;
        cell.name = designName(d);
        cell.hash = designHash(d);
        cell.key = runKey(cell.hash, kernel.name, opts.exp);
        cell.bundle = std::move(bundle.value());
        cell.cores = cell.bundle.numCus;
        cells.push_back(std::move(cell));
    }

    return evaluateCells(
        cells, pool, cache, opts.store,
        [&](const PreparedCell<GpuConfigBundle> &cell) {
            return runRecord(runGpuBundle(cell.bundle, cell.name,
                                          cell.hash, kernel, opts.exp));
        });
}

namespace
{

/** Single-axis neighbors of a design (the hill-climb move set). */
std::vector<CpuHybridDesign>
cpuNeighbors(const CpuHybridDesign &d)
{
    std::vector<CpuHybridDesign> out;
    auto push = [&](CpuHybridDesign n) {
        // A neighbor that cannot synthesize (e.g. split without a
        // TFET cluster) is not a move.
        if (synthesizeCpuBundle(n).ok())
            out.push_back(n);
    };
    for (DeviceClass dev : {DeviceClass::Cmos, DeviceClass::Tfet,
                            DeviceClass::HighVt}) {
        if (dev != d.alu) {
            CpuHybridDesign n = d;
            n.alu = dev;
            push(n);
        }
        if (dev != d.fpu) {
            CpuHybridDesign n = d;
            n.fpu = dev;
            push(n);
        }
    }
    for (DeviceClass dev : {DeviceClass::Cmos, DeviceClass::Tfet}) {
        if (dev != d.dl1) {
            CpuHybridDesign n = d;
            n.dl1 = dev;
            push(n);
        }
        if (dev != d.l2) {
            CpuHybridDesign n = d;
            n.l2 = dev;
            push(n);
        }
        if (dev != d.l3) {
            CpuHybridDesign n = d;
            n.l3 = dev;
            push(n);
        }
    }
    {
        CpuHybridDesign n = d;
        n.robSize = d.robSize == kBaseRob ? kEnhRob : kBaseRob;
        push(n);
    }
    {
        CpuHybridDesign n = d;
        n.fpRf = d.fpRf == kBaseFpRf ? kEnhFpRf : kBaseFpRf;
        push(n);
    }
    {
        // Scratchpad toggle always re-enters at the CMOS array (the
        // canonical off-state keeps spadDev == Cmos).
        CpuHybridDesign n = d;
        n.scratchpad = !d.scratchpad;
        n.spadDev = DeviceClass::Cmos;
        push(n);
    }
    if (d.scratchpad) {
        CpuHybridDesign n = d;
        n.spadDev = d.spadDev == DeviceClass::Cmos
            ? DeviceClass::Tfet : DeviceClass::Cmos;
        push(n);
    }
    {
        CpuHybridDesign n = d;
        n.asymDl1 = !d.asymDl1;
        push(n);
    }
    {
        CpuHybridDesign n = d;
        n.dualSpeedAlu = !d.dualSpeedAlu;
        push(n);
    }
    return out;
}

} // namespace

std::vector<DsePoint>
greedyCpuSearch(const workload::AppProfile &app,
                const DseOptions &opts, ThreadPool &pool,
                DseCache &cache)
{
    CpuHybridDesign incumbent; // Seeded from BaseCMOS.
    std::vector<DsePoint> footprint;
    std::unordered_map<uint64_t, size_t> visited; // hash -> index

    auto evaluate = [&](const std::vector<CpuHybridDesign> &batch)
        -> std::vector<size_t> {
        std::vector<CpuHybridDesign> fresh;
        for (const CpuHybridDesign &d : batch)
            if (!visited.count(designHash(d)))
                fresh.push_back(d);
        const std::vector<DsePoint> pts =
            evaluateCpuDesigns(fresh, app, opts, pool, cache);
        std::vector<size_t> indices;
        for (const DsePoint &p : pts) {
            visited.emplace(p.hash, footprint.size());
            indices.push_back(footprint.size());
            footprint.push_back(p);
        }
        return indices;
    };

    const std::vector<size_t> seed = evaluate({incumbent});
    if (seed.empty())
        return footprint; // Seed failed the area budget.
    size_t best = seed.front();

    for (;;) {
        const std::vector<CpuHybridDesign> neighbors =
            cpuNeighbors(incumbent);
        size_t round_best = best;
        CpuHybridDesign round_design = incumbent;
        // Visited neighbors re-resolve through `visited` so a cycle
        // cannot loop; fresh ones evaluate in one parallel batch.
        evaluate(neighbors);
        for (const CpuHybridDesign &n : neighbors) {
            const auto it = visited.find(designHash(n));
            if (it == visited.end())
                continue; // Filtered by the area budget.
            const size_t idx = it->second;
            if (footprint[idx].objective(opts.objective) <
                footprint[round_best].objective(opts.objective)) {
                round_best = idx;
                round_design = n;
            }
        }
        if (round_best == best)
            break; // Local optimum.
        best = round_best;
        incumbent = round_design;
    }

    // Best first, then by objective; the caller gets the climb's
    // whole footprint for Pareto extraction.
    std::sort(footprint.begin(), footprint.end(),
              [&](const DsePoint &a, const DsePoint &b) {
                  const double oa = a.objective(opts.objective);
                  const double ob = b.objective(opts.objective);
                  if (oa != ob)
                      return oa < ob;
                  return a.name < b.name;
              });
    return footprint;
}

std::vector<size_t>
paretoFront(const std::vector<DsePoint> &points,
            DseObjective objective)
{
    std::vector<size_t> front;
    for (size_t i = 0; i < points.size(); ++i) {
        bool dominated = false;
        for (size_t j = 0; j < points.size() && !dominated; ++j) {
            if (i == j)
                continue;
            const DsePoint &a = points[j];
            const DsePoint &b = points[i];
            const bool no_worse = a.seconds <= b.seconds &&
                a.energyJ <= b.energyJ && a.areaMm2 <= b.areaMm2;
            const bool better = a.seconds < b.seconds ||
                a.energyJ < b.energyJ || a.areaMm2 < b.areaMm2;
            if (no_worse && better)
                dominated = true;
            // Exact duplicates (same metrics, e.g. a flag that is a
            // no-op for this workload): keep only the first name.
            if (!dominated && j < i && a.seconds == b.seconds &&
                a.energyJ == b.energyJ && a.areaMm2 == b.areaMm2)
                dominated = true;
        }
        if (!dominated)
            front.push_back(i);
    }
    std::sort(front.begin(), front.end(), [&](size_t x, size_t y) {
        const double ox = points[x].objective(objective);
        const double oy = points[y].objective(objective);
        if (ox != oy)
            return ox < oy;
        return points[x].name < points[y].name;
    });
    return front;
}

std::string
dseReportToJson(const std::vector<DsePoint> &points,
                const std::string &workload, DseObjective objective)
{
    char hash_buf[32];
    std::string j;
    j += "{\n";
    j += "  \"schema\": \"hetsim-dse-report-v1\",\n";
    j += "  \"workload\": \"" + obs::jsonEscape(workload) + "\",\n";
    j += "  \"objective\": \"";
    j += dseObjectiveName(objective);
    j += "\",\n";
    j += "  \"points\": [\n";
    for (size_t i = 0; i < points.size(); ++i) {
        const DsePoint &p = points[i];
        std::snprintf(hash_buf, sizeof(hash_buf), "0x%016llx",
                      static_cast<unsigned long long>(p.hash));
        j += "    {\n";
        j += "      \"name\": \"" + obs::jsonEscape(p.name) + "\",\n";
        j += "      \"design_hash\": \"";
        j += hash_buf;
        j += "\",\n";
        j += "      \"seconds\": " + obs::jsonDouble(p.seconds) +
             ",\n";
        j += "      \"energy_j\": " + obs::jsonDouble(p.energyJ) +
             ",\n";
        j += "      \"area_mm2\": " + obs::jsonDouble(p.areaMm2) +
             ",\n";
        j += "      \"cores\": " + std::to_string(p.cores) + ",\n";
        j += "      \"ed2\": " + obs::jsonDouble(p.ed2()) + "\n";
        j += i + 1 < points.size() ? "    },\n" : "    }\n";
    }
    j += "  ]\n";
    j += "}\n";
    return j;
}

Status
writeDseReportJson(const std::vector<DsePoint> &points,
                   const std::string &workload,
                   DseObjective objective, const std::string &path)
{
    return writeFile(path, dseReportToJson(points, workload, objective));
}

} // namespace hetsim::core
