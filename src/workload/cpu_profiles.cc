#include "workload/cpu_profiles.hh"

#include "common/logging.hh"

namespace hetsim::workload
{

namespace
{

// Fields: name, suite, load, store, branch, fp, fpDivShare,
// fpMulShare, intMulShare, intDivShare, depShortP, branchRandomFrac,
// footprintKb (total working set across threads), spatialLocality,
// sharedFraction, codeKb, serialFraction, phases, totalOps, sharing
// ({}: the classic per-thread generator).
const std::vector<AppProfile> kApps = {
    // SPLASH-2.
    {"barnes", "splash2", 0.25, 0.10, 0.12, 0.22, 0.04, 0.45, 0.08,
     0.005, 0.45, 0.06, 512, 0.60, 0.05, 24, 0.06, 4, 800000, {}},
    {"cholesky", "splash2", 0.28, 0.12, 0.08, 0.26, 0.02, 0.50, 0.08,
     0.004, 0.48, 0.08, 1024, 0.75, 0.03, 16, 0.08, 3, 800000, {}},
    {"fft", "splash2", 0.30, 0.15, 0.06, 0.30, 0.01, 0.50, 0.06,
     0.002, 0.40, 0.04, 4096, 0.85, 0.02, 8, 0.05, 3, 800000, {}},
    {"fmm", "splash2", 0.26, 0.10, 0.12, 0.26, 0.03, 0.45, 0.08,
     0.004, 0.45, 0.05, 768, 0.65, 0.05, 32, 0.07, 4, 800000, {}},
    {"lu", "splash2", 0.30, 0.12, 0.07, 0.30, 0.02, 0.55, 0.06,
     0.002, 0.50, 0.05, 768, 0.80, 0.02, 8, 0.06, 4, 800000, {}},
    {"radiosity", "splash2", 0.24, 0.10, 0.16, 0.19, 0.03, 0.45,
     0.08, 0.005, 0.50, 0.08, 1024, 0.50, 0.08, 48, 0.09, 3, 800000, {}},
    {"radix", "splash2", 0.30, 0.18, 0.08, 0.02, 0.03, 0.40, 0.05,
     0.004, 0.55, 0.05, 8192, 0.55, 0.04, 8, 0.06, 4, 800000, {}},
    {"raytrace", "splash2", 0.28, 0.08, 0.16, 0.22, 0.05, 0.45, 0.08,
     0.005, 0.55, 0.08, 2048, 0.40, 0.06, 64, 0.08, 2, 800000, {}},
    {"water-nsq", "splash2", 0.24, 0.10, 0.10, 0.34, 0.03, 0.45,
     0.08, 0.004, 0.40, 0.08, 256, 0.70, 0.04, 16, 0.05, 4, 800000, {}},
    {"water-sp", "splash2", 0.24, 0.10, 0.10, 0.34, 0.03, 0.45, 0.08,
     0.004, 0.42, 0.08, 192, 0.70, 0.04, 16, 0.05, 4, 800000, {}},
    // PARSEC.
    {"blackscholes", "parsec", 0.22, 0.08, 0.05, 0.38, 0.04, 0.45,
     0.06, 0.002, 0.30, 0.02, 256, 0.90, 0.01, 8, 0.03, 2, 800000, {}},
    {"canneal", "parsec", 0.33, 0.10, 0.14, 0.05, 0.03, 0.40, 0.02,
     0.003, 0.60, 0.10, 10240, 0.30, 0.10, 32, 0.12, 3, 800000, {}},
    {"streamcluster", "parsec", 0.30, 0.08, 0.08, 0.30, 0.02, 0.50,
     0.06, 0.002, 0.40, 0.05, 4096, 0.90, 0.03, 8, 0.06, 4, 800000, {}},
    {"fluidanimate", "parsec", 0.27, 0.12, 0.10, 0.26, 0.04, 0.45,
     0.08, 0.004, 0.48, 0.05, 1536, 0.60, 0.06, 24, 0.09, 4, 800000, {}},
};

// Contention microbenchmarks: synthetic kernels whose memory traffic
// and synchronization are designed to stress the shared-memory
// subsystem rather than match a published application. All enable the
// shared-address generator; serialFraction 0 keeps every thread in the
// parallel sections where the contention happens.
// SharingProfile fields: enabled, sharedFrac, sharedWriteFrac,
// hotLines, falseSharing, locks, lockHoldOps, lockPeriodOps,
// barrierPeriodOps, prodCons, spadFrac.
const std::vector<AppProfile> kContentionApps = {
    // Four spin locks guarding short critical sections; most memory
    // traffic hits the protected hot lines.
    {"lock_heavy", "contention", 0.30, 0.15, 0.08, 0.02, 0.03, 0.40,
     0.05, 0.004, 0.50, 0.06, 512, 0.55, 0.0, 8, 0.0, 2, 400000,
     {true, 0.45, 0.50, 8, false, 4, 24, 48, 0, false, 0.0}},
    // Fine-grained bulk-synchronous kernel: a barrier every ~300 ops.
    {"barrier_sync", "contention", 0.28, 0.12, 0.08, 0.10, 0.02,
     0.45, 0.05, 0.003, 0.45, 0.05, 1024, 0.70, 0.0, 8, 0.0, 2,
     400000, {true, 0.30, 0.40, 16, false, 0, 16, 64, 300, false,
              0.0}},
    // Producer/consumer pipeline: each phase chains the threads
    // through signal/wait semaphores before the barrier.
    {"prodcons", "contention", 0.30, 0.15, 0.08, 0.05, 0.02, 0.45,
     0.05, 0.003, 0.50, 0.05, 512, 0.60, 0.0, 8, 0.0, 4, 400000,
     {true, 0.35, 0.50, 16, false, 1, 16, 128, 0, true, 0.0}},
    // Threads hammer disjoint words of the same few lines: every
    // store invalidates the other cores for no shared data at all.
    {"false_share", "contention", 0.28, 0.18, 0.08, 0.02, 0.03, 0.40,
     0.05, 0.004, 0.50, 0.05, 256, 0.55, 0.0, 8, 0.0, 2, 400000,
     {true, 0.50, 0.60, 4, true, 0, 16, 64, 0, false, 0.0}},
    // Streaming kernel whose private traffic mostly fits a software-
    // managed scratchpad — the workload that makes the DSE scratchpad
    // axis worth buying.
    {"spad_stream", "contention", 0.32, 0.16, 0.06, 0.10, 0.02, 0.45,
     0.05, 0.002, 0.40, 0.04, 512, 0.85, 0.0, 8, 0.0, 2, 400000,
     {true, 0.10, 0.40, 8, false, 0, 16, 64, 0, false, 0.60}},
};

} // namespace

const std::vector<AppProfile> &
cpuApps()
{
    return kApps;
}

const std::vector<AppProfile> &
contentionApps()
{
    return kContentionApps;
}

Result<const AppProfile *>
findCpuApp(const std::string &name)
{
    std::string known;
    for (const std::vector<AppProfile> *list :
         {&kApps, &kContentionApps}) {
        for (const AppProfile &p : *list) {
            if (name == p.name)
                return &p;
            if (!known.empty())
                known += ", ";
            known += p.name;
        }
    }
    return Status::error(ErrorCode::NotFound,
                         "unknown CPU application '%s' (valid: %s)",
                         name.c_str(), known.c_str());
}

const AppProfile &
cpuApp(const std::string &name)
{
    Result<const AppProfile *> r = findCpuApp(name);
    if (!r.ok())
        panic("%s", r.status().toString().c_str());
    return *r.value();
}

} // namespace hetsim::workload
