/**
 * @file
 * The HetCore configuration layer — the paper's contribution.
 *
 * A hybrid design assigns a device (Si-CMOS / HetJTFET / high-V_t) to
 * each unit group, sizes the ROB and FP RF, and selects the AdvHet
 * mechanisms (asymmetric DL1, dual-speed ALU cluster with dispatch
 * steering, GPU register-file cache). One synthesizer per chip turns a
 * design into concrete simulator parameters and the energy-model unit
 * configuration used by the accountant: the Table III latencies that
 * assignment implies (TFET units are pipelined 2x deeper, so their
 * latency in cycles doubles at the common clock), the structure
 * sizes, and each unit's device, leakage share and size scale.
 *
 * Every evaluated configuration of Table IV is one row of a table per
 * chip: the name the paper's figures use and its design. The Table IV
 * factories synthesize a row; core/dse searches the wider space of
 * designs around them.
 */

#ifndef HETSIM_CORE_CONFIGS_HH
#define HETSIM_CORE_CONFIGS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hh"
#include "cpu/multicore.hh"
#include "gpu/gpu.hh"
#include "power/accountant.hh"

namespace hetsim::core
{

/** CPU configurations of Table IV. */
enum class CpuConfig
{
    BaseCmos,        ///< All-CMOS core.
    BaseCmosEnh,     ///< BaseCMOS + larger ROB/FP-RF + CMOS asym DL1.
    BaseTfet,        ///< All-TFET core at half frequency.
    BaseHet,         ///< FPUs, ALUs, DL1, L2, L3 in TFET.
    AdvHet,          ///< BaseHet + all AdvHet mechanisms.
    BaseL3,          ///< BaseCMOS + larger ROB/FP-RF + TFET L3.
    BaseHighVt,      ///< BaseCMOS + all-high-V_t FPUs & ALUs.
    BaseHetFastAlu,  ///< BaseHet with all ALUs in CMOS.
    BaseHetEnh,      ///< BaseHet + larger ROB/FP-RF.
    BaseHetSplit,    ///< BaseHet-Enh + dual-speed ALU cluster.
    AdvHet2X,        ///< AdvHet with 2x cores (iso-power).
    NumConfigs
};

constexpr int kNumCpuConfigs = static_cast<int>(CpuConfig::NumConfigs);

/** GPU configurations of Table IV. */
enum class GpuConfig
{
    BaseCmos,  ///< All-CMOS GPU *with* the register-file cache.
    BaseTfet,  ///< All-TFET GPU at half frequency.
    BaseHet,   ///< SIMD FPUs and vector RF in TFET.
    AdvHet,    ///< BaseHet + register-file cache.
    AdvHet2X,  ///< AdvHet with 2x compute units (iso-power).
    NumConfigs
};

constexpr int kNumGpuConfigs = static_cast<int>(GpuConfig::NumConfigs);

/** Display name as used in the paper's figures ("?" out of range). */
const char *cpuConfigName(CpuConfig c);
const char *gpuConfigName(GpuConfig c);

/**
 * Resolve a display name back to its configuration. On failure the
 * NotFound message lists every valid name.
 */
Result<CpuConfig> cpuConfigFromName(const std::string &name);
Result<GpuConfig> gpuConfigFromName(const std::string &name);

/** The catalogued ROB and FP RF sizes: base and Enh (Table IV). */
constexpr uint32_t kBaseRob = 160;
constexpr uint32_t kEnhRob = 192;
constexpr uint32_t kBaseFpRf = 80;
constexpr uint32_t kEnhFpRf = 128;

/**
 * Free-form per-unit device assignment for a CPU core. Unlike the
 * CpuConfig enum this can express any point in the space; every
 * Table IV configuration is one particular setting
 * (cpuHybridFromConfig).
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

    uint32_t robSize = kBaseRob; ///< kBaseRob or kEnhRob.
    uint32_t fpRf = kBaseFpRf;   ///< kBaseFpRf or kEnhFpRf.

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

/** Stable 64-bit FNV-1a hash of the canonical name: the machine part
 *  of the run key (core/experiment.hh). */
uint64_t designHash(const CpuHybridDesign &d);
uint64_t designHash(const GpuHybridDesign &d);

/** The Table IV configuration's design (panics out of range). */
CpuHybridDesign cpuHybridFromConfig(CpuConfig cfg);
GpuHybridDesign gpuHybridFromConfig(GpuConfig cfg);

/** Everything needed to simulate and account one CPU configuration. */
struct CpuConfigBundle
{
    cpu::MulticoreParams sim;
    power::CpuUnitConfigs units{};
    uint32_t numCores = 4;
    double freqGhz = 2.0;
};

/** Everything needed to simulate and account one GPU configuration. */
struct GpuConfigBundle
{
    gpu::GpuParams sim;
    power::GpuUnitConfigs units{};
    uint32_t numCus = 8;
    double freqGhz = 1.0;
};

/**
 * Synthesize the full simulation + energy-model bundle for a design.
 * InvalidArgument when the design is inexpressible: halfClock mixed
 * with per-unit choices, dualSpeedAlu without a TFET ALU cluster,
 * high-V_t arrays (Table I characterizes high-V_t for logic only), or
 * off-catalog ROB / FP-RF sizes.
 *
 * @param freq_ghz Core clock; 2.0 (CPU) and 1.0 (GPU) are the paper's
 *                 design points. A half-clock design runs at half
 *                 this.
 */
Result<CpuConfigBundle> synthesizeCpuBundle(const CpuHybridDesign &d,
                                            double freq_ghz = 2.0);
Result<GpuConfigBundle> synthesizeGpuBundle(const GpuHybridDesign &d,
                                            double freq_ghz = 1.0);

/** The bundle of a Table IV CPU configuration: its design,
 *  synthesized (see synthesizeCpuBundle for `freq_ghz`). */
CpuConfigBundle makeCpuConfig(CpuConfig cfg, double freq_ghz = 2.0);

/** The bundle of a Table IV GPU configuration (design point 1 GHz). */
GpuConfigBundle makeGpuConfig(GpuConfig cfg, double freq_ghz = 1.0);

/** The six configurations shown in Figures 7-9, in bar order. */
const std::vector<CpuConfig> &figure7Configs();

/** The eight configurations of the Figure 13 sensitivity study. */
const std::vector<CpuConfig> &figure13Configs();

/** The five configurations of Figures 10-12. */
const std::vector<GpuConfig> &figure10Configs();

} // namespace hetsim::core

#endif // HETSIM_CORE_CONFIGS_HH
