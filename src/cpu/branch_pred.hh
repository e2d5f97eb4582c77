/**
 * @file
 * Tournament branch predictor (Table III: 2-level tournament, 32-entry
 * RAS, 4-way 2K-entry BTB).
 *
 * The predictor combines a local 2-level component (per-PC history
 * indexing a pattern table) with a global gshare component; a chooser
 * table of 2-bit counters picks the component per branch. Targets come
 * from a set-associative BTB; returns pop a return-address stack.
 */

#ifndef HETSIM_CPU_BRANCH_PRED_HH
#define HETSIM_CPU_BRANCH_PRED_HH

#include <cstdint>
#include <vector>

#include "common/set_store.hh"
#include "common/stats.hh"
#include "cpu/microop.hh"

namespace hetsim::cpu
{

/** Configuration of the tournament predictor. */
struct BranchPredParams
{
    uint32_t localHistoryEntries = 1024; ///< Per-PC history registers.
    uint32_t localHistoryBits = 10;      ///< Local history length.
    uint32_t globalHistoryBits = 12;     ///< Gshare history length.
    uint32_t chooserBits = 12;           ///< log2(chooser entries).
    uint32_t btbEntries = 2048;
    uint32_t btbWays = 4;
    uint32_t rasEntries = 32;
};

/** Outcome of a prediction for one fetched control instruction. */
struct BranchPrediction
{
    bool taken = false;
    uint64_t target = 0;
    bool targetValid = false; ///< BTB/RAS supplied a target.
};

/** Tournament predictor + BTB + RAS. */
class BranchPredictor
{
  public:
    explicit BranchPredictor(const BranchPredParams &params = {});

    /** Predict a control instruction at fetch. */
    BranchPrediction predict(const MicroOp &op);

    /**
     * Train with the actual outcome and detect misprediction.
     * Combines predict + update; the core calls this once per fetched
     * control instruction.
     * @return true if the prediction was wrong (direction or target).
     */
    bool predictAndTrain(const MicroOp &op);

    StatGroup &stats() { return stats_; }
    const StatGroup &stats() const { return stats_; }

    /** Misprediction rate over all lookups so far. */
    double mispredictRate() const;

    /** Serialize every table (PHTs, chooser, RAS, histories), the
     *  valid BTB entries, and stats; restore requires identical
     *  geometry. */
    void saveState(Serializer &ser) const;
    void restoreState(Deserializer &des);

  private:
    void update(const MicroOp &op, const BranchPrediction &pred);

    uint32_t localIndex(uint64_t pc) const;
    uint32_t localPhtIndex(uint64_t pc, uint16_t history) const;
    uint32_t chooserIndex(uint64_t pc) const;
    uint32_t gshareIndex(uint64_t pc) const;

    static bool counterTaken(uint8_t c) { return c >= 2; }
    static uint8_t bump(uint8_t c, bool taken);

    BranchPredParams params_;
    std::vector<uint16_t> localHistory_;
    std::vector<uint8_t> localPht_;
    std::vector<uint8_t> globalPht_;
    std::vector<uint8_t> chooser_;
    uint64_t globalHistory_ = 0;

    /** Trivially constructible, as SetStore requires; BtbEntry{} is
     *  an invalid entry. */
    struct BtbEntry
    {
        uint64_t pc;
        uint64_t target;
        uint64_t lru;
        bool valid;
    };
    uint32_t btbSets_;
    /** A set's ways are stored from the set's first allocation; a set
     *  never allocated misses like one whose ways are all invalid. */
    SetStore<BtbEntry> btb_;
    uint64_t btbLru_ = 0;

    std::vector<uint64_t> ras_;
    uint32_t rasTop_ = 0;   ///< Index of the next push slot.
    uint32_t rasCount_ = 0; ///< Valid entries (<= rasEntries).

    StatGroup stats_;

    /** Hot-path counter handles (stable StatGroup references). */
    Counter &lookups_;
    Counter &mispredictions_;
    Counter &correct_;
};

} // namespace hetsim::cpu

#endif // HETSIM_CPU_BRANCH_PRED_HH
