#include "cpu/branch_pred.hh"

#include <bit>

#include "common/logging.hh"
#include "common/serialize.hh"

namespace hetsim::cpu
{

// saveState() writes the local history table's own bytes as its run
// of little-endian u16s.
static_assert(std::endian::native == std::endian::little,
              "the local history byte run assumes a little-endian host");

BranchPredictor::BranchPredictor(const BranchPredParams &params)
    : params_(params),
      localHistory_(params.localHistoryEntries, 0),
      localPht_(1u << params.localHistoryBits, 1),
      globalPht_(1u << params.globalHistoryBits, 1),
      chooser_(1u << params.chooserBits, 2),
      btbSets_(params.btbEntries / params.btbWays),
      btb_(btbSets_, params.btbWays),
      ras_(params.rasEntries, 0),
      stats_("branch_pred"),
      lookups_(stats_.counter("lookups")),
      mispredictions_(stats_.counter("mispredictions")),
      correct_(stats_.counter("correct"))
{
    hetsim_assert(params.btbEntries % params.btbWays == 0,
                  "BTB entries not divisible by ways");
}

uint32_t
BranchPredictor::localIndex(uint64_t pc) const
{
    return static_cast<uint32_t>(pc >> 2)
        % params_.localHistoryEntries;
}

uint32_t
BranchPredictor::chooserIndex(uint64_t pc) const
{
    return static_cast<uint32_t>(pc >> 2)
        & ((1u << params_.chooserBits) - 1);
}

uint32_t
BranchPredictor::localPhtIndex(uint64_t pc, uint16_t history) const
{
    // Mix the PC into the pattern index: plain history indexing lets
    // branches with random histories trample loop patterns.
    const uint32_t mask = (1u << params_.localHistoryBits) - 1;
    return (history ^ (static_cast<uint32_t>(pc >> 2) * 0x9e37u))
        & mask;
}

uint32_t
BranchPredictor::gshareIndex(uint64_t pc) const
{
    const uint32_t mask = (1u << params_.globalHistoryBits) - 1;
    return (static_cast<uint32_t>(pc >> 2)
            ^ static_cast<uint32_t>(globalHistory_)) & mask;
}

uint8_t
BranchPredictor::bump(uint8_t c, bool taken)
{
    if (taken)
        return c < 3 ? c + 1 : 3;
    return c > 0 ? c - 1 : 0;
}

BranchPrediction
BranchPredictor::predict(const MicroOp &op)
{
    ++lookups_;
    BranchPrediction pred;

    if (op.cls == OpClass::Return) {
        // Returns are always taken; the target comes from the RAS.
        pred.taken = true;
        if (rasCount_ > 0) {
            const uint32_t top =
                (rasTop_ + params_.rasEntries - 1) % params_.rasEntries;
            pred.target = ras_[top];
            pred.targetValid = true;
        }
        return pred;
    }

    if (op.cls == OpClass::Call) {
        pred.taken = true;
    } else {
        // Tournament direction prediction for conditional branches.
        const uint16_t lh = localHistory_[localIndex(op.pc)];
        const bool local_taken =
            counterTaken(localPht_[localPhtIndex(op.pc, lh)]);
        const bool global_taken =
            counterTaken(globalPht_[gshareIndex(op.pc)]);
        const bool use_global =
            counterTaken(chooser_[chooserIndex(op.pc)]);
        pred.taken = use_global ? global_taken : local_taken;
    }

    if (pred.taken) {
        // Look up the target in the BTB.
        const BtbEntry *base =
            btb_.find(static_cast<uint32_t>(op.pc >> 2) % btbSets_);
        for (uint32_t w = 0; base && w < params_.btbWays; ++w) {
            if (base[w].valid && base[w].pc == op.pc) {
                pred.target = base[w].target;
                pred.targetValid = true;
                break;
            }
        }
    }
    return pred;
}

void
BranchPredictor::update(const MicroOp &op, const BranchPrediction &pred)
{
    if (op.cls == OpClass::Return) {
        if (rasCount_ > 0) {
            rasTop_ = (rasTop_ + params_.rasEntries - 1)
                % params_.rasEntries;
            --rasCount_;
        }
        return;
    }

    if (op.cls == OpClass::Call) {
        // Push the fall-through address.
        ras_[rasTop_] = op.pc + 4;
        rasTop_ = (rasTop_ + 1) % params_.rasEntries;
        if (rasCount_ < params_.rasEntries)
            ++rasCount_;
    } else {
        // Train direction tables for conditional branches.
        const uint32_t li = localIndex(op.pc);
        const uint16_t lh = localHistory_[li];
        const uint32_t lp = localPhtIndex(op.pc, lh);
        const uint32_t gp = gshareIndex(op.pc);
        const bool local_taken = counterTaken(localPht_[lp]);
        const bool global_taken = counterTaken(globalPht_[gp]);

        // The chooser trains toward whichever component was right.
        if (local_taken != global_taken) {
            chooser_[chooserIndex(op.pc)] =
                bump(chooser_[chooserIndex(op.pc)],
                     global_taken == op.taken);
        }
        localPht_[lp] = bump(localPht_[lp], op.taken);
        globalPht_[gp] = bump(globalPht_[gp], op.taken);
        localHistory_[li] = static_cast<uint16_t>(
            ((lh << 1) | (op.taken ? 1 : 0))
            & ((1u << params_.localHistoryBits) - 1));
        globalHistory_ = (globalHistory_ << 1) | (op.taken ? 1 : 0);
    }

    // Allocate/refresh the BTB for taken control flow.
    const bool actually_taken =
        op.cls == OpClass::Branch ? op.taken : true;
    if (actually_taken) {
        BtbEntry *base = btb_.fill(
            static_cast<uint32_t>(op.pc >> 2) % btbSets_, BtbEntry{});
        BtbEntry *victim = &base[0];
        for (uint32_t w = 0; w < params_.btbWays; ++w) {
            if (base[w].valid && base[w].pc == op.pc) {
                victim = &base[w];
                break;
            }
            if (!base[w].valid) {
                victim = &base[w];
            } else if (victim->valid && base[w].lru < victim->lru) {
                victim = &base[w];
            }
        }
        victim->valid = true;
        victim->pc = op.pc;
        victim->target = op.target;
        victim->lru = ++btbLru_;
    }
    (void)pred;
}

bool
BranchPredictor::predictAndTrain(const MicroOp &op)
{
    const BranchPrediction pred = predict(op);
    const bool actually_taken =
        op.cls == OpClass::Branch ? op.taken : true;

    bool mispredicted = pred.taken != actually_taken;
    if (!mispredicted && actually_taken) {
        // Direction right: the target must also be right.
        mispredicted = !pred.targetValid || pred.target != op.target;
    }
    update(op, pred);
    if (mispredicted)
        ++mispredictions_;
    else
        ++correct_;
    return mispredicted;
}

double
BranchPredictor::mispredictRate() const
{
    const uint64_t total = stats_.value("lookups");
    if (total == 0)
        return 0.0;
    return static_cast<double>(stats_.value("mispredictions")) / total;
}

void
BranchPredictor::saveState(Serializer &ser) const
{
    ser.beginSection("bpred");
    ser.putU32(static_cast<uint32_t>(localHistory_.size()));
    ser.putU32(static_cast<uint32_t>(localPht_.size()));
    ser.putU32(static_cast<uint32_t>(globalPht_.size()));
    ser.putU32(static_cast<uint32_t>(chooser_.size()));
    ser.putU32(params_.btbEntries);
    ser.putU32(static_cast<uint32_t>(ras_.size()));
    // Each table is one byte run.
    ser.putBytes(localHistory_.data(),
                 localHistory_.size() * sizeof(uint16_t));
    ser.putBytes(localPht_.data(), localPht_.size());
    ser.putBytes(globalPht_.data(), globalPht_.size());
    ser.putBytes(chooser_.data(), chooser_.size());
    ser.putU64(globalHistory_);
    // Only valid BTB entries are written, each under its set x ways +
    // way index in ascending order: lookups and the victim loop test
    // `valid` first, and entries never go back to invalid.
    uint32_t valid_entries = 0;
    for (uint32_t set = 0; set < btbSets_; ++set) {
        const BtbEntry *base = btb_.find(set);
        for (uint32_t w = 0; base && w < params_.btbWays; ++w)
            valid_entries += base[w].valid ? 1 : 0;
    }
    ser.putU32(valid_entries);
    for (uint32_t set = 0; set < btbSets_; ++set) {
        const BtbEntry *base = btb_.find(set);
        for (uint32_t w = 0; base && w < params_.btbWays; ++w) {
            const BtbEntry &e = base[w];
            if (!e.valid)
                continue;
            ser.putU32(set * params_.btbWays + w);
            ser.putU64(e.pc);
            ser.putU64(e.target);
            ser.putU64(e.lru);
        }
    }
    ser.putU64(btbLru_);
    for (uint64_t r : ras_)
        ser.putU64(r);
    ser.putU32(rasTop_);
    ser.putU32(rasCount_);
    stats_.saveState(ser);
    ser.endSection();
}

void
BranchPredictor::restoreState(Deserializer &des)
{
    des.openSection("bpred");
    if (des.getU32() != localHistory_.size() ||
        des.getU32() != localPht_.size() ||
        des.getU32() != globalPht_.size() ||
        des.getU32() != chooser_.size() ||
        des.getU32() != params_.btbEntries ||
        des.getU32() != ras_.size()) {
        des.fail("branch predictor geometry mismatch");
        return;
    }
    des.getBytes(localHistory_.data(),
                 localHistory_.size() * sizeof(uint16_t));
    des.getBytes(localPht_.data(), localPht_.size());
    des.getBytes(globalPht_.data(), globalPht_.size());
    des.getBytes(chooser_.data(), chooser_.size());
    globalHistory_ = des.getU64();
    btb_.clear();
    SparseIndexReader valid(des, params_.btbEntries);
    for (size_t i = 0; valid.next(i);) {
        const uint32_t set = static_cast<uint32_t>(i / params_.btbWays);
        BtbEntry &e = btb_.fill(set, BtbEntry{})[i % params_.btbWays];
        e.pc = des.getU64();
        e.target = des.getU64();
        e.lru = des.getU64();
        e.valid = true;
    }
    btbLru_ = des.getU64();
    for (uint64_t &r : ras_)
        r = des.getU64();
    rasTop_ = des.getU32();
    rasCount_ = des.getU32();
    stats_.restoreState(des);
    des.closeSection();
}

} // namespace hetsim::cpu
