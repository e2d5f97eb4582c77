#include "mem/hierarchy.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/serialize.hh"

namespace hetsim::mem
{

namespace
{

constexpr uint32_t
coreBit(uint32_t core)
{
    return 1u << core;
}

} // namespace

MemHierarchy::HierCounters::HierCounters(StatGroup &sg)
    : prefetches(sg.counter("prefetches")),
      ifetchPrefetches(sg.counter("ifetch_prefetches")),
      l2Writebacks(sg.counter("l2_writebacks")),
      l3Writebacks(sg.counter("l3_writebacks")),
      dl1Writebacks(sg.counter("dl1_writebacks")),
      backInvalidations(sg.counter("back_invalidations")),
      upgradeInvalidations(sg.counter("upgrade_invalidations")),
      rfoInvalidations(sg.counter("rfo_invalidations")),
      ownerDowngrades(sg.counter("owner_downgrades")),
      trueSharingMisses(sg.counter("true_sharing_misses")),
      falseSharingMisses(sg.counter("false_sharing_misses"))
{
}

namespace
{

Status
validateLatencies(const LevelLatencies &lat, const char *which)
{
    struct Link
    {
        const char *outer;
        uint32_t outerRt;
        const char *inner;
        uint32_t innerRt;
    };
    const Link links[] = {
        {"dl1Rt", lat.dl1Rt, "dl1FastRt", lat.dl1FastRt},
        {"l2Rt", lat.l2Rt, "dl1Rt", lat.dl1Rt},
        {"l2Rt", lat.l2Rt, "il1Rt", lat.il1Rt},
        {"l3Rt", lat.l3Rt, "l2Rt", lat.l2Rt},
        {"dramRt", lat.dramRt, "l3Rt", lat.l3Rt},
    };
    for (const Link &l : links) {
        if (l.innerRt == 0)
            return Status::error(
                ErrorCode::InvalidArgument,
                "%s: %s round trip must be nonzero", which, l.inner);
        if (l.outerRt < l.innerRt)
            return Status::error(
                ErrorCode::InvalidArgument,
                "%s: %s (%u) is below %s (%u); cumulative round "
                "trips must grow with depth",
                which, l.outer, l.outerRt, l.inner, l.innerRt);
    }
    return Status();
}

} // namespace

Status
validateHierarchyParams(const HierarchyParams &params)
{
    if (params.numCores < 1 || params.numCores > 32)
        return Status::error(ErrorCode::InvalidArgument,
                             "unsupported core count %u",
                             params.numCores);
    Status s = validateLatencies(params.lat, "lat");
    if (!s.ok())
        return s;
    for (size_t c = 0; c < params.perCoreLat.size(); ++c) {
        const std::string which =
            "perCoreLat[" + std::to_string(c) + "]";
        s = validateLatencies(params.perCoreLat[c], which.c_str());
        if (!s.ok())
            return s;
    }
    if (params.spad.enabled &&
        (params.spad.latency == 0 || params.spad.sizeKb == 0))
        return Status::error(ErrorCode::InvalidArgument,
                             "scratchpad needs nonzero latency and "
                             "size (got latency %u, %u KB)",
                             params.spad.latency, params.spad.sizeKb);
    return Status();
}

MemHierarchy::MemHierarchy(const HierarchyParams &params)
    : params_(params),
      ring_(2 * params.numCores, 1, 1),
      dram_(params.lat.dramRt),
      stats_("hierarchy"),
      ctrs_(stats_)
{
    const Status valid = validateHierarchyParams(params_);
    hetsim_assert(valid.ok(), "%s", valid.toString().c_str());
    for (uint32_t c = 0; c < params_.numCores; ++c) {
        invalsReceived_.push_back(&stats_.counter(
            "core" + std::to_string(c) + "_invalidations_received"));
        CacheParams il1p{"il1." + std::to_string(c),
                         params_.il1SizeBytes, params_.il1Ways,
                         kLineBytes, false};
        CacheParams dl1p{"dl1." + std::to_string(c),
                         params_.dl1SizeBytes, params_.dl1Ways,
                         kLineBytes, params_.asymDl1};
        CacheParams l2p{"l2." + std::to_string(c),
                        params_.l2SizeBytes, params_.l2Ways,
                        kLineBytes, false};
        il1_.push_back(std::make_unique<Cache>(il1p));
        dl1_.push_back(std::make_unique<Cache>(dl1p));
        l2_.push_back(std::make_unique<Cache>(l2p));
    }
    CacheParams l3p{"l3",
                    params_.l3SizePerCoreBytes * params_.numCores,
                    params_.l3Ways, kLineBytes, false};
    l3_ = std::make_unique<Cache>(l3p);
    if (params_.spad.enabled)
        spad_ = std::make_unique<Scratchpad>(params_.spad,
                                             params_.numCores);
    streams_.resize(params_.numCores);
}

void
MemHierarchy::noteInvalidatingStore(Addr line, uint32_t writer,
                                    uint8_t word)
{
    lastInv_[line] = InvalInfo{writer, word};
}

void
MemHierarchy::classifySharingMiss(uint32_t core, Addr line,
                                  uint8_t word)
{
    auto it = lastInv_.find(line);
    if (it == lastInv_.end() || it->second.writer == core)
        return;
    if (it->second.word == word)
        ++ctrs_.trueSharingMisses;
    else
        ++ctrs_.falseSharingMisses;
    // One classification per steal; the next invalidating store
    // re-arms the detector.
    lastInv_.erase(it);
}

void
MemHierarchy::maybePrefetch(uint32_t core, Addr addr, Cycle now)
{
    if (params_.prefetchDegree == 0 || inPrefetch_)
        return;
    auto &table = streams_[core];
    const Addr line = lineNumber(addr);

    StreamEntry *hit = nullptr;
    StreamEntry *victim = &table[0];
    for (StreamEntry &e : table) {
        if (line == e.lastLine)
            return; // same line: no new information
        if (line == e.lastLine + 1) {
            hit = &e;
            break;
        }
        if (e.lru < victim->lru)
            victim = &e;
    }
    if (!hit) {
        // Start tracking a potential new stream.
        victim->lastLine = line;
        victim->run = 0;
        victim->lru = ++streamLruCounter_;
        return;
    }
    hit->lastLine = line;
    hit->lru = ++streamLruCounter_;
    if (++hit->run < params_.prefetchTrain)
        return;

    inPrefetch_ = true;
    for (uint32_t d = 1; d <= params_.prefetchDegree; ++d) {
        const Addr target = (line + d) << kLineShift;
        if (!dl1_[core]->contains(target)) {
            prefetchLine(core, target, now);
            ++ctrs_.prefetches;
        }
    }
    inPrefetch_ = false;
}

void
MemHierarchy::prefetchLine(uint32_t core, Addr addr, Cycle now)
{
    // Reuse the demand-load path; the requester discards the latency
    // (the model treats prefetches as timely).
    access(core, addr, AccessType::Prefetch, now);
}

const LevelLatencies &
MemHierarchy::latFor(uint32_t core) const
{
    if (core < params_.perCoreLat.size())
        return params_.perCoreLat[core];
    return params_.lat;
}

uint32_t
MemHierarchy::ringNodeOfCore(uint32_t core) const
{
    return 2 * core; // cores on even stops, banks on odd stops
}

uint32_t
MemHierarchy::ringNodeOfBank(Addr addr) const
{
    const uint32_t bank =
        static_cast<uint32_t>(lineNumber(addr)) % params_.numCores;
    return 2 * bank + 1;
}

bool
MemHierarchy::invalidateCore(uint32_t core, Addr addr)
{
    ++*invalsReceived_[core];
    const bool dl1_dirty = dl1_[core]->invalidate(addr);
    il1_[core]->invalidate(addr);
    const bool l2_dirty = l2_[core]->invalidate(addr);
    return dl1_dirty || l2_dirty;
}

void
MemHierarchy::handleL2Eviction(uint32_t core, const Eviction &ev,
                               Cycle now)
{
    if (!ev.valid)
        return;
    const Addr addr = ev.lineAddr;
    // Inclusion: the L1 copies must go.
    const bool dl1_dirty = dl1_[core]->invalidate(addr);
    il1_[core]->invalidate(addr);

    auto it = directory_.find(addr);
    hetsim_assert(it != directory_.end(),
                  "L2 evicted a line with no directory entry");
    it->second.sharers &= ~coreBit(core);
    if (it->second.owner == static_cast<int>(core))
        it->second.owner = -1;

    if (ev.dirty || dl1_dirty) {
        // Write the data back into the inclusive L3.
        hetsim_assert(l3_->contains(addr),
                      "inclusion violated on L2 writeback");
        l3_->markDirty(addr);
        ++ctrs_.l2Writebacks;
    }
    (void)now;
}

void
MemHierarchy::handleL3Eviction(const Eviction &ev, Cycle now)
{
    if (!ev.valid)
        return;
    const Addr addr = ev.lineAddr;
    bool dirty = ev.dirty;
    auto it = directory_.find(addr);
    if (it != directory_.end()) {
        // Back-invalidate every private copy (inclusive L3).
        for (uint32_t c = 0; c < params_.numCores; ++c) {
            if (it->second.sharers & coreBit(c)) {
                if (invalidateCore(c, addr))
                    dirty = true;
                ++ctrs_.backInvalidations;
            }
        }
        directory_.erase(it);
    }
    if (dirty) {
        dram_.writeback(addr, now);
        ++ctrs_.l3Writebacks;
    }
}

uint32_t
MemHierarchy::fetchIntoL3(uint32_t core, Addr addr, Cycle now,
                          AccessSource &source)
{
    if (l3_->access(addr).hit) {
        source = AccessSource::L3;
        return 0;
    }
    source = AccessSource::Dram;
    const uint32_t dram_lat = dram_.access(addr, now);
    Eviction ev = l3_->fill(addr, CoherenceState::Shared);
    handleL3Eviction(ev, now);
    directory_.emplace(addr, DirEntry{});
    (void)core;
    return dram_lat;
}

void
MemHierarchy::fillL2(uint32_t core, Addr addr, CoherenceState state,
                     Cycle now)
{
    Cache &l2 = *l2_[core];
    if (l2.contains(addr)) {
        l2.setState(addr, state);
        return;
    }
    Eviction ev = l2.fill(addr, state);
    handleL2Eviction(core, ev, now);
}

AccessResult
MemHierarchy::access(uint32_t core, Addr addr, AccessType type,
                     Cycle now)
{
    // Trace demand accesses only: recursive prefetch walks re-enter
    // through this wrapper with inPrefetch_ set and stay silent.
    const bool demand = !inPrefetch_ && type != AccessType::Prefetch;
    const AccessResult r = accessImpl(core, addr, type, now);
    if (demand) {
        const bool l1_hit = r.source == AccessSource::Dl1Fast ||
            r.source == AccessSource::Dl1 ||
            r.source == AccessSource::Il1;
        HETSIM_TRACE(traceBuf_, now, core,
                     l1_hit ? obs::TraceEvent::CacheHit
                            : obs::TraceEvent::CacheMiss,
                     addr, static_cast<uint8_t>(r.source));
    }
    return r;
}

AccessResult
MemHierarchy::accessImpl(uint32_t core, Addr addr, AccessType type,
                         Cycle now)
{
    hetsim_assert(core < params_.numCores, "core %u out of range", core);
    // 8-byte word index within the line, for the sharing classifier
    // (captured before line alignment discards the offset).
    const uint8_t word = static_cast<uint8_t>((addr >> 3) & 7);
    addr = lineAlign(addr);
    const LevelLatencies &lat = latFor(core);

    if (type == AccessType::Ifetch) {
        // Sequential instruction prefetch: code streams line by line,
        // so running ahead of fetch hides IL1 cold misses just like
        // the data-side stride prefetcher hides stream misses.
        if (!inPrefetch_ && params_.prefetchDegree > 0) {
            inPrefetch_ = true;
            for (uint32_t d = 1; d <= params_.prefetchDegree; ++d) {
                const Addr target =
                    (lineNumber(addr) + d) << kLineShift;
                if (!il1_[core]->contains(target)) {
                    access(core, target, AccessType::Ifetch, now);
                    ++ctrs_.ifetchPrefetches;
                }
            }
            inPrefetch_ = false;
        }
        if (il1_[core]->access(addr).hit)
            return {lat.il1Rt, AccessSource::Il1};
        if (l2_[core]->access(addr).hit) {
            Eviction ev = il1_[core]->fill(addr, CoherenceState::Shared);
            // IL1 lines are never dirty; nothing else to do.
            (void)ev;
            return {lat.l2Rt, AccessSource::L2};
        }
        AccessSource source;
        uint32_t extra = fetchIntoL3(core, addr, now, source);
        DirEntry &entry = directory_.at(addr);
        // Instruction lines are granted Shared; a remote modified copy
        // must first be downgraded.
        if (entry.owner >= 0 &&
            entry.owner != static_cast<int>(core)) {
            const uint32_t o = static_cast<uint32_t>(entry.owner);
            bool dirty = dl1_[o]->downgradeToShared(addr);
            dirty |= l2_[o]->downgradeToShared(addr);
            if (dirty)
                l3_->markDirty(addr);
            entry.owner = -1;
            extra += lat.remoteProbeRt +
                ring_.latency(ringNodeOfBank(addr), ringNodeOfCore(o));
            source = AccessSource::RemoteCore;
        }
        entry.sharers |= coreBit(core);
        fillL2(core, addr, CoherenceState::Shared, now);
        Eviction ev = il1_[core]->fill(addr, CoherenceState::Shared);
        (void)ev;
        return {lat.l3Rt + extra, source};
    }

    const bool is_store = type == AccessType::Store;
    const bool is_prefetch = type == AccessType::Prefetch;

    // Scratchpad windows bypass the cache hierarchy entirely: fixed
    // latency, no tags, no coherence, no prefetcher training.
    if (spad_ && spad_->contains(core, addr))
        return {spad_->access(core, is_store),
                AccessSource::Scratchpad};

    Cache &dl1 = *dl1_[core];
    Cache &l2 = *l2_[core];

    if (!is_prefetch)
        maybePrefetch(core, addr, now);

    // Prefetches are only issued for absent lines; they skip the
    // demand lookup so L1 hit-rate statistics stay demand-only.
    LookupResult l1r;
    if (!is_prefetch)
        l1r = dl1.access(addr);
    if (l1r.hit) {
        uint32_t latency = l1r.fastHit ? lat.dl1FastRt : lat.dl1Rt;
        AccessSource src =
            l1r.fastHit ? AccessSource::Dl1Fast : AccessSource::Dl1;
        if (is_store) {
            if (l1r.state == CoherenceState::Shared) {
                // Upgrade: invalidate the other sharers through the
                // home directory.
                latency += lat.l3Rt;
                DirEntry &entry = directory_.at(addr);
                uint32_t inval_lat = 0;
                for (uint32_t c = 0; c < params_.numCores; ++c) {
                    if (c != core && (entry.sharers & coreBit(c))) {
                        invalidateCore(c, addr);
                        inval_lat = std::max(inval_lat,
                            ring_.latency(ringNodeOfBank(addr),
                                          ringNodeOfCore(c)));
                        ++ctrs_.upgradeInvalidations;
                    }
                }
                if (inval_lat > 0)
                    noteInvalidatingStore(addr, core, word);
                latency += inval_lat;
                entry.sharers = coreBit(core);
                entry.owner = static_cast<int>(core);
            }
            dl1.setState(addr, CoherenceState::Modified);
            dl1.markDirty(addr);
            if (l2.contains(addr))
                l2.setState(addr, CoherenceState::Modified);
        }
        return {latency, src};
    }

    // DL1 miss: try the private L2.
    LookupResult l2r = l2.access(addr);
    uint32_t latency = 0;
    AccessSource source = AccessSource::L2;
    CoherenceState granted = CoherenceState::Shared;

    if (l2r.hit) {
        latency = lat.l2Rt;
        granted = l2r.state;
        if (is_store && granted == CoherenceState::Shared) {
            latency += lat.l3Rt;
            DirEntry &entry = directory_.at(addr);
            uint32_t inval_lat = 0;
            for (uint32_t c = 0; c < params_.numCores; ++c) {
                if (c != core && (entry.sharers & coreBit(c))) {
                    invalidateCore(c, addr);
                    inval_lat = std::max(inval_lat,
                        ring_.latency(ringNodeOfBank(addr),
                                      ringNodeOfCore(c)));
                    ++ctrs_.upgradeInvalidations;
                }
            }
            if (inval_lat > 0)
                noteInvalidatingStore(addr, core, word);
            latency += inval_lat;
            entry.sharers = coreBit(core);
            entry.owner = static_cast<int>(core);
            granted = CoherenceState::Modified;
            l2.setState(addr, granted);
        }
    } else {
        // Coherence-steal classification: a demand miss on a line an
        // invalidating store took away is a sharing miss (true or
        // false depending on the word).
        if (!is_prefetch)
            classifySharingMiss(core, addr, word);
        // Resolve at the shared L3 / directory.
        uint32_t extra = fetchIntoL3(core, addr, now, source);
        DirEntry &entry = directory_.at(addr);

        if (is_store) {
            // Request For Ownership: everyone else loses their copy.
            uint32_t inval_lat = 0;
            for (uint32_t c = 0; c < params_.numCores; ++c) {
                if (c != core && (entry.sharers & coreBit(c))) {
                    if (invalidateCore(c, addr))
                        l3_->markDirty(addr);
                    inval_lat = std::max(inval_lat,
                        lat.remoteProbeRt +
                        ring_.latency(ringNodeOfBank(addr),
                                      ringNodeOfCore(c)));
                    ++ctrs_.rfoInvalidations;
                    if (entry.owner == static_cast<int>(c))
                        source = AccessSource::RemoteCore;
                }
            }
            if (inval_lat > 0)
                noteInvalidatingStore(addr, core, word);
            extra += inval_lat;
            entry.sharers = coreBit(core);
            entry.owner = static_cast<int>(core);
            granted = CoherenceState::Modified;
        } else {
            if (entry.owner >= 0 &&
                entry.owner != static_cast<int>(core)) {
                // Remote E/M copy: downgrade and pull the data.
                const uint32_t o = static_cast<uint32_t>(entry.owner);
                bool dirty = dl1_[o]->downgradeToShared(addr);
                dirty |= l2_[o]->downgradeToShared(addr);
                if (dirty)
                    l3_->markDirty(addr);
                entry.owner = -1;
                extra += lat.remoteProbeRt +
                    ring_.latency(ringNodeOfBank(addr),
                                  ringNodeOfCore(o)) +
                    ring_.latency(ringNodeOfCore(o),
                                  ringNodeOfCore(core));
                source = AccessSource::RemoteCore;
                ++ctrs_.ownerDowngrades;
            }
            entry.sharers |= coreBit(core);
            if (entry.sharers == coreBit(core)) {
                granted = CoherenceState::Exclusive;
                entry.owner = static_cast<int>(core);
            } else {
                granted = CoherenceState::Shared;
            }
        }
        latency = lat.l3Rt + extra;
        fillL2(core, addr, granted, now);
    }

    // Fill the DL1 (write-allocate) and apply the store.
    Eviction ev = dl1.fill(addr, granted);
    if (ev.valid && ev.dirty) {
        hetsim_assert(l2.contains(ev.lineAddr),
                      "inclusion violated on DL1 writeback");
        l2.markDirty(ev.lineAddr);
        l2.setState(ev.lineAddr, CoherenceState::Modified);
        ++ctrs_.dl1Writebacks;
    }
    if (is_store) {
        dl1.setState(addr, CoherenceState::Modified);
        dl1.markDirty(addr);
        l2.setState(addr, CoherenceState::Modified);
    }
    return {latency, source};
}

bool
MemHierarchy::checkSingleWriter(Addr addr) const
{
    addr = lineAlign(addr);
    int writers = 0;
    int holders = 0;
    for (uint32_t c = 0; c < params_.numCores; ++c) {
        const CoherenceState s1 = dl1_[c]->stateOf(addr);
        const CoherenceState s2 = l2_[c]->stateOf(addr);
        const bool holds = s1 != CoherenceState::Invalid ||
            s2 != CoherenceState::Invalid ||
            il1_[c]->contains(addr);
        const bool writes =
            s1 == CoherenceState::Modified ||
            s1 == CoherenceState::Exclusive ||
            s2 == CoherenceState::Modified ||
            s2 == CoherenceState::Exclusive;
        holders += holds;
        writers += writes;
    }
    if (writers > 1)
        return false;
    if (writers == 1 && holders > 1)
        return false;
    return true;
}

bool
MemHierarchy::checkInclusion() const
{
    for (uint32_t c = 0; c < params_.numCores; ++c) {
        for (Addr a : dl1_[c]->residentAddrs())
            if (!l2_[c]->contains(a))
                return false;
        for (Addr a : il1_[c]->residentAddrs())
            if (!l2_[c]->contains(a))
                return false;
        for (Addr a : l2_[c]->residentAddrs())
            if (!l3_->contains(a))
                return false;
    }
    return true;
}

bool
MemHierarchy::checkDirectoryConsistent() const
{
    // Every L3-resident line has a directory entry whose sharer bits
    // match L2 residence exactly, and owner implies sole sharer.
    for (Addr a : l3_->residentAddrs()) {
        auto it = directory_.find(a);
        if (it == directory_.end())
            return false;
        const DirEntry &e = it->second;
        for (uint32_t c = 0; c < params_.numCores; ++c) {
            const bool resident = l2_[c]->contains(a);
            const bool marked = (e.sharers & coreBit(c)) != 0;
            if (resident != marked)
                return false;
        }
        if (e.owner >= 0 && e.sharers != coreBit(e.owner))
            return false;
    }
    return directory_.size() == l3_->residentAddrs().size();
}

void
MemHierarchy::saveState(Serializer &ser) const
{
    for (uint32_t c = 0; c < params_.numCores; ++c) {
        il1_[c]->saveState(ser);
        dl1_[c]->saveState(ser);
        l2_[c]->saveState(ser);
    }
    l3_->saveState(ser);

    ser.beginSection("directory");
    // unordered_map iteration order is not deterministic; sort so the
    // serialized bytes are a pure function of the machine state.
    std::vector<std::pair<Addr, DirEntry>> dir(directory_.begin(),
                                               directory_.end());
    std::sort(dir.begin(), dir.end(),
              [](const auto &a, const auto &b) {
                  return a.first < b.first;
              });
    ser.putU64(dir.size());
    for (const auto &[addr, e] : dir) {
        ser.putU64(addr);
        ser.putU32(e.sharers);
        ser.putI64(e.owner);
    }
    ser.endSection();

    ring_.saveState(ser);
    dram_.saveState(ser);
    if (spad_)
        spad_->saveState(ser);

    ser.beginSection("sharing");
    ser.putU64(lastInv_.size());
    for (const auto &[line, info] : lastInv_) {
        ser.putU64(line);
        ser.putU32(info.writer);
        ser.putU8(info.word);
    }
    ser.endSection();

    ser.beginSection("hier");
    ser.putU64(streamLruCounter_);
    ser.putU32(static_cast<uint32_t>(streams_.size()));
    for (const auto &core_streams : streams_) {
        for (const StreamEntry &s : core_streams) {
            ser.putU64(s.lastLine);
            ser.putU32(s.run);
            ser.putU64(s.lru);
        }
    }
    stats_.saveState(ser);
    ser.endSection();
}

void
MemHierarchy::restoreState(Deserializer &des)
{
    for (uint32_t c = 0; c < params_.numCores; ++c) {
        il1_[c]->restoreState(des);
        dl1_[c]->restoreState(des);
        l2_[c]->restoreState(des);
    }
    l3_->restoreState(des);

    des.openSection("directory");
    directory_.clear();
    // Recalls index the private caches by owner and sharer bit, so
    // an entry naming a core this chip lacks is rejected, as is an
    // owner that is not the line's sole sharer.
    const uint64_t all_cores = (uint64_t{1} << params_.numCores) - 1;
    const uint64_t n = des.getU64();
    for (uint64_t i = 0; i < n && des.ok(); ++i) {
        const Addr addr = des.getU64();
        DirEntry e;
        e.sharers = des.getU32();
        const int64_t owner = des.getI64();
        if (owner < -1 ||
            owner >= static_cast<int64_t>(params_.numCores)) {
            des.fail("directory owner out of range");
            return;
        }
        e.owner = static_cast<int>(owner);
        if ((e.sharers & ~all_cores) != 0) {
            des.fail("directory sharer bit out of range");
            return;
        }
        if (e.owner >= 0 && e.sharers != coreBit(e.owner)) {
            des.fail("directory owner is not the sole sharer");
            return;
        }
        directory_.emplace(addr, e);
    }
    des.closeSection();

    ring_.restoreState(des);
    dram_.restoreState(des);
    if (spad_)
        spad_->restoreState(des);

    des.openSection("sharing");
    lastInv_.clear();
    const uint64_t n_inv = des.getU64();
    for (uint64_t i = 0; i < n_inv && des.ok(); ++i) {
        const Addr line = des.getU64();
        InvalInfo info;
        info.writer = des.getU32();
        info.word = des.getU8();
        lastInv_.emplace(line, info);
    }
    des.closeSection();

    des.openSection("hier");
    streamLruCounter_ = des.getU64();
    if (des.getU32() != streams_.size()) {
        des.fail("prefetch stream table size mismatch");
        return;
    }
    for (auto &core_streams : streams_) {
        for (StreamEntry &s : core_streams) {
            s.lastLine = des.getU64();
            s.run = des.getU32();
            s.lru = des.getU64();
        }
    }
    stats_.restoreState(des);
    des.closeSection();
}

} // namespace hetsim::mem
