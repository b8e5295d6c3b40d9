#include "os/mosaic_vm.hh"

#include <algorithm>
#include <array>
#include <set>

namespace mosaic
{

MosaicVm::MosaicVm(const MosaicVmConfig &config)
    : config_(config),
      allocator_(config.geometry),
      frames_(config.geometry.numFrames),
      rng_(config.seed),
      globalLru_(config.geometry.numFrames),
      ghosts_(config.geometry.numFrames)
{
    liveCap_ = config_.policy == EvictionPolicy::ShrunkenCache
        ? static_cast<std::size_t>(
              static_cast<double>(frames_.numFrames()) *
              (1.0 - config_.shrinkDelta))
        : frames_.numFrames();
    swap_.setFaultInjector(config_.faults);
}

MosaicPageTable &
MosaicVm::table(Asid asid)
{
    if (lastTable_ && lastAsid_ == asid)
        return *lastTable_;
    auto [table, inserted] = tables_.emplace(asid);
    if (inserted) {
        table = std::make_unique<MosaicPageTable>(
            config_.arity, allocator_.mapper().codec().invalid());
    }
    lastAsid_ = asid;
    lastTable_ = table.get();
    return *table;
}

std::size_t
MosaicVm::numFrames() const
{
    return frames_.numFrames();
}

std::size_t
MosaicVm::residentPages() const
{
    return frames_.usedFrames();
}

bool
MosaicVm::isGhostFrame(Pfn pfn) const
{
    const Frame &f = frames_.frame(pfn);
    return f.used && f.lastAccess < horizon_;
}

void
MosaicVm::reapGhosts()
{
    ghosts_.reap(frames_, horizon_);
}

void
MosaicVm::noteFrameFreed(Pfn pfn)
{
    ghosts_.noteFreed(pfn, isGhostFrame(pfn));
}

std::uint64_t
MosaicVm::locationIdFor(Asid asid, Vpn vpn)
{
    MosaicPageTable &pt = table(asid);
    const TocKey key{asid, pt.mvpnOf(vpn)};
    if (const std::uint64_t *bound = locationIds_.find(key))
        return *bound;
    // Random IDs per §2.5: collisions are tolerable because
    // iceberg hashing is robust to a few duplicate inputs.
    const std::uint64_t loc_id = rng_() >> 6;
    locationIds_[key] = loc_id;
    locUsers_[loc_id].push_back(key);
    return loc_id;
}

std::uint64_t
MosaicVm::hashInputFor(Asid asid, Vpn vpn)
{
    if (config_.sharing == SharingMode::PageIdHash)
        return packPageId(PageId{asid, vpn});
    const std::uint64_t loc_id = locationIdFor(asid, vpn);
    return (loc_id << 6) | table(asid).offsetOf(vpn);
}

std::optional<std::uint64_t>
MosaicVm::hashInputIfBound(Asid asid, Vpn vpn) const
{
    if (config_.sharing == SharingMode::PageIdHash)
        return packPageId(PageId{asid, vpn});
    const unsigned log2_arity = ceilLog2(config_.arity);
    const std::uint64_t *bound =
        locationIds_.find(TocKey{asid, vpn >> log2_arity});
    if (!bound)
        return std::nullopt;
    return (*bound << 6) | (vpn & (config_.arity - 1));
}

void
MosaicVm::releaseBindingIfDead(const TocKey &key)
{
    const std::uint64_t *bound = locationIds_.find(key);
    if (!bound)
        return;
    const std::uint64_t loc_id = *bound;
    MosaicPageTable &pt = table(key.asid);
    const Vpn base = key.mvpn << ceilLog2(config_.arity);
    for (unsigned sub = 0; sub < config_.arity; ++sub) {
        if (pt.walk(base + sub).present ||
                swap_.contains((loc_id << 6) | sub))
            return;
    }
    // No sub-page of the ToC is resident or swapped out: the binding
    // can never be referenced again, so drop it. Without this,
    // locationIds_/locUsers_ grow without bound across map/unmap
    // cycles and the sharer-adoption scan in touch() slows down.
    if (auto *users = locUsers_.find(loc_id)) {
        std::erase(*users, key);
        if (users->empty())
            locUsers_.erase(loc_id);
    }
    locationIds_.erase(key);
}

void
MosaicVm::evictFrame(Pfn pfn)
{
    const Frame &f = frames_.frame(pfn);
    const std::uint64_t key = hashInputFor(f.owner.asid, f.owner.vpn);
    if (f.dirty) {
        swap_.writeOut(key);
        ++stats_.swapOuts;
        if (stats_.firstSwapOutUtilization < 0)
            stats_.firstSwapOutUtilization = frames_.utilization();
    }
    forEachMapping(pfn, [this](Asid asid, Vpn vpn) {
        table(asid).clearCpfn(vpn);
        xlat_.invalidate(asid, vpn);
    });
    sharers_.erase(pfn);
    if (config_.policy == EvictionPolicy::ShrunkenCache)
        globalLru_.remove(pfn);
    noteFrameFreed(pfn);
    frames_.unmap(pfn);
    // No binding release here: an evicted page always leaves a swap
    // copy behind (fresh pages are born dirty, and swap copies
    // persist after swap-in), so its ToC's binding is still live.
}

void
MosaicVm::unmapRange(Asid asid, Vpn vpn, std::size_t npages)
{
    MosaicPageTable &pt = table(asid);
    const bool loc_mode = config_.sharing == SharingMode::LocationId;

    // Every ToC whose binding may die with this unmap: the caller's
    // own ToCs in range, plus every sharer of their location IDs
    // (their mappings are torn down too, whether resident or not).
    std::set<TocKey> affected;

    for (std::size_t i = 0; i < npages; ++i) {
        const Vpn v = vpn + i;
        const std::optional<std::uint64_t> key = hashInputIfBound(asid, v);
        if (!key) {
            // LocationId mode, ToC never bound: nothing was ever
            // mapped or swapped under it. Looking it up with
            // hashInputFor here would *create* the binding we are
            // trying not to leak.
            continue;
        }
        if (loc_mode) {
            if (const auto *users = locUsers_.find(*key >> 6))
                affected.insert(users->begin(), users->end());
        }
        swap_.invalidate(*key);
        const MosaicWalkResult walk = pt.walk(v);
        if (!walk.present)
            continue;
        const Pfn pfn = allocator_.mapper().pfnOf(*key, walk.cpfn);
        // Unlike eviction, releasing a range writes nothing back:
        // the contents are dead. Clear every mapping of the frame
        // (shared ToCs release for all sharers at once).
        forEachMapping(pfn, [this](Asid a, Vpn vp) {
            table(a).clearCpfn(vp);
            xlat_.invalidate(a, vp);
        });
        sharers_.erase(pfn);
        if (config_.policy == EvictionPolicy::ShrunkenCache)
            globalLru_.remove(pfn);
        noteFrameFreed(pfn);
        frames_.unmap(pfn);
    }

    for (const TocKey &key : affected)
        releaseBindingIfDead(key);
}

void
MosaicVm::shareRange(Asid src_asid, Vpn src_vpn, Asid dst_asid,
                     Vpn dst_vpn, std::size_t npages)
{
    ensure(config_.sharing == SharingMode::LocationId,
           "mosaic_vm: sharing requires LocationId mode");
    MosaicPageTable &src_pt = table(src_asid);
    MosaicPageTable &dst_pt = table(dst_asid);
    const unsigned arity = config_.arity;
    ensure(src_pt.offsetOf(src_vpn) == 0 && dst_pt.offsetOf(dst_vpn) == 0,
           "mosaic_vm: share range must be mosaic-aligned");
    ensure(npages % arity == 0,
           "mosaic_vm: share range must cover whole mosaic pages");

    for (std::size_t i = 0; i < npages; i += arity) {
        // Bind the destination ToC to the source's location ID.
        const std::uint64_t loc_id = locationIdFor(src_asid, src_vpn + i);
        const TocKey dst_key{dst_asid, dst_pt.mvpnOf(dst_vpn + i)};
        ensure(!locationIds_.contains(dst_key),
               "mosaic_vm: destination ToC already bound");
        locationIds_[dst_key] = loc_id;
        locUsers_[loc_id].push_back(dst_key);

        // Make already-resident sub-pages visible immediately.
        for (unsigned sub = 0; sub < arity; ++sub) {
            const Vpn sv = src_vpn + i + sub;
            const Vpn dv = dst_vpn + i + sub;
            const MosaicWalkResult walk = src_pt.walk(sv);
            if (walk.present) {
                dst_pt.setCpfn(dv, walk.cpfn);
                const Pfn pfn = allocator_.mapper().pfnOf(
                    hashInputFor(src_asid, sv), walk.cpfn);
                sharers_[pfn].emplace_back(dst_asid, dv);
            }
        }
    }
}

Pfn
MosaicVm::touch(Asid asid, Vpn vpn, bool write)
{
    return touchScalar(asid, vpn, write, false);
}

Pfn
MosaicVm::touchScalar(Asid asid, Vpn vpn, bool write, bool gated)
{
    // A cached translation is a resident page: skipping the hash
    // input below is safe, since a present page's ToC is bound.
    if (const Pfn cached = xlat_.lookup(asid, vpn); cached != invalidPfn)
        return touchResident(cached, write);
    // The hash input comes first: in LocationId mode it may create the
    // ToC's binding, which draws the RNG. A present page then needs
    // only the one hash output its CPFN names; the full candidate set
    // is built only to place a faulting page.
    const std::uint64_t hash_input = hashInputFor(asid, vpn);
    MosaicPageTable &pt = table(asid);
    const MosaicWalkResult walk = pt.walk(vpn);
    const MosaicMapper &mapper = allocator_.mapper();
    if (walk.present) {
        const Pfn pfn = mapper.pfnOf(hash_input, walk.cpfn);
        xlat_.fill(asid, vpn, pfn);
        return touchResident(pfn, write);
    }
    const CandidateSet cand = mapper.candidates(hash_input);
    std::optional<Placement> placed;
    if (gated && wouldSteal(hash_input, cand, placed))
        return invalidPfn;
    return touchFault(pt, asid, vpn, write, hash_input, cand, placed);
}

bool
MosaicVm::wouldSteal(std::uint64_t hash_input, const CandidateSet &cand,
                     std::optional<Placement> &placed) const
{
    // A free frame anywhere can still absorb the page, and a local
    // swap copy must be honored locally (stealing the page would
    // strand the copy and skew major faults).
    if (frames_.usedFrames() < frames_.numFrames() ||
            swap_.contains(hash_input))
        return false;
    // The placement touchFault makes first: a ghost below the horizon
    // still counts as reclaimable, so only a hard associativity
    // conflict on a dry pool needs a donor.
    placed = allocator_.place(cand, frames_, ghosts_.bits());
    return !placed;
}

void
MosaicVm::noteAccess(Pfn pfn, bool write)
{
    if (frames_.frame(pfn).lastAccess < horizon_) {
        // A resident ghost was referenced again: a strict global LRU
        // would have evicted it; Horizon LRU rescues it. It rejoins
        // the live order as most recently used.
        ++stats_.ghostRescues;
        ghosts_.rescue(pfn);
    } else {
        ghosts_.touchLive(pfn);
    }
    frames_.touch(pfn, clock_, write);
    if (config_.policy == EvictionPolicy::ShrunkenCache)
        globalLru_.touch(pfn);
}

Pfn
MosaicVm::touchResident(Pfn pfn, bool write)
{
    ++clock_;
    noteAccess(pfn, write);
    return pfn;
}

Pfn
MosaicVm::touchFault(MosaicPageTable &pt, Asid asid, Vpn vpn, bool write,
                     std::uint64_t hash_input, const CandidateSet &cand,
                     std::optional<Placement> placed)
{
    ++clock_;
    const bool major = swap_.contains(hash_input);

    if (config_.sharing == SharingMode::LocationId) {
        // Another mapping of the same ToC may already have the page
        // resident: adopt its frame instead of allocating.
        const std::uint64_t loc_id = locationIdFor(asid, vpn);
        const unsigned offset = pt.offsetOf(vpn);
        for (const TocKey &user : locUsers_[loc_id]) {
            if (user.asid == asid && user.mvpn == pt.mvpnOf(vpn))
                continue;
            MosaicPageTable &peer_pt = table(user.asid);
            const Vpn peer_vpn =
                (user.mvpn << ceilLog2(config_.arity)) | offset;
            const MosaicWalkResult peer = peer_pt.walk(peer_vpn);
            if (peer.present) {
                const Pfn pfn = allocator_.mapper().toPfn(cand, peer.cpfn);
                pt.setCpfn(vpn, peer.cpfn);
                sharers_[pfn].emplace_back(asid, vpn);
                // Adopting a ghost frame rescues it exactly like a
                // direct hit on one would.
                noteAccess(pfn, write);
                ++stats_.minorFaults;
                return pfn;
            }
        }
    }

    // ShrunkenCache holds live pages below (1 - delta)p by evicting
    // the global LRU page first, so placement usually finds room.
    if (config_.policy == EvictionPolicy::ShrunkenCache &&
            frames_.usedFrames() >= liveCap_ && !globalLru_.empty()) {
        evictFrame(globalLru_.front());
    }

    std::optional<Placement> placement;
    const bool place_injected = config_.faults != nullptr &&
                                config_.faults->shouldFail("vm.place");
    if (!place_injected) {
        placement = placed ? placed
                           : allocator_.place(cand, frames_, ghosts_.bits());
    }

    if (!placement &&
            config_.recovery == ConflictRecovery::GhostReclaimRetry) {
        // Recovery hook: reclaim anything the horizon has already
        // ghosted and retry before escalating to a hard conflict.
        // Placement is a pure function of frames_ and horizon_, so
        // the retry succeeds only when the first attempt failed
        // transiently (fault injection) — never on a real conflict.
        reapGhosts();
        placement = allocator_.place(cand, frames_, ghosts_.bits());
        if (placement)
            ++stats_.recoveredConflicts;
    }

    if (!placement) {
        // Associativity conflict: every candidate slot holds a live
        // page. Evict the LRU candidate; under Horizon LRU, also
        // raise the horizon to its access time, ghosting everything
        // older (§2.4).
        ++stats_.conflicts;
        if (stats_.firstConflictUtilization < 0)
            stats_.firstConflictUtilization = frames_.utilization();
        const Placement victim = allocator_.lruCandidate(cand, frames_);
        if (config_.policy == EvictionPolicy::HorizonLru) {
            horizon_ = std::max(horizon_,
                                frames_.frame(victim.pfn).lastAccess);
            reapGhosts();
        }
        evictFrame(victim.pfn);
        placement = Placement{victim.pfn, victim.cpfn, false};
    } else if (placement->evictsGhost) {
        ++stats_.ghostEvictions;
        evictFrame(placement->pfn);
    }

    // A page read back from swap starts clean; anything else (a
    // fresh zero-filled page) must be written out if ever evicted.
    const bool dirty = !major || write;
    frames_.map(placement->pfn, PageId{asid, vpn}, clock_, dirty);
    ghosts_.recordLive(placement->pfn);
    if (config_.policy == EvictionPolicy::ShrunkenCache)
        globalLru_.pushBack(placement->pfn);
    pt.setCpfn(vpn, placement->cpfn);

    if (major) {
        swap_.readIn(hash_input);
        ++stats_.swapIns;
        ++stats_.majorFaults;
    } else {
        ++stats_.minorFaults;
    }

    if (samplingSteadyState_ || frames_.utilization() >= 0.98) {
        samplingSteadyState_ = true;
        stats_.steadyUtilization.add(frames_.utilization());
    }
    return placement->pfn;
}

void
MosaicVm::touchBatch(std::span<const PageTouch> block, Pfn *out)
{
    applyBatch(block, out, false);
}

std::size_t
MosaicVm::touchBatchUntilSteal(std::span<const PageTouch> block, Pfn *out)
{
    ensure(config_.sharing == SharingMode::PageIdHash &&
               config_.policy != EvictionPolicy::ShrunkenCache,
           "mosaic_vm: the steal gate needs PageIdHash and a policy "
           "that can hard-conflict");
    return applyBatch(block, out, true);
}

std::size_t
MosaicVm::applyBatch(std::span<const PageTouch> block, Pfn *out,
                     bool gated)
{
    // LocationId hash inputs are derived statefully (binding creation
    // draws the RNG), so staging them out of order would change
    // observable state; trivial blocks have nothing to amortize.
    if (config_.sharing == SharingMode::LocationId || block.size() < 2) {
        for (std::size_t i = 0; i < block.size(); ++i) {
            out[i] = touchScalar(block[i].asid, block[i].vpn,
                                 block[i].write, gated);
            if (out[i] == invalidPfn)
                return i;
        }
        return block.size();
    }

    const std::size_t n = block.size();
    const MosaicMapper &mapper = allocator_.mapper();
    const Cpfn unmapped = mapper.codec().invalid();

    // Faults applied so far. A touch staged at an earlier count may
    // predate a mapping change, so apply re-walks instead of using it.
    std::uint64_t faults = 0;

    // A rolling software pipeline over the block. Each stage reads
    // only what the stage before it prefetched, a fixed distance
    // ahead of the in-order apply at i: the page-table leaf at
    // i + leafAhead; the walk, pfnOf and the frame/LRU-node prefetch
    // at i + walkAhead; the LRU neighbours (which the live-order
    // relink writes) at i + lruAhead. Staging only reads.
    // Short distances on purpose: each touch keeps ~6 lines in
    // flight, and longer ones (12/6/3, 16/8/3) measured slower on
    // micro_batch, probably because more prefetches were then
    // outstanding than the core has line fill buffers.
    constexpr std::size_t leafAhead = 8;
    constexpr std::size_t walkAhead = 4;
    constexpr std::size_t lruAhead = 2;
    // Staged touches live in a ring: slot j % 16 holds touch j's from
    // its leaf stage until its apply, leafAhead touches later.
    std::array<StagedTouch, 16> staged;
    static_assert(leafAhead < staged.size());
    const auto stagedAt = [&](std::size_t j) -> StagedTouch & {
        return staged[j % staged.size()];
    };
    // The last table found, kept because blocks usually come from
    // one address space. Tables are never destroyed, so the pointer
    // stays valid; an absent table is never cached, because a fault
    // may create it.
    Asid last_asid = 0;
    const MosaicPageTable *last_table = nullptr;
    const auto stageLeaf = [&](std::size_t j) {
        StagedTouch &st = stagedAt(j);
        st = StagedTouch{nullptr, nullptr, invalidPfn, faults};
        if (!last_table || last_asid != block[j].asid) {
            // find(), not table(): staging must not create address
            // spaces — a missing table just means "not present".
            const auto *table = tables_.find(block[j].asid);
            if (!table)
                return;
            last_asid = block[j].asid;
            last_table = table->get();
        }
        st.table = last_table;
        st.leaf = st.table->findLeaf(block[j].vpn);
        if (st.leaf)
            __builtin_prefetch(&st.leaf[st.table->offsetOf(block[j].vpn)]);
    };
    const auto stageWalk = [&](std::size_t j) {
        StagedTouch &st = stagedAt(j);
        if (!st.table)
            return;
        const Cpfn cpfn = st.table->cpfnIn(st.leaf, block[j].vpn);
        if (cpfn == unmapped)
            return;
        st.pfn = mapper.pfnOf(
            packPageId(PageId{block[j].asid, block[j].vpn}), cpfn);
        frames_.prefetch(st.pfn);
        ghosts_.prefetchLive(st.pfn);
    };
    const auto stageNeighbours = [&](std::size_t j) {
        if (stagedAt(j).pfn != invalidPfn)
            ghosts_.prefetchLiveNeighbours(stagedAt(j).pfn);
    };

    for (std::size_t j = 0; j < std::min(n, leafAhead); ++j)
        stageLeaf(j);
    for (std::size_t j = 0; j < std::min(n, walkAhead); ++j)
        stageWalk(j);
    for (std::size_t j = 0; j < std::min(n, lruAhead); ++j)
        stageNeighbours(j);

    // Apply in the caller's original order — the determinism
    // contract: every touch has exactly the effects scalar touch()
    // would have had at this point of the stream.
    for (std::size_t i = 0; i < n; ++i) {
        if (i + leafAhead < n)
            stageLeaf(i + leafAhead);
        if (i + walkAhead < n)
            stageWalk(i + walkAhead);
        if (i + lruAhead < n)
            stageNeighbours(i + lruAhead);

        const PageTouch &t = block[i];
        const std::uint64_t hash_input = packPageId(PageId{t.asid, t.vpn});
        Pfn pfn = stagedAt(i).pfn;
        if (stagedAt(i).faults != faults) {
            const MosaicWalkResult walked = table(t.asid).walk(t.vpn);
            pfn = walked.present ? mapper.pfnOf(hash_input, walked.cpfn)
                                 : invalidPfn;
        }
        if (pfn != invalidPfn) {
            out[i] = touchResident(pfn, t.write);
            continue;
        }
        const CandidateSet cand = mapper.candidates(hash_input);
        std::optional<Placement> placed;
        if (gated && wouldSteal(hash_input, cand, placed))
            return i;
        // Every fault changes a page->frame mapping, which retires
        // the touches staged before it.
        ++faults;
        out[i] = touchFault(table(t.asid), t.asid, t.vpn, t.write,
                            hash_input, cand, placed);
    }
    return n;
}

} // namespace mosaic
