#include "os/sharded_vm.hh"

#include <algorithm>

#include "util/thread_pool.hh"

namespace mosaic
{

MosaicVmConfig
ShardedMosaicVm::shardConfig(const ShardedVmConfig &config,
                             std::size_t shard)
{
    const PoolPartition part =
        PoolPartition::split(config.base.geometry, config.shards);
    MosaicVmConfig cfg = config.base;
    cfg.geometry = part.shardGeometry(config.base.geometry, shard);
    // Shard 0 keeps the base seed verbatim so a one-shard engine is
    // byte-identical to the scalar MosaicVm; later shards draw from
    // independent mixed streams.
    if (shard != 0)
        cfg.seed = mix64(config.base.seed ^ (0x5A4DED00ull + shard));
    return cfg;
}

ShardedMosaicVm::ShardedMosaicVm(const ShardedVmConfig &config)
    : config_(config),
      part_(PoolPartition::split(config.base.geometry, config.shards)),
      locMode_(config.base.sharing == SharingMode::LocationId),
      log2Arity_(ceilLog2(config.base.arity)),
      mailboxes_(config.shards)
{
    vms_.reserve(config.shards);
    for (std::size_t s = 0; s < config.shards; ++s)
        vms_.push_back(std::make_unique<MosaicVm>(shardConfig(config, s)));
    stealEnabled_ = vms_.size() > 1 && !locMode_ &&
                    config.base.policy != EvictionPolicy::ShrunkenCache;
}

std::size_t
ShardedMosaicVm::routeOf(Asid asid, Vpn vpn) const
{
    if (asid >= forwardsOf_.size() || forwardsOf_[asid] == 0)
        return homeShard(asid);
    const std::uint64_t key = locMode_
        ? tocKeyOf(asid, vpn, log2Arity_)
        : packPageId(PageId{asid, vpn});
    if (const std::uint32_t *target = forward_.find(key))
        return *target;
    return homeShard(asid);
}

void
ShardedMosaicVm::setForward(std::uint64_t key, Asid asid,
                            std::size_t target)
{
    auto [slot, inserted] = forward_.emplace(key);
    slot = static_cast<std::uint32_t>(target);
    if (inserted) {
        if (asid >= forwardsOf_.size())
            forwardsOf_.resize(std::size_t{asid} + 1);
        ++forwardsOf_[asid];
    }
}

void
ShardedMosaicVm::eraseForward(std::uint64_t key, Asid asid)
{
    if (asid < forwardsOf_.size() && forwardsOf_[asid] != 0 &&
            forward_.erase(key))
        --forwardsOf_[asid];
}

std::optional<std::size_t>
ShardedMosaicVm::pickDonor(std::size_t home, Asid asid, Vpn vpn) const
{
    std::size_t best = vms_.size();
    std::size_t best_free = 0;
    for (std::size_t d = 0; d < vms_.size(); ++d) {
        if (d == home)
            continue;
        const MosaicVm &vm = *vms_[d];
        const std::size_t free =
            vm.numFrames() - vm.frameTable().usedFrames();
        if (free > best_free) {
            best_free = free;
            best = d;
        }
    }
    if (best == vms_.size() || best_free == 0)
        return std::nullopt;
    // The donor must be able to place this specific page: free frames
    // elsewhere in its pool don't help a conflicted candidate set.
    const MosaicVm &donor = *vms_[best];
    const Tick h = donor.horizon();
    const CandidateSet cand = donor.allocator().mapper().candidates(
        packPageId(PageId{asid, vpn}));
    if (!donor.allocator()
             .place(cand, donor.frameTable(),
                    [h](const Frame &f) { return f.lastAccess < h; })
             .has_value())
        return std::nullopt;
    return best;
}

Pfn
ShardedMosaicVm::touchOne(Asid asid, Vpn vpn, bool write)
{
    const std::size_t s = routeOf(asid, vpn);
    MosaicVm &vm = *vms_[s];
    if (!stealEnabled_)
        return part_.toGlobal(s, vm.touch(asid, vpn, write));
    const PageTouch t{asid, vpn, write};
    Pfn local = invalidPfn;
    if (vm.touchBatchUntilSteal({&t, 1}, &local) == 1)
        return part_.toGlobal(s, local);
    if (const std::optional<std::size_t> donor = pickDonor(s, asid, vpn)) {
        local = vms_[*donor]->touch(asid, vpn, write);
        setForward(packPageId(PageId{asid, vpn}), asid, *donor);
        ++counters_.steals;
        return part_.toGlobal(*donor, local);
    }
    return part_.toGlobal(s, vm.touch(asid, vpn, write));
}

Pfn
ShardedMosaicVm::touch(Asid asid, Vpn vpn, bool write)
{
    return touchOne(asid, vpn, write);
}

void
ShardedMosaicVm::touchBatch(std::span<const PageTouch> block, Pfn *out)
{
    if (vms_.size() == 1) {
        // Pure delegation: the one-shard engine inherits the PR 6
        // batched pipeline and its exact scalar equivalence.
        vms_[0]->touchBatch(block, out);
        return;
    }
    if (block.size() < 2) {
        for (std::size_t i = 0; i < block.size(); ++i)
            out[i] = touchOne(block[i].asid, block[i].vpn, block[i].write);
        return;
    }

    const std::size_t shards = vms_.size();
    batchIdx_.resize(shards);
    batchOps_.resize(shards);
    batchOut_.resize(shards);
    for (auto &idx : batchIdx_)
        idx.clear();
    for (std::size_t i = 0; i < block.size(); ++i) {
        batchIdx_[routeOf(block[i].asid, block[i].vpn)].push_back(
            static_cast<std::uint32_t>(i));
    }

    // Parallel phase: each shard applies its ops in block order,
    // touching only shard-local state — a shard stops at its steal
    // gate rather than act on it — so the result is independent of
    // how parallelFor schedules the shards across workers.
    std::vector<std::size_t> applied(shards);
    parallelFor(shards, [&](std::size_t s) {
        MosaicVm &vm = *vms_[s];
        const std::vector<std::uint32_t> &idx = batchIdx_[s];
        std::vector<PageTouch> &ops = batchOps_[s];
        std::vector<Pfn> &local = batchOut_[s];
        ops.resize(idx.size());
        local.resize(idx.size());
        for (std::size_t j = 0; j < idx.size(); ++j)
            ops[j] = block[idx[j]];
        if (stealEnabled_) {
            applied[s] = vm.touchBatchUntilSteal(ops, local.data());
        } else {
            vm.touchBatch(ops, local.data());
            applied[s] = ops.size();
        }
        for (std::size_t j = 0; j < applied[s]; ++j)
            out[idx[j]] = part_.toGlobal(s, local[j]);
    });

    // Serial drain: ops a shard deferred at its steal gate, applied
    // in ascending block order. This is the one place batched order
    // deviates from the scalar loop — only in blocks where a steal
    // engaged, and identically for every thread count.
    std::vector<std::uint32_t> drain;
    for (std::size_t s = 0; s < shards; ++s) {
        drain.insert(drain.end(),
                     batchIdx_[s].begin() +
                         static_cast<std::ptrdiff_t>(applied[s]),
                     batchIdx_[s].end());
    }
    std::sort(drain.begin(), drain.end());
    counters_.deferredBatchOps += drain.size();
    for (const std::uint32_t i : drain)
        out[i] = touchOne(block[i].asid, block[i].vpn, block[i].write);
}

void
ShardedMosaicVm::unmapRange(Asid asid, Vpn vpn, std::size_t npages)
{
    if (vms_.size() == 1) {
        vms_[0]->unmapRange(asid, vpn, npages);
        return;
    }
    if (npages == 0)
        return;

    const std::uint64_t arity = std::uint64_t{1} << log2Arity_;
    const auto flush = [&](std::size_t begin, std::size_t end,
                           std::size_t s) {
        vms_[s]->unmapRange(asid, vpn + begin, end - begin);
        if (!locMode_) {
            // The pages are fully gone from the shard (frames freed,
            // swap copies dropped), so their forwarding entries die
            // too: the range re-homes and the map stays bounded. ToC
            // entries are sticky — a re-touched ToC rebinds at its
            // forwarded shard, which keeps routing consistent with
            // sharers that may still hold the location ID.
            for (std::size_t j = begin; j < end; ++j)
                eraseForward(packPageId(PageId{asid, vpn + j}), asid);
        }
    };

    // Split the range into per-shard runs at routing-unit granularity
    // (pages in PageIdHash mode, ToCs in LocationId mode).
    std::size_t run_start = 0;
    std::size_t run_shard = routeOf(asid, vpn);
    std::size_t i = 0;
    while (i < npages) {
        const std::size_t unit_end = locMode_
            ? std::min(npages,
                       i + (arity - ((vpn + i) & (arity - 1))))
            : i + 1;
        i = unit_end;
        if (i >= npages)
            break;
        const std::size_t s = routeOf(asid, vpn + i);
        if (s != run_shard) {
            flush(run_start, i, run_shard);
            run_start = i;
            run_shard = s;
        }
    }
    flush(run_start, npages, run_shard);
}

void
ShardedMosaicVm::shareRange(Asid src_asid, Vpn src_vpn, Asid dst_asid,
                            Vpn dst_vpn, std::size_t npages)
{
    if (vms_.size() == 1) {
        vms_[0]->shareRange(src_asid, src_vpn, dst_asid, dst_vpn,
                            npages);
        return;
    }
    ensure(locMode_, "sharded_vm: sharing requires LocationId mode");
    const std::uint64_t arity = std::uint64_t{1} << log2Arity_;
    ensure((src_vpn & (arity - 1)) == 0 && (dst_vpn & (arity - 1)) == 0,
           "sharded_vm: share range must be mosaic-aligned");
    ensure(npages % arity == 0,
           "sharded_vm: share range must cover whole mosaic pages");

    // Post one adoption message per chunk to the shard owning the
    // source ToC, and point the destination ToC at that owner so both
    // sides of the share resolve to the same shard from now on.
    for (std::size_t i = 0; i < npages; i += arity) {
        const std::size_t owner = routeOf(src_asid, src_vpn + i);
        ensure(!hasLocationBinding(dst_asid, dst_vpn + i),
               "sharded_vm: destination ToC already bound");
        mailboxes_[owner].push_back(
            AdoptMsg{src_asid, src_vpn + i, dst_asid, dst_vpn + i});
        ++counters_.msgsPosted;
        const std::uint64_t dkey =
            tocKeyOf(dst_asid, dst_vpn + i, log2Arity_);
        if (owner != homeShard(dst_asid)) {
            setForward(dkey, dst_asid, owner);
            ++counters_.crossShardAdoptions;
        } else {
            // A stale sticky entry (from a share whose binding later
            // died) must not outlive the re-home.
            eraseForward(dkey, dst_asid);
        }
    }

    // Drain in shard order. Messages within one mailbox stay in
    // posting order, so same-shard chunks execute in the same
    // relative order as the scalar loop.
    for (std::size_t s = 0; s < vms_.size(); ++s) {
        for (const AdoptMsg &m : mailboxes_[s]) {
            vms_[s]->shareRange(m.srcAsid, m.srcVpn, m.dstAsid,
                                m.dstVpn,
                                static_cast<std::size_t>(arity));
            ++counters_.msgsDrained;
        }
        mailboxes_[s].clear();
    }
}

bool
ShardedMosaicVm::hasLocationBinding(Asid asid, Vpn vpn) const
{
    if (!locMode_)
        return false;
    return vms_[routeOf(asid, vpn)]->hasLocationBinding(asid, vpn);
}

std::size_t
ShardedMosaicVm::numFrames() const
{
    return part_.numShards * part_.framesPerShard;
}

std::size_t
ShardedMosaicVm::residentPages() const
{
    std::size_t n = 0;
    for (const auto &vm : vms_)
        n += vm->residentPages();
    return n;
}

std::size_t
ShardedMosaicVm::ghostPages() const
{
    std::size_t n = 0;
    for (const auto &vm : vms_)
        n += vm->ghostPages();
    return n;
}

std::size_t
ShardedMosaicVm::locationBindings() const
{
    std::size_t n = 0;
    for (const auto &vm : vms_)
        n += vm->locationBindings();
    return n;
}

std::size_t
ShardedMosaicVm::locationUsers() const
{
    std::size_t n = 0;
    for (const auto &vm : vms_)
        n += vm->locationUsers();
    return n;
}

const VmStats &
ShardedMosaicVm::stats() const
{
    VmStats agg;
    const auto min_gauge = [](double *into, double value) {
        if (value >= 0 && (*into < 0 || value < *into))
            *into = value;
    };
    for (const auto &vm : vms_) {
        const VmStats &s = vm->stats();
        agg.minorFaults += s.minorFaults;
        agg.majorFaults += s.majorFaults;
        agg.swapIns += s.swapIns;
        agg.swapOuts += s.swapOuts;
        agg.conflicts += s.conflicts;
        agg.recoveredConflicts += s.recoveredConflicts;
        agg.ghostEvictions += s.ghostEvictions;
        agg.ghostRescues += s.ghostRescues;
        min_gauge(&agg.firstConflictUtilization,
                  s.firstConflictUtilization);
        min_gauge(&agg.firstSwapOutUtilization,
                  s.firstSwapOutUtilization);
        agg.steadyUtilization.merge(s.steadyUtilization);
    }
    aggStats_ = agg;
    return aggStats_;
}

} // namespace mosaic
