/**
 * @file
 * The sharded multi-tenant VM engine (DESIGN.md §17): one simulated
 * machine whose iceberg frame pool and Horizon LRU are partitioned
 * into N independent shards, each a full MosaicVm over a
 * bucket-aligned slice of the global pool with its own free bitmap,
 * horizon clock, and ghost list.
 *
 * Routing. ASIDs are hash-routed to a home shard with a Lemire
 * multiply-shift (shardRoute); every page of an ASID lives in its
 * home shard unless a forwarding entry says otherwise. Forwarding
 * entries are created by work stealing (per page, PageIdHash mode)
 * and by cross-shard sharing (per ToC, LocationId mode); page
 * entries die with the page's unmap, ToC entries are sticky.
 *
 * Work stealing (PageIdHash). When a touch faults at a shard whose
 * free list has run dry and placement would hard-conflict — and the
 * page has no swap copy to honor at home — the page is placed at the
 * donor shard with the most free frames instead, and a forwarding
 * entry pins all later touches, evictions, and the final unmap of
 * the page to the donor. A donor that cannot place the page (or the
 * absence of any donor with free frames) falls back to the ordinary
 * local conflict path, so paper conflict metrics only improve via
 * frames that actually exist elsewhere.
 *
 * Cross-shard sharing (LocationId). shareRange posts one adoption
 * message per mosaic-page chunk to the mailbox of the shard owning
 * the source ToC; mailboxes are drained in shard order, executing
 * the scalar shareRange at the owner, and the destination ToC is
 * forwarded to the owner so both sides of the share resolve there.
 *
 * Determinism contract: for a fixed shard count, every outcome
 * (placements, stats, digests) is bit-identical for any
 * MOSAIC_THREADS value — the parallel batch phase touches only
 * shard-local state and the steal/adopt steps run serially. With
 * shards=1 the engine is a pure delegate: stat-for-stat and
 * placement-for-placement identical to a plain MosaicVm built from
 * the same config.
 */

#ifndef MOSAIC_OS_SHARDED_VM_HH_
#define MOSAIC_OS_SHARDED_VM_HH_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "mem/shard_view.hh"
#include "os/mosaic_vm.hh"
#include "os/virtual_memory.hh"
#include "util/flat_map.hh"

namespace mosaic
{

/** Configuration of a ShardedMosaicVm. */
struct ShardedVmConfig
{
    /** The whole machine's config; geometry covers the full pool
     *  (all shards together). With shards == 1 this is byte-for-byte
     *  the config of the single delegate MosaicVm. */
    MosaicVmConfig base;

    /** Number of shards; the pool must split evenly into valid
     *  per-shard geometries. */
    std::size_t shards = 1;
};

/** Cross-shard protocol counters (telemetry and tests). */
struct ShardCounters
{
    /** Pages placed at a donor shard by work-stealing reclaim. */
    std::uint64_t steals = 0;

    /** Adoption messages posted to shard mailboxes. */
    std::uint64_t msgsPosted = 0;

    /** Adoption messages executed at their owner shard. */
    std::uint64_t msgsDrained = 0;

    /** Adoptions that forwarded a destination ToC off its home. */
    std::uint64_t crossShardAdoptions = 0;

    /** Batch ops deferred past the parallel phase because a shard
     *  hit its steal gate mid-block. */
    std::uint64_t deferredBatchOps = 0;
};

/**
 * N MosaicVm shards presented as one machine-wide VirtualMemory.
 * Returned PFNs are global: shard * framesPerShard + local.
 */
class ShardedMosaicVm : public VirtualMemory
{
  public:
    explicit ShardedMosaicVm(const ShardedVmConfig &config);

    /**
     * The config shard @p shard runs with: the base config over the
     * shard's pool slice. Shard 0 keeps the base seed verbatim (the
     * shards=1 identity), later shards get an independent mixed
     * stream. Exposed so differential mirrors build bit-identical
     * shard VMs.
     */
    static MosaicVmConfig shardConfig(const ShardedVmConfig &config,
                                      std::size_t shard);

    Pfn touch(Asid asid, Vpn vpn, bool write) override;

    /**
     * Batched touch across shards. The block is partitioned by
     * routed shard; each shard applies its ops in order across
     * MOSAIC_THREADS workers in one MosaicVm::touchBatchUntilSteal
     * call, which stops at the first op that would steal; stopped
     * ops are applied serially, in ascending block order, after the
     * parallel phase. Results are bit-identical to a scalar touch()
     * loop whenever no steal engages (always with shards=1, where
     * this delegates to MosaicVm::touchBatch), and bit-identical
     * across thread counts unconditionally.
     */
    void touchBatch(std::span<const PageTouch> block, Pfn *out) override;

    std::size_t numFrames() const override;
    std::size_t residentPages() const override;

    /** Machine-wide stats: counters summed over shards, the first-*
     *  utilization gauges the minimum over shards that recorded one,
     *  steady-state utilization merged (verbatim with one shard). */
    const VmStats &stats() const override;

    std::string name() const override { return "sharded-mosaic"; }

    /** unmapRange, routed: the range is split into per-shard runs
     *  (per page in PageIdHash mode, per ToC in LocationId mode);
     *  page forwarding entries in the range die with it. */
    void unmapRange(Asid asid, Vpn vpn, std::size_t npages);

    /** shareRange via the adoption-message protocol (class docs). */
    void shareRange(Asid src_asid, Vpn src_vpn, Asid dst_asid,
                    Vpn dst_vpn, std::size_t npages);

    /** Route-aware binding probe: does the shard owning (asid, vpn)'s
     *  ToC hold a location-ID binding for it? */
    bool hasLocationBinding(Asid asid, Vpn vpn) const;

    std::size_t numShards() const { return vms_.size(); }
    const PoolPartition &partition() const { return part_; }
    const ShardCounters &counters() const { return counters_; }

    /** Home shard of an ASID (Lemire multiply-shift). */
    std::size_t
    homeShard(Asid asid) const
    {
        return shardRoute(asid, static_cast<std::uint32_t>(vms_.size()));
    }

    /** Forward-aware shard of one page (PageIdHash) or of the ToC
     *  containing it (LocationId). */
    std::size_t routeOf(Asid asid, Vpn vpn) const;

    MosaicVm &shard(std::size_t s) { return *vms_[s]; }
    const MosaicVm &shard(std::size_t s) const { return *vms_[s]; }

    /** Ghost pages summed over shards. */
    std::size_t ghostPages() const;

    /** Location-ID bindings summed over shards. */
    std::size_t locationBindings() const;

    /** ToC entries across all shards' location-ID user lists. */
    std::size_t locationUsers() const;

    /** Live forwarding entries (pages + ToCs). */
    std::size_t forwardEntries() const { return forward_.size(); }

    /** Visit (asid, count) for every ASID with forwarding entries,
     *  from the per-ASID counts routeOf consults (the shard oracle
     *  recounts them from forEachForward). */
    template <typename Fn>
    void
    forEachForwardCount(Fn &&fn) const
    {
        for (std::size_t a = 0; a < forwardsOf_.size(); ++a) {
            if (forwardsOf_[a] != 0)
                fn(static_cast<Asid>(a), forwardsOf_[a]);
        }
    }

    /** Visit every forwarding entry as (key, target shard); page
     *  keys are packPageId values, ToC keys (asid << 48) | mvpn —
     *  the two spaces never coexist (they are mode-exclusive). */
    template <typename Fn>
    void
    forEachForward(Fn &&fn) const
    {
        for (const auto &[key, target] : forward_)
            fn(key, target);
    }

  private:
    /** One queued cross-shard adoption (one mosaic-page chunk). */
    struct AdoptMsg
    {
        Asid srcAsid = 0;
        Vpn srcVpn = 0;
        Asid dstAsid = 0;
        Vpn dstVpn = 0;
    };

    static std::uint64_t
    tocKeyOf(Asid asid, Vpn vpn, unsigned log2_arity)
    {
        return (std::uint64_t{asid} << 48) | (vpn >> log2_arity);
    }

    /** The scalar touch path: route, maybe steal, touch the shard. */
    Pfn touchOne(Asid asid, Vpn vpn, bool write);

    /** Point @p key (an entry of @p asid) at shard @p target. */
    void setForward(std::uint64_t key, Asid asid, std::size_t target);

    /** Drop @p key's forwarding entry (of @p asid), if any. */
    void eraseForward(std::uint64_t key, Asid asid);

    /** The donor for a steal: most free frames (ties to the lowest
     *  index), able to place the page; nullopt when no shard
     *  qualifies. */
    std::optional<std::size_t> pickDonor(std::size_t home, Asid asid,
                                         Vpn vpn) const;

    ShardedVmConfig config_;
    PoolPartition part_;
    std::vector<std::unique_ptr<MosaicVm>> vms_;
    bool locMode_ = false;
    unsigned log2Arity_ = 0;

    /** Work stealing engages only with >1 shard in PageIdHash mode
     *  under a policy whose full pool can hard-conflict (ShrunkenCache
     *  pre-evicts below capacity and never runs dry). */
    bool stealEnabled_ = false;

    /** Pages (packPageId) or ToCs ((asid << 48) | mvpn) living away
     *  from their ASID's home shard. */
    FlatMap<std::uint64_t, std::uint32_t> forward_;

    /** forward_'s keys per ASID, sized to the largest ASID that ever
     *  had one: routeOf skips the probe for ASIDs at zero. */
    std::vector<std::uint32_t> forwardsOf_;

    /** Per-shard adoption mailboxes; drained before shareRange
     *  returns, so they are empty between public calls. */
    std::vector<std::vector<AdoptMsg>> mailboxes_;

    ShardCounters counters_;

    /** Aggregate rebuilt on demand by stats(). */
    mutable VmStats aggStats_;

    /** touchBatch scratch, per shard: its ops' block indices, the
     *  ops themselves and their local PFNs. */
    std::vector<std::vector<std::uint32_t>> batchIdx_;
    std::vector<std::vector<PageTouch>> batchOps_;
    std::vector<std::vector<Pfn>> batchOut_;
};

} // namespace mosaic

#endif // MOSAIC_OS_SHARDED_VM_HH_
