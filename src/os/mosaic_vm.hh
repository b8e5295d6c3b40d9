/**
 * @file
 * The mosaic virtual-memory subsystem: iceberg page allocation
 * (paper §2.3) plus Horizon LRU eviction with ghost pages (§2.4).
 *
 * Also implements the location-ID sharing extension sketched in
 * §2.5: in SharingMode::LocationId the placement hash input is a
 * per-ToC random identifier instead of (ASID, VPN), so the same ToC
 * — and therefore the same physical frames — can back mappings in
 * several address spaces.
 */

#ifndef MOSAIC_OS_MOSAIC_VM_HH_
#define MOSAIC_OS_MOSAIC_VM_HH_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "mem/frame_table.hh"
#include "mem/mosaic_allocator.hh"
#include "os/ghost_tracker.hh"
#include "os/lru_list.hh"
#include "os/swap_device.hh"
#include "os/translation_cache.hh"
#include "os/virtual_memory.hh"
#include "pt/mosaic_page_table.hh"
#include "util/flat_map.hh"
#include "util/random.hh"

namespace mosaic
{

/** How placement-hash inputs are derived (paper §2.2 vs §2.5). */
enum class SharingMode
{
    /** Hash (ASID, VPN): the paper's default; no page sharing. */
    PageIdHash,

    /** Hash (location ID, sub-page index): enables shared ToCs. */
    LocationId,
};

/**
 * Eviction policy (for the ablation study; the paper's design is
 * HorizonLru, §2.4).
 */
enum class EvictionPolicy
{
    /** Ghost pages below a rising horizon; the paper's algorithm. */
    HorizonLru,

    /** Naive: on a conflict, evict the LRU candidate. No ghosts.
     *  Lacks Horizon LRU's global-LRU equivalence. */
    LocalLru,

    /** Prior work (Bender et al. SPAA '21): run replacement as if
     *  memory were (1 - delta)p so conflicts "never" happen; evicts
     *  the global LRU page at the capacity cap, wasting delta*p
     *  frames. */
    ShrunkenCache,
};

/**
 * What MosaicVm::touch does when placement fails before declaring a
 * hard associativity conflict (DESIGN.md §11).
 */
enum class ConflictRecovery
{
    /** Escalate immediately: evict the LRU candidate. */
    None,

    /** Reap frames the horizon has already ghosted and retry the
     *  placement once; only an unrecovered failure escalates. A
     *  genuine conflict is deterministic (the retry fails exactly
     *  when the first attempt did), so this changes behaviour only
     *  when the first attempt failed transiently — e.g. under
     *  "vm.place" fault injection — and recoveries are counted in
     *  VmStats::recoveredConflicts. */
    GhostReclaimRetry,
};

/** Configuration of a MosaicVm instance. */
struct MosaicVmConfig
{
    MemoryGeometry geometry{};
    unsigned arity = 4;
    SharingMode sharing = SharingMode::PageIdHash;
    EvictionPolicy policy = EvictionPolicy::HorizonLru;

    /** Conflict-recovery policy consulted before a hard conflict. */
    ConflictRecovery recovery = ConflictRecovery::GhostReclaimRetry;

    /** Reserved fraction for ShrunkenCache (its delta). */
    double shrinkDelta = 0.02;

    /** Seed for location-ID generation. */
    std::uint64_t seed = 12345;

    /** Optional fault-injection state (DESIGN.md §11); must outlive
     *  the VM. Consulted at the "vm.place" site and attached to the
     *  swap device for "swap.read"/"swap.write"/"swap.latency". */
    fault::FaultInjector *faults = nullptr;
};

/** Mosaic paging: iceberg allocation + Horizon LRU. */
class MosaicVm : public VirtualMemory
{
  public:
    explicit MosaicVm(const MosaicVmConfig &config);

    Pfn touch(Asid asid, Vpn vpn, bool write) override;

    /**
     * Batched touch (DESIGN.md §13): runs the block through a rolling
     * software pipeline. A fixed distance ahead of the touch being
     * applied, it prefetches the page-table leaf, then walks and
     * resolves a present page with MosaicMapper::pfnOf (one hash
     * output) while prefetching its frame record and live-order node,
     * then prefetches that node's neighbours. Every touch is applied
     * in the caller's order with exactly scalar touch()'s effects, so
     * results, stats, and placements are bit-identical to a touch()
     * loop. A staged walk is trusted only if no fault was applied
     * between staging and applying it; otherwise the touch re-walks.
     * Only a fault builds the full candidate set. LocationId sharing
     * derives hash inputs statefully (binding creation draws the
     * RNG), so that mode — and trivial blocks — run the scalar loop
     * directly.
     */
    void touchBatch(std::span<const PageTouch> block, Pfn *out) override;

    /**
     * touchBatch behind the steal gate (DESIGN.md §17.3): applies the
     * block's touches in order, through the same pipeline, and stops
     * before the first one that would need a donor shard — a fault
     * on a dry pool, with no swap copy of the page, whose placement
     * hard-conflicts. Returns how many touches it applied; each had
     * exactly touch()'s effects, and a stopped touch changes no
     * mapping, frame or counter. The gate's placement is the one the
     * fault then uses. Requires PageIdHash sharing and a policy other
     * than ShrunkenCache (the configurations whose faults can
     * steal).
     */
    std::size_t touchBatchUntilSteal(std::span<const PageTouch> block,
                                     Pfn *out);

    std::size_t numFrames() const override;
    std::size_t residentPages() const override;
    const VmStats &stats() const override { return stats_; }
    std::string name() const override { return "mosaic"; }

    /** The page table of an address space (created on demand),
     *  read-only: only the VM changes mappings, which keeps its
     *  translation cache coherent. */
    const MosaicPageTable &pageTable(Asid asid) { return table(asid); }

    /** Frame-level metadata (for inspection and tests). */
    const FrameTable &frameTable() const { return frames_; }

    /** The placement machinery (for inspection and tests). */
    const MosaicAllocator &allocator() const { return allocator_; }

    /** Current Horizon LRU horizon timestamp. */
    Tick horizon() const { return horizon_; }

    /** Current logical time. */
    Tick now() const { return clock_; }

    /** True when the frame's page is a ghost (resident but logically
     *  evicted: last accessed before the horizon). */
    bool isGhostFrame(Pfn pfn) const;

    /** Resident pages that are ghosts. O(1): the count is maintained
     *  incrementally as the horizon moves and frames churn. */
    std::size_t ghostPages() const { return ghosts_.ghostCount(); }

    /** Swap-device counters (for telemetry and tests). */
    const SwapDevice &swapDevice() const { return swap_; }

    /** Placement-hash input of (asid, vpn) without creating a
     *  location-ID binding: nullopt when its ToC has no binding
     *  (LocationId mode only — such a ToC was never touched, so
     *  nothing can reference it). For inspection and tests. */
    std::optional<std::uint64_t> hashInputIfBound(Asid asid,
                                                  Vpn vpn) const;

    /** Live ToC -> location-ID bindings (LocationId mode; tests). */
    std::size_t locationBindings() const { return locationIds_.size(); }

    /** True when the ToC containing (asid, vpn) has a location-ID
     *  binding. Never creates tables or bindings, so callers (the
     *  sharded engine's share routing, the fuzz harnesses) can probe
     *  freely. Always false in PageIdHash mode. */
    bool
    hasLocationBinding(Asid asid, Vpn vpn) const
    {
        if (config_.sharing != SharingMode::LocationId)
            return false;
        const Mvpn mvpn = vpn >> ceilLog2(config_.arity);
        return locationIds_.contains(TocKey{asid, mvpn});
    }

    /** Total ToC entries across all location-ID user lists (tests).
     *  Equals locationBindings() when no ToCs are shared. */
    std::size_t
    locationUsers() const
    {
        std::size_t n = 0;
        for (const auto &[id, users] : locUsers_)
            n += users.size();
        return n;
    }

    /**
     * Release a range of pages (munmap): resident frames are freed
     * without writeback, swap copies are dropped, and the range can
     * be faulted in fresh afterwards.
     */
    void unmapRange(Asid asid, Vpn vpn, std::size_t npages);

    /**
     * Share the mosaic pages covering @p npages base pages starting
     * at (src_asid, src_vpn) into (dst_asid, dst_vpn). Requires
     * SharingMode::LocationId; both VPNs must be mosaic-aligned and
     * npages a multiple of the arity. After sharing, touches through
     * either mapping resolve to the same physical frames.
     */
    void shareRange(Asid src_asid, Vpn src_vpn, Asid dst_asid,
                    Vpn dst_vpn, std::size_t npages);

  private:
    struct TocKey
    {
        Asid asid = 0;
        Mvpn mvpn = 0;
        bool operator<(const TocKey &o) const
        {
            return asid != o.asid ? asid < o.asid : mvpn < o.mvpn;
        }
        bool operator==(const TocKey &o) const
        {
            return asid == o.asid && mvpn == o.mvpn;
        }
    };

    struct TocKeyHash
    {
        std::uint64_t operator()(const TocKey &k) const
        {
            // MVPNs are at most vpnBits - log2(arity) < 48 bits, so
            // the ASID occupies disjoint bits before mixing.
            return FlatHash<std::uint64_t>{}(
                (std::uint64_t(k.asid) << 48) ^ k.mvpn);
        }
    };

    /** A touch staged by touchBatch's pipeline ahead of its apply. */
    struct StagedTouch
    {
        /** The page's table; nullptr when its ASID has none. */
        const MosaicPageTable *table = nullptr;

        /** The page's ToC in it; nullptr when it has none. */
        const Cpfn *leaf = nullptr;

        /** The resolved frame; invalidPfn when the page is absent. */
        Pfn pfn = invalidPfn;

        /** Faults the batch had applied when the leaf was staged. */
        std::uint64_t faults = 0;
    };

    /** The page table of an address space, created on demand. The
     *  last (ASID, table) pair is kept: touches mostly repeat it. */
    MosaicPageTable &table(Asid asid);

    /** Hit bookkeeping for an access to resident frame @p pfn at the
     *  current clock: ghost rescue or live-order touch, frame
     *  timestamp and dirty bit, ShrunkenCache order. */
    void noteAccess(Pfn pfn, bool write);

    /** A touch of a page the walk found resident in @p pfn. */
    Pfn touchResident(Pfn pfn, bool write);

    /** A touch of a page the walk of @p pt (asid's table) found
     *  absent: sharer adoption or placement (with eviction) and
     *  swap-in. Always changes a page->frame mapping. @p placed is a
     *  placement the steal gate already computed for @p cand, if
     *  any. */
    Pfn touchFault(MosaicPageTable &pt, Asid asid, Vpn vpn, bool write,
                   std::uint64_t hash_input, const CandidateSet &cand,
                   std::optional<Placement> placed);

    /** touch(), or behind the steal gate when @p gated: then
     *  invalidPfn, and no touch, for a touch the gate stops. */
    Pfn touchScalar(Asid asid, Vpn vpn, bool write, bool gated);

    /** The pipeline both batched entries run; stops at the steal
     *  gate when @p gated. Returns the touches applied. */
    std::size_t applyBatch(std::span<const PageTouch> block, Pfn *out,
                           bool gated);

    /** The steal gate for a fault on @p hash_input: true when the
     *  pool is dry, no swap copy exists and placement over @p cand
     *  hard-conflicts. Otherwise @p placed receives the placement if
     *  the gate had to compute one. Reads only this VM's state. */
    bool wouldSteal(std::uint64_t hash_input, const CandidateSet &cand,
                    std::optional<Placement> &placed) const;

    /** Placement-hash input for one base page. */
    std::uint64_t hashInputFor(Asid asid, Vpn vpn);

    /** Drop the ToC's location-ID binding when no sub-page of it is
     *  resident or swapped out; no-op while any is still live. */
    void releaseBindingIfDead(const TocKey &key);

    /** Ghost/live bookkeeping for a frame about to be unmapped. */
    void noteFrameFreed(Pfn pfn);

    /** Move frames that fell below the horizon out of liveOrder_
     *  and into the ghost count. Amortized O(1) per ghosting. */
    void reapGhosts();

    /** Location ID of the ToC containing (asid, vpn), creating one
     *  if needed (LocationId mode only). */
    std::uint64_t locationIdFor(Asid asid, Vpn vpn);

    /** Evict the page in @p pfn: write to swap if needed, clear all
     *  page-table mappings of it, free the frame. */
    void evictFrame(Pfn pfn);

    /** Visit every (asid, vpn) mapping currently resolving to the
     *  frame (owner first, then sharers) without allocating — this
     *  runs on every eviction. @p fn must not mutate sharers_. */
    template <typename Fn>
    void
    forEachMapping(Pfn pfn, Fn &&fn) const
    {
        const Frame &f = frames_.frame(pfn);
        const std::pair<Asid, Vpn> owner{f.owner.asid, f.owner.vpn};
        fn(owner.first, owner.second);
        if (const auto *shared = sharers_.find(pfn)) {
            for (const auto &mapping : *shared) {
                if (mapping != owner)
                    fn(mapping.first, mapping.second);
            }
        }
    }

    MosaicVmConfig config_;
    MosaicAllocator allocator_;
    FrameTable frames_;
    SwapDevice swap_;
    VmStats stats_;
    Tick clock_ = 0;
    Tick horizon_ = 0;
    Rng rng_;

    /** ShrunkenCache: global LRU order and the live-page cap. */
    LruList globalLru_;
    std::size_t liveCap_;

    /** Live-order / ghost-count / ghost-bitmap bookkeeping for this
     *  VM's horizon clock (shared with the sharded engine's shards,
     *  DESIGN.md §17). */
    GhostTracker ghosts_;

    FlatMap<Asid, std::unique_ptr<MosaicPageTable>> tables_;

    /** table()'s last result. Tables are never destroyed, so the
     *  pointer stays valid; nullptr until the first lookup. */
    Asid lastAsid_ = 0;
    MosaicPageTable *lastTable_ = nullptr;

    /** Resident translations of touchScalar, filled after a walk
     *  finds the page present and invalidated wherever a mapping is
     *  cleared (evictFrame, unmapRange). */
    TranslationCache xlat_;

    /** LocationId mode: ToC -> location ID. */
    FlatMap<TocKey, std::uint64_t, TocKeyHash> locationIds_;

    /** LocationId mode: location ID -> ToCs bound to it. */
    FlatMap<std::uint64_t, std::vector<TocKey>> locUsers_;

    /** True once utilization first reached the steady-state band. */
    bool samplingSteadyState_ = false;

    /** LocationId mode: frame -> sharing mappings beyond the owner.
     *  Only frames referenced by shared ToCs appear here. */
    FlatMap<Pfn, std::vector<std::pair<Asid, Vpn>>> sharers_;
};

} // namespace mosaic

#endif // MOSAIC_OS_MOSAIC_VM_HH_
