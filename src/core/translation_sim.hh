/**
 * @file
 * The translation simulator behind Figure 6: every data reference of
 * a workload is fed simultaneously to a conventional TLB and to
 * mosaic TLBs of several arities — and, across the other sweep axis,
 * to instances of every associativity — mirroring the paper's gem5
 * model, which runs a vanilla and a mosaic TLB side by side on one
 * execution (§3.1). Every one of those TLBs is a registry design
 * (DESIGN.md §14) in one list, next to any designs a config names.
 *
 * Memory is ample in this experiment (no swapping); the simulator
 * performs demand mapping: the first touch of a page allocates a
 * frame on the vanilla side (bump allocation) and a mosaic placement
 * via the iceberg allocator, then installs both page-table entries.
 *
 * A configurable background "kernel" access stream models the
 * artifact the paper documents: the vanilla kernel is mapped with
 * 2 MiB huge pages, giving vanilla a small advantage, while in mosaic
 * mode each kernel page consumes a whole conventional TLB entry.
 */

#ifndef MOSAIC_CORE_TRANSLATION_SIM_HH_
#define MOSAIC_CORE_TRANSLATION_SIM_HH_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "mem/frame_table.hh"
#include "mem/mosaic_allocator.hh"
#include "os/sharded_vm.hh"
#include "pt/mosaic_page_table.hh"
#include "pt/vanilla_page_table.hh"
#include "tlb/translation_design.hh"
#include "util/flat_map.hh"
#include "util/random.hh"
#include "workloads/access_sink.hh"

namespace mosaic
{

/** Background kernel accesses (huge-mapped on the vanilla side). */
struct KernelConfig
{
    /** Zero disables the kernel stream. */
    unsigned accessEvery = 64;

    /** Size of the modeled kernel working region. */
    std::uint64_t regionBytes = std::uint64_t{64} << 20;

    /** Fraction of kernel accesses hitting the hot subset. */
    double hotFraction = 0.9;

    /** Size of the hot subset. */
    std::uint64_t hotBytes = std::uint64_t{1} << 20;
};

/**
 * Synthetic instruction-fetch stream for the ITLB (Table 1a models
 * a unified 1024-entry L1 ITLB). Fetches loop over a hot code
 * region with occasional excursions into cold library text; with
 * realistic code sizes the ITLB contribution is tiny, which is why
 * it is off by default and Figure 6 reports the data side.
 */
struct InstrConfig
{
    /** Emit one fetch translation per data access when true. */
    bool enabled = false;

    /** Total text segment modeled. */
    std::uint64_t codeBytes = std::uint64_t{2} << 20;

    /** Fraction of fetches staying in the hot loop region. */
    double hotFraction = 0.95;

    /** Size of the hot region. */
    std::uint64_t hotBytes = std::uint64_t{64} << 10;
};

/** Configuration of the dual-TLB sweep simulator. */
struct TranslationSimConfig
{
    /** Mosaic physical memory; must comfortably exceed the workload
     *  footprint (no swapping in this experiment). */
    MemoryGeometry memory{};

    /** Total TLB entries (Table 1a: 1024). */
    unsigned tlbEntries = 1024;

    /** TLB associativities of the vanilla × mosaic grid; tlbEntries
     *  = fully associative (paper: direct, 2, 4, 8, full). Empty =
     *  no grid, only designSpecs. */
    std::vector<unsigned> waysList{1, 2, 4, 8, 1024};

    /** Mosaic arities of the grid (paper: 4..64); the first is also
     *  the sharded VM's arity. */
    std::vector<unsigned> arities{4, 8, 16, 32, 64};

    KernelConfig kernel{};
    InstrConfig instr{};

    /**
     * Registry specs (DESIGN.md §14) of further translation designs,
     * listed after the grid: every *data* reference is fed to each
     * of them (the kernel and instruction streams reach the grid
     * only, so design stats compare workloads, not the huge-page
     * artifact). A bad spec is a configuration error (fatal).
     */
    std::vector<std::string> designSpecs;

    /** Default associativity for designSpecs entries that do not set
     *  'ways' explicitly (their entry count defaults to tlbEntries). */
    unsigned designWays = 8;

    /**
     * Shard count of the optional multi-tenant VM engine
     * (DESIGN.md §17) riding the data stream: 0 (default) = none,
     * k >= 1 = attach a ShardedMosaicVm with k shards whose pool is
     * `memory` rounded up to a splittable size, and touch it once
     * per data reference in the active ASID. Ride-along demand
     * paging only — the design results are unaffected, so existing
     * goldens hold at the default.
     */
    std::size_t vmShards = 0;

    Asid asid = 1;
    std::uint64_t seed = 7;
};

/**
 * Feeds one reference stream to every translation design: the
 * vanilla × mosaic grid of config.waysList × config.arities, then the
 * designs config.designSpecs names. All of them read one walker over
 * one vanilla and one mosaic page table per address space. A
 * reference to the page the same stream just translated is a hit in
 * every grid TLB and skips the grid altogether (the repeat rule,
 * DESIGN.md §14.3); the spec designs still see it.
 */
class TranslationSim : public AccessSink
{
  public:
    explicit TranslationSim(const TranslationSimConfig &config);

    /** One workload data reference (AccessSink). */
    void access(Addr vaddr, bool write) override;

    /**
     * Process a block of data references. Exactly equivalent to
     * calling access() per reference in order — the batch only adds
     * a prefetch stage that warms each reference's TLB set lines a
     * fixed lookahead ahead of the translate that consumes them.
     */
    void accessBatch(std::span<const MemRef> block);

    /**
     * Switch the address space subsequent accesses run in — a
     * context switch. TLB entries are ASID-tagged, so nothing is
     * flushed; translations of other processes simply stop hitting.
     */
    void setActiveAsid(Asid asid);

    Asid activeAsid() const { return activeAsid_; }

    std::size_t numWays() const { return config_.waysList.size(); }
    std::size_t numArities() const { return config_.arities.size(); }

    /**
     * Every data-stream design, in order: a VanillaDesign per ways,
     * then a MosaicDesign per (ways, arity), ways-major, then one per
     * config.designSpecs entry.
     */
    std::size_t numDesigns() const { return data_.designs.size(); }
    const TranslationDesign &
    design(std::size_t i) const
    {
        return *data_.designs.at(i);
    }

    /** Stats of the data grid's entries. */
    const TlbStats &vanillaStats(std::size_t ways_idx) const;
    const TlbStats &mosaicStats(std::size_t ways_idx,
                                std::size_t arity_idx) const;

    /** The same grid over the instruction stream; empty unless
     *  instr.enabled. */
    const TlbStats &itlbVanillaStats(std::size_t ways_idx) const;
    const TlbStats &itlbMosaicStats(std::size_t ways_idx,
                                    std::size_t arity_idx) const;

    /** Total references processed (workload + kernel). */
    std::uint64_t totalAccesses() const { return accesses_; }

    /** Workload pages demand-mapped so far. */
    std::uint64_t mappedPages() const { return mappedPages_; }

    /** PFN backing a page on the vanilla side; invalidPfn if the
     *  page was never touched. */
    Pfn vanillaPfnOf(Vpn vpn) const;

    /** PFN backing a page on the mosaic side; invalidPfn if the
     *  page was never touched. */
    Pfn mosaicPfnOf(Vpn vpn) const;

    /** Mosaic frame metadata, for consistency checks in tests. */
    const FrameTable &mosaicFrames() const { return frames_; }

    /** The sharded VM engine; nullptr unless config.vmShards > 0. */
    ShardedMosaicVm *shardedVm() { return shardedVm_.get(); }
    const ShardedMosaicVm *shardedVm() const { return shardedVm_.get(); }

  private:
    /**
     * The page tables of one address space. The mosaic table is
     * built at maxArity: the ToC of any arity a is the aligned
     * a-slice of its 64-wide ToC, so one table serves every arity.
     */
    struct AddressSpace
    {
        explicit AddressSpace(Cpfn unmapped) : mosaic(maxArity, unmapped) {}

        VanillaPageTable vanilla;
        MosaicPageTable mosaic;
    };

    /**
     * The designs' one window onto the page tables. It memoizes the
     * reference being translated: pfnOf of that page is the PFN
     * ensureMapped returned, and its mosaic leaf is found at most
     * once however many designs miss on it. Other pages (neighbour
     * probes, prefetch targets) walk the tables. Designs only run in
     * the active address space.
     */
    class Walker final : public TranslationWalker
    {
      public:
        explicit Walker(Cpfn unmapped) : unmapped_(unmapped) {}

        void
        setCurrent(AddressSpace &space, Asid asid, Vpn vpn, Pfn pfn)
        {
            space_ = &space;
            asid_ = asid;
            vpn_ = vpn;
            pfn_ = pfn;
            leaf_ = nullptr;
        }

        std::optional<Pfn> pfnOf(Asid asid, Vpn vpn) override;
        void tocOf(Asid asid, Vpn vpn, unsigned arity,
                   std::span<Cpfn> out) override;
        Cpfn unmappedCode() const override { return unmapped_; }

      private:
        AddressSpace *space_ = nullptr;
        Asid asid_ = 0;
        Vpn vpn_ = 0;
        Pfn pfn_ = invalidPfn;

        /** The current reference's 64-wide ToC; nullptr until a
         *  design first asks (it exists: the page is mapped). */
        const Cpfn *leaf_ = nullptr;
        Cpfn unmapped_;
    };

    /** One reference stream's designs, grid first, and the page the
     *  stream last translated (the repeat rule, DESIGN.md §14.3). */
    struct DesignList
    {
        std::vector<std::unique_ptr<TranslationDesign>> designs;

        /** Counters of designs[0, gridStats.size()), the grid. */
        std::vector<TlbStats *> gridStats;

        /** The page last translated and its vanilla PFN;
         *  invalidVpn when the next reference cannot repeat. */
        Vpn lastVpn = invalidVpn;
        Pfn lastPfn = invalidPfn;
    };

    /** Append the vanilla × mosaic grid to @p list. */
    void buildGrid(DesignList &list) const;

    /** Position of grid entry (ways_idx, arity_idx)'s MosaicDesign;
     *  ways_idx's VanillaDesign sits at ways_idx. */
    std::size_t mosaicIndex(std::size_t ways_idx,
                            std::size_t arity_idx) const;

    AddressSpace &spaceFor(Asid asid);

    /** Demand-map @p vpn in the active address space; returns its
     *  vanilla PFN. */
    Pfn ensureMapped(Vpn vpn);

    /** Map @p vpn and feed it to every design of @p list, or, on a
     *  repeat, count a hit in its grid and feed the rest. */
    void translate(DesignList &list, Vpn vpn);

    void kernelAccess();
    void instructionFetch();

    TranslationSimConfig config_;

    /** Data-stream designs, grid first. */
    DesignList data_;

    /** Instruction-stream designs: the grid alone. */
    DesignList itlb_;

    // One page-table pair per address space, behind unique_ptrs so
    // the cached active and kernel pointers survive a rehash.
    FlatMap<Asid, std::unique_ptr<AddressSpace>> spaces_;
    AddressSpace *active_ = nullptr;
    AddressSpace *kernel_ = nullptr;
    Pfn vanillaNextPfn_ = 0;

    // Mosaic placement.
    MosaicAllocator allocator_;
    FrameTable frames_;

    Walker walker_;

    /** Optional sharded multi-tenant VM engine fed the data stream. */
    std::unique_ptr<ShardedMosaicVm> shardedVm_;

    // Kernel stream state.
    Addr kernelBase_;
    Rng kernelRng_;
    unsigned sinceKernel_ = 0;

    // Instruction stream state.
    Addr codeBase_ = Addr{0x400000};
    Rng instrRng_{0xF37C4};

    Asid activeAsid_;
    std::uint64_t accesses_ = 0;
    std::uint64_t mappedPages_ = 0;
    Tick clock_ = 0;
};

} // namespace mosaic

#endif // MOSAIC_CORE_TRANSLATION_SIM_HH_
