#include "core/translation_sim.hh"

#include <algorithm>

#include "tlb/base_designs.hh"
#include "tlb/design_registry.hh"
#include "util/log.hh"

namespace mosaic
{

namespace
{

/** TLB tag used for kernel mappings: they behave like x86 global
 *  pages, shared by every process. */
constexpr Asid kernelAsid = 0;

} // namespace

TranslationSim::TranslationSim(const TranslationSimConfig &config)
    : config_(config),
      allocator_(config.memory),
      frames_(config.memory.numFrames),
      walker_(allocator_.mapper().codec().invalid()),
      kernelBase_(Addr{1} << 40),
      kernelRng_(config.seed ^ 0x4B45524Eull),
      activeAsid_(config.asid)
{
    ensure(!config_.arities.empty(), "sim: need at least one arity");

    buildGrid(data_);
    if (config_.instr.enabled)
        buildGrid(itlb_);

    if (config_.vmShards > 0) {
        // Round the pool up so it splits into bucket-aligned shard
        // slices; ample-memory experiments only grow, never shrink.
        ShardedVmConfig vcfg;
        vcfg.base.geometry = config_.memory;
        const std::size_t align =
            config_.vmShards * config_.memory.slotsPerBucket();
        vcfg.base.geometry.numFrames =
            (config_.memory.numFrames + align - 1) / align * align;
        vcfg.base.arity = config_.arities.front();
        vcfg.base.seed = config_.seed;
        vcfg.shards = config_.vmShards;
        shardedVm_ = std::make_unique<ShardedMosaicVm>(vcfg);
    }

    DesignParams defaults;
    defaults.geometry =
        TlbGeometry{config_.tlbEntries, config_.designWays};
    for (const std::string &spec : config_.designSpecs) {
        Result<std::unique_ptr<TranslationDesign>> design =
            makeTranslationDesign(spec, defaults);
        if (!design.ok())
            fatal("translation_sim: " + design.status().toString());
        data_.designs.push_back(std::move(design.value()));
    }
    setActiveAsid(config_.asid);
}

void
TranslationSim::buildGrid(DesignList &list) const
{
    for (const unsigned ways : config_.waysList) {
        auto design = std::make_unique<VanillaDesign>(
            TlbGeometry{config_.tlbEntries, ways});
        list.gridStats.push_back(&design->mutableStats());
        list.designs.push_back(std::move(design));
    }
    for (const unsigned ways : config_.waysList) {
        for (const unsigned arity : config_.arities) {
            auto design = std::make_unique<MosaicDesign>(
                TlbGeometry{config_.tlbEntries, ways}, arity);
            list.gridStats.push_back(&design->mutableStats());
            list.designs.push_back(std::move(design));
        }
    }
}

std::size_t
TranslationSim::mosaicIndex(std::size_t ways_idx,
                            std::size_t arity_idx) const
{
    ensure(ways_idx < numWays() && arity_idx < numArities(),
           "sim: grid index out of range");
    return numWays() + ways_idx * numArities() + arity_idx;
}

void
TranslationSim::setActiveAsid(Asid asid)
{
    activeAsid_ = asid;
    active_ = &spaceFor(asid);
    data_.lastVpn = invalidVpn;
    itlb_.lastVpn = invalidVpn;
}

TranslationSim::AddressSpace &
TranslationSim::spaceFor(Asid asid)
{
    auto [space, inserted] = spaces_.emplace(asid);
    if (inserted)
        space = std::make_unique<AddressSpace>(walker_.unmappedCode());
    return *space;
}

std::optional<Pfn>
TranslationSim::Walker::pfnOf(Asid asid, Vpn vpn)
{
    ensure(asid == asid_, "sim walker: not the active address space");
    if (vpn == vpn_)
        return pfn_;
    const VanillaWalkResult walk = space_->vanilla.walk(vpn);
    if (!walk.present)
        return std::nullopt;
    return walk.pfn;
}

void
TranslationSim::Walker::tocOf(Asid asid, Vpn vpn, unsigned arity,
                              std::span<Cpfn> out)
{
    ensure(asid == asid_, "sim walker: not the active address space");
    const Cpfn *leaf;
    if ((vpn ^ vpn_) < maxArity) {
        // The current reference's 64-page group: one leaf lookup
        // serves every design and arity.
        if (leaf_ == nullptr)
            leaf_ = space_->mosaic.findLeaf(vpn_);
        leaf = leaf_;
    } else {
        leaf = space_->mosaic.findLeaf(vpn);
    }
    if (leaf == nullptr) {
        std::fill(out.begin(), out.end(), unmapped_);
        return;
    }
    const unsigned first = static_cast<unsigned>(vpn % maxArity) &
                           ~(arity - 1);
    std::copy_n(leaf + first, arity, out.begin());
}

const TlbStats &
TranslationSim::vanillaStats(std::size_t ways_idx) const
{
    ensure(ways_idx < numWays(), "sim: grid index out of range");
    return data_.designs[ways_idx]->stats();
}

const TlbStats &
TranslationSim::mosaicStats(std::size_t ways_idx,
                            std::size_t arity_idx) const
{
    return data_.designs[mosaicIndex(ways_idx, arity_idx)]->stats();
}

const TlbStats &
TranslationSim::itlbVanillaStats(std::size_t ways_idx) const
{
    ensure(ways_idx < numWays(), "sim: grid index out of range");
    return itlb_.designs.at(ways_idx)->stats();
}

const TlbStats &
TranslationSim::itlbMosaicStats(std::size_t ways_idx,
                                std::size_t arity_idx) const
{
    return itlb_.designs.at(mosaicIndex(ways_idx, arity_idx))->stats();
}

Pfn
TranslationSim::vanillaPfnOf(Vpn vpn) const
{
    const VanillaWalkResult walk = active_->vanilla.walk(vpn);
    return walk.present ? walk.pfn : invalidPfn;
}

Pfn
TranslationSim::mosaicPfnOf(Vpn vpn) const
{
    const MosaicWalkResult walk = active_->mosaic.walk(vpn);
    if (!walk.present)
        return invalidPfn;
    return allocator_.mapper().pfnOf(
        packPageId(PageId{activeAsid_, vpn}), walk.cpfn);
}

Pfn
TranslationSim::ensureMapped(Vpn vpn)
{
    const VanillaWalkResult walk = active_->vanilla.walk(vpn);
    if (walk.present)
        return walk.pfn;

    // Vanilla side: bump allocation of a fresh frame.
    const Pfn pfn = vanillaNextPfn_++;
    active_->vanilla.map(vpn, pfn);

    // Mosaic side: iceberg placement. Memory is sized well below the
    // conflict regime for this experiment, so a conflict means the
    // harness configured too little memory.
    ++clock_;
    const CandidateSet cand = allocator_.mapper().candidates(
        PageId{activeAsid_, vpn});
    const std::optional<Placement> placement =
        allocator_.place(cand, frames_);
    if (!placement) {
        fatal("translation_sim: mosaic memory too small for workload "
              "(associativity conflict during demand mapping)");
    }
    frames_.map(placement->pfn, PageId{activeAsid_, vpn}, clock_);
    active_->mosaic.setCpfn(vpn, placement->cpfn);
    ++mappedPages_;
    return pfn;
}

void
TranslationSim::translate(DesignList &list, Vpn vpn)
{
    // The repeat rule (DESIGN.md §14.3). The last reference left this
    // page's entry valid and most recently used in its set in every
    // grid TLB: it hit that entry or filled it with the page
    // ensureMapped had just mapped. A hit on it would only refresh
    // its recency, so two counters are all that changes.
    std::size_t first = 0;
    if (vpn == list.lastVpn) {
        for (TlbStats *stats : list.gridStats) {
            ++stats->accesses;
            ++stats->hits;
        }
        first = list.gridStats.size();
    } else {
        list.lastVpn = vpn;
        list.lastPfn = ensureMapped(vpn);
    }
    walker_.setCurrent(*active_, activeAsid_, vpn, list.lastPfn);
    for (std::size_t d = first; d < list.designs.size(); ++d)
        list.designs[d]->access(activeAsid_, vpn, walker_);
}

void
TranslationSim::instructionFetch()
{
    const InstrConfig &i = config_.instr;
    std::uint64_t offset;
    if (instrRng_.chance(i.hotFraction))
        offset = instrRng_.below(i.hotBytes);
    else
        offset = instrRng_.below(i.codeBytes);
    translate(itlb_, vpnOf(codeBase_ + offset));
}

void
TranslationSim::kernelAccess()
{
    const KernelConfig &k = config_.kernel;
    std::uint64_t offset;
    if (kernelRng_.chance(k.hotFraction))
        offset = kernelRng_.below(k.hotBytes);
    else
        offset = kernelRng_.below(k.regionBytes);
    ++accesses_;
    const Vpn vpn = vpnOf(kernelBase_ + offset);

    // Vanilla maps the kernel with 2 MiB pages; each mosaic TLB
    // caches kernel pages as conventional full entries. Kernel
    // mappings are global: one ASID tag shared by everyone. Only the
    // grid sees them (DESIGN.md §14.3), and the next data reference
    // cannot count as a repeat.
    data_.lastVpn = invalidVpn;
    if (kernel_ == nullptr)
        kernel_ = &spaceFor(kernelAsid);
    VanillaWalkResult walk = kernel_->vanilla.walk(vpn);
    if (!walk.present) {
        // Allocate a 512-frame-aligned huge region lazily.
        vanillaNextPfn_ = (vanillaNextPfn_ + 511) & ~Pfn{511};
        kernel_->vanilla.mapHuge(vpn, vanillaNextPfn_);
        vanillaNextPfn_ += 512;
        walk = kernel_->vanilla.walk(vpn);
    }
    for (std::size_t d = 0; d < data_.gridStats.size(); ++d)
        data_.designs[d]->accessHuge(kernelAsid, vpn, walk.pfn);
}

void
TranslationSim::accessBatch(std::span<const MemRef> block)
{
    // Every design probes the same VPN per reference, so one
    // lookahead reference's sets are warmed across every design
    // while the current reference translates. The apply loop is the
    // scalar path itself: equivalence is by identical call sequence.
    constexpr std::size_t lookahead = 4;
    for (std::size_t i = 0; i < block.size(); ++i) {
        if (i + lookahead < block.size()) {
            const Vpn vpn = vpnOf(block[i + lookahead].vaddr);
            for (const auto &design : data_.designs)
                design->prefetchSets(vpn);
        }
        access(block[i].vaddr, block[i].write);
    }
}

void
TranslationSim::access(Addr vaddr, bool write)
{
    ++accesses_;
    translate(data_, vpnOf(vaddr));

    if (shardedVm_)
        shardedVm_->touch(activeAsid_, vpnOf(vaddr), write);

    if (config_.instr.enabled)
        instructionFetch();

    if (config_.kernel.accessEvery != 0 &&
            ++sinceKernel_ >= config_.kernel.accessEvery) {
        sinceKernel_ = 0;
        kernelAccess();
    }
}

} // namespace mosaic
