#include "core/translation_sim.hh"

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
      kernelBase_(Addr{1} << 40),
      kernelRng_(config.seed ^ 0x4B45524Eull),
      activeAsid_(config.asid)
{
    ensure(!config_.waysList.empty(), "sim: need at least one ways value");
    ensure(!config_.arities.empty(), "sim: need at least one arity");

    for (const unsigned ways : config_.waysList) {
        const TlbGeometry g{config_.tlbEntries, ways};
        vanillaTlbs_.push_back(std::make_unique<VanillaTlb>(g));
        auto &row = mosaicTlbs_.emplace_back();
        for (const unsigned arity : config_.arities)
            row.push_back(std::make_unique<MosaicTlb>(g, arity));
        if (config_.instr.enabled) {
            itlbVanilla_.push_back(std::make_unique<VanillaTlb>(g));
            auto &irow = itlbMosaic_.emplace_back();
            for (const unsigned arity : config_.arities)
                irow.push_back(std::make_unique<MosaicTlb>(g, arity));
        }
    }

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
        designs_.push_back(std::move(design.value()));
    }
    setActiveAsid(config_.asid);
}

void
TranslationSim::setActiveAsid(Asid asid)
{
    activeAsid_ = asid;
    activeVanillaPt_ = &vanillaPtFor(asid);

    // The only insert into mosaicPts_: a new address space may rehash
    // it and move every set, so the cache is re-pointed here.
    auto [pts, inserted] = mosaicPts_.emplace(asid);
    if (inserted) {
        const Cpfn unmapped = allocator_.mapper().codec().invalid();
        for (const unsigned arity : config_.arities) {
            pts.push_back(
                std::make_unique<MosaicPageTable>(arity, unmapped));
        }
    }
    activePts_ = &pts;
}

std::optional<Pfn>
TranslationSim::DesignWalker::pfnOf(Asid asid, Vpn vpn)
{
    const VanillaWalkResult walk = sim_.vanillaPtFor(asid).walk(vpn);
    if (!walk.present)
        return std::nullopt;
    return walk.pfn;
}

void
TranslationSim::DesignWalker::tocOf(Asid asid, Vpn vpn, unsigned arity,
                                    std::span<Cpfn> out)
{
    const Cpfn unmapped = unmappedCode();
    const Vpn first = vpn & ~Vpn{arity - 1};
    for (unsigned i = 0; i < arity; ++i) {
        const Cpfn *cpfn =
            sim_.designCpfns_.find(packPageId(PageId{asid, first + i}));
        out[i] = cpfn != nullptr ? *cpfn : unmapped;
    }
}

Cpfn
TranslationSim::DesignWalker::unmappedCode() const
{
    return sim_.allocator_.mapper().codec().invalid();
}

VanillaPageTable &
TranslationSim::vanillaPtFor(Asid asid)
{
    auto [pt, inserted] = vanillaPts_.emplace(asid);
    if (inserted)
        pt = std::make_unique<VanillaPageTable>();
    return *pt;
}

const TlbStats &
TranslationSim::vanillaStats(std::size_t ways_idx) const
{
    return vanillaTlbs_.at(ways_idx)->stats();
}

const TlbStats &
TranslationSim::mosaicStats(std::size_t ways_idx,
                            std::size_t arity_idx) const
{
    return mosaicTlbs_.at(ways_idx).at(arity_idx)->stats();
}

const TlbStats &
TranslationSim::itlbVanillaStats(std::size_t ways_idx) const
{
    return itlbVanilla_.at(ways_idx)->stats();
}

const TlbStats &
TranslationSim::itlbMosaicStats(std::size_t ways_idx,
                                std::size_t arity_idx) const
{
    return itlbMosaic_.at(ways_idx).at(arity_idx)->stats();
}

Pfn
TranslationSim::vanillaPfnOf(Vpn vpn) const
{
    const VanillaWalkResult walk = activeVanillaPt_->walk(vpn);
    return walk.present ? walk.pfn : invalidPfn;
}

Pfn
TranslationSim::mosaicPfnOf(Vpn vpn) const
{
    const MosaicWalkResult walk = activePts_->front()->walk(vpn);
    if (!walk.present)
        return invalidPfn;
    const CandidateSet cand = allocator_.mapper().candidates(
        PageId{activeAsid_, vpn});
    return allocator_.mapper().toPfn(cand, walk.cpfn);
}

Pfn
TranslationSim::ensureMapped(Vpn vpn)
{
    const VanillaWalkResult walk = activeVanillaPt_->walk(vpn);
    if (walk.present)
        return walk.pfn;

    // Vanilla side: bump allocation of a fresh frame.
    const Pfn pfn = vanillaNextPfn_++;
    activeVanillaPt_->map(vpn, pfn);

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
    for (auto &pt : *activePts_)
        pt->setCpfn(vpn, placement->cpfn);
    if (!designs_.empty()) {
        auto [cpfn, inserted] =
            designCpfns_.emplace(packPageId(PageId{activeAsid_, vpn}));
        cpfn = placement->cpfn;
        (void)inserted;
    }
    ++mappedPages_;
    return pfn;
}

void
TranslationSim::fillMosaic(MosaicGrid &grid, Vpn vpn)
{
    const Asid asid = activeAsid_;
    const Cpfn unmapped = allocator_.mapper().codec().invalid();
    MosaicPtSet &pts = *activePts_;
    for (std::size_t a = 0; a < pts.size(); ++a) {
        bool walked = false;
        MosaicWalkResult walk;
        for (auto &row : grid) {
            MosaicTlb &tlb = *row[a];
            if (!tlb.lookup(asid, vpn)) {
                if (!walked) {
                    walk = pts[a]->walk(vpn);
                    walked = true;
                }
                tlb.fill(asid, vpn, walk.toc, unmapped);
            }
        }
    }
}

void
TranslationSim::translate(Vpn vpn, bool kernel)
{
    if (kernel) {
        // Vanilla maps the kernel with 2 MiB pages; each mosaic TLB
        // caches kernel pages as conventional full entries. Kernel
        // mappings are global: one ASID tag shared by everyone.
        if (kernelPt_ == nullptr)
            kernelPt_ = &vanillaPtFor(kernelAsid);
        VanillaWalkResult walk = kernelPt_->walk(vpn);
        if (!walk.present) {
            // Allocate a 512-frame-aligned huge region lazily.
            vanillaNextPfn_ = (vanillaNextPfn_ + 511) & ~Pfn{511};
            kernelPt_->mapHuge(vpn, vanillaNextPfn_);
            vanillaNextPfn_ += 512;
            walk = kernelPt_->walk(vpn);
        }
        for (auto &tlb : vanillaTlbs_) {
            if (!tlb->lookup(kernelAsid, vpn))
                tlb->fillHuge(kernelAsid, vpn, walk.pfn - (vpn & 0x1FF));
        }
        for (auto &row : mosaicTlbs_) {
            for (auto &tlb : row) {
                if (!tlb->lookupConventional(kernelAsid, vpn))
                    tlb->fillConventional(kernelAsid, vpn, walk.pfn);
            }
        }
        return;
    }

    const Asid asid = activeAsid_;
    const Pfn pfn = ensureMapped(vpn);
    for (auto &tlb : vanillaTlbs_) {
        if (!tlb->lookup(asid, vpn))
            tlb->fill(asid, vpn, pfn);
    }
    fillMosaic(mosaicTlbs_, vpn);

    for (auto &design : designs_)
        design->access(asid, vpn, designWalker_);
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
    const Vpn vpn = vpnOf(codeBase_ + offset);
    const Asid asid = activeAsid_;
    const Pfn pfn = ensureMapped(vpn);
    for (auto &tlb : itlbVanilla_) {
        if (!tlb->lookup(asid, vpn))
            tlb->fill(asid, vpn, pfn);
    }
    fillMosaic(itlbMosaic_, vpn);
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
    translate(vpnOf(kernelBase_ + offset), true);
}

void
TranslationSim::accessBatch(std::span<const MemRef> block)
{
    // The whole TLB grid probes the same VPN per reference, so one
    // lookahead reference's sets are warmed across every instance
    // while the current reference translates. The apply loop is the
    // scalar path itself: equivalence is by identical call sequence.
    constexpr std::size_t lookahead = 4;
    for (std::size_t i = 0; i < block.size(); ++i) {
        if (i + lookahead < block.size()) {
            const Vpn vpn = vpnOf(block[i + lookahead].vaddr);
            for (const auto &tlb : vanillaTlbs_)
                tlb->prefetchSets(vpn);
            for (const auto &row : mosaicTlbs_) {
                for (const auto &tlb : row)
                    tlb->prefetchSets(vpn);
            }
            for (const auto &design : designs_)
                design->prefetchSets(vpn);
        }
        access(block[i].vaddr, block[i].write);
    }
}

void
TranslationSim::access(Addr vaddr, bool write)
{
    ++accesses_;
    translate(vpnOf(vaddr), false);

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
