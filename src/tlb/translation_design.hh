/**
 * @file
 * The pluggable translation-design interface (ROADMAP item 3,
 * DESIGN.md §14).
 *
 * A TranslationDesign is one complete "how does the core translate
 * addresses" proposal: a TLB organization plus its fill policy plus
 * any helpers (prefetchers, page-walk caches, range tracking). The
 * four paper variants (vanilla, mosaic, coalesced, perforated) and
 * the Virtuoso-patterned additions (stride prefetcher, two-level PWC,
 * range TLB) all sit behind this interface, so TranslationSim and the
 * bake-off bench can sweep them head-to-head without knowing any
 * variant's concrete API.
 *
 * Designs never walk page tables themselves; they ask the
 * TranslationWalker the simulator hands them. That keeps the modeled
 * walk cost explicit: every radix walk charges walkLevels() memory
 * references to DesignCounters::walkRefs, neighbour-PTE probes
 * (coalescing, hole detection, contiguity mining) charge one each,
 * and a page-walk cache *discounts* the levels it skips. The
 * resulting walkRefs total is the "modeled walk cost" column of the
 * bake-off.
 */

#ifndef MOSAIC_TLB_TRANSLATION_DESIGN_HH_
#define MOSAIC_TLB_TRANSLATION_DESIGN_HH_

#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "tlb/tlb_stats.hh"
#include "util/types.hh"

namespace mosaic
{

/**
 * The design's window onto the page tables. pfnOf models one radix
 * walk's outcome (the *caller* charges its cost); tocOf reads the
 * mosaic leaf's table of contents.
 */
class TranslationWalker
{
  public:
    virtual ~TranslationWalker() = default;

    /** Walk (asid, vpn); nullopt when the page is unmapped. */
    virtual std::optional<Pfn> pfnOf(Asid asid, Vpn vpn) = 0;

    /**
     * Read the ToC of the mosaic page (under @p arity) containing
     * @p vpn into @p out (size == arity); unmapped sub-pages read as
     * unmappedCode().
     */
    virtual void tocOf(Asid asid, Vpn vpn, unsigned arity,
                       std::span<Cpfn> out) = 0;

    /** The CPFN code meaning "unmapped" in tocOf output. */
    virtual Cpfn unmappedCode() const = 0;

    /** Radix levels per full walk (cost model; x86-64 default). */
    virtual unsigned walkLevels() const { return 4; }
};

/**
 * Walk-cost and helper-structure counters, kept separate from
 * TlbStats so the seven designs expose one uniform telemetry shape.
 * Leaf names mirror the field names verbatim (same contract as
 * TlbStats::forEachMetric).
 */
struct DesignCounters
{
    /** Modeled page-table memory references: walkLevels() per radix
     *  walk, +1 per neighbour-PTE probe, minus PWC discounts. */
    std::uint64_t walkRefs = 0;

    /** Page-walk-cache probes / hits (PWC designs only). */
    std::uint64_t pwcLookups = 0;
    std::uint64_t pwcHits = 0;

    /** Prefetches issued / that actually installed a translation
     *  (stride designs only). */
    std::uint64_t prefetchesIssued = 0;
    std::uint64_t prefetchFills = 0;

    /** Multi-page fills (coalesced groups, perforated regions,
     *  contiguity ranges). */
    std::uint64_t regionFills = 0;

    template <typename Fn>
    void
    forEachMetric(Fn &&fn) const
    {
        fn("walkRefs", walkRefs);
        fn("pwcLookups", pwcLookups);
        fn("pwcHits", pwcHits);
        fn("prefetchesIssued", prefetchesIssued);
        fn("prefetchFills", prefetchFills);
        fn("regionFills", regionFills);
    }
};

/** One pluggable translation design. */
class TranslationDesign
{
  public:
    explicit TranslationDesign(std::string name) : name_(std::move(name))
    {
    }

    virtual ~TranslationDesign() = default;

    TranslationDesign(const TranslationDesign &) = delete;
    TranslationDesign &operator=(const TranslationDesign &) = delete;

    /** Registry spec this design was built from (display key). */
    const std::string &name() const { return name_; }

    /**
     * Translate one reference: probe the TLB, and on a miss walk via
     * @p walker and install whatever the design's fill policy caches.
     * Returns true on a TLB hit.
     */
    virtual bool access(Asid asid, Vpn vpn, TranslationWalker &walker) = 0;

    /**
     * Translate one reference (asid, vpn) to a page the OS maps with
     * a 2 MiB page (the kernel image), given the 4 KiB frame the
     * caller's walk found; no walk cost is charged. Designs that
     * model how such a page is cached override this; the default
     * ignores the reference.
     */
    virtual void accessHuge(Asid, Vpn, Pfn) {}

    /** Would access() hit right now? No stats, no recency effects. */
    virtual bool contains(Asid asid, Vpn vpn) const = 0;

    /**
     * Prefetch one page: if it is not already covered, walk and
     * install it without touching TlbStats (the walk still charges
     * walkRefs — prefetching is not free). Returns true when a new
     * translation was installed. This is what lets a stride
     * prefetcher wrap *any* base design.
     */
    virtual bool prefetchFill(Asid asid, Vpn vpn,
                              TranslationWalker &walker) = 0;

    /** Drop the coverage of one 4 KiB page. */
    virtual void invalidatePage(Asid asid, Vpn vpn) = 0;

    /** Drop all state of an address space. */
    virtual void flushAsid(Asid asid) = 0;

    /** Hit/miss accounting of the underlying TLB array. */
    virtual const TlbStats &stats() const = 0;

    /** Walk-cost/helper counters; by value so wrappers can compose
     *  (a PWC design returns its base's counters minus the modeled
     *  discount). */
    virtual DesignCounters counters() const { return counters_; }

    /** 4 KiB pages translatable right now without a walk — the
     *  paper's "reach" metric, measured instead of assumed. */
    virtual std::uint64_t reachPages() const = 0;

    /** Valid entries in the underlying array (cross-checks). */
    virtual unsigned validEntries() const = 0;

    /** Warm the array lines access(vpn) will probe (batched pipeline
     *  hint). Default: nothing to warm. */
    virtual void prefetchSets(Vpn vpn) const { (void)vpn; }

  protected:
    DesignCounters counters_;

  private:
    std::string name_;
};

/**
 * Visit every metric a design exposes, TlbStats then DesignCounters
 * then reach, as (name, value) pairs — the bridge between designs and
 * telemetry::Registry (kept a free function because virtual templates
 * do not exist).
 */
template <typename Fn>
void
forEachDesignMetric(const TranslationDesign &design, Fn &&fn)
{
    design.stats().forEachMetric(fn);
    design.counters().forEachMetric(fn);
    fn("reachPages", design.reachPages());
    fn("validEntries", static_cast<std::uint64_t>(design.validEntries()));
}

} // namespace mosaic

#endif // MOSAIC_TLB_TRANSLATION_DESIGN_HH_
