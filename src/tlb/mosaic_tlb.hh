/**
 * @file
 * The Mosaic TLB model (paper §2.1, §3.1).
 *
 * Entries are indexed by the mosaic virtual page number (MVPN = VPN
 * >> log2(arity)) and hold the table of contents (ToC): one CPFN per
 * base page of the mosaic page, each with its own valid bit (encoded
 * here as an absent sentinel). On a miss the walker returns the whole
 * ToC from the page-table leaf, so one fill covers up to `arity`
 * virtually contiguous pages — that is where the reach gain comes
 * from.
 *
 * Conventional mappings (the kernel, shared pages) coexist in the
 * same array, each consuming an entire entry, mirroring the paper's
 * gem5 model.
 */

#ifndef MOSAIC_TLB_MOSAIC_TLB_HH_
#define MOSAIC_TLB_MOSAIC_TLB_HH_

#include <array>
#include <optional>
#include <span>

#include "tlb/set_assoc.hh"
#include "tlb/tlb_stats.hh"
#include "util/types.hh"

namespace mosaic
{

/** Largest supported arity (CPFNs per TLB entry). */
constexpr unsigned maxArity = 64;

/** MVPN-indexed TLB storing compressed translations. */
class MosaicTlb
{
  public:
    /** Sentinel stored for "this sub-page has no cached CPFN". */
    static constexpr Cpfn absentCpfn = 0xFF;

    /**
     * @param geometry cache organization (entries/ways).
     * @param arity CPFNs per entry; a power of two in [1, 64].
     */
    MosaicTlb(const TlbGeometry &geometry, unsigned arity);

    unsigned arity() const { return arity_; }

    /** MVPN of a VPN under this TLB's arity. */
    Mvpn mvpnOf(Vpn vpn) const { return vpn >> log2Arity_; }

    /** Sub-page index of a VPN within its mosaic page. */
    unsigned offsetOf(Vpn vpn) const { return vpn & (arity_ - 1); }

    /**
     * Translate a (ASID, VPN). Returns the CPFN on a hit, nullopt on
     * a miss (including the sub-entry-absent case). Inline: every
     * mosaic design's access() starts here.
     */
    std::optional<Cpfn>
    lookup(Asid asid, Vpn vpn)
    {
        ++stats_.accesses;
        const Mvpn mvpn = mvpnOf(vpn);
        if (auto *e = array_.find(mvpn, tagMosaic(asid, mvpn))) {
            const Cpfn cpfn = e->payload.cpfns[offsetOf(vpn)];
            if (cpfn != absentCpfn) {
                ++stats_.hits;
                return cpfn;
            }
            // Entry present, sub-page absent: a miss that a sub-entry
            // fill can satisfy without an eviction. The fill itself is
            // counted in fill(), when (and if) it actually happens.
        }
        ++stats_.misses;
        return std::nullopt;
    }

    /**
     * Install the ToC of the mosaic page containing @p vpn after a
     * walk. @p toc holds `arity` codes; entries equal to
     * @p unmapped_code are stored as absent. A fill that finds the
     * entry already present is a sub-entry refill and is counted in
     * stats().subEntryFills (§3.1).
     */
    void fill(Asid asid, Vpn vpn, std::span<const Cpfn> toc,
              Cpfn unmapped_code);

    /**
     * Translate a conventional (uncompressed) mapping, e.g. kernel
     * pages. These share the array and consume a full entry each.
     */
    std::optional<Pfn> lookupConventional(Asid asid, Vpn vpn);

    /** Install a conventional translation. */
    void fillConventional(Asid asid, Vpn vpn, Pfn pfn);

    /** Warm the cache lines lookup(vpn) will scan. Pure performance
     *  hint; no stats, no state change. */
    void
    prefetchSets(Vpn vpn) const
    {
        array_.prefetchSet(mvpnOf(vpn));
    }

    /**
     * Invalidate the sub-entry of one base page; the rest of the
     * mosaic entry's ToC stays cached (paper §3.1).
     */
    void invalidateSub(Asid asid, Vpn vpn);

    /** Drop the entire entry of the mosaic page containing vpn. */
    void invalidateEntry(Asid asid, Vpn vpn);

    /** Drop all entries of an address space. */
    void flushAsid(Asid asid);

    /** Would lookup(asid, vpn) hit right now? No stats, no recency. */
    bool contains(Asid asid, Vpn vpn) const;

    /** 4 KiB pages translatable without a walk: present ToC slots
     *  plus one per conventional entry. */
    std::uint64_t reachPages() const;

    const TlbStats &stats() const { return stats_; }
    TlbStats &stats() { return stats_; }
    const TlbGeometry &geometry() const { return array_.geometry(); }

    /** Currently valid entries (oracle cross-checks). */
    unsigned validEntries() const { return array_.validEntries(); }

  private:
    struct Payload
    {
        Payload() { cpfns.fill(absentCpfn); }

        std::array<Cpfn, maxArity> cpfns;
        Pfn conventionalPfn = invalidPfn;
        bool conventional = false;
    };

    std::uint64_t
    tagMosaic(Asid asid, Mvpn mvpn) const
    {
        return (std::uint64_t{asid} << 40) | mvpn;
    }

    std::uint64_t
    tagConventional(Asid asid, Vpn vpn) const
    {
        return (std::uint64_t{1} << 63) | (std::uint64_t{asid} << 40) |
               vpn;
    }

    SetAssocArray<Payload> array_;
    TlbStats stats_;
    unsigned arity_;
    unsigned log2Arity_;
};

} // namespace mosaic

#endif // MOSAIC_TLB_MOSAIC_TLB_HH_
