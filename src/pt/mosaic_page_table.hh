/**
 * @file
 * The mosaic page table (paper §3.1, Figure 5): a radix tree whose
 * leaves map MVPNs to tables of contents (ToCs) — one CPFN per base
 * page of the mosaic page — instead of full PFNs.
 */

#ifndef MOSAIC_PT_MOSAIC_PAGE_TABLE_HH_
#define MOSAIC_PT_MOSAIC_PAGE_TABLE_HH_

#include <array>
#include <cstdint>
#include <span>

#include "pt/radix_tree.hh"
#include "tlb/mosaic_tlb.hh"
#include "util/types.hh"

namespace mosaic
{

/** The leaf payload: a mosaic page's table of contents. */
struct Toc
{
    /** One CPFN per sub-page; slots beyond the arity are unused.
     *  Initialized lazily by MosaicPageTable to the unmapped code. */
    std::array<Cpfn, maxArity> cpfns{};

    /** True once cpfns has been initialized to the unmapped code. */
    bool initialized = false;
};

/** Result of a mosaic page-table walk. */
struct MosaicWalkResult
{
    /** The full ToC of the mosaic page; empty when no leaf exists. */
    std::span<const Cpfn> toc;

    /** CPFN of the requested page (== unmapped code if absent). */
    Cpfn cpfn = 0;

    /** True when the requested page has a valid CPFN. */
    bool present = false;

    /** Page-table node visits the walk performed. */
    unsigned memRefs = 0;
};

/** Per-process mosaic page table. */
class MosaicPageTable
{
  public:
    /**
     * @param arity sub-pages per mosaic page (power of two, <= 64).
     * @param unmapped_code the CPFN codec's invalid sentinel.
     */
    MosaicPageTable(unsigned arity, Cpfn unmapped_code);

    unsigned arity() const { return arity_; }
    Cpfn unmappedCode() const { return unmapped_; }

    Mvpn mvpnOf(Vpn vpn) const { return vpn >> log2Arity_; }
    unsigned offsetOf(Vpn vpn) const { return vpn & (arity_ - 1); }

    /** Set the CPFN of one base page. */
    void setCpfn(Vpn vpn, Cpfn cpfn);

    /** Clear the CPFN of one base page (marks it unmapped). */
    void clearCpfn(Vpn vpn);

    /** Walk for a VPN; also yields the whole ToC for TLB fill. */
    MosaicWalkResult walk(Vpn vpn) const;

    /**
     * The leaf walk(vpn) reads, located without reading it so that a
     * pipeline can prefetch it before cpfnIn() reads it: nullptr when
     * no leaf node exists yet. Never creates nodes. A leaf keeps its
     * address for the table's lifetime.
     */
    const Toc *findLeaf(Vpn vpn) const { return tree_.find(mvpnOf(vpn)); }

    /** The CPFN walk(vpn) yields, read from findLeaf(vpn)'s result. */
    Cpfn
    cpfnIn(const Toc *leaf, Vpn vpn) const
    {
        return leaf && leaf->initialized ? leaf->cpfns[offsetOf(vpn)]
                                         : unmapped_;
    }

    /** Number of base pages currently mapped. */
    std::uint64_t mappedPages() const { return mapped_; }

  private:
    Toc &leafFor(Vpn vpn, unsigned *refs = nullptr);

    RadixTree<Toc> tree_;
    unsigned arity_;
    unsigned log2Arity_;
    Cpfn unmapped_;
    std::uint64_t mapped_ = 0;
};

} // namespace mosaic

#endif // MOSAIC_PT_MOSAIC_PAGE_TABLE_HH_
