/**
 * @file
 * A small direct-mapped software translation cache, (ASID, VPN) ->
 * PFN, that both VM models consult before walking a page table on a
 * scalar touch (DESIGN.md §12.3). Resident touches are highly local
 * (most hit one of the last few hundred pages touched), so a hit skips
 * the walk and, for MosaicVm, the placement hash.
 *
 * Coherence is the owner's job and is exact: the owner fills a slot
 * only with a translation it has just walked, and invalidates a key
 * at every site that removes that page's mapping. A page's PFN can
 * only change by being unmapped first, so no other mapping change
 * needs to touch the cache.
 */

#ifndef MOSAIC_OS_TRANSLATION_CACHE_HH_
#define MOSAIC_OS_TRANSLATION_CACHE_HH_

#include <array>
#include <cstddef>
#include <cstdint>

#include "util/types.hh"

namespace mosaic
{

/** 256 direct-mapped (ASID, VPN) -> PFN slots, 4 KiB. */
class TranslationCache
{
  public:
    static constexpr std::size_t slots = 256;

    /** The PFN cached for (asid, vpn), or invalidPfn on a miss. */
    Pfn
    lookup(Asid asid, Vpn vpn) const
    {
        const std::uint64_t key = keyOf(asid, vpn);
        const Slot &s = slots_[indexOf(key)];
        return s.key == key ? s.pfn : invalidPfn;
    }

    /** Cache a translation the caller has just walked. */
    void
    fill(Asid asid, Vpn vpn, Pfn pfn)
    {
        const std::uint64_t key = keyOf(asid, vpn);
        slots_[indexOf(key)] = Slot{key, pfn};
    }

    /** Forget (asid, vpn): its mapping is being removed. */
    void
    invalidate(Asid asid, Vpn vpn)
    {
        const std::uint64_t key = keyOf(asid, vpn);
        Slot &s = slots_[indexOf(key)];
        if (s.key == key)
            s = Slot{};
    }

  private:
    /** The identity the page tables and the swap device use: the
     *  ASID above the low vpnBits of the VPN (packPageId). */
    static std::uint64_t
    keyOf(Asid asid, Vpn vpn)
    {
        return packPageId(PageId{asid, vpn});
    }

    /** The low VPN bits, with the ASID folded in so that tenants
     *  touching the same VPNs spread over different slots. */
    static std::size_t
    indexOf(std::uint64_t key)
    {
        return (key ^ (key >> 48)) & (slots - 1);
    }

    struct Slot
    {
        /** No packPageId output sets bits vpnBits..47, so this key
         *  never matches a lookup. */
        std::uint64_t key = ~std::uint64_t{0};
        Pfn pfn = invalidPfn;
    };

    static_assert((slots & (slots - 1)) == 0);
    static_assert(vpnBits < 48);

    std::array<Slot, slots> slots_{};
};

} // namespace mosaic

#endif // MOSAIC_OS_TRANSLATION_CACHE_HH_
