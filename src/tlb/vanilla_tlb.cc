#include "tlb/vanilla_tlb.hh"

namespace mosaic
{

VanillaTlb::VanillaTlb(const TlbGeometry &geometry)
    : array_(geometry)
{
}

void
VanillaTlb::fill(Asid asid, Vpn vpn, Pfn pfn)
{
    bool evicted = false;
    auto &e = array_.allocate(vpn, tag4k(asid, vpn), &evicted);
    if (evicted)
        ++stats_.evictions;
    e.payload.pfn = pfn;
    e.payload.huge = false;
}

void
VanillaTlb::fillHuge(Asid asid, Vpn vpn, Pfn base_pfn)
{
    const Vpn huge_vpn = vpn >> 9;
    bool evicted = false;
    auto &e = array_.allocate(huge_vpn, tagHuge(asid, vpn), &evicted);
    if (evicted)
        ++stats_.evictions;
    e.payload.pfn = base_pfn;
    e.payload.huge = true;
}

void
VanillaTlb::invalidate(Asid asid, Vpn vpn)
{
    if (array_.invalidate(vpn, tag4k(asid, vpn)))
        ++stats_.invalidations;
}

void
VanillaTlb::flushAsid(Asid asid)
{
    const std::uint64_t asid_bits = std::uint64_t{asid} << 40;
    const std::uint64_t mask = std::uint64_t{0xFFFF} << 40;
    stats_.invalidations += array_.invalidateIf(
        [&](std::uint64_t tag, const Payload &) {
            return (tag & mask) == asid_bits;
        });
}

bool
VanillaTlb::contains(Asid asid, Vpn vpn) const
{
    return array_.peek(vpn, tag4k(asid, vpn)) ||
           array_.peek(vpn >> 9, tagHuge(asid, vpn));
}

std::uint64_t
VanillaTlb::reachPages() const
{
    std::uint64_t pages = 0;
    array_.forEachValid([&](std::uint64_t, const Payload &p) {
        pages += p.huge ? pagesPerHugePage : 1;
    });
    return pages;
}

} // namespace mosaic
