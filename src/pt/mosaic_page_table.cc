#include "pt/mosaic_page_table.hh"

#include "mem/geometry.hh"

namespace mosaic
{

MosaicPageTable::MosaicPageTable(unsigned arity, Cpfn unmapped_code)
    : tree_(vpnBits - ceilLog2(arity), arity, unmapped_code),
      arity_(arity),
      log2Arity_(ceilLog2(arity)),
      unmapped_(unmapped_code)
{
    ensure(arity >= 1 && arity <= maxArity, "mosaic_pt: arity range");
    ensure((arity & (arity - 1)) == 0, "mosaic_pt: arity power of two");
}

void
MosaicPageTable::setCpfn(Vpn vpn, Cpfn cpfn)
{
    Cpfn &slot = (&tree_.getOrCreate(mvpnOf(vpn)))[offsetOf(vpn)];
    if (slot == unmapped_ && cpfn != unmapped_)
        ++mapped_;
    else if (slot != unmapped_ && cpfn == unmapped_)
        --mapped_;
    slot = cpfn;
}

void
MosaicPageTable::clearCpfn(Vpn vpn)
{
    setCpfn(vpn, unmapped_);
}

MosaicWalkResult
MosaicPageTable::walk(Vpn vpn) const
{
    MosaicWalkResult out;
    const Mvpn mvpn = mvpnOf(vpn);
    const Cpfn *toc = tree_.find(mvpn, &out.memRefs);
    out.cpfn = toc ? toc[offsetOf(vpn)] : unmapped_;
    out.present = out.cpfn != unmapped_;
    // Only setCpfn stores a mapped code, so a present page's ToC was
    // written; the written bit is read only to tell a cleared ToC
    // from one never written.
    if (out.present || (toc && tree_.written(mvpn, toc)))
        out.toc = std::span<const Cpfn>(toc, arity_);
    return out;
}

} // namespace mosaic
