#include "os/linux_vm.hh"

#include <algorithm>

namespace mosaic
{

LinuxVm::LinuxVm(const LinuxVmConfig &config)
    : config_(config),
      free_(config.numFrames),
      frames_(config.numFrames),
      lru_(config.numFrames)
{
    reserve_ = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               static_cast<double>(config.numFrames) *
               config.watermarkFraction));
    swap_.setFaultInjector(config_.faults);
}

VanillaPageTable &
LinuxVm::table(Asid asid)
{
    auto it = tables_.find(asid);
    if (it == tables_.end())
        it = tables_.emplace(asid,
                             std::make_unique<VanillaPageTable>()).first;
    return *it->second;
}

void
LinuxVm::unmapRange(Asid asid, Vpn vpn, std::size_t npages)
{
    VanillaPageTable &pt = table(asid);
    for (std::size_t i = 0; i < npages; ++i) {
        const Vpn v = vpn + i;
        swap_.invalidate(packPageId(PageId{asid, v}));
        const VanillaWalkResult walk = pt.walk(v);
        if (!walk.present)
            continue;
        lru_.remove(walk.pfn);
        frames_.unmap(walk.pfn);
        free_.release(walk.pfn);
        pt.unmap(v);
        xlat_.invalidate(asid, v);
    }
}

void
LinuxVm::reclaim()
{
    for (unsigned i = 0; i < config_.reclaimBatch && !lru_.empty(); ++i) {
        const Pfn pfn = lru_.popFront();
        const Frame &f = frames_.frame(pfn);
        if (f.dirty) {
            swap_.writeOut(packPageId(f.owner));
            ++stats_.swapOuts;
            if (stats_.firstSwapOutUtilization < 0)
                stats_.firstSwapOutUtilization = frames_.utilization();
        }
        table(f.owner.asid).unmap(f.owner.vpn);
        xlat_.invalidate(f.owner.asid, f.owner.vpn);
        frames_.unmap(pfn);
        free_.release(pfn);
    }
}

Pfn
LinuxVm::touch(Asid asid, Vpn vpn, bool write)
{
    ++clock_;
    Pfn pfn = xlat_.lookup(asid, vpn);
    if (pfn == invalidPfn) {
        VanillaPageTable &pt = table(asid);
        const VanillaWalkResult walk = pt.walk(vpn);
        if (!walk.present)
            return touchFault(pt, asid, vpn, write);
        pfn = walk.pfn;
        xlat_.fill(asid, vpn, pfn);
    }
    frames_.touch(pfn, clock_, write);
    lru_.touch(pfn);
    return pfn;
}

Pfn
LinuxVm::touchFault(VanillaPageTable &pt, Asid asid, Vpn vpn, bool write)
{
    const std::uint64_t key = packPageId(PageId{asid, vpn});
    const bool major = swap_.contains(key);

    if (free_.freeFrames() <= reserve_)
        reclaim();

    const std::optional<Pfn> pfn = free_.allocate();
    ensure(pfn.has_value(), "linux_vm: reclaim failed to free frames");

    const bool dirty = !major || write;
    frames_.map(*pfn, PageId{asid, vpn}, clock_, dirty);
    pt.map(vpn, *pfn);
    lru_.pushBack(*pfn);

    if (major) {
        swap_.readIn(key);
        ++stats_.swapIns;
        ++stats_.majorFaults;
    } else {
        ++stats_.minorFaults;
    }
    return *pfn;
}

} // namespace mosaic
