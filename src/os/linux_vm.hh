/**
 * @file
 * The baseline virtual-memory model: a conventional fully-associative
 * allocator with a free-memory watermark and batched global-LRU
 * reclaim, approximating default Linux behaviour for anonymous pages.
 *
 * Matching the paper's observation (§4.2), the watermark defaults to
 * 0.8 % of memory, so swapping begins at ~99.2 % utilization.
 */

#ifndef MOSAIC_OS_LINUX_VM_HH_
#define MOSAIC_OS_LINUX_VM_HH_

#include <map>
#include <memory>
#include <string>

#include "mem/frame_table.hh"
#include "mem/freelist_allocator.hh"
#include "os/lru_list.hh"
#include "os/swap_device.hh"
#include "os/translation_cache.hh"
#include "os/virtual_memory.hh"
#include "pt/vanilla_page_table.hh"

namespace mosaic
{

/** Configuration of the baseline VM. */
struct LinuxVmConfig
{
    /** Physical frames managed. */
    std::size_t numFrames = 64 * 1024;

    /** Free-frame reserve as a fraction of memory (zone watermark). */
    double watermarkFraction = 0.008;

    /** Pages reclaimed per kswapd-style batch (SWAP_CLUSTER_MAX). */
    unsigned reclaimBatch = 32;

    /** Optional fault-injection state (DESIGN.md §11); must outlive
     *  the VM. Attached to the swap device for the "swap.read" /
     *  "swap.write" / "swap.latency" sites. */
    fault::FaultInjector *faults = nullptr;
};

/** Fully-associative demand paging with global LRU reclaim. */
class LinuxVm : public VirtualMemory
{
  public:
    explicit LinuxVm(const LinuxVmConfig &config);

    Pfn touch(Asid asid, Vpn vpn, bool write) override;
    std::size_t numFrames() const override { return frames_.numFrames(); }
    std::size_t residentPages() const override
    {
        return frames_.usedFrames();
    }
    const VmStats &stats() const override { return stats_; }
    std::string name() const override { return "linux"; }

    /** The page table of an address space (created on demand),
     *  read-only: only the VM changes mappings, which keeps its
     *  translation cache coherent. */
    const VanillaPageTable &pageTable(Asid asid) { return table(asid); }

    /**
     * Release a range of pages (munmap): resident frames return to
     * the free list without writeback; swap copies are dropped.
     */
    void unmapRange(Asid asid, Vpn vpn, std::size_t npages);

    const FrameTable &frameTable() const { return frames_; }

    /** Swap-device counters (for telemetry, tests, and oracles). */
    const SwapDevice &swapDevice() const { return swap_; }

    /** Free frames kept in reserve before reclaim starts. */
    std::size_t reserveFrames() const { return reserve_; }

  private:
    /** The page table of an address space, created on demand. */
    VanillaPageTable &table(Asid asid);

    /** A touch of a page the walk of @p pt (asid's table) found
     *  absent: reclaim if below the watermark, then map and swap in. */
    Pfn touchFault(VanillaPageTable &pt, Asid asid, Vpn vpn, bool write);

    void reclaim();

    LinuxVmConfig config_;
    FreeListAllocator free_;
    FrameTable frames_;
    LruList lru_;
    SwapDevice swap_;
    VmStats stats_;
    Tick clock_ = 0;
    std::size_t reserve_;

    std::map<Asid, std::unique_ptr<VanillaPageTable>> tables_;

    /** Resident translations of touch(), filled after a walk finds
     *  the page present and invalidated wherever a mapping is
     *  removed (reclaim, unmapRange). */
    TranslationCache xlat_;
};

} // namespace mosaic

#endif // MOSAIC_OS_LINUX_VM_HH_
