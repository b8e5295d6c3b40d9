/**
 * @file
 * Randomized cross-module invariant tests: long op sequences with
 * full-state consistency checks after (and during) the run. These
 * are the "does the whole machine stay glued together" properties
 * that unit tests of single modules cannot see.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "core/translation_sim.hh"
#include "iceberg/iceberg_table.hh"
#include "os/linux_vm.hh"
#include "os/mosaic_vm.hh"
#include "util/random.hh"

namespace mosaic
{
namespace
{

/**
 * MosaicVm global invariant: the page tables and the frame table
 * describe the same world.
 */
void
checkMosaicVmConsistency(MosaicVm &vm, const std::set<Asid> &asids,
                         Vpn max_vpn)
{
    // Every present PT mapping points at a used frame owned by that
    // page, and no frame is referenced twice.
    std::set<Pfn> seen;
    std::size_t present = 0;
    for (const Asid asid : asids) {
        const MosaicPageTable &pt = vm.pageTable(asid);
        for (Vpn vpn = 0; vpn <= max_vpn; ++vpn) {
            const MosaicWalkResult walk = pt.walk(vpn);
            if (!walk.present)
                continue;
            ++present;
            const CandidateSet cand =
                vm.allocator().mapper().candidates(PageId{asid, vpn});
            const Pfn pfn = vm.allocator().mapper().toPfn(cand, walk.cpfn);
            ASSERT_TRUE(seen.insert(pfn).second)
                << "frame " << pfn << " mapped twice";
            const Frame &frame = vm.frameTable().frame(pfn);
            ASSERT_TRUE(frame.used);
            ASSERT_EQ(frame.owner.asid, asid);
            ASSERT_EQ(frame.owner.vpn, vpn);
        }
    }
    // ...and the frame table counts exactly those mappings.
    ASSERT_EQ(vm.frameTable().usedFrames(), present);
    ASSERT_EQ(vm.residentPages(), present);
}

TEST(Invariants, MosaicVmUnderRandomPressure)
{
    MosaicVmConfig config;
    config.geometry.numFrames = 64 * 16; // 1024 frames
    MosaicVm vm(config);
    Rng rng(42);

    const std::set<Asid> asids{1, 2, 3};
    constexpr Vpn max_vpn = 700; // 3 x 700 pages vs 1024 frames

    for (int step = 0; step < 30000; ++step) {
        const Asid asid = static_cast<Asid>(1 + rng.below(3));
        const Vpn vpn = rng.below(max_vpn + 1);
        vm.touch(asid, vpn, rng.chance(0.3));
        if (step % 5000 == 4999)
            checkMosaicVmConsistency(vm, asids, max_vpn);
    }
    checkMosaicVmConsistency(vm, asids, max_vpn);

    // Under 2x overcommit swapping must have happened, and the
    // stats must be internally consistent.
    EXPECT_GT(vm.stats().swapOuts, 0u);
    EXPECT_GT(vm.stats().majorFaults, 0u);
    EXPECT_EQ(vm.stats().majorFaults, vm.stats().swapIns);
    EXPECT_LE(vm.residentPages(), vm.numFrames());
}

TEST(Invariants, MosaicVmTouchAlwaysReturnsOwnedFrame)
{
    MosaicVmConfig config;
    config.geometry.numFrames = 64 * 8;
    MosaicVm vm(config);
    Rng rng(7);
    for (int step = 0; step < 20000; ++step) {
        const Vpn vpn = rng.below(900);
        const Pfn pfn = vm.touch(1, vpn, rng.chance(0.5));
        const Frame &frame = vm.frameTable().frame(pfn);
        ASSERT_TRUE(frame.used);
        ASSERT_EQ(frame.owner.vpn, vpn);
        ASSERT_EQ(frame.lastAccess, vm.now());
    }
}

TEST(Invariants, LinuxVmAgainstReferenceModel)
{
    // The baseline VM against a simple reference: residency and
    // frame identity must match a map-based model exactly (same
    // policy decisions are not required — frame identity is).
    LinuxVmConfig config;
    config.numFrames = 512;
    LinuxVm vm(config);
    std::map<std::pair<Asid, Vpn>, Pfn> model;
    Rng rng(13);

    for (int step = 0; step < 20000; ++step) {
        const Asid asid = static_cast<Asid>(1 + rng.below(2));
        const Vpn vpn = rng.below(400);
        const Pfn pfn = vm.touch(asid, vpn, rng.chance(0.4));

        // Rebuild the model entry: if the VM kept the mapping, it
        // must be stable; a changed frame implies an eviction
        // happened in between.
        const auto key = std::make_pair(asid, vpn);
        model[key] = pfn;

        // Spot-check: walk agrees with the returned frame.
        const VanillaWalkResult walk = vm.pageTable(asid).walk(vpn);
        ASSERT_TRUE(walk.present);
        ASSERT_EQ(walk.pfn, pfn);
    }
    // Residency never exceeds physical frames.
    EXPECT_LE(vm.residentPages(), 512u);
}

TEST(Invariants, IcebergAgainstStdMap)
{
    IcebergConfig config;
    config.buckets = 64;
    IcebergTable<std::uint64_t> table(config);
    std::map<std::uint64_t, std::uint64_t> model;
    Rng rng(99);

    for (int step = 0; step < 50000; ++step) {
        const std::uint64_t key = rng.below(3000) * 7919;
        switch (rng.below(3)) {
          case 0:
            if (table.insert(key, step))
                model[key] = static_cast<std::uint64_t>(step);
            break;
          case 1: {
            const bool erased_t = table.erase(key);
            const bool erased_m = model.erase(key) > 0;
            ASSERT_EQ(erased_t, erased_m) << "key " << key;
            break;
          }
          case 2: {
            const auto *v = table.find(key);
            const auto it = model.find(key);
            ASSERT_EQ(v != nullptr, it != model.end()) << key;
            if (v) {
                ASSERT_EQ(*v, it->second);
            }
            break;
          }
        }
        ASSERT_EQ(table.size(), model.size());
    }
    // Final full sweep.
    for (const auto &[key, value] : model) {
        const auto *v = table.find(key);
        ASSERT_NE(v, nullptr);
        EXPECT_EQ(*v, value);
    }
}

TEST(Invariants, TranslationSimTlbNeverLies)
{
    // The TLB is a cache: after any access, the mosaic TLB contents
    // must agree with the page table for sampled pages.
    TranslationSimConfig config;
    config.memory.numFrames = 64 * 256;
    config.tlbEntries = 64;
    config.waysList = {4};
    config.arities = {4};
    config.kernel.accessEvery = 0;
    TranslationSim sim(config);
    Rng rng(21);

    std::set<Vpn> touched;
    for (int step = 0; step < 20000; ++step) {
        const Vpn vpn = rng.below(2000);
        sim.access(addrOf(vpn, rng.below(pageSize)), rng.chance(0.5));
        touched.insert(vpn);
    }
    // Every touched page translates consistently on both sides.
    for (const Vpn vpn : touched) {
        ASSERT_NE(sim.vanillaPfnOf(vpn), invalidPfn);
        const Pfn mosaic_pfn = sim.mosaicPfnOf(vpn);
        ASSERT_NE(mosaic_pfn, invalidPfn);
        const Frame &frame = sim.mosaicFrames().frame(mosaic_pfn);
        ASSERT_TRUE(frame.used);
        ASSERT_EQ(frame.owner.vpn, vpn);
    }
    EXPECT_EQ(sim.mappedPages(), touched.size());
}

TEST(Invariants, MosaicVmSharedModeUnderPressure)
{
    // Location-ID mode with sharing and eviction churn: shared
    // mappings must stay coherent (both PTs agree) throughout.
    MosaicVmConfig config;
    config.geometry.numFrames = 64 * 8;
    config.sharing = SharingMode::LocationId;
    MosaicVm vm(config);

    vm.shareRange(1, 0, 2, 0, 64);
    Rng rng(5);
    for (int step = 0; step < 20000; ++step) {
        if (rng.chance(0.3)) {
            const Vpn vpn = rng.below(64);
            const Asid asid = static_cast<Asid>(1 + rng.below(2));
            vm.touch(asid, vpn, rng.chance(0.5));
        } else {
            vm.touch(3, 1000 + rng.below(600), true);
        }
        if (step % 2000 == 1999) {
            for (Vpn vpn = 0; vpn < 64; ++vpn) {
                const MosaicWalkResult w1 = vm.pageTable(1).walk(vpn);
                const MosaicWalkResult w2 = vm.pageTable(2).walk(vpn);
                // Both mapped -> identical CPFN (same frame); a
                // one-sided mapping is fine (the other ASID simply
                // hasn't faulted it in since the last eviction).
                if (w1.present && w2.present) {
                    ASSERT_EQ(w1.cpfn, w2.cpfn) << "vpn " << vpn;
                }
            }
        }
    }
}

} // namespace
} // namespace mosaic
