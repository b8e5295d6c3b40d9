/**
 * @file
 * Integration tests for the dual-TLB translation simulator: cross-
 * checking vanilla and mosaic translation consistency, reach
 * behaviour, kernel stream modeling, and stat plumbing.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <span>
#include <string>
#include <vector>

#include "core/translation_sim.hh"
#include "hash/mix.hh"

namespace mosaic
{
namespace
{

TranslationSimConfig
smallConfig()
{
    TranslationSimConfig c;
    c.memory.numFrames = 64 * 256;
    c.tlbEntries = 64;
    c.waysList = {1, 4, 64};
    c.arities = {4, 16};
    c.kernel.accessEvery = 0; // off unless a test enables it
    return c;
}

TEST(TranslationSim, DemandMapsOnFirstAccess)
{
    TranslationSim sim(smallConfig());
    sim.access(addrOf(100), false);
    EXPECT_EQ(sim.mappedPages(), 1u);
    EXPECT_NE(sim.vanillaPfnOf(100), invalidPfn);
    EXPECT_NE(sim.mosaicPfnOf(100), invalidPfn);
    EXPECT_EQ(sim.vanillaPfnOf(101), invalidPfn);
    sim.access(addrOf(100, 64), true);
    EXPECT_EQ(sim.mappedPages(), 1u);
}

TEST(TranslationSim, MosaicPlacementConsistentWithFrameTable)
{
    TranslationSim sim(smallConfig());
    for (Vpn vpn = 0; vpn < 2000; ++vpn)
        sim.access(addrOf(vpn), false);
    for (Vpn vpn = 0; vpn < 2000; vpn += 37) {
        const Pfn pfn = sim.mosaicPfnOf(vpn);
        ASSERT_NE(pfn, invalidPfn);
        const Frame &f = sim.mosaicFrames().frame(pfn);
        EXPECT_TRUE(f.used);
        EXPECT_EQ(f.owner.vpn, vpn);
    }
}

TEST(TranslationSim, AllTlbsSeeEveryAccess)
{
    TranslationSim sim(smallConfig());
    for (Vpn vpn = 0; vpn < 500; ++vpn)
        sim.access(addrOf(vpn % 100), false);
    for (std::size_t w = 0; w < sim.numWays(); ++w) {
        EXPECT_EQ(sim.vanillaStats(w).accesses, 500u);
        for (std::size_t a = 0; a < sim.numArities(); ++a)
            EXPECT_EQ(sim.mosaicStats(w, a).accesses, 500u);
    }
}

TEST(TranslationSim, ColdScanMissesPerPageButFillsSubEntries)
{
    // Demand paging maps one base page at a time, so a cold scan
    // misses on every page in both designs; in mosaic mode most of
    // those misses are followed by sub-entry fills within an existing
    // entry. Hand-computed: of 4096 fills, all but the first per
    // mosaic page refill a present entry — 4096 * (arity-1)/arity.
    TranslationSim sim(smallConfig());
    for (Vpn vpn = 0; vpn < 4096; ++vpn)
        sim.access(addrOf(vpn), false);
    EXPECT_EQ(sim.vanillaStats(2).misses, 4096u);
    EXPECT_EQ(sim.mosaicStats(2, 0).misses, 4096u);
    EXPECT_EQ(sim.mosaicStats(2, 0).subEntryFills, 4096u * 3 / 4);
    EXPECT_EQ(sim.mosaicStats(2, 1).subEntryFills, 4096u * 15 / 16);
    // Vanilla churned through ~4096 entries; mosaic-16 through 256.
    EXPECT_GT(sim.vanillaStats(2).evictions,
              sim.mosaicStats(2, 1).evictions * 4);
}

TEST(TranslationSim, RepeatedWorkingSetBeyondVanillaReachWithinMosaic)
{
    // Working set of 256 pages with a 64-entry TLB: vanilla thrashes
    // on a cyclic sweep; mosaic-16 needs only 16 entries, so after
    // the cold pass it never misses again.
    TranslationSim sim(smallConfig());
    for (int pass = 0; pass < 4; ++pass)
        for (Vpn vpn = 0; vpn < 256; ++vpn)
            sim.access(addrOf(vpn), false);
    // Fully associative instances (index 2).
    EXPECT_EQ(sim.vanillaStats(2).misses, 4u * 256); // LRU cycling
    EXPECT_EQ(sim.mosaicStats(2, 1).misses, 256u);   // cold pass only
}

TEST(TranslationSim, HigherAssociativityNeverHurtsOnCyclicSweep)
{
    TranslationSim sim(smallConfig());
    for (int pass = 0; pass < 3; ++pass)
        for (Vpn vpn = 0; vpn < 48; ++vpn)
            sim.access(addrOf(vpn * 7), false);
    EXPECT_GE(sim.vanillaStats(0).misses, sim.vanillaStats(1).misses);
    EXPECT_GE(sim.vanillaStats(1).misses, sim.vanillaStats(2).misses);
}

TEST(TranslationSim, KernelStreamInjectsAccesses)
{
    TranslationSimConfig c = smallConfig();
    c.kernel.accessEvery = 10;
    TranslationSim sim(c);
    for (Vpn vpn = 0; vpn < 1000; ++vpn)
        sim.access(addrOf(vpn), false);
    // 1000 workload + 100 kernel.
    EXPECT_EQ(sim.totalAccesses(), 1100u);
    EXPECT_EQ(sim.vanillaStats(0).accesses, 1100u);
    EXPECT_EQ(sim.mosaicStats(0, 0).accesses, 1100u);
}

TEST(TranslationSim, KernelHugePagesFavorVanilla)
{
    // With a hot kernel stream, vanilla covers the kernel with a few
    // 2 MiB entries while mosaic spends a conventional entry per
    // page: vanilla's kernel-attributable misses must be smaller.
    TranslationSimConfig c = smallConfig();
    c.kernel.accessEvery = 4;
    c.kernel.regionBytes = std::uint64_t{8} << 20;
    c.kernel.hotBytes = std::uint64_t{8} << 20; // uniform over 8 MiB
    c.kernel.hotFraction = 1.0;
    c.waysList = {64};
    c.arities = {4};
    TranslationSim sim(c);
    // Small workload footprint: both TLBs handle it easily; kernel
    // dominates the difference.
    for (int pass = 0; pass < 50; ++pass)
        for (Vpn vpn = 0; vpn < 16; ++vpn)
            sim.access(addrOf(vpn), false);
    EXPECT_LT(sim.vanillaStats(0).misses + 50,
              sim.mosaicStats(0, 0).misses);
}

TEST(TranslationSim, SubEntryFillsHappenWhenMosaicPagePartiallyMapped)
{
    TranslationSim sim(smallConfig());
    // Touch page 0 (maps+fills ToC with only sub-page 0 present),
    // then page 1 of the same mosaic page: entry present, sub-page
    // absent -> sub-entry fill.
    sim.access(addrOf(0), false);
    sim.access(addrOf(1), false);
    EXPECT_GE(sim.mosaicStats(0, 0).subEntryFills, 1u);
}

TEST(TranslationSim, VanillaAndMosaicFramesAreIndependentSpaces)
{
    TranslationSim sim(smallConfig());
    for (Vpn vpn = 0; vpn < 100; ++vpn)
        sim.access(addrOf(vpn), false);
    // Vanilla PFNs are bump-allocated 0..99.
    for (Vpn vpn = 0; vpn < 100; ++vpn)
        EXPECT_LT(sim.vanillaPfnOf(vpn), 100u);
}

TEST(TranslationSim, InstructionStreamFeedsItlbs)
{
    TranslationSimConfig c = smallConfig();
    c.instr.enabled = true;
    TranslationSim sim(c);
    for (Vpn vpn = 0; vpn < 2000; ++vpn)
        sim.access(addrOf(vpn), false);
    // One fetch per access.
    EXPECT_EQ(sim.itlbVanillaStats(0).accesses, 2000u);
    EXPECT_EQ(sim.itlbMosaicStats(0, 0).accesses, 2000u);
    // Code is small and hot: the ITLB contribution is tiny compared
    // to the data side — the reason the paper's figures are about
    // data misses.
    EXPECT_LT(sim.itlbVanillaStats(2).misses,
              sim.vanillaStats(2).misses / 3);
    EXPECT_GT(sim.itlbVanillaStats(2).hits, 1900u);
}

TEST(TranslationSim, ItlbDisabledByDefault)
{
    TranslationSim sim(smallConfig());
    sim.access(addrOf(1), false);
    EXPECT_EQ(sim.totalAccesses(), 1u);
}

TEST(TranslationSim, ContextSwitchKeepsBothAddressSpaces)
{
    TranslationSim sim(smallConfig());
    // Process 1 touches pages 0..9; process 2 touches the same VPNs.
    for (Vpn vpn = 0; vpn < 10; ++vpn)
        sim.access(addrOf(vpn), false);
    const Pfn p1 = sim.mosaicPfnOf(3);

    sim.setActiveAsid(2);
    for (Vpn vpn = 0; vpn < 10; ++vpn)
        sim.access(addrOf(vpn), false);
    const Pfn p2 = sim.mosaicPfnOf(3);

    // Distinct physical frames per address space.
    EXPECT_NE(p1, p2);
    EXPECT_EQ(sim.mappedPages(), 20u);

    // Switching back: process 1's TLB entries survived (ASID tags,
    // no flush), so a re-sweep of its pages hits.
    sim.setActiveAsid(1);
    const auto misses_before = sim.vanillaStats(2).misses;
    for (Vpn vpn = 0; vpn < 10; ++vpn)
        sim.access(addrOf(vpn), false);
    EXPECT_EQ(sim.vanillaStats(2).misses, misses_before);
    EXPECT_EQ(sim.mosaicPfnOf(3), p1);
}

TEST(TranslationSim, CachedPageTablesSurviveManyAddressSpaces)
{
    // Enough address spaces to rehash the per-ASID page-table maps
    // several times, with the kernel stream inserting ASID 0 midway.
    TranslationSimConfig c = smallConfig();
    c.kernel.accessEvery = 3;
    TranslationSim sim(c);
    constexpr Asid asids = 40;
    std::vector<Pfn> vanilla, mosaic;
    for (Asid asid = 1; asid <= asids; ++asid) {
        sim.setActiveAsid(asid);
        for (Vpn vpn = 0; vpn < 4; ++vpn)
            sim.access(addrOf(vpn), false);
        vanilla.push_back(sim.vanillaPfnOf(2));
        mosaic.push_back(sim.mosaicPfnOf(2));
    }
    const std::uint64_t mapped = sim.mappedPages();
    EXPECT_EQ(mapped, 4u * asids);
    for (Asid asid = 1; asid <= asids; ++asid) {
        sim.setActiveAsid(asid);
        sim.access(addrOf(2), false); // already mapped: no new page
        EXPECT_EQ(sim.vanillaPfnOf(2), vanilla[asid - 1]) << asid;
        EXPECT_EQ(sim.mosaicPfnOf(2), mosaic[asid - 1]) << asid;
    }
    EXPECT_EQ(sim.mappedPages(), mapped);
}

TEST(TranslationSim, KernelEntriesAreGlobalAcrossProcesses)
{
    TranslationSimConfig c = smallConfig();
    c.kernel.accessEvery = 1; // kernel access after every reference
    c.kernel.hotBytes = 4096; // a single hot kernel page
    c.kernel.hotFraction = 1.0;
    TranslationSim sim(c);

    sim.access(addrOf(0), false); // process 1 + kernel access
    const auto kernel_misses = sim.vanillaStats(2).misses;
    sim.setActiveAsid(2);
    sim.access(addrOf(1), false); // process 2 + kernel access
    // The kernel page was already cached under the global tag: the
    // second kernel access adds no miss (only the new user page).
    EXPECT_EQ(sim.vanillaStats(2).misses, kernel_misses + 1);
}

/** accesses, hits, misses, subEntryFills, evictions, invalidations. */
using PinnedStats = std::array<std::uint64_t, 6>;

PinnedStats
pinned(const TlbStats &s)
{
    return {s.accesses,      s.hits,      s.misses,
            s.subEntryFills, s.evictions, s.invalidations};
}

// Every TlbStats field of every data and ITLB grid entry, with the
// kernel stream on, the instruction stream on and two address spaces
// switched mid-stream. The values come from the grid of bare TLB
// classes that the registry designs replaced; they must not move.
// The spec design after the grid must change none of them.
TEST(TranslationSim, GridStatsPinnedAcrossAllThreeStreams)
{
    TranslationSimConfig c = smallConfig();
    c.arities = {4, 64};
    c.kernel.accessEvery = 16;
    c.instr.enabled = true;
    c.designSpecs = {"mosaic:arity=4"};
    TranslationSim sim(c);
    for (std::uint64_t i = 0; i < 6000; ++i) {
        if (i == 2500)
            sim.setActiveAsid(2);
        if (i == 4500)
            sim.setActiveAsid(1);
        const Vpn vpn = i % 3 == 0 ? (i / 3) % 1536 : mix64(i) % 1536;
        sim.access(addrOf(vpn), i % 5 == 0);
    }
    EXPECT_EQ(sim.totalAccesses(), 6375u);
    EXPECT_EQ(sim.mappedPages(), 2602u);
    // A spec design sees the data stream alone.
    EXPECT_EQ(sim.design(sim.numDesigns() - 1).stats().accesses, 6000u);

    // [ways] vanilla entries, then [ways][arity] mosaic entries.
    const std::array<PinnedStats, 9> data = {{
        {6375, 494, 5881, 0, 5817, 0},
        {6375, 548, 5827, 0, 5763, 0},
        {6375, 547, 5828, 0, 5764, 0},
        {6375, 1294, 5081, 873, 4144, 0},
        {6375, 3497, 2878, 2349, 465, 0},
        {6375, 1333, 5042, 888, 4090, 0},
        {6375, 3557, 2818, 2403, 351, 0},
        {6375, 1335, 5040, 903, 4073, 0},
        {6375, 3568, 2807, 2403, 340, 0},
    }};
    const std::array<PinnedStats, 9> itlb = {{
        {6000, 5638, 362, 0, 299, 0},
        {6000, 5702, 298, 0, 234, 0},
        {6000, 5701, 299, 0, 235, 0},
        {6000, 5728, 272, 49, 159, 0},
        {6000, 5831, 169, 145, 16, 0},
        {6000, 5738, 262, 53, 145, 0},
        {6000, 5833, 167, 151, 0, 0},
        {6000, 5742, 258, 55, 139, 0},
        {6000, 5833, 167, 151, 0, 0},
    }};
    for (std::size_t w = 0; w < sim.numWays(); ++w) {
        EXPECT_EQ(pinned(sim.vanillaStats(w)), data[w]) << "ways " << w;
        EXPECT_EQ(pinned(sim.itlbVanillaStats(w)), itlb[w])
            << "ways " << w;
        for (std::size_t a = 0; a < sim.numArities(); ++a) {
            const std::size_t i = 3 + w * 2 + a;
            EXPECT_EQ(pinned(sim.mosaicStats(w, a)), data[i])
                << "ways " << w << " arity " << a;
            EXPECT_EQ(pinned(sim.itlbMosaicStats(w, a)), itlb[i])
                << "ways " << w << " arity " << a;
        }
    }
}

/**
 * Feed @p sim a stream in which about two references in three repeat
 * the page just before them, over ASIDs 1..3 with @p pages pages each:
 * scalar when @p block is 0, else through accessBatch in blocks of
 * @p block. Every 400 references the address space switches, every
 * third time to the active one, and the reference after a switch
 * repeats the page before it. Returns how many references repeat.
 */
std::uint64_t
driveRepeatStream(TranslationSim &sim, std::size_t block, Vpn pages)
{
    std::vector<MemRef> segment;
    auto flush = [&] {
        if (block == 0) {
            for (const MemRef &ref : segment)
                sim.access(ref.vaddr, ref.write);
        } else {
            const std::span<const MemRef> refs(segment);
            for (std::size_t i = 0; i < refs.size(); i += block) {
                sim.accessBatch(
                    refs.subspan(i, std::min(block, refs.size() - i)));
            }
        }
        segment.clear();
    };
    std::uint64_t repeats = 0;
    Vpn vpn = 0;
    for (std::uint64_t i = 0; i < 12000; ++i) {
        const std::uint64_t h = mix64(i);
        if (i > 0 && i % 400 == 0) {
            flush();
            const Asid asid = sim.activeAsid();
            sim.setActiveAsid((i / 400) % 3 == 0 ? asid : asid % 3 + 1);
            ++repeats;
        } else if (i > 0 && h % 3 != 0) {
            ++repeats;
        } else {
            vpn = i % 2 == 0 ? (h >> 8) % pages : (vpn + 1) % pages;
        }
        segment.push_back(MemRef{addrOf(vpn, (h >> 40) % pageSize),
                                 h % 7 == 0});
    }
    flush();
    return repeats;
}

// The repeat rule skips the grid on a reference to the page just
// translated (DESIGN.md §14.3). Spec designs never take that path,
// so spec designs of the grid's own geometries must end with every
// counter equal to their grid twins', scalar and batched alike.
TEST(TranslationSim, RepeatRuleMatchesSpecDesignTwins)
{
    TranslationSimConfig c;
    c.memory.numFrames = 64 * 1024;
    c.tlbEntries = 1024;
    c.waysList = {1, 4, 1024};
    c.arities = {4, 64};
    c.kernel.accessEvery = 0;
    for (const unsigned ways : c.waysList)
        c.designSpecs.push_back("vanilla:ways=" + std::to_string(ways));
    for (const unsigned ways : c.waysList) {
        for (const unsigned arity : c.arities) {
            c.designSpecs.push_back("mosaic:arity=" +
                                    std::to_string(arity) +
                                    ",ways=" + std::to_string(ways));
        }
    }
    const std::size_t grid = c.designSpecs.size();

    std::vector<PinnedStats> scalar;
    for (const std::size_t block : {0, 7, 64}) {
        TranslationSim sim(c);
        const std::uint64_t repeats = driveRepeatStream(sim, block, 6000);
        EXPECT_GT(repeats, 12000u / 2);
        EXPECT_LT(repeats, 12000u * 4 / 5);
        ASSERT_EQ(sim.numDesigns(), 2 * grid);
        for (std::size_t d = 0; d < grid; ++d) {
            const TranslationDesign &twin = sim.design(grid + d);
            const TranslationDesign &cell = sim.design(d);
            EXPECT_EQ(pinned(cell.stats()), pinned(twin.stats()))
                << twin.name() << " block " << block;
            EXPECT_EQ(cell.counters().walkRefs, twin.counters().walkRefs)
                << twin.name() << " block " << block;
            if (block == 0)
                scalar.push_back(pinned(cell.stats()));
            else
                EXPECT_EQ(pinned(cell.stats()), scalar[d])
                    << twin.name() << " block " << block;
        }
    }
}

// The repeat-heavy stream with the kernel stream interleaving every
// third reference and the instruction stream on: every data and ITLB
// grid counter is pinned to values computed before the repeat rule
// existed.
TEST(TranslationSim, RepeatRuleGridStatsPinnedWithKernelAndItlb)
{
    TranslationSimConfig c = smallConfig();
    c.arities = {4, 64};
    c.kernel.accessEvery = 3;
    c.instr.enabled = true;
    TranslationSim sim(c);
    driveRepeatStream(sim, 0, 1536);
    EXPECT_EQ(sim.totalAccesses(), 16000u);

    // [ways] vanilla entries, then [ways][arity] mosaic entries.
    const std::array<PinnedStats, 9> data = {{
        {16000, 11459, 4541, 0, 4477, 0},
        {16000, 11667, 4333, 0, 4269, 0},
        {16000, 11665, 4335, 0, 4271, 0},
        {16000, 8997, 7003, 1007, 5932, 0},
        {16000, 9640, 6360, 1877, 4419, 0},
        {16000, 9042, 6958, 1032, 5862, 0},
        {16000, 9697, 6303, 2001, 4238, 0},
        {16000, 9056, 6944, 1028, 5852, 0},
        {16000, 9735, 6265, 2015, 4186, 0},
    }};
    const std::array<PinnedStats, 9> itlb = {{
        {12000, 11035, 965, 0, 901, 0},
        {12000, 11183, 817, 0, 753, 0},
        {12000, 11140, 860, 0, 796, 0},
        {12000, 11362, 638, 74, 500, 0},
        {12000, 11573, 427, 267, 152, 0},
        {12000, 11384, 616, 67, 485, 0},
        {12000, 11638, 362, 338, 0, 0},
        {12000, 11426, 574, 61, 449, 0},
        {12000, 11638, 362, 338, 0, 0},
    }};
    for (std::size_t w = 0; w < sim.numWays(); ++w) {
        EXPECT_EQ(pinned(sim.vanillaStats(w)), data[w]) << "ways " << w;
        EXPECT_EQ(pinned(sim.itlbVanillaStats(w)), itlb[w])
            << "ways " << w;
        for (std::size_t a = 0; a < sim.numArities(); ++a) {
            const std::size_t i = 3 + w * 2 + a;
            EXPECT_EQ(pinned(sim.mosaicStats(w, a)), data[i])
                << "ways " << w << " arity " << a;
            EXPECT_EQ(pinned(sim.itlbMosaicStats(w, a)), itlb[i])
                << "ways " << w << " arity " << a;
        }
    }
}

using TranslationSimDeathTest = ::testing::Test;

TEST(TranslationSimDeathTest, TooSmallMemoryDies)
{
    TranslationSimConfig c = smallConfig();
    c.memory.numFrames = 64 * 8; // 512 frames
    TranslationSim sim(c);
    // Demand-mapping far more pages than frames must hit an
    // associativity conflict and die with a clear message.
    EXPECT_EXIT(
        {
            for (Vpn vpn = 0; vpn < 600; ++vpn)
                sim.access(addrOf(vpn), false);
        },
        ::testing::ExitedWithCode(1), "too small");
}

} // namespace
} // namespace mosaic
