/**
 * @file
 * End-to-end smoke tests of the experiment runners at miniature
 * scale: the Figure 6 sweep, the Table 3 utilization experiment, and
 * the Table 4 swapping comparison, checking the paper's qualitative
 * shape on each.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "core/experiments.hh"
#include "core/translation_sim.hh"
#include "util/thread_pool.hh"

namespace mosaic
{
namespace
{

Fig6Options
tinyFig6()
{
    Fig6Options o;
    o.scale = 1.0 / 64;
    o.waysList = {1, 8, 256};
    o.arities = {4, 16};
    o.tlbEntries = 256;
    return o;
}

TEST(Fig6, ProducesFullGrid)
{
    const Fig6Result r = runFig6(WorkloadKind::Gups, tinyFig6());
    EXPECT_EQ(r.rows.size(), 3u);
    for (const auto &row : r.rows) {
        EXPECT_GT(row.vanillaMisses, 0u);
        ASSERT_EQ(row.mosaicMisses.size(), 2u);
    }
    EXPECT_GT(r.accesses, 0u);
    EXPECT_GT(r.footprintBytes, 0u);
}

TEST(Fig6, MosaicReducesMissesOnGraph500)
{
    // Needs a footprint comfortably beyond TLB reach (the paper's
    // regime); at miniature footprints both designs fit and the
    // kernel stream dominates, so use a moderate scale without it.
    Fig6Options o = tinyFig6();
    o.scale = 1.0 / 16;
    o.kernelHugePages = false;
    const Fig6Result r = runFig6(WorkloadKind::Graph500, o);
    // The paper's headline: across associativities, mosaic cuts
    // misses relative to vanilla (6-81 % for Mosaic-4; more with
    // larger arities).
    for (const auto &row : r.rows) {
        EXPECT_LT(row.mosaicMisses[0], row.vanillaMisses)
            << "ways " << row.ways;
        EXPECT_LE(row.mosaicMisses[1], row.mosaicMisses[0])
            << "ways " << row.ways;
    }
}

TEST(Fig6, AssociativityHelpsVanillaMoreThanMosaic)
{
    const Fig6Result r = runFig6(WorkloadKind::BTree, tinyFig6());
    const auto &direct = r.rows.front();
    const auto &full = r.rows.back();
    ASSERT_GT(direct.vanillaMisses, 0u);
    // Vanilla gains from associativity; mosaic is much less
    // sensitive (paper §4.1).
    const double vanilla_gain =
        static_cast<double>(direct.vanillaMisses) /
        static_cast<double>(full.vanillaMisses);
    const double mosaic_gain =
        static_cast<double>(direct.mosaicMisses[1]) /
        static_cast<double>(std::max<std::uint64_t>(
            1, full.mosaicMisses[1]));
    EXPECT_GE(vanilla_gain, 1.0);
    EXPECT_LT(mosaic_gain, vanilla_gain * 2.0);
}

TEST(Fig6, KernelHugePagesOptionChangesVanilla)
{
    Fig6Options with = tinyFig6();
    Fig6Options without = tinyFig6();
    without.kernelHugePages = false;
    const Fig6Result a = runFig6(WorkloadKind::Gups, with);
    const Fig6Result b = runFig6(WorkloadKind::Gups, without);
    // The kernel stream adds accesses (and some misses) when on.
    EXPECT_GT(a.accesses, b.accesses);
}

TEST(Fig6, FullPoolKnobRunsRealGeometryWithShardedVm)
{
    // MOSAIC_FULL_POOL=2 swaps the footprint-sized ample pool for
    // the paper's 1 Mi-frame geometry, demand-paged through a
    // 2-shard ShardedMosaicVm. The TLB grid results stay sane — the
    // ride-along engine never feeds the TLBs.
    ASSERT_EQ(setenv("MOSAIC_FULL_POOL", "2", 1), 0);
    Fig6Options o = tinyFig6();
    o.waysList = {4, 8};
    const Fig6Cell cell = runFig6Rows(WorkloadKind::Gups, o, 1, 1);
    ASSERT_EQ(unsetenv("MOSAIC_FULL_POOL"), 0);
    EXPECT_GT(cell.accesses, 0u);
    ASSERT_EQ(cell.rows.size(), 1u);
    EXPECT_EQ(cell.rows[0].ways, 8u);
    EXPECT_GT(cell.rows[0].vanillaMisses, 0u);
    ASSERT_EQ(cell.rows[0].mosaicMisses.size(), 2u);
}

TEST(Fig6DeathTest, MalformedFullPoolKnobIsFatal)
{
    // A typo'd MOSAIC_FULL_POOL must abort, never silently run the
    // scaled-down default geometry (util/parse.hh contract).
    Fig6Options o = tinyFig6();
    o.waysList = {8};
    EXPECT_DEATH(
        {
            setenv("MOSAIC_FULL_POOL", "3O", 1);
            runFig6Rows(WorkloadKind::Gups, o, 0, 1);
        },
        "MOSAIC_FULL_POOL");
}

// ------------------------------------------- Figure 6 in one pass

/** The plain path: one single-ways TranslationSim fed scalar
 *  references, as a Figure 6 cell ran before rows shared a pass. */
Fig6Row
plainRow(WorkloadKind kind, const Fig6Options &o, unsigned ways,
         std::uint64_t *accesses)
{
    const auto workload = makeFig6Workload(kind, o.scale, o.seed);
    TranslationSimConfig config;
    config.memory = ampleGeometry(workload->info().footprintBytes);
    config.tlbEntries = o.tlbEntries;
    config.waysList = {ways};
    config.arities = o.arities;
    if (!o.kernelHugePages)
        config.kernel.accessEvery = 0;
    config.seed = o.seed;
    TranslationSim sim(config);
    workload->run(sim);
    *accesses = sim.totalAccesses();

    Fig6Row row;
    row.ways = ways;
    row.vanillaMisses = sim.vanillaStats(0).misses;
    for (std::size_t a = 0; a < o.arities.size(); ++a)
        row.mosaicMisses.push_back(sim.mosaicStats(0, a).misses);
    return row;
}

struct OnePassCase
{
    WorkloadKind kind;
    bool kernel;
};

class Fig6OnePassTest : public ::testing::TestWithParam<OnePassCase>
{
};

TEST_P(Fig6OnePassTest, RowsEqualOneSimPerWaysAtEveryPoolSize)
{
    // Five ways values on a small TLB, so every pool size below
    // groups the rows differently (1, 2, 3 and 5 passes) and the
    // full-associativity row takes the indexed fill path.
    Fig6Options o;
    o.scale = 1.0 / 256;
    o.tlbEntries = 32;
    o.waysList = {1, 2, 4, 16, 32};
    o.arities = {4, 16};
    o.kernelHugePages = GetParam().kernel;
    const WorkloadKind kind = GetParam().kind;

    std::vector<Fig6Row> expected;
    std::uint64_t accesses = 0;
    for (const unsigned ways : o.waysList)
        expected.push_back(plainRow(kind, o, ways, &accesses));
    ASSERT_GT(expected.back().vanillaMisses, 0u);

    for (const char *batch : {"", "8"}) {
        ASSERT_EQ(setenv("MOSAIC_BATCH", batch, 1), 0);
        for (const unsigned threads : {1u, 2u, 3u, 5u}) {
            ThreadPool pool(threads);
            const Fig6Result r = runFig6(kind, o, pool);
            ASSERT_EQ(r.rows.size(), expected.size());
            EXPECT_EQ(r.accesses, accesses);
            for (std::size_t w = 0; w < expected.size(); ++w) {
                EXPECT_EQ(r.rows[w].ways, expected[w].ways);
                EXPECT_EQ(r.rows[w].vanillaMisses,
                          expected[w].vanillaMisses)
                    << "threads " << threads << " batch '" << batch
                    << "' ways " << expected[w].ways;
                EXPECT_EQ(r.rows[w].mosaicMisses,
                          expected[w].mosaicMisses)
                    << "threads " << threads << " batch '" << batch
                    << "' ways " << expected[w].ways;
            }
        }
    }
    ASSERT_EQ(unsetenv("MOSAIC_BATCH"), 0);
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndKernel, Fig6OnePassTest,
    ::testing::Values(OnePassCase{WorkloadKind::Graph500, true},
                      OnePassCase{WorkloadKind::Graph500, false},
                      OnePassCase{WorkloadKind::BTree, true},
                      OnePassCase{WorkloadKind::BTree, false},
                      OnePassCase{WorkloadKind::Gups, true},
                      OnePassCase{WorkloadKind::Gups, false},
                      OnePassCase{WorkloadKind::XsBench, true},
                      OnePassCase{WorkloadKind::XsBench, false}),
    [](const ::testing::TestParamInfo<OnePassCase> &info) {
        return workloadName(info.param.kind) +
               (info.param.kernel ? "Kernel" : "NoKernel");
    });

TEST(Fig6DeathTest, RowsOutsideWaysListAreFatal)
{
    Fig6Options o = tinyFig6();
    EXPECT_DEATH(runFig6Rows(WorkloadKind::Gups, o, 2, 2), "out of range");
}

TEST(Table3, FirstConflictNearNinetyEightPercent)
{
    Table3Options o;
    o.memFrames = 4 * 1024;
    o.footprintFactor = 1.05;
    o.runs = 2;
    const Table3Row row = runTable3(WorkloadKind::Gups, o);
    ASSERT_GT(row.firstConflictPct.count(), 0u);
    EXPECT_GT(row.firstConflictPct.mean(), 96.0);
    EXPECT_LT(row.firstConflictPct.mean(), 100.0);
    EXPECT_GT(row.steadyPct.mean(), 98.0);
}

TEST(Table3, FootprintTracksFactor)
{
    Table3Options o;
    o.memFrames = 4 * 1024;
    o.footprintFactor = 1.05;
    o.runs = 1;
    const Table3Row row = runTable3(WorkloadKind::BTree, o);
    const double ratio = static_cast<double>(row.footprintBytes) /
                         (4.0 * 1024 * pageSize);
    EXPECT_NEAR(ratio, 1.05, 0.05);
}

TEST(Table4, BothVmsSwapUnderOvercommit)
{
    Table4Options o;
    o.memFrames = 4 * 1024;
    o.footprintFactor = 1.10;
    const Table4Row row = runTable4(WorkloadKind::Gups, o);
    EXPECT_GT(row.linuxSwapIo.mean(), 0.0);
    EXPECT_GT(row.mosaicSwapIo.mean(), 0.0);
}

TEST(Table4, DifferencePctSignConvention)
{
    Table4Row row;
    row.linuxSwapIo.add(100.0);
    row.mosaicSwapIo.add(80.0);
    EXPECT_DOUBLE_EQ(row.differencePct(), 20.0);
    Table4Row worse;
    worse.linuxSwapIo.add(100.0);
    worse.mosaicSwapIo.add(120.0);
    EXPECT_DOUBLE_EQ(worse.differencePct(), -20.0);
}

TEST(Table4, MosaicCompetitiveOnCyclicWorkload)
{
    // Graph500's repeated sweeps are LRU-hostile; mosaic's perturbed
    // eviction should not swap dramatically more than the baseline
    // (the paper reports mosaic matching or beating Linux beyond the
    // edge case).
    Table4Options o;
    o.memFrames = 4 * 1024;
    o.footprintFactor = 1.14;
    const Table4Row row = runTable4(WorkloadKind::Graph500, o);
    EXPECT_GT(row.linuxSwapIo.mean(), 0.0);
    EXPECT_LT(row.mosaicSwapIo.mean(), row.linuxSwapIo.mean() * 1.5);
}

} // namespace
} // namespace mosaic
