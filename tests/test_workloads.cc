/**
 * @file
 * Tests for the workload engines: footprint accounting, address
 * range containment, determinism, and algorithmic sanity (BFS
 * reachability, B+-tree lookup correctness, access mix).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <set>
#include <vector>

#include "core/batch_pipeline.hh"
#include "core/experiments.hh"
#include "core/translation_sim.hh"
#include "workloads/access_sink.hh"
#include "workloads/btree.hh"
#include "workloads/factory.hh"
#include "workloads/graph500.hh"
#include "workloads/gups.hh"
#include "workloads/kv_server.hh"
#include "workloads/scan_analytics.hh"
#include "workloads/virtual_arena.hh"
#include "workloads/warp.hh"
#include "workloads/web_session.hh"
#include "workloads/xsbench.hh"

namespace mosaic
{
namespace
{

/** Verifies that every access falls inside an arena-like range. */
class RangeSink : public AccessSink
{
  public:
    void
    access(Addr vaddr, bool write) override
    {
        ++count_;
        writes_ += write ? 1 : 0;
        min_ = std::min(min_, vaddr);
        max_ = std::max(max_, vaddr);
    }

    std::uint64_t count_ = 0;
    std::uint64_t writes_ = 0;
    Addr min_ = ~Addr{0};
    Addr max_ = 0;
};

TEST(VirtualArena, RegionsAreAlignedAndDisjoint)
{
    VirtualArena arena;
    const ArenaRegion a = arena.allocate("a", 1000);
    const ArenaRegion b = arena.allocate("b", 5000);
    EXPECT_EQ(a.base % VirtualArena::regionAlign, 0u);
    EXPECT_EQ(b.base % VirtualArena::regionAlign, 0u);
    EXPECT_GE(b.base, a.base + a.bytes);
    EXPECT_EQ(arena.regions().size(), 2u);
    EXPECT_EQ(arena.footprintBytes(), 6000u);
}

TEST(VirtualArena, ElementAddressing)
{
    VirtualArena arena;
    const ArenaRegion r = arena.allocate("r", 4096);
    EXPECT_EQ(r.element(3, 8), r.base + 24);
    EXPECT_EQ(r.at(100), r.base + 100);
}

TEST(VirtualArena, FootprintPagesRoundsPerRegion)
{
    VirtualArena arena;
    arena.allocate("a", 1);
    arena.allocate("b", 4097);
    EXPECT_EQ(arena.footprintPages(), 3u);
}

Graph500Config
tinyGraph()
{
    Graph500Config c;
    c.numVertices = 4096;
    c.edgeFactor = 8;
    c.numBfsRoots = 2;
    return c;
}

TEST(Graph500, FootprintMatchesArrays)
{
    Graph500 g(tinyGraph());
    // xadj + adj + parent + queue, with region alignment padding.
    const std::uint64_t raw = (4096 + 1) * 8 + 4096ull * 8 * 2 * 4 +
                              4096 * 4 + 4096 * 4;
    EXPECT_GE(g.info().footprintBytes, raw);
    EXPECT_LT(g.info().footprintBytes, raw + 8 * 256 * 1024);
    EXPECT_EQ(g.info().name, "graph500");
}

TEST(Graph500, BfsReachesMostVertices)
{
    Graph500 g(tinyGraph());
    CountingSink sink;
    g.run(sink);
    // R-MAT with edge factor 8 has a giant connected component.
    EXPECT_GT(g.lastBfsReached(), 4096u / 2);
}

TEST(Graph500, EmitsAccessesWithinFootprint)
{
    Graph500 g(tinyGraph());
    RangeSink sink;
    g.run(sink);
    EXPECT_GT(sink.count_, 4096u);
    EXPECT_GT(sink.writes_, 0u);
    // All below the arena's high mark (base 1 GiB + footprint).
    EXPECT_GE(sink.min_, Addr{1} << 30);
    EXPECT_LT(sink.max_, (Addr{1} << 30) + (Addr{1} << 30));
}

TEST(Graph500, DeterministicTrace)
{
    Graph500 a(tinyGraph()), b(tinyGraph());
    VectorSink sa, sb;
    a.run(sa);
    b.run(sb);
    ASSERT_EQ(sa.trace().size(), sb.trace().size());
    for (std::size_t i = 0; i < sa.trace().size(); i += 997) {
        EXPECT_EQ(sa.trace()[i].vaddr, sb.trace()[i].vaddr);
        EXPECT_EQ(sa.trace()[i].write, sb.trace()[i].write);
    }
}

TEST(Graph500, CsrIsPinnedAtTwoSeeds)
{
    // FNV-1a digests of the CSR (xadj then adj, each entry as 8
    // little-endian bytes), recorded before the R-MAT quadrant pick
    // went branch-free: the generator must stay bit-identical.
    const auto digest = [](const Graph500 &g) {
        std::uint64_t d = 0xcbf29ce484222325ull;
        const auto mix = [&d](std::uint64_t v) {
            for (unsigned i = 0; i < 8; ++i) {
                d ^= (v >> (8 * i)) & 0xFF;
                d *= 0x100000001B3ull;
            }
        };
        for (const std::uint64_t x : g.csrOffsets())
            mix(x);
        for (const std::uint32_t x : g.csrAdjacency())
            mix(x);
        return d;
    };
    const std::pair<std::uint64_t, std::uint64_t> pinned[] = {
        {1, 16994813260709141137ull},
        {2, 13354290289608008335ull},
    };
    for (const auto &[seed, expected] : pinned) {
        Graph500Config c = tinyGraph();
        c.seed = seed;
        const Graph500 g(c);
        ASSERT_EQ(g.csrOffsets().size(), 4097u);
        ASSERT_EQ(g.csrAdjacency().size(), 4096u * 8 * 2);
        EXPECT_EQ(digest(g), expected) << "seed " << seed;
    }
}

TEST(Graph500, ConstructionTracingAddsKernel1)
{
    Graph500Config with = tinyGraph();
    with.traceConstruction = true;
    Graph500 a(with), b(tinyGraph());
    CountingSink sa, sb;
    a.run(sa);
    b.run(sb);
    // Kernel 1 roughly adds >= 6 accesses per generated edge.
    EXPECT_GT(sa.accesses(), sb.accesses() + 6 * 4096ull * 8);
    // And an extra region for the edge list.
    EXPECT_GT(a.info().footprintBytes, b.info().footprintBytes);
}

TEST(Graph500, ConstructionWritesPrefixSumSequentially)
{
    Graph500Config c = tinyGraph();
    c.traceConstruction = true;
    Graph500 g(c);
    VectorSink sink;
    g.run(sink);
    // The trace must contain writes (degree counting/scatter).
    std::uint64_t writes = 0;
    for (const MemRef &ref : sink.trace())
        writes += ref.write ? 1 : 0;
    EXPECT_GT(writes, 4096u * 8 * 2); // >= 2 per generated edge
}

TEST(Graph500, SeedChangesGraph)
{
    Graph500Config c1 = tinyGraph();
    Graph500Config c2 = tinyGraph();
    c2.seed = 99;
    Graph500 a(c1), b(c2);
    CountingSink sa, sb;
    a.run(sa);
    b.run(sb);
    EXPECT_NE(sa.accesses(), sb.accesses());
}

BTreeConfig
tinyTree()
{
    BTreeConfig c;
    c.numKeys = 100'000;
    c.numLookups = 2'000;
    return c;
}

TEST(BTree, HeightIsLogarithmic)
{
    BTreeIndex t(tinyTree());
    // 100k keys / 256 per leaf = 391 leaves; +2 inner levels.
    EXPECT_EQ(t.height(), 3u);
}

TEST(BTree, LookupFindsPresentKeysOnly)
{
    BTreeIndex t(tinyTree());
    CountingSink sink;
    // Keys are 2*i: evens present, odds absent.
    EXPECT_TRUE(t.lookup(0, sink));
    EXPECT_TRUE(t.lookup(2 * 77, sink));
    EXPECT_TRUE(t.lookup(2 * 99'999, sink));
    EXPECT_FALSE(t.lookup(1, sink));
    EXPECT_FALSE(t.lookup(2 * 77 + 1, sink));
    EXPECT_FALSE(t.lookup(2 * 100'000, sink));
}

TEST(BTree, RandomLookupsHitAboutHalf)
{
    BTreeIndex t(tinyTree());
    CountingSink sink;
    t.run(sink);
    const double hit_rate =
        static_cast<double>(t.lastRunHits()) / 2000.0;
    EXPECT_GT(hit_rate, 0.40);
    EXPECT_LT(hit_rate, 0.60);
}

TEST(BTree, AccessesStayInNodeRegion)
{
    BTreeIndex t(tinyTree());
    RangeSink sink;
    t.run(sink);
    EXPECT_GT(sink.count_, 2000u * t.height());
    EXPECT_LT(sink.max_ - sink.min_, t.info().footprintBytes);
}

TEST(BTree, InsertAddsFindableKeys)
{
    BTreeIndex t(tinyTree());
    CountingSink sink;
    // Odd keys are absent in the bulk-loaded tree.
    EXPECT_FALSE(t.lookup(101, sink));
    EXPECT_TRUE(t.insert(101, sink));
    EXPECT_TRUE(t.lookup(101, sink));
    // Duplicate insert is rejected.
    EXPECT_FALSE(t.insert(101, sink));
    // Existing even keys unaffected.
    EXPECT_TRUE(t.lookup(100, sink));
}

TEST(BTree, InsertsSplitNodes)
{
    BTreeConfig c;
    c.numKeys = 10'000;
    c.numLookups = 0;
    BTreeIndex t(c);
    const std::size_t nodes_before = t.nodeCount();
    CountingSink sink;
    // Hammer one leaf's key range: it must split.
    for (std::uint64_t k = 1; k < 600; k += 2)
        ASSERT_TRUE(t.insert(k, sink));
    EXPECT_GT(t.splits(), 0u);
    EXPECT_GT(t.nodeCount(), nodes_before);
    // All inserted and original keys remain findable.
    for (std::uint64_t k = 1; k < 600; k += 2)
        EXPECT_TRUE(t.lookup(k, sink)) << k;
    for (std::uint64_t k = 0; k < 600; k += 2)
        EXPECT_TRUE(t.lookup(k, sink)) << k;
}

TEST(BTree, RootSplitGrowsHeight)
{
    BTreeConfig c;
    c.numKeys = 2; // a single tiny leaf root
    c.numLookups = 0;
    c.numInserts = 2000;
    BTreeIndex t(c);
    EXPECT_EQ(t.height(), 1u);
    CountingSink sink;
    for (std::uint64_t k = 1; k < 2 * 256 + 10; k += 1)
        t.insert(k * 2 + 1, sink);
    EXPECT_GE(t.height(), 2u);
    // Spot-check integrity after the root split.
    EXPECT_TRUE(t.lookup(3, sink));
    EXPECT_TRUE(t.lookup(2 * 256 * 2 + 1, sink));
}

TEST(BTree, MixedRunWithInserts)
{
    BTreeConfig c;
    c.numKeys = 50'000;
    c.numLookups = 5'000;
    c.numInserts = 2'000;
    BTreeIndex t(c);
    CountingSink sink;
    t.run(sink);
    EXPECT_GT(sink.writes(), 0u);
    EXPECT_GT(sink.accesses(), 5'000u * t.height());
}

TEST(BTree, FootprintTracksNodeCount)
{
    BTreeIndex t(tinyTree());
    // >= keys * 16 bytes, < keys * 18 (inner overhead ~0.4 %).
    EXPECT_GE(t.info().footprintBytes, 100'000u * 16);
    EXPECT_LT(t.info().footprintBytes, 100'000u * 18 + 256 * 1024);
}

TEST(Gups, EmitsReadWritePairs)
{
    GupsConfig c;
    c.tableEntries = 1 << 16;
    c.numUpdates = 1000;
    Gups g(c);
    VectorSink sink;
    g.run(sink);
    ASSERT_EQ(sink.trace().size(), 2000u);
    for (std::size_t i = 0; i < sink.trace().size(); i += 2) {
        EXPECT_FALSE(sink.trace()[i].write);
        EXPECT_TRUE(sink.trace()[i + 1].write);
        EXPECT_EQ(sink.trace()[i].vaddr, sink.trace()[i + 1].vaddr);
    }
}

TEST(Gups, AddressesSpreadOverTable)
{
    GupsConfig c;
    c.tableEntries = 1 << 16; // 512 KiB
    c.numUpdates = 20'000;
    Gups g(c);
    RangeSink sink;
    g.run(sink);
    // Uniform random updates must span most of the table.
    EXPECT_GT(sink.max_ - sink.min_,
              (c.tableEntries * 8) * 9 / 10);
}

XsBenchConfig
tinyXs()
{
    XsBenchConfig c;
    c.numNuclides = 16;
    c.gridpointsPerNuclide = 512;
    c.numLookups = 500;
    return c;
}

TEST(XsBench, MaterialCompositionShape)
{
    XsBench x(tinyXs());
    // Fuel holds at least half the nuclides; others are small.
    EXPECT_GE(x.material(0).size(), 8u);
    for (unsigned m = 1; m < 12; ++m) {
        EXPECT_GE(x.material(m).size(), 3u);
        EXPECT_LE(x.material(m).size(), 15u);
    }
}

TEST(XsBench, UnionizedGridSize)
{
    XsBench x(tinyXs());
    EXPECT_EQ(x.unionizedPoints(), 16u * 512);
}

TEST(XsBench, LookupsEmitSearchPlusGather)
{
    XsBench x(tinyXs());
    CountingSink sink;
    x.run(sink);
    // Each lookup: ~log2(8192)=13 search probes + >= 3*3 gathers.
    EXPECT_GT(sink.accesses(), 500u * 13);
}

TEST(XsBench, Deterministic)
{
    XsBench a(tinyXs()), b(tinyXs());
    VectorSink sa, sb;
    a.run(sa);
    b.run(sb);
    ASSERT_EQ(sa.trace().size(), sb.trace().size());
    EXPECT_EQ(sa.trace().back().vaddr, sb.trace().back().vaddr);
}

TEST(Factory, NamesMatchPaper)
{
    EXPECT_EQ(workloadName(WorkloadKind::Graph500), "Graph500");
    EXPECT_EQ(workloadName(WorkloadKind::BTree), "BTree");
    EXPECT_EQ(workloadName(WorkloadKind::Gups), "GUPS");
    EXPECT_EQ(workloadName(WorkloadKind::XsBench), "XSBench");
    EXPECT_EQ(workloadName(WorkloadKind::WarpGpu), "WarpGPU");
    EXPECT_EQ(workloadName(WorkloadKind::KvServer), "KVServer");
    EXPECT_EQ(workloadName(WorkloadKind::WebSession), "WebSession");
    EXPECT_EQ(workloadName(WorkloadKind::ScanAnalytics),
              "ScanAnalytics");
}

// ---------------------------------------------------------------
// Scenario-diversity engines (DESIGN.md §15): determinism
// contracts, batch-vs-scalar equality, and distribution sanity.
// ---------------------------------------------------------------

class ScenarioEngineTest : public ::testing::TestWithParam<WorkloadKind>
{
  protected:
    /** A small fig6-shaped instance of the engine under test. */
    static std::unique_ptr<Workload>
    make()
    {
        return makeFig6Workload(GetParam(), 1.0 / 64, 7);
    }
};

// Same config ⇒ byte-identical reference stream, across fresh
// instances and across re-runs of one instance.
TEST_P(ScenarioEngineTest, DeterministicTrace)
{
    const auto a = make();
    const auto b = make();
    VectorSink sa, sb, sa2;
    a->run(sa);
    b->run(sb);
    a->run(sa2); // run() must be re-executable from scratch
    ASSERT_GT(sa.trace().size(), 1000u) << workloadName(GetParam());
    ASSERT_EQ(sa.trace().size(), sb.trace().size());
    ASSERT_EQ(sa.trace().size(), sa2.trace().size());
    for (std::size_t i = 0; i < sa.trace().size(); ++i) {
        ASSERT_EQ(sa.trace()[i].vaddr, sb.trace()[i].vaddr) << i;
        ASSERT_EQ(sa.trace()[i].write, sb.trace()[i].write) << i;
        ASSERT_EQ(sa.trace()[i].vaddr, sa2.trace()[i].vaddr) << i;
        ASSERT_EQ(sa.trace()[i].write, sa2.trace()[i].write) << i;
    }
}

TEST_P(ScenarioEngineTest, SeedChangesStream)
{
    const auto a = makeFig6Workload(GetParam(), 1.0 / 64, 7);
    const auto b = makeFig6Workload(GetParam(), 1.0 / 64, 8);
    VectorSink sa, sb;
    a->run(sa);
    b->run(sb);
    bool differs = sa.trace().size() != sb.trace().size();
    for (std::size_t i = 0; !differs && i < sa.trace().size(); ++i)
        differs = sa.trace()[i].vaddr != sb.trace()[i].vaddr;
    EXPECT_TRUE(differs) << workloadName(GetParam());
}

TEST_P(ScenarioEngineTest, AccessesStayInsideArena)
{
    const auto w = make();
    RangeSink sink;
    w->run(sink);
    EXPECT_GE(sink.min_, Addr{1} << 30);
    EXPECT_LT(sink.max_, (Addr{1} << 30) + (Addr{1} << 30));
    EXPECT_GT(sink.writes_, 0u) << workloadName(GetParam());
    EXPECT_LT(sink.writes_, sink.count_) << workloadName(GetParam());
}

// The batched translation path must be bit-exact against scalar for
// the new engines' streams at every block size, including partial
// tail blocks (7) and the bench defaults (64, 128).
TEST_P(ScenarioEngineTest, BatchedTranslationMatchesScalar)
{
    const auto w = make();
    VectorSink recorded;
    w->run(recorded);

    TranslationSimConfig config;
    config.memory = ampleGeometry(w->info().footprintBytes);
    config.tlbEntries = 128;
    config.waysList = {4};
    config.arities = {8};
    config.kernel.accessEvery = 0;
    config.designWays = 4;
    config.designSpecs = {"vanilla", "mosaic:arity=8",
                          "stride:base=mosaic,arity=8,mode=arbitrary"};

    TranslationSim scalar(config);
    for (const MemRef &ref : recorded.trace())
        scalar.access(ref.vaddr, ref.write);

    for (const unsigned block : {1u, 7u, 64u, 128u}) {
        TranslationSim batched(config);
        {
            BatchTranslationSink sink(batched, block);
            for (const MemRef &ref : recorded.trace())
                sink.access(ref.vaddr, ref.write);
            sink.flush();
        }
        ASSERT_EQ(scalar.numDesigns(), batched.numDesigns());
        for (std::size_t d = 0; d < scalar.numDesigns(); ++d) {
            const auto &s = scalar.design(d);
            const auto &b = batched.design(d);
            EXPECT_EQ(s.stats().hits, b.stats().hits)
                << workloadName(GetParam()) << " block " << block
                << " design " << s.name();
            EXPECT_EQ(s.stats().misses, b.stats().misses)
                << workloadName(GetParam()) << " block " << block
                << " design " << s.name();
            EXPECT_EQ(s.counters().walkRefs, b.counters().walkRefs)
                << workloadName(GetParam()) << " block " << block;
            EXPECT_EQ(s.reachPages(), b.reachPages())
                << workloadName(GetParam()) << " block " << block;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, ScenarioEngineTest,
    ::testing::Values(WorkloadKind::WarpGpu, WorkloadKind::KvServer,
                      WorkloadKind::WebSession,
                      WorkloadKind::ScanAnalytics));

TEST(WarpGpu, CoalescingCollapsesTransactions)
{
    WarpConfig c;
    c.warpWidth = 32;
    c.numWarps = 4;
    c.bufferBytes = 4 << 20;
    c.numInstructions = 20'000;
    c.divergenceRate = 0.0;
    c.coalesceFactor = 1.0; // every instruction fully coalesced
    WarpGpu coalesced(c);
    CountingSink sink;
    coalesced.run(sink);
    ASSERT_EQ(coalesced.instructionsIssued(), c.numInstructions);
    EXPECT_EQ(coalesced.divergentInstructions(), 0u);
    // 32 lanes * 8 B = 256 B per instruction: at most 3 segments of
    // 128 B each (wraparound can split the run once).
    const double ratio =
        static_cast<double>(coalesced.memoryTransactions()) /
        static_cast<double>(coalesced.instructionsIssued());
    EXPECT_GE(ratio, 1.0);
    EXPECT_LE(ratio, 3.0);

    // Page-strided lanes can never share a 128 B segment.
    c.coalesceFactor = 0.0;
    WarpGpu strided(c);
    strided.run(sink);
    const double strided_ratio =
        static_cast<double>(strided.memoryTransactions()) /
        static_cast<double>(strided.instructionsIssued());
    EXPECT_EQ(strided_ratio, static_cast<double>(c.warpWidth));
}

TEST(WarpGpu, DivergenceIsCountedAndBounded)
{
    WarpConfig c;
    c.numWarps = 4;
    c.bufferBytes = 4 << 20;
    c.numInstructions = 50'000;
    c.divergenceRate = 0.2;
    WarpGpu w(c);
    CountingSink sink;
    w.run(sink);
    const double rate =
        static_cast<double>(w.divergentInstructions()) /
        static_cast<double>(w.instructionsIssued());
    EXPECT_GT(rate, 0.15);
    EXPECT_LT(rate, 0.25);
}

// Rank-frequency of the KV key stream must follow the configured
// Zipf skew: on a log-log plot, frequency(rank) has slope ~ -theta.
TEST(KvServer, ZipfRankFrequencySlope)
{
    KvServerConfig c;
    c.numKeys = 16'384;
    c.hotKeyFraction = 1.0; // Zipf over the whole key space
    c.hotOpFraction = 1.0;  // every op drawn from the Zipf sampler
    c.zipfTheta = 0.99;
    c.numOps = 400'000;
    KvServer kv(c);
    CountingSink sink;
    kv.run(sink);

    std::vector<std::uint32_t> counts = kv.keyOpCounts();
    std::sort(counts.begin(), counts.end(),
              std::greater<std::uint32_t>());
    ASSERT_GT(counts[0], 1000u); // rank 1 dominates
    // Least-squares slope of log(freq) vs log(rank) over the head.
    double sx = 0, sy = 0, sxx = 0, sxy = 0;
    const int n = 100;
    for (int r = 1; r <= n; ++r) {
        const double x = std::log(static_cast<double>(r));
        const double y = std::log(static_cast<double>(counts[r - 1]));
        sx += x;
        sy += y;
        sxx += x * x;
        sxy += x * y;
    }
    const double slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
    EXPECT_LT(slope, -0.85);
    EXPECT_GT(slope, -1.15);
}

TEST(KvServer, GetSetMixMatchesConfig)
{
    KvServerConfig c;
    c.numKeys = 8192;
    c.numOps = 100'000;
    c.getFraction = 0.7;
    KvServer kv(c);
    VectorSink sink;
    kv.run(sink);
    // SETs write every value line; GETs only read the value. Count
    // value-region writes as a proxy for the op mix.
    std::uint64_t writes = 0;
    for (const MemRef &ref : sink.trace())
        writes += ref.write ? 1 : 0;
    EXPECT_GT(writes, 0u);
    EXPECT_LT(writes, sink.trace().size() / 2);
}

TEST(WebSession, ChurnStaysWithinBounds)
{
    WebSessionConfig c;
    c.maxSessions = 512;
    c.arrivalEvery = 8;
    c.meanLifetimeRequests = 2'000;
    c.numRequests = 100'000;
    WebSession w(c);
    CountingSink sink;
    w.run(sink);

    // Warm-up seeds maxSessions/4; arrivals are Bernoulli(1/8) per
    // request, capped by table capacity.
    EXPECT_GE(w.sessionsCreated(), c.maxSessions / 4);
    EXPECT_LE(w.sessionsCreated(),
              c.maxSessions / 4 + c.numRequests / 4);
    EXPECT_GT(w.sessionsExpired(), 0u);
    EXPECT_LE(w.sessionsExpired(), w.sessionsCreated());
    EXPECT_LE(w.peakActiveSessions(), c.maxSessions);
    EXPECT_GE(w.peakActiveSessions(), c.maxSessions / 4);
}

TEST(ScanAnalytics, ScansDominateAndLookupsRecur)
{
    ScanAnalyticsConfig c;
    c.rowCount = 200'000;
    c.numColumns = 3;
    c.passes = 2;
    c.lookupEvery = 64;
    ScanAnalytics s(c);
    CountingSink sink;
    s.run(sink);
    EXPECT_GT(s.linesScanned(), 0u);
    // One dim+agg lookup pair every lookupEvery scanned lines; the
    // cadence counter resets per column scan, so the remainder of
    // each column is truncated.
    const std::uint64_t lines_per_column =
        c.rowCount * c.columnBytes / 64;
    EXPECT_EQ(s.lookupsIssued(), std::uint64_t{c.passes} *
                                     c.numColumns *
                                     (lines_per_column / c.lookupEvery));
    // Sequential scans are the bulk of the stream.
    EXPECT_GT(s.linesScanned(), 2 * s.lookupsIssued());
}

TEST(Factory, Fig6ScaleShrinksFootprint)
{
    const auto small =
        makeFig6Workload(WorkloadKind::Gups, 1.0 / 64);
    const auto smaller =
        makeFig6Workload(WorkloadKind::Gups, 1.0 / 128);
    EXPECT_GT(small->info().footprintBytes,
              smaller->info().footprintBytes);
}

class FactoryFootprintTest
    : public ::testing::TestWithParam<WorkloadKind>
{
};

TEST_P(FactoryFootprintTest, FootprintWithinFivePercentOfTarget)
{
    const std::uint64_t target = std::uint64_t{48} << 20; // 48 MiB
    const auto w = makeFootprintWorkload(GetParam(), target);
    const double ratio =
        static_cast<double>(w->info().footprintBytes) /
        static_cast<double>(target);
    EXPECT_GT(ratio, 0.93) << workloadName(GetParam());
    EXPECT_LT(ratio, 1.07) << workloadName(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, FactoryFootprintTest,
    ::testing::Values(WorkloadKind::Graph500, WorkloadKind::BTree,
                      WorkloadKind::Gups, WorkloadKind::XsBench,
                      WorkloadKind::WarpGpu, WorkloadKind::KvServer,
                      WorkloadKind::WebSession,
                      WorkloadKind::ScanAnalytics));

TEST_P(FactoryFootprintTest, TouchesNearlyWholeFootprint)
{
    const std::uint64_t target = std::uint64_t{16} << 20; // 16 MiB
    const auto w = makeFootprintWorkload(GetParam(), target);
    // Count distinct pages touched.
    class PageSink : public AccessSink
    {
      public:
        void
        access(Addr vaddr, bool) override
        {
            pages.insert(vpnOf(vaddr));
        }
        std::set<Vpn> pages;
    } sink;
    w->run(sink);
    const double touched =
        static_cast<double>(sink.pages.size()) * pageSize /
        static_cast<double>(w->info().footprintBytes);
    EXPECT_GT(touched, 0.90) << workloadName(GetParam());
}

} // namespace
} // namespace mosaic
