/**
 * @file
 * The design bake-off and the TranslationSim design wiring: spec
 * coverage, tiny-run shape, the memoized walker pinned against the
 * values of a walker that looked every answer up, and scalar-vs-
 * batched equivalence of the design path (DESIGN.md §13/§14).
 */

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <variant>
#include <vector>

#include "core/bakeoff.hh"
#include "core/batch_pipeline.hh"
#include "core/experiments.hh"
#include "core/translation_sim.hh"
#include "hash/mix.hh"
#include "telemetry/report.hh"
#include "tlb/design_registry.hh"
#include "workloads/access_sink.hh"
#include "workloads/warp.hh"

using namespace mosaic;

namespace
{

/** A small sim with a registry vanilla + mosaic design after an
 *  identical-geometry grid. */
TranslationSimConfig
smallDesignConfig()
{
    TranslationSimConfig config;
    config.memory = ampleGeometry(std::uint64_t{8} << 20);
    config.tlbEntries = 64;
    config.waysList = {4};
    config.arities = {8};
    config.kernel.accessEvery = 0;
    config.designWays = 4;
    config.designSpecs = {"vanilla", "mosaic:arity=8"};
    return config;
}

/** Deterministic reference stream over a 4 MiB region. */
Addr
streamAddr(std::uint64_t i)
{
    return addrOf(mix64(i) % 1024);
}

void
expectStatsEq(const TlbStats &a, const TlbStats &b, const char *what)
{
    EXPECT_EQ(a.accesses, b.accesses) << what;
    EXPECT_EQ(a.hits, b.hits) << what;
    EXPECT_EQ(a.misses, b.misses) << what;
    EXPECT_EQ(a.subEntryFills, b.subEntryFills) << what;
    EXPECT_EQ(a.evictions, b.evictions) << what;
    EXPECT_EQ(a.invalidations, b.invalidations) << what;
}

} // namespace

TEST(Bakeoff, SpecsCoverEveryRegisteredKind)
{
    const BakeoffOptions options;
    const std::vector<std::string> specs = bakeoffSpecs(options, 16);
    ASSERT_EQ(specs.size(), translationDesignKinds().size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const std::string kind = specs[i].substr(0, specs[i].find(':'));
        EXPECT_EQ(kind, translationDesignKinds()[i]);
        EXPECT_TRUE(makeTranslationDesign(specs[i]).ok()) << specs[i];
    }
    // The mosaic-backed designs really are pinned to the arity.
    EXPECT_NE(specs[1].find("arity=16"), std::string::npos);
    EXPECT_NE(specs[4].find("arity=16"), std::string::npos);
    EXPECT_NE(specs[5].find("arity=16"), std::string::npos);
}

TEST(Bakeoff, TinyRunHasTheExpectedShape)
{
    BakeoffOptions options;
    options.scale = 0.02;
    options.kinds = {WorkloadKind::Gups};
    options.arities = {4};
    const std::vector<BakeoffCell> cells = runBakeoff(options);

    ASSERT_EQ(cells.size(), 1u);
    const BakeoffCell &cell = cells[0];
    EXPECT_EQ(cell.kind, WorkloadKind::Gups);
    EXPECT_EQ(cell.arity, 4u);
    EXPECT_GT(cell.accesses, 0u);
    ASSERT_EQ(cell.designs.size(), translationDesignKinds().size());

    for (std::size_t i = 0; i < cell.designs.size(); ++i) {
        const BakeoffDesignResult &d = cell.designs[i];
        EXPECT_EQ(d.kind, translationDesignKinds()[i]);
        // Kernel stream off: every design sees every data reference.
        EXPECT_EQ(d.metric("accesses"), cell.accesses) << d.kind;
        EXPECT_EQ(d.metric("hits") + d.metric("misses"), cell.accesses)
            << d.kind;
        EXPECT_GE(d.missRate(), 0.0);
        EXPECT_LE(d.missRate(), 1.0);
        EXPECT_GT(d.metric("walkRefs"), 0u) << d.kind;
        EXPECT_GT(d.metric("reachPages"), 0u) << d.kind;
    }
    // The PWC only discounts walk cost; it never changes hit/miss.
    EXPECT_LT(cell.designs[5].metric("walkRefs"),
              cell.designs[1].metric("walkRefs"));
    EXPECT_EQ(cell.designs[5].metric("misses"),
              cell.designs[1].metric("misses"));

    telemetry::BenchReport report("bakeoff_test");
    recordBakeoff(report.metrics(), cell);
    const std::string json = report.metricsJson();
    EXPECT_NE(json.find("bakeoff.gups.arity4.vanilla.misses"),
              std::string::npos);
    EXPECT_NE(json.find("bakeoff.gups.arity4.range.walkRefs"),
              std::string::npos);
    EXPECT_NE(json.find("bakeoff.gups.arity4.pwc.pwcHits"),
              std::string::npos);
    // The rate is exported as a gauge, not truncated to a count.
    const double vanilla_rate = std::get<double>(
        report.metrics().at("bakeoff.gups.arity4.vanilla.missRate"));
    EXPECT_GT(vanilla_rate, 0.0);
    EXPECT_EQ(vanilla_rate, cell.designs[0].missRate());
}

// PR 7 found the stride prefetcher inert on the paper workloads:
// their random streams never confirm a stride, so it issued zero
// prefetches. The warp engine's page-strided lane pattern (lane l at
// cursor + l*8 KiB = constant vpn delta 2 within a warp instruction)
// is exactly what the arbitrary-stride detector confirms on — on
// this stream the design must actually issue and fill prefetches
// (DESIGN.md §15).
TEST(Bakeoff, StridePrefetcherNonInertOnWarpStream)
{
    BakeoffOptions options;
    options.scale = 0.05;
    options.kinds = {WorkloadKind::WarpGpu};
    options.arities = {8};
    const std::vector<BakeoffCell> cells = runBakeoff(options);
    ASSERT_EQ(cells.size(), 1u);
    const BakeoffCell &cell = cells[0];
    ASSERT_EQ(cell.designs.size(), translationDesignKinds().size());
    const BakeoffDesignResult &stride = cell.designs[4];
    EXPECT_EQ(stride.kind, "stride");
    EXPECT_GT(stride.metric("prefetchesIssued"), 0u);
    EXPECT_GT(stride.metric("prefetchFills"), 0u);
}

// Issuing prefetches only pays when the prefetch distance (stride *
// degree pages) crosses a mosaic group boundary: targets inside the
// group the miss just filled hit contains() and are dropped. With
// arity 4 and a 2-page lane stride the targets land in the next
// group, and under capacity pressure the stride design beats its
// mosaic base outright (DESIGN.md §15 records the numbers).
TEST(Bakeoff, StridePrefetcherBeatsMosaicAcrossGroupBoundaries)
{
    WarpConfig wc;
    wc.warpWidth = 32;
    wc.numWarps = 1;
    wc.bufferBytes = 4u << 20; // 1024 pages, looped ~2.5 times
    wc.laneStrideBytes = 8192;
    wc.coalesceFactor = 0.0; // every instruction page-strided
    wc.divergenceRate = 0.0;
    wc.numInstructions = 40'000;
    WarpGpu warp(wc);
    VectorSink sink;
    warp.run(sink);

    TranslationSimConfig config;
    config.memory = ampleGeometry(wc.bufferBytes);
    config.tlbEntries = 64; // reach 256 pages < 1024-page loop
    config.waysList = {};
    config.arities = {4};
    config.kernel.accessEvery = 0;
    config.designWays = 4;
    config.designSpecs = {"mosaic:arity=4",
                          "stride:base=mosaic,arity=4,mode=arbitrary"};
    TranslationSim sim(config);
    for (const MemRef &ref : sink.trace())
        sim.access(ref.vaddr, ref.write);

    const std::uint64_t mosaic_misses = sim.design(0).stats().misses;
    const std::uint64_t stride_misses = sim.design(1).stats().misses;
    EXPECT_GT(sim.design(1).counters().prefetchesIssued, 0u);
    EXPECT_GT(sim.design(1).counters().prefetchFills, 0u);
    // >10 % fewer misses: the leading-edge group of each warp window
    // is resident before its first lane arrives.
    EXPECT_LT(stride_misses * 10, mosaic_misses * 9);
}

TEST(Bakeoff, BatchedDesignPathMatchesScalar)
{
    TranslationSim scalar(smallDesignConfig());
    TranslationSim batched(smallDesignConfig());

    std::vector<MemRef> refs;
    for (std::uint64_t i = 0; i < 6000; ++i)
        refs.push_back(MemRef{streamAddr(i), false});

    for (const MemRef &ref : refs)
        scalar.access(ref.vaddr, ref.write);
    for (std::size_t i = 0; i < refs.size(); i += 7) {
        const std::size_t n = std::min<std::size_t>(7, refs.size() - i);
        batched.accessBatch({refs.data() + i, n});
    }

    // Grid vanilla, grid mosaic, then the two specs.
    ASSERT_EQ(scalar.numDesigns(), 4u);
    ASSERT_EQ(batched.numDesigns(), 4u);
    for (std::size_t d = 0; d < scalar.numDesigns(); ++d) {
        expectStatsEq(scalar.design(d).stats(), batched.design(d).stats(),
                      scalar.design(d).name().c_str());
        EXPECT_EQ(scalar.design(d).counters().walkRefs,
                  batched.design(d).counters().walkRefs);
        EXPECT_EQ(scalar.design(d).validEntries(),
                  batched.design(d).validEntries());
        EXPECT_EQ(scalar.design(d).reachPages(),
                  batched.design(d).reachPages());
        // Every miss cost one full radix walk, nothing more.
        EXPECT_EQ(scalar.design(d).counters().walkRefs,
                  scalar.design(d).stats().misses * 4)
            << scalar.design(d).name();
    }
    EXPECT_GT(scalar.design(0).stats().misses, 0u);
    EXPECT_GT(scalar.design(0).stats().hits, 0u);
}

// Fast path == plain path for the walker. The memoized walker (the
// current reference's PFN and one 64-wide leaf per reference) must
// give every design exactly what a walker that looked each answer up
// in a per-page CPFN record gave it. These values were generated with
// that plain walker; only the grid's walkRefs, which it did not
// count, are derived (misses x 4). The specs read arities the grid
// lacks, neighbour PTEs and prefetch targets off the memo.
TEST(Bakeoff, MemoizedWalkerMatchesPlainWalker)
{
    // Grid vanilla, grid mosaic:arity=4, then the five specs: TlbStats
    // (accesses..invalidations), then DesignCounters (walkRefs..
    // regionFills).
    const std::array<std::array<std::uint64_t, 12>, 7> expected = {{
        {7500, 81, 7419, 0, 7355, 0, 29676, 0, 0, 0, 0, 0},
        {7500, 2470, 5030, 1090, 3876, 0, 20120, 0, 0, 0, 0, 0},
        {7500, 81, 7419, 0, 7355, 0, 29676, 0, 0, 0, 0, 0},
        {7500, 4468, 3032, 2872, 96, 0, 12128, 0, 0, 0, 0, 0},
        {7500, 4468, 3032, 5743, 96, 0, 23852, 0, 0, 2990, 2871, 0},
        {7500, 1709, 5791, 0, 5191, 0, 63701, 0, 0, 0, 0, 1044},
        {7500, 666, 6834, 0, 6770, 0, 49309, 0, 0, 0, 0, 43},
    }};
    TranslationSimConfig config;
    config.memory.numFrames = 64 * 256;
    config.tlbEntries = 64;
    config.waysList = {4};
    config.arities = {4};
    config.kernel.accessEvery = 0;
    config.designWays = 4;
    config.designSpecs = {"mosaic:arity=1", "mosaic:arity=64",
                          "stride:base=mosaic,arity=64,mode=arbitrary",
                          "coalesced", "perforated"};

    // Sequential, 2-page-strided and random phases of 256 references,
    // in five turns of 1,500 over three address spaces.
    std::vector<MemRef> refs;
    for (std::uint64_t i = 0; i < 7500; ++i) {
        const std::uint64_t phase = (i / 256) % 3;
        const Vpn vpn = phase == 0   ? 512 + i % 256
                        : phase == 1 ? 1024 + (i % 256) * 2
                                     : mix64(i) % 2048;
        refs.push_back(MemRef{addrOf(vpn), false});
    }
    const Asid asids[] = {1, 2, 3, 1, 2};
    constexpr std::size_t turn = 1500;

    for (const std::size_t block : {1u, 7u, 64u}) {
        TranslationSim sim(config);
        for (std::size_t t = 0; t < std::size(asids); ++t) {
            sim.setActiveAsid(asids[t]);
            for (std::size_t at = t * turn; at < (t + 1) * turn;
                 at += block) {
                const std::size_t n = std::min(block, (t + 1) * turn - at);
                if (block == 1)
                    sim.access(refs[at].vaddr, refs[at].write);
                else
                    sim.accessBatch({refs.data() + at, n});
            }
        }
        ASSERT_EQ(sim.numDesigns(), expected.size());
        for (std::size_t d = 0; d < expected.size(); ++d) {
            const TlbStats &s = sim.design(d).stats();
            const DesignCounters c = sim.design(d).counters();
            const std::array<std::uint64_t, 12> got = {
                s.accesses, s.hits, s.misses, s.subEntryFills,
                s.evictions, s.invalidations, c.walkRefs, c.pwcLookups,
                c.pwcHits, c.prefetchesIssued, c.prefetchFills,
                c.regionFills};
            EXPECT_EQ(got, expected[d])
                << sim.design(d).name() << " block " << block;
        }
    }
}
