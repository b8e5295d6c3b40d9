/**
 * @file
 * Differential tests for the sharded multi-tenant VM engine
 * (DESIGN.md §17): a one-shard ShardedMosaicVm must be stat-for-stat
 * and placement-for-placement identical to a plain MosaicVm over 24
 * seeds × every eviction policy × both sharing modes, and multi-shard
 * machines must preserve the whole-machine conservation invariants
 * checked by the shard oracle while exercising the cross-shard
 * protocols (work stealing, adoption messages, forwarding).
 */

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <map>
#include <vector>

#include "hash/mix.hh"
#include "mem/shard_view.hh"
#include "oracle/shard_oracle.hh"
#include "os/mosaic_vm.hh"
#include "os/sharded_vm.hh"
#include "util/random.hh"
#include "util/thread_pool.hh"

using namespace mosaic;

namespace
{

MemoryGeometry
tinyGeometry(std::size_t buckets)
{
    MemoryGeometry g;
    g.frontSlots = 6;
    g.backSlots = 2;
    g.backChoices = 2;
    g.numFrames = buckets * g.slotsPerBucket();
    return g;
}

struct OpStream
{
    /** One deterministic multi-tenant op mix: mostly touches with an
     *  overcommitted footprint, some unmaps, and (LocationId mode)
     *  cross-ASID shares of whole mosaic pages. */
    OpStream(std::uint64_t seed, unsigned num_asids, std::uint64_t tocs,
             unsigned arity, bool loc_mode)
        : rng(seed), numAsids(num_asids), numTocs(tocs), arity(arity),
          locMode(loc_mode)
    {
    }

    template <typename Vm>
    Pfn
    step(Vm &vm)
    {
        const Asid asid = static_cast<Asid>(1 + rng.below(numAsids));
        const double share_w = (locMode && numAsids >= 2) ? 0.06 : 0.0;
        const unsigned which = rng.pickWeighted({0.82, 0.12, share_w});
        if (which == 0) {
            const std::uint64_t mvpn = rng.below(numTocs);
            const Vpn vpn = mvpn * arity + rng.below(arity);
            return vm.touch(asid, vpn, rng.chance(0.35));
        }
        if (which == 1) {
            vm.unmapRange(asid, rng.below(numTocs * arity),
                          1 + rng.below(2 * std::uint64_t{arity}));
            return invalidPfn;
        }
        Asid da = static_cast<Asid>(1 + rng.below(numAsids));
        while (da == asid)
            da = static_cast<Asid>(1 + rng.below(numAsids));
        const Vpn sv = rng.below(numTocs) * arity;
        const Vpn dv = rng.below(numTocs) * arity;
        // Skip rule mirrors the fuzz harness: destination unbound.
        if (!vm.hasLocationBinding(da, dv))
            vm.shareRange(asid, sv, da, dv, arity);
        return invalidPfn;
    }

    Rng rng;
    unsigned numAsids;
    std::uint64_t numTocs;
    unsigned arity;
    bool locMode;
};

void
expectStatsEqual(const VmStats &a, const VmStats &b)
{
    EXPECT_EQ(a.minorFaults, b.minorFaults);
    EXPECT_EQ(a.majorFaults, b.majorFaults);
    EXPECT_EQ(a.swapIns, b.swapIns);
    EXPECT_EQ(a.swapOuts, b.swapOuts);
    EXPECT_EQ(a.conflicts, b.conflicts);
    EXPECT_EQ(a.recoveredConflicts, b.recoveredConflicts);
    EXPECT_EQ(a.ghostEvictions, b.ghostEvictions);
    EXPECT_EQ(a.ghostRescues, b.ghostRescues);
    EXPECT_EQ(a.firstConflictUtilization, b.firstConflictUtilization);
    EXPECT_EQ(a.firstSwapOutUtilization, b.firstSwapOutUtilization);
    EXPECT_EQ(a.steadyUtilization.count(), b.steadyUtilization.count());
    EXPECT_EQ(a.steadyUtilization.mean(), b.steadyUtilization.mean());
    EXPECT_EQ(a.steadyUtilization.sum(), b.steadyUtilization.sum());
}

ShardedVmConfig
shardedConfig(std::size_t shards, EvictionPolicy policy,
              SharingMode sharing, std::uint64_t seed)
{
    ShardedVmConfig cfg;
    cfg.base.geometry = tinyGeometry(4 * shards);
    cfg.base.arity = 4;
    cfg.base.policy = policy;
    cfg.base.sharing = sharing;
    cfg.base.seed = seed;
    cfg.shards = shards;
    return cfg;
}

/** A touch stream that runs every shard's pool dry unevenly: ASIDs
 *  are skewed towards the high end, so some homes fill (and steal)
 *  while others still have free frames. ~2.25x over-commit. */
std::vector<PageTouch>
stealStream(std::size_t shards)
{
    Rng rng(4242 + shards);
    const std::uint64_t asids = 3 * shards;
    std::vector<PageTouch> stream;
    for (int i = 0; i < 3000; ++i) {
        const std::uint64_t u = rng.below(asids * asids);
        std::uint64_t a = 0;
        while ((a + 1) * (a + 1) <= u)
            ++a;
        stream.push_back(PageTouch{static_cast<Asid>(1 + a),
                                   rng.below(24), rng.chance(0.3)});
    }
    return stream;
}

/** What one replay produced, folded for pinning. */
struct ReplayResult
{
    std::uint64_t pfns = 0;
    std::uint64_t stats = 0;
    std::uint64_t steals = 0;
    std::uint64_t deferred = 0;
    bool operator==(const ReplayResult &) const = default;
};

std::uint64_t
fold(std::uint64_t h, std::uint64_t v)
{
    return mix64(h ^ v) + 0x9E3779B97F4A7C15ull;
}

/** Replay @p stream through touchBatch in blocks of @p block, or
 *  through scalar touch() when @p block is 0. */
ReplayResult
replay(const ShardedVmConfig &cfg, const std::vector<PageTouch> &stream,
       std::size_t block)
{
    ShardedMosaicVm vm(cfg);
    std::vector<Pfn> out(stream.size());
    if (block == 0) {
        for (std::size_t i = 0; i < stream.size(); ++i)
            out[i] = vm.touch(stream[i].asid, stream[i].vpn, stream[i].write);
    } else {
        for (std::size_t i = 0; i < stream.size(); i += block) {
            const std::size_t n = std::min(block, stream.size() - i);
            vm.touchBatch({stream.data() + i, n}, out.data() + i);
        }
    }
    ReplayResult r;
    for (const Pfn pfn : out)
        r.pfns = fold(r.pfns, pfn);
    const VmStats &s = vm.stats();
    for (const std::uint64_t v :
             {s.minorFaults, s.majorFaults, s.swapIns, s.swapOuts,
              s.conflicts, s.recoveredConflicts, s.ghostEvictions,
              s.ghostRescues, s.steadyUtilization.count()})
        r.stats = fold(r.stats, v);
    for (const double g : {s.firstConflictUtilization,
                           s.firstSwapOutUtilization,
                           s.steadyUtilization.sum()})
        r.stats = fold(r.stats, std::bit_cast<std::uint64_t>(g));
    r.steals = vm.counters().steals;
    r.deferred = vm.counters().deferredBatchOps;
    EXPECT_FALSE(checkShardConservation(vm).has_value());
    return r;
}

struct PinnedReplay
{
    std::size_t shards;
    EvictionPolicy policy;
    std::size_t block; // 0: scalar touch()
    ReplayResult want;
};
} // namespace

TEST(ShardView, RouteIsInRangeAndBalanced)
{
    constexpr std::uint32_t shards = 8;
    std::array<std::size_t, shards> counts{};
    for (std::uint64_t asid = 0; asid < 64 * 1024; ++asid)
        ++counts[shardRoute(asid, shards)];
    for (const std::size_t c : counts) {
        // A strong mix keeps sequential ASIDs near-uniform: each
        // shard should land within 15% of the fair share.
        EXPECT_GT(c, 64 * 1024 / shards * 85 / 100);
        EXPECT_LT(c, 64 * 1024 / shards * 115 / 100);
    }
    for (std::uint64_t key = 0; key < 1000; ++key)
        EXPECT_EQ(shardRoute(key, 1), 0u);
}

TEST(ShardView, PartitionRoundTrips)
{
    const MemoryGeometry g = tinyGeometry(16);
    const PoolPartition part = PoolPartition::split(g, 4);
    EXPECT_EQ(part.framesPerShard, g.numFrames / 4);
    for (Pfn pfn = 0; pfn < g.numFrames; ++pfn) {
        const std::size_t s = part.shardOf(pfn);
        EXPECT_LT(s, 4u);
        EXPECT_EQ(part.toGlobal(s, part.toLocal(pfn)), pfn);
    }
    const MemoryGeometry slice = part.shardGeometry(g, 3);
    EXPECT_EQ(slice.numFrames, part.framesPerShard);
    EXPECT_EQ(slice.hashSeed, g.hashSeed);
}

TEST(ShardViewDeathTest, UnevenSplitIsFatal)
{
    const MemoryGeometry g = tinyGeometry(4);
    EXPECT_DEATH((void)PoolPartition::split(g, 3), "evenly");
    // 4 buckets over 4 shards: each slice has fewer buckets than
    // hash choices, so the per-shard geometry is invalid.
    EXPECT_DEATH((void)PoolPartition::split(g, 4), "buckets");
}

TEST(ShardedVm, OneShardMatchesScalarStatForStat)
{
    constexpr EvictionPolicy policies[] = {EvictionPolicy::HorizonLru,
                                           EvictionPolicy::LocalLru,
                                           EvictionPolicy::ShrunkenCache};
    constexpr SharingMode modes[] = {SharingMode::PageIdHash,
                                     SharingMode::LocationId};
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        for (const EvictionPolicy policy : policies) {
            for (const SharingMode sharing : modes) {
                const ShardedVmConfig cfg =
                    shardedConfig(1, policy, sharing, seed * 977);
                ASSERT_EQ(ShardedMosaicVm::shardConfig(cfg, 0).seed,
                          cfg.base.seed);
                MosaicVm scalar(cfg.base);
                ShardedMosaicVm sharded(cfg);
                const bool loc = sharing == SharingMode::LocationId;
                OpStream a(seed, 3, 40, 4, loc);
                OpStream b(seed, 3, 40, 4, loc);
                for (int i = 0; i < 1500; ++i) {
                    const Pfn want = a.step(scalar);
                    const Pfn got = b.step(sharded);
                    ASSERT_EQ(got, want)
                        << "seed " << seed << " op " << i;
                }
                expectStatsEqual(sharded.stats(), scalar.stats());
                EXPECT_EQ(sharded.residentPages(),
                          scalar.residentPages());
                EXPECT_EQ(sharded.ghostPages(), scalar.ghostPages());
                EXPECT_EQ(sharded.locationBindings(),
                          scalar.locationBindings());
                EXPECT_EQ(sharded.counters().steals, 0u);
                EXPECT_EQ(sharded.forwardEntries(), 0u);
            }
        }
    }
}

TEST(ShardedVm, MultiShardPreservesConservation)
{
    for (const std::size_t shards : {std::size_t{2}, std::size_t{4},
                                     std::size_t{8}}) {
        for (const SharingMode sharing : {SharingMode::PageIdHash,
                                          SharingMode::LocationId}) {
            const ShardedVmConfig cfg = shardedConfig(
                shards, EvictionPolicy::HorizonLru, sharing, 11);
            ShardedMosaicVm vm(cfg);
            const bool loc = sharing == SharingMode::LocationId;
            OpStream ops(7, 12, 30 * shards, 4, loc);
            for (int i = 0; i < 4000; ++i) {
                ops.step(vm);
                if (i % 256 == 255) {
                    const auto bad = checkShardConservation(vm);
                    ASSERT_FALSE(bad.has_value())
                        << shards << " shards, op " << i << ": "
                        << *bad;
                }
            }
            const auto bad = checkShardConservation(vm);
            ASSERT_FALSE(bad.has_value()) << *bad;
        }
    }
}

TEST(ShardedVm, StealsEngageWhenOneShardRunsDry)
{
    // Two shards; every ASID in the stream happens to share one home
    // shard, so its pool runs dry while the other stays empty — the
    // canonical steal scenario.
    const ShardedVmConfig cfg = shardedConfig(
        2, EvictionPolicy::HorizonLru, SharingMode::PageIdHash, 5);
    ShardedMosaicVm vm(cfg);
    Asid asid = 1;
    while (vm.homeShard(asid) != 0)
        ++asid;
    const std::size_t frames = vm.numFrames();
    // Touch twice the whole machine's frames through one ASID: the
    // home shard conflicts, the donor absorbs the overflow.
    for (Vpn vpn = 0; vpn < frames * 2; ++vpn)
        vm.touch(asid, vpn, true);
    EXPECT_GT(vm.counters().steals, 0u);
    EXPECT_GT(vm.forwardEntries(), 0u);
    EXPECT_GT(vm.shard(1).residentPages(), 0u);
    const auto bad = checkShardConservation(vm);
    ASSERT_FALSE(bad.has_value()) << *bad;

    // Stolen pages stay pinned to their donor: re-touching resolves
    // at the forwarded shard, not home.
    std::vector<std::pair<Vpn, std::size_t>> stolen;
    vm.forEachForward([&](std::uint64_t key, std::uint32_t target) {
        stolen.emplace_back(key & ((std::uint64_t{1} << 48) - 1),
                            target);
    });
    ASSERT_FALSE(stolen.empty());
    for (const auto &[vpn, target] : stolen)
        EXPECT_EQ(vm.routeOf(asid, vpn), target);

    // Unmapping the whole range re-homes every page: forwarding
    // entries die with their pages.
    vm.unmapRange(asid, 0, frames * 2);
    EXPECT_EQ(vm.forwardEntries(), 0u);
    EXPECT_EQ(vm.residentPages(), 0u);
    ASSERT_FALSE(checkShardConservation(vm).has_value());
}

TEST(ShardedVm, CrossShardAdoptionSharesFrames)
{
    const ShardedVmConfig cfg = shardedConfig(
        4, EvictionPolicy::HorizonLru, SharingMode::LocationId, 21);
    ShardedMosaicVm vm(cfg);
    // Pick a source and destination ASID homed on different shards.
    Asid src = 1;
    Asid dst = 2;
    while (vm.homeShard(dst) == vm.homeShard(src))
        ++dst;
    for (Vpn vpn = 0; vpn < 8; ++vpn)
        vm.touch(src, vpn, true);
    vm.shareRange(src, 0, dst, 0, 8);
    EXPECT_EQ(vm.counters().msgsPosted, 2u);
    EXPECT_EQ(vm.counters().msgsDrained, 2u);
    EXPECT_EQ(vm.counters().crossShardAdoptions, 2u);
    // Both mappings resolve to the same global frames, at the source
    // owner's shard.
    for (Vpn vpn = 0; vpn < 8; ++vpn) {
        const Pfn via_src = vm.touch(src, vpn, false);
        const Pfn via_dst = vm.touch(dst, vpn, false);
        EXPECT_EQ(via_dst, via_src);
        EXPECT_EQ(vm.partition().shardOf(via_dst),
                  vm.homeShard(src));
    }
    EXPECT_TRUE(vm.hasLocationBinding(dst, 0));
    ASSERT_FALSE(checkShardConservation(vm).has_value());
}

TEST(ShardedVm, BatchMatchesScalarLoopAndIsThreadInvariant)
{
    for (const SharingMode sharing : {SharingMode::PageIdHash,
                                      SharingMode::LocationId}) {
        const ShardedVmConfig cfg = shardedConfig(
            4, EvictionPolicy::HorizonLru, sharing, 31);
        // Build the touch stream once: overcommitted enough to fault
        // and evict, but routed across shards so no single shard runs
        // fully dry (the no-steal regime where batch ≡ scalar).
        Rng rng(99);
        std::vector<PageTouch> stream;
        for (int i = 0; i < 3000; ++i) {
            stream.push_back(
                PageTouch{static_cast<Asid>(1 + rng.below(16)),
                          rng.below(120), rng.chance(0.3)});
        }

        ShardedMosaicVm scalar(cfg);
        std::vector<Pfn> want(stream.size());
        for (std::size_t i = 0; i < stream.size(); ++i) {
            want[i] = scalar.touch(stream[i].asid, stream[i].vpn,
                                   stream[i].write);
        }

        std::vector<Pfn> serial(stream.size());
        std::vector<Pfn> threaded(stream.size());
        for (const unsigned workers : {1u, 4u}) {
            ThreadPool pool(workers);
            ShardedMosaicVm vm(cfg);
            std::vector<Pfn> &out = workers == 1 ? serial : threaded;
            // Drive through the pool so the engine's parallelFor
            // nests under an explicit worker count.
            parallelFor(pool, 1, [&](std::size_t) {
                for (std::size_t i = 0; i < stream.size(); i += 64) {
                    const std::size_t n =
                        std::min<std::size_t>(64, stream.size() - i);
                    vm.touchBatch({stream.data() + i, n}, out.data() + i);
                }
            });
            if (vm.counters().steals == 0 &&
                    scalar.counters().steals == 0) {
                EXPECT_EQ(out, want);
                const VmStats batched = vm.stats();
                expectStatsEqual(batched, scalar.stats());
            }
            ASSERT_FALSE(checkShardConservation(vm).has_value());
        }
        EXPECT_EQ(serial, threaded);
    }
}

TEST(ShardedVm, BatchDrainsDeferredOpsDeterministically)
{
    // Force the steal gate inside a batch: one ASID overflows its
    // home shard mid-block. The deferred serial drain must produce
    // identical results at 1 and 4 workers.
    const ShardedVmConfig cfg = shardedConfig(
        2, EvictionPolicy::HorizonLru, SharingMode::PageIdHash, 5);
    ShardedMosaicVm probe(cfg);
    Asid asid = 1;
    while (probe.homeShard(asid) != 0)
        ++asid;
    std::vector<PageTouch> stream;
    for (Vpn vpn = 0; vpn < probe.numFrames() * 2; ++vpn)
        stream.push_back(PageTouch{asid, vpn, true});

    std::vector<std::vector<Pfn>> outs;
    for (const unsigned workers : {1u, 4u}) {
        ThreadPool pool(workers);
        ShardedMosaicVm vm(cfg);
        std::vector<Pfn> out(stream.size());
        parallelFor(pool, 1, [&](std::size_t) {
            for (std::size_t i = 0; i < stream.size(); i += 128) {
                const std::size_t n =
                    std::min<std::size_t>(128, stream.size() - i);
                vm.touchBatch({stream.data() + i, n}, out.data() + i);
            }
        });
        EXPECT_GT(vm.counters().steals, 0u);
        EXPECT_GT(vm.counters().deferredBatchOps, 0u);
        ASSERT_FALSE(checkShardConservation(vm).has_value());
        outs.push_back(std::move(out));
    }
    EXPECT_EQ(outs[0], outs[1]);
}

TEST(ShardedVm, ShardConfigSlicesPoolAndMixesSeeds)
{
    const ShardedVmConfig cfg = shardedConfig(
        4, EvictionPolicy::HorizonLru, SharingMode::PageIdHash, 123);
    const MosaicVmConfig s0 = ShardedMosaicVm::shardConfig(cfg, 0);
    const MosaicVmConfig s1 = ShardedMosaicVm::shardConfig(cfg, 1);
    EXPECT_EQ(s0.seed, cfg.base.seed);
    EXPECT_NE(s1.seed, cfg.base.seed);
    EXPECT_EQ(s0.geometry.numFrames, cfg.base.geometry.numFrames / 4);
    EXPECT_EQ(s1.geometry.hashSeed, cfg.base.geometry.hashSeed);
}

TEST(ShardedVm, BatchedReplaysMatchPinnedCounters)
{
    // One stream per shard count, replayed through scalar touch()
    // (block 0) and touchBatch at four block sizes. Pools run dry and
    // steal, so batched order deviates from the scalar loop wherever
    // a shard stops at its steal gate: the pins (computed when the
    // parallel phase still cut free-frame segments and single-stepped
    // dry shards) hold where the gate stops and what gets deferred.
    static const PinnedReplay pinned[] = {
        {2, EvictionPolicy::HorizonLru, 0,
         {1317467456931006726ull, 5992939897251219186ull, 4, 0}},
        {2, EvictionPolicy::HorizonLru, 2,
         {1317467456931006726ull, 5992939897251219186ull, 4, 36}},
        {2, EvictionPolicy::HorizonLru, 7,
         {6717745962569572495ull, 3591554313143580654ull, 4, 76}},
        {2, EvictionPolicy::HorizonLru, 64,
         {1063647282858073640ull, 1557584221354884013ull, 0, 340}},
        {2, EvictionPolicy::HorizonLru, 8192,
         {1063647282858073640ull, 1557584221354884013ull, 0, 2912}},
        {2, EvictionPolicy::LocalLru, 0,
         {7118819280447820484ull, 14171912338970168054ull, 2, 0}},
        {2, EvictionPolicy::LocalLru, 2,
         {7118819280447820484ull, 14171912338970168054ull, 2, 93}},
        {2, EvictionPolicy::LocalLru, 7,
         {7118819280447820484ull, 14171912338970168054ull, 2, 165}},
        {2, EvictionPolicy::LocalLru, 64,
         {12154240878581419247ull, 17942412149139705789ull, 0, 560}},
        {2, EvictionPolicy::LocalLru, 8192,
         {12154240878581419247ull, 17942412149139705789ull, 0, 2912}},
        {2, EvictionPolicy::ShrunkenCache, 0,
         {9155177177815414164ull, 17870145588421044480ull, 0, 0}},
        {2, EvictionPolicy::ShrunkenCache, 2,
         {9155177177815414164ull, 17870145588421044480ull, 0, 0}},
        {2, EvictionPolicy::ShrunkenCache, 7,
         {9155177177815414164ull, 17870145588421044480ull, 0, 0}},
        {2, EvictionPolicy::ShrunkenCache, 64,
         {9155177177815414164ull, 17870145588421044480ull, 0, 0}},
        {2, EvictionPolicy::ShrunkenCache, 8192,
         {9155177177815414164ull, 17870145588421044480ull, 0, 0}},
        {4, EvictionPolicy::HorizonLru, 0,
         {8283140452689581102ull, 145111139526878821ull, 18, 0}},
        {4, EvictionPolicy::HorizonLru, 2,
         {9976789151981312088ull, 145111139526878821ull, 18, 56}},
        {4, EvictionPolicy::HorizonLru, 7,
         {9976789151981312088ull, 145111139526878821ull, 18, 86}},
        {4, EvictionPolicy::HorizonLru, 64,
         {15726604397362876056ull, 12515860997637041269ull, 18, 318}},
        {4, EvictionPolicy::HorizonLru, 8192,
         {14222385449888941822ull, 3131029348619836340ull, 0, 2759}},
        {4, EvictionPolicy::LocalLru, 0,
         {3658312937040211210ull, 3781211203880210043ull, 22, 0}},
        {4, EvictionPolicy::LocalLru, 2,
         {11260439199726264496ull, 3781211203880210043ull, 22, 172}},
        {4, EvictionPolicy::LocalLru, 7,
         {4958420742032063053ull, 3781211203880210043ull, 22, 248}},
        {4, EvictionPolicy::LocalLru, 64,
         {10233473640021422673ull, 7975745264787144566ull, 21, 639}},
        {4, EvictionPolicy::LocalLru, 8192,
         {5955992584394250733ull, 9479682552633882513ull, 0, 2775}},
        {4, EvictionPolicy::ShrunkenCache, 0,
         {11472521125776953908ull, 14454843976780314118ull, 0, 0}},
        {4, EvictionPolicy::ShrunkenCache, 2,
         {11472521125776953908ull, 14454843976780314118ull, 0, 0}},
        {4, EvictionPolicy::ShrunkenCache, 7,
         {11472521125776953908ull, 14454843976780314118ull, 0, 0}},
        {4, EvictionPolicy::ShrunkenCache, 64,
         {11472521125776953908ull, 14454843976780314118ull, 0, 0}},
        {4, EvictionPolicy::ShrunkenCache, 8192,
         {11472521125776953908ull, 14454843976780314118ull, 0, 0}},
        {8, EvictionPolicy::HorizonLru, 0,
         {3555445676545029357ull, 18409047449717098539ull, 79, 0}},
        {8, EvictionPolicy::HorizonLru, 2,
         {3555445676545029357ull, 18409047449717098539ull, 79, 170}},
        {8, EvictionPolicy::HorizonLru, 7,
         {3852138985316030771ull, 14742103920857233550ull, 67, 217}},
        {8, EvictionPolicy::HorizonLru, 64,
         {3865235657282136075ull, 8710447053258636627ull, 70, 475}},
        {8, EvictionPolicy::HorizonLru, 8192,
         {6835047968822923455ull, 13266622059677566703ull, 19, 2384}},
        {8, EvictionPolicy::LocalLru, 0,
         {16189491350585287736ull, 1828508384109367137ull, 78, 0}},
        {8, EvictionPolicy::LocalLru, 2,
         {16189491350585287736ull, 1828508384109367137ull, 78, 352}},
        {8, EvictionPolicy::LocalLru, 7,
         {15992110481685041559ull, 12936515469208979373ull, 77, 440}},
        {8, EvictionPolicy::LocalLru, 64,
         {6724023175505718708ull, 2620193679262105214ull, 74, 943}},
        {8, EvictionPolicy::LocalLru, 8192,
         {11400666226173323209ull, 17635869621762649572ull, 19, 2406}},
        {8, EvictionPolicy::ShrunkenCache, 0,
         {12119371830656255693ull, 8137575989121535334ull, 0, 0}},
        {8, EvictionPolicy::ShrunkenCache, 2,
         {12119371830656255693ull, 8137575989121535334ull, 0, 0}},
        {8, EvictionPolicy::ShrunkenCache, 7,
         {12119371830656255693ull, 8137575989121535334ull, 0, 0}},
        {8, EvictionPolicy::ShrunkenCache, 64,
         {12119371830656255693ull, 8137575989121535334ull, 0, 0}},
        {8, EvictionPolicy::ShrunkenCache, 8192,
         {12119371830656255693ull, 8137575989121535334ull, 0, 0}},
    };
    constexpr EvictionPolicy policies[] = {EvictionPolicy::HorizonLru,
                                           EvictionPolicy::LocalLru,
                                           EvictionPolicy::ShrunkenCache};
    std::size_t row = 0;
    for (const std::size_t shards : {2, 4, 8}) {
        const std::vector<PageTouch> stream = stealStream(shards);
        for (const EvictionPolicy policy : policies) {
            const ShardedVmConfig cfg = shardedConfig(
                shards, policy, SharingMode::PageIdHash, 17);
            ReplayResult scalar;
            for (const std::size_t block : {0, 2, 7, 64, 8192}) {
                ASSERT_LT(row, std::size(pinned));
                const PinnedReplay &pin = pinned[row++];
                ASSERT_EQ(pin.shards, shards);
                ASSERT_EQ(pin.policy, policy);
                ASSERT_EQ(pin.block, block);
                const ReplayResult got = replay(cfg, stream, block);
                EXPECT_EQ(got, pin.want)
                    << shards << " shards, policy "
                    << static_cast<int>(policy) << ", block " << block
                    << ": {" << got.pfns << "ull, " << got.stats
                    << "ull, " << got.steals << ", " << got.deferred
                    << "}";
                if (block == 0) {
                    scalar = got;
                    if (policy != EvictionPolicy::ShrunkenCache) {
                        EXPECT_GT(got.steals, 0u);
                    }
                } else if (policy == EvictionPolicy::ShrunkenCache) {
                    // No steals under ShrunkenCache: batch == scalar.
                    EXPECT_EQ(got, scalar);
                }
            }
        }
    }
    EXPECT_EQ(row, std::size(pinned));
}

/** The steal gate as the sharded engine once evaluated it from the
 *  outside: dry pool, page absent, no swap copy, and placement under
 *  the predicate "lastAccess below the horizon" hard-conflicts. */
bool
referenceWouldSteal(MosaicVm &vm, const PageTouch &t)
{
    if (vm.frameTable().usedFrames() < vm.numFrames())
        return false;
    if (vm.pageTable(t.asid).walk(t.vpn).present)
        return false;
    const std::uint64_t key = packPageId(PageId{t.asid, t.vpn});
    if (vm.swapDevice().contains(key))
        return false;
    const Tick h = vm.horizon();
    const CandidateSet cand = vm.allocator().mapper().candidates(key);
    return !vm.allocator()
                .place(cand, vm.frameTable(),
                       [h](const Frame &f) { return f.lastAccess < h; })
                .has_value();
}

TEST(ShardedVm, GatedBatchMatchesWouldStealLoop)
{
    // touchBatchUntilSteal against the plain loop "would steal ? stop
    // : touch()": same stop position, PFNs and stats. A stopped touch
    // is then applied to both with touch(), as a shard with no donor
    // would, so the stream keeps going past every gate.
    for (const EvictionPolicy policy :
             {EvictionPolicy::HorizonLru, EvictionPolicy::LocalLru}) {
        MosaicVmConfig cfg;
        cfg.geometry = tinyGeometry(8);
        cfg.policy = policy;
        cfg.seed = 3;
        MosaicVm gated(cfg);
        MosaicVm plain(cfg);
        Rng rng(8);
        std::vector<PageTouch> stream;
        for (int i = 0; i < 6000; ++i) {
            stream.push_back(
                PageTouch{static_cast<Asid>(1 + rng.below(6)),
                          rng.below(40), rng.chance(0.3)});
        }
        std::size_t stops = 0;
        std::size_t pos = 0;
        std::size_t round = 0;
        constexpr std::size_t blocks[] = {1, 2, 7, 64};
        while (pos < stream.size()) {
            const std::size_t n = std::min(
                blocks[round++ % std::size(blocks)], stream.size() - pos);
            std::vector<Pfn> got(n, invalidPfn);
            const std::size_t applied = gated.touchBatchUntilSteal(
                {stream.data() + pos, n}, got.data());
            std::size_t want = 0;
            for (; want < n; ++want) {
                const PageTouch &t = stream[pos + want];
                if (referenceWouldSteal(plain, t))
                    break;
                ASSERT_EQ(got[want], plain.touch(t.asid, t.vpn, t.write))
                    << "op " << pos + want;
            }
            ASSERT_EQ(applied, want) << "block at op " << pos;
            pos += applied;
            if (applied < n) {
                ++stops;
                const PageTouch &t = stream[pos++];
                ASSERT_EQ(gated.touch(t.asid, t.vpn, t.write),
                          plain.touch(t.asid, t.vpn, t.write));
            }
        }
        EXPECT_GT(stops, 0u);
        expectStatsEqual(gated.stats(), plain.stats());
        EXPECT_EQ(gated.ghostPages(), plain.ghostPages());
    }
}

/** The per-ASID forward counts, as a map. */
std::map<Asid, std::size_t>
forwardCounts(const ShardedMosaicVm &vm)
{
    std::map<Asid, std::size_t> counts;
    vm.forEachForwardCount(
        [&](Asid asid, std::size_t n) { counts[asid] = n; });
    return counts;
}

TEST(ShardedVm, ForwardCountsTrackStealUnmapAndResteal)
{
    const ShardedVmConfig cfg = shardedConfig(
        2, EvictionPolicy::HorizonLru, SharingMode::PageIdHash, 5);
    ShardedMosaicVm vm(cfg);
    Asid a = 1;
    while (vm.homeShard(a) != 0)
        ++a;
    Asid b = static_cast<Asid>(a + 1);
    while (vm.homeShard(b) != 0)
        ++b;
    const Vpn half = vm.numFrames() / 2;
    // Fill the home with a, then fault b in: b's overflow steals.
    for (Vpn v = 0; v < half; ++v)
        vm.touch(a, v, true);
    for (Vpn v = 0; v < half / 2; ++v)
        vm.touch(b, v, true);
    const std::uint64_t steals = vm.counters().steals;
    ASSERT_GT(steals, 0u);
    ASSERT_FALSE(checkShardConservation(vm).has_value());
    ASSERT_EQ(forwardCounts(vm).size(), 1u);
    EXPECT_EQ(forwardCounts(vm)[b], vm.forwardEntries());

    // Unmapping b's range kills its entries and its count.
    vm.unmapRange(b, 0, half / 2);
    EXPECT_EQ(vm.forwardEntries(), 0u);
    EXPECT_TRUE(forwardCounts(vm).empty());
    ASSERT_FALSE(checkShardConservation(vm).has_value());

    // Re-stealing the same pages counts them again; routing follows.
    for (Vpn v = 0; v < half / 2; ++v)
        vm.touch(b, v, true);
    EXPECT_GT(vm.counters().steals, steals);
    EXPECT_EQ(forwardCounts(vm)[b], vm.forwardEntries());
    vm.forEachForward([&](std::uint64_t key, std::uint32_t target) {
        EXPECT_EQ(vm.routeOf(b, key & ((std::uint64_t{1} << 48) - 1)),
                  target);
    });
    ASSERT_FALSE(checkShardConservation(vm).has_value());

    // A partial unmap drops exactly the entries in range.
    vm.unmapRange(b, 0, half / 4);
    EXPECT_EQ(forwardCounts(vm)[b], vm.forwardEntries());
    ASSERT_FALSE(checkShardConservation(vm).has_value());
}

TEST(ShardedVm, ForwardCountsTrackShareRehomeAndStaleErase)
{
    const ShardedVmConfig cfg = shardedConfig(
        4, EvictionPolicy::HorizonLru, SharingMode::LocationId, 21);
    ShardedMosaicVm vm(cfg);
    const Asid dst = 1;
    // Sources homed away from dst (two different shards) and one
    // homed with it.
    Asid away = 2;
    while (vm.homeShard(away) == vm.homeShard(dst))
        ++away;
    Asid other = static_cast<Asid>(away + 1);
    while (vm.homeShard(other) == vm.homeShard(dst) ||
               vm.homeShard(other) == vm.homeShard(away))
        ++other;
    Asid local = static_cast<Asid>(other + 1);
    while (vm.homeShard(local) != vm.homeShard(dst))
        ++local;
    const auto check = [&](std::size_t want) {
        EXPECT_EQ(vm.forwardEntries(), want);
        EXPECT_EQ(forwardCounts(vm)[dst], want);
        ASSERT_FALSE(checkShardConservation(vm).has_value());
    };

    // A cross-shard share forwards dst's two ToCs.
    for (Vpn v = 0; v < 8; ++v)
        vm.touch(away, v, true);
    vm.shareRange(away, 0, dst, 0, 8);
    check(2);
    EXPECT_EQ(vm.routeOf(dst, 0), vm.homeShard(away));

    // Unmapping kills the bindings; the ToC entries are sticky.
    vm.unmapRange(dst, 0, 8);
    check(2);

    // Re-sharing from a third shard overwrites them in place.
    vm.shareRange(other, 0, dst, 0, 8);
    check(2);
    EXPECT_EQ(vm.routeOf(dst, 0), vm.homeShard(other));
    vm.unmapRange(dst, 0, 8);

    // Sharing from dst's own home re-homes the ToCs: the stale
    // entries are erased and routing skips the probe again.
    vm.shareRange(local, 0, dst, 0, 8);
    check(0);
    EXPECT_TRUE(forwardCounts(vm).empty());
    EXPECT_EQ(vm.routeOf(dst, 0), vm.homeShard(dst));
}
