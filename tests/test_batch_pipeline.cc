/**
 * @file
 * Differential tests for the batched translation pipeline (ROADMAP
 * item 2, DESIGN.md §13): for every eviction policy, sharing mode,
 * VM model, TLB variant, block size (including non-power-of-2 sizes
 * and partial tail blocks) and thread count tested, the batched path
 * must be bit-identical to the scalar path — same per-touch PFNs,
 * same stats, same resident/ghost/horizon state, same TLB counters.
 */

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/batch_pipeline.hh"
#include "core/translation_sim.hh"
#include "core/vm_touch_sink.hh"
#include "os/linux_vm.hh"
#include "os/mosaic_vm.hh"
#include "util/random.hh"
#include "util/stats.hh"
#include "util/thread_pool.hh"

namespace mosaic
{
namespace
{

constexpr unsigned kSeeds = 24;

/** Block sizes under test: scalar, powers of two, and two
 *  non-power-of-2 sizes; every stream length exercises tails. */
constexpr unsigned kBlocks[] = {1, 7, 32, 64, 100, 128};

std::uint64_t
fnv1a(std::uint64_t digest, std::uint64_t value)
{
    for (unsigned i = 0; i < 8; ++i) {
        digest ^= (value >> (8 * i)) & 0xFF;
        digest *= 0x100000001B3ull;
    }
    return digest;
}

/** A reproducible touch stream with a hot set, a slowly-advancing
 *  cold sweep (forcing faults, evictions, and ghost churn), and a
 *  write mix. Lengths are deliberately not multiples of any tested
 *  block size so tail blocks are always exercised. */
std::vector<PageTouch>
makeStream(std::uint64_t seed, std::size_t ops, std::uint64_t pages,
           Asid asids = 1)
{
    Rng rng(seed * 0x9E3779B97F4A7C15ull + 1);
    std::vector<PageTouch> stream;
    stream.reserve(ops);
    const std::uint64_t hot = std::max<std::uint64_t>(pages / 8, 1);
    std::uint64_t sweep = 0;
    for (std::size_t i = 0; i < ops; ++i) {
        PageTouch t;
        t.asid = static_cast<Asid>(1 + rng.below(asids));
        if (rng.chance(0.6)) {
            t.vpn = rng.below(hot);
        } else {
            t.vpn = sweep % pages;
            sweep += 1 + rng.below(3);
        }
        t.write = rng.chance(0.3);
        stream.push_back(t);
    }
    return stream;
}

/** Everything observable about a VM run, for exact comparison. */
struct VmOutcome
{
    std::uint64_t pfnDigest = 0xcbf29ce484222325ull;
    std::vector<std::pair<std::string, double>> metrics;
    std::size_t resident = 0;

    bool
    operator==(const VmOutcome &o) const
    {
        return pfnDigest == o.pfnDigest && metrics == o.metrics &&
               resident == o.resident;
    }
};

VmOutcome
captureOutcome(const VirtualMemory &vm, std::uint64_t pfn_digest)
{
    VmOutcome out;
    out.pfnDigest = pfn_digest;
    vm.stats().forEachMetric([&](const char *name,
                                 const auto &value) {
        using T = std::decay_t<decltype(value)>;
        if constexpr (std::is_same_v<T, RunningStat>) {
            const std::string base = name;
            out.metrics.emplace_back(
                base + ".count", static_cast<double>(value.count()));
            out.metrics.emplace_back(base + ".mean", value.mean());
        } else {
            out.metrics.emplace_back(name,
                                     static_cast<double>(value));
        }
    });
    out.resident = vm.residentPages();
    return out;
}

/** Drive @p vm with @p stream: scalar touch() loop when block <= 1,
 *  touchBatch blocks (with a partial tail) otherwise. */
VmOutcome
runStream(VirtualMemory &vm, std::span<const PageTouch> stream,
          unsigned block)
{
    std::uint64_t digest = 0xcbf29ce484222325ull;
    if (block <= 1) {
        for (const PageTouch &t : stream)
            digest = fnv1a(digest, vm.touch(t.asid, t.vpn, t.write));
    } else {
        std::vector<Pfn> pfns(block);
        for (std::size_t i = 0; i < stream.size(); i += block) {
            const std::size_t n =
                std::min<std::size_t>(block, stream.size() - i);
            vm.touchBatch(stream.subspan(i, n), pfns.data());
            for (std::size_t k = 0; k < n; ++k)
                digest = fnv1a(digest, pfns[k]);
        }
    }
    return captureOutcome(vm, digest);
}

MosaicVmConfig
mosaicConfig(std::uint64_t seed, EvictionPolicy policy,
             SharingMode sharing = SharingMode::PageIdHash)
{
    MosaicVmConfig config;
    config.geometry.numFrames = 2048; // 32 buckets of 64
    config.geometry.hashSeed = seed ^ 0xA110C;
    config.policy = policy;
    config.sharing = sharing;
    config.seed = seed;
    return config;
}

VmOutcome
mosaicOutcome(std::uint64_t seed, EvictionPolicy policy,
              SharingMode sharing, unsigned block)
{
    MosaicVm vm(mosaicConfig(seed, policy, sharing));
    // Pressure past capacity: ~1.5x frames, two address spaces.
    const auto stream = makeStream(seed, 6007, 3072, 2);
    VmOutcome out = runStream(vm, stream, block);
    // Mosaic-specific state the generic metrics don't cover.
    out.metrics.emplace_back("ghostPages",
                             static_cast<double>(vm.ghostPages()));
    out.metrics.emplace_back("horizon",
                             static_cast<double>(vm.horizon()));
    out.metrics.emplace_back("now", static_cast<double>(vm.now()));
    return out;
}

TEST(BatchPipeline, MosaicBitIdenticalAcrossPoliciesAndBlocks)
{
    for (const EvictionPolicy policy :
         {EvictionPolicy::HorizonLru, EvictionPolicy::LocalLru,
          EvictionPolicy::ShrunkenCache}) {
        for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
            const VmOutcome scalar = mosaicOutcome(
                seed, policy, SharingMode::PageIdHash, 1);
            for (const unsigned block : kBlocks) {
                if (block <= 1)
                    continue;
                const VmOutcome batched = mosaicOutcome(
                    seed, policy, SharingMode::PageIdHash, block);
                ASSERT_EQ(scalar, batched)
                    << "policy=" << static_cast<int>(policy)
                    << " seed=" << seed << " block=" << block;
            }
        }
    }
}

TEST(BatchPipeline, LocationIdModeFallsBackToScalarResults)
{
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        const VmOutcome scalar = mosaicOutcome(
            seed, EvictionPolicy::HorizonLru, SharingMode::LocationId,
            1);
        for (const unsigned block : {7u, 64u, 128u}) {
            const VmOutcome batched = mosaicOutcome(
                seed, EvictionPolicy::HorizonLru,
                SharingMode::LocationId, block);
            ASSERT_EQ(scalar, batched)
                << "seed=" << seed << " block=" << block;
        }
    }
}

/** Expect @p pfn to be the frame the page's walk names right now,
 *  resolved the plain way: the full candidate set, then toPfn. The
 *  touch paths resolve present pages with pfnOf instead. */
void
expectPlainResolution(MosaicVm &vm, const PageTouch &t, Pfn pfn)
{
    const MosaicWalkResult walk = vm.pageTable(t.asid).walk(t.vpn);
    ASSERT_TRUE(walk.present) << "asid " << t.asid << " vpn " << t.vpn;
    const std::optional<std::uint64_t> input =
        vm.hashInputIfBound(t.asid, t.vpn);
    ASSERT_TRUE(input.has_value());
    const MosaicMapper &m = vm.allocator().mapper();
    ASSERT_EQ(m.toPfn(m.candidates(*input), walk.cpfn), pfn)
        << "asid " << t.asid << " vpn " << t.vpn;
}

TEST(BatchPipeline, ReturnedPfnsMatchCandidateSetResolution)
{
    // Under pressure (faults, evictions, ghost rescues, and in
    // LocationId mode shared frames), every PFN touch() returns is
    // checked right after its touch. A touchBatch block is checked
    // after the block at each page's last touch in it (a later touch
    // in the block can only evict that page, never move it), and its
    // PFNs must equal the scalar ones.
    for (const SharingMode sharing :
         {SharingMode::PageIdHash, SharingMode::LocationId}) {
        for (const EvictionPolicy policy :
             {EvictionPolicy::HorizonLru, EvictionPolicy::LocalLru,
              EvictionPolicy::ShrunkenCache}) {
            for (std::uint64_t seed = 1; seed <= 4; ++seed) {
                const auto stream = makeStream(seed, 6007, 3072, 2);
                std::vector<Pfn> scalar;
                for (const unsigned block : {1u, 7u, 64u, 128u}) {
                    MosaicVm vm(mosaicConfig(seed, policy, sharing));
                    if (sharing == SharingMode::LocationId)
                        vm.shareRange(1, 0, 2, 0, 256);
                    std::vector<Pfn> pfns(stream.size());
                    for (std::size_t i = 0; i < stream.size();
                         i += block) {
                        const std::size_t n = std::min<std::size_t>(
                            block, stream.size() - i);
                        const std::span<const PageTouch> part(
                            &stream[i], n);
                        if (block == 1) {
                            pfns[i] = vm.touch(part[0].asid,
                                               part[0].vpn,
                                               part[0].write);
                        } else {
                            vm.touchBatch(part, &pfns[i]);
                        }
                        std::map<std::pair<Asid, Vpn>, std::size_t> last;
                        for (std::size_t k = 0; k < n; ++k)
                            last[{part[k].asid, part[k].vpn}] = k;
                        for (const auto &[page, k] : last) {
                            if (vm.pageTable(page.first)
                                    .walk(page.second)
                                    .present) {
                                expectPlainResolution(vm, part[k],
                                                      pfns[i + k]);
                            } else {
                                ASSERT_GT(block, 1u);
                            }
                        }
                    }
                    if (block == 1) {
                        scalar = pfns;
                    } else {
                        ASSERT_EQ(pfns, scalar) << "block " << block;
                    }
                    if (policy == EvictionPolicy::HorizonLru) {
                        EXPECT_GT(vm.stats().ghostRescues, 0u);
                    }
                    if (sharing == SharingMode::LocationId) {
                        // The shared range really is shared: pages
                        // resident through both mappings name one
                        // frame.
                        unsigned both = 0;
                        for (Vpn v = 0; v < 256; ++v) {
                            const auto a = vm.pageTable(1).walk(v);
                            const auto b = vm.pageTable(2).walk(v);
                            if (a.present && b.present) {
                                ++both;
                                ASSERT_EQ(a.cpfn, b.cpfn) << "vpn " << v;
                            }
                        }
                        EXPECT_GT(both, 0u);
                    }
                }
            }
        }
    }
}

TEST(BatchPipeline, LinuxVmDefaultBatchLoopIsBitIdentical)
{
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        VmOutcome outcomes[2];
        for (const unsigned block : {1u, 100u}) {
            LinuxVmConfig config;
            config.numFrames = 2048;
            LinuxVm vm(config);
            const auto stream = makeStream(seed, 6007, 3072, 2);
            outcomes[block > 1] = runStream(vm, stream, block);
        }
        ASSERT_EQ(outcomes[0], outcomes[1]) << "seed=" << seed;
    }
}

TEST(BatchPipeline, VmTouchSinkFactoryMatchesScalarSink)
{
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        const auto stream = makeStream(seed, 5003, 3072, 1);
        VmOutcome outcomes[2];
        for (const unsigned block : {0u, 64u}) {
            MosaicVm vm(
                mosaicConfig(seed, EvictionPolicy::HorizonLru));
            const auto sink = makeVmTouchSink(vm, 1, block);
            for (const PageTouch &t : stream)
                sink->access(t.vpn * pageSize, t.write);
            sink->flush();
            outcomes[block > 1] = captureOutcome(vm, 0);
        }
        ASSERT_EQ(outcomes[0], outcomes[1]) << "seed=" << seed;
    }
}

/** All TLB counters of a full sim grid (every ways x arity cell,
 *  data and instruction sides), flattened for comparison. */
std::vector<double>
simGridStats(const TranslationSim &sim)
{
    std::vector<double> flat;
    const auto take = [&](const TlbStats &stats) {
        stats.forEachMetric([&](const char *, double value) {
            flat.push_back(value);
        });
    };
    for (std::size_t w = 0; w < sim.numWays(); ++w) {
        take(sim.vanillaStats(w));
        take(sim.itlbVanillaStats(w));
        for (std::size_t a = 0; a < sim.numArities(); ++a) {
            take(sim.mosaicStats(w, a));
            take(sim.itlbMosaicStats(w, a));
        }
    }
    flat.push_back(static_cast<double>(sim.totalAccesses()));
    return flat;
}

TEST(BatchPipeline, TranslationSimAllTlbVariantsBitIdentical)
{
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        TranslationSimConfig config;
        // Ample: demand mapping must never hit a conflict.
        config.memory.numFrames = 64 * 256;
        config.instr.enabled = true; // exercise the ITLB grid too
        config.seed = seed;

        Rng rng(seed);
        std::vector<MemRef> stream(9001);
        for (MemRef &ref : stream) {
            ref.vaddr = rng.below(5000) * pageSize + rng.below(4096);
            ref.write = rng.chance(0.25);
        }

        TranslationSim scalar_sim(config);
        for (const MemRef &ref : stream)
            scalar_sim.access(ref.vaddr, ref.write);
        const auto scalar = simGridStats(scalar_sim);

        for (const unsigned block : kBlocks) {
            if (block <= 1)
                continue;
            TranslationSim sim(config);
            BatchTranslationSink sink(sim, block);
            for (const MemRef &ref : stream)
                sink.access(ref.vaddr, ref.write);
            sink.flush();
            ASSERT_EQ(scalar, simGridStats(sim))
                << "seed=" << seed << " block=" << block;
        }
    }
}

TEST(BatchPipeline, DifferentialDigestsAreThreadCountInvariant)
{
    // The batch engines are single-threaded per VM; this pins the
    // surrounding harness pattern (sweeps run cells via parallelFor)
    // to identical results at 1 and 4 workers.
    const auto digests = [](unsigned workers) {
        ThreadPool pool(workers);
        std::vector<std::uint64_t> out(8);
        parallelFor(pool, out.size(), [&](std::size_t i) {
            const auto outcome =
                mosaicOutcome(i + 1, EvictionPolicy::HorizonLru,
                              SharingMode::PageIdHash, 64);
            std::uint64_t d = outcome.pfnDigest;
            for (const auto &[name, value] : outcome.metrics) {
                for (const char c : name)
                    d = fnv1a(d, static_cast<unsigned char>(c));
                std::uint64_t bits;
                static_assert(sizeof(bits) == sizeof(value));
                __builtin_memcpy(&bits, &value, sizeof(bits));
                d = fnv1a(d, bits);
            }
            out[i] = d;
        });
        return out;
    };
    EXPECT_EQ(digests(1), digests(4));
}

TEST(BatchPipeline, EnvKnobParsesAndClamps)
{
    const auto with = [](const char *value) {
        if (value)
            ::setenv("MOSAIC_BATCH", value, 1);
        else
            ::unsetenv("MOSAIC_BATCH");
        return batchBlockFromEnv();
    };
    const char *saved = std::getenv("MOSAIC_BATCH");
    const std::string saved_copy = saved ? saved : "";
    EXPECT_EQ(with(nullptr), 0u);
    EXPECT_EQ(with(""), 0u);
    EXPECT_EQ(with("0"), 0u);
    EXPECT_EQ(with("1"), 0u);
    EXPECT_EQ(with("64"), 64u);
    EXPECT_EQ(with("100"), 100u);
    EXPECT_EQ(with("junk"), 0u);
    EXPECT_EQ(with("64k"), 0u);
    EXPECT_EQ(with("1000000"), maxBatchBlock);
    // Regression: strtoul wrapped "-1" to ULONG_MAX, which then
    // silently clamped to the maximum block size. Signs, trailing
    // junk after digits, embedded spaces, and values past 2^64-1 are
    // all malformed and mean scalar.
    EXPECT_EQ(with("-1"), 0u);
    EXPECT_EQ(with("-64"), 0u);
    EXPECT_EQ(with("+8"), 0u);
    EXPECT_EQ(with("64x"), 0u);
    EXPECT_EQ(with("6 4"), 0u);
    EXPECT_EQ(with(" 64"), 0u);
    EXPECT_EQ(with("18446744073709551616"), 0u); // 2^64 overflows
    with(saved ? saved_copy.c_str() : nullptr);
}

} // namespace
} // namespace mosaic
