/**
 * @file
 * The VMs' translation cache (DESIGN.md §12.3) must be invisible:
 * every touch it serves returns exactly the translation a plain
 * page-table walk gives, and every VM ends in the state the uncached
 * code reached. Streams here reuse pages heavily (so the cache hits)
 * across several ASIDs while pages are evicted, unmapped, shared,
 * faulted through the batch pipeline, placed under "vm.place" fault
 * injection and stolen across shards.
 */

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "fault/fault.hh"
#include "hash/mix.hh"
#include "os/linux_vm.hh"
#include "os/mosaic_vm.hh"
#include "os/sharded_vm.hh"
#include "os/translation_cache.hh"
#include "util/random.hh"

using namespace mosaic;

namespace
{

// ------------------------------------------------------ the cache

TEST(TranslationCache, EmptySlotsMatchNoKey)
{
    TranslationCache c;
    for (const Asid asid : {Asid{0}, Asid{1}, Asid{0xFFFF}}) {
        for (const Vpn vpn : {Vpn{0}, Vpn{255}, invalidVpn})
            EXPECT_EQ(c.lookup(asid, vpn), invalidPfn) << asid << " " << vpn;
    }
}

TEST(TranslationCache, FillLookupInvalidateAreExact)
{
    TranslationCache c;
    c.fill(1, 7, 100);
    EXPECT_EQ(c.lookup(1, 7), 100u);
    EXPECT_EQ(c.lookup(2, 7), invalidPfn); // another ASID
    EXPECT_EQ(c.lookup(1, 7 + TranslationCache::slots), invalidPfn);

    // Invalidating a different key leaves the slot alone.
    c.invalidate(2, 7);
    c.invalidate(1, 7 + TranslationCache::slots);
    EXPECT_EQ(c.lookup(1, 7), 100u);
    c.invalidate(1, 7);
    EXPECT_EQ(c.lookup(1, 7), invalidPfn);

    // Direct-mapped: a key on the same slot replaces the old one.
    c.fill(1, 7, 100);
    c.fill(1, 7 + TranslationCache::slots, 200);
    EXPECT_EQ(c.lookup(1, 7), invalidPfn);
    EXPECT_EQ(c.lookup(1, 7 + TranslationCache::slots), 200u);
}

TEST(TranslationCache, KeysAreThePageTablesVpnBits)
{
    // The page tables index the low vpnBits of a VPN only; the cache
    // uses the same identity.
    TranslationCache c;
    c.fill(3, 5, 42);
    EXPECT_EQ(c.lookup(3, 5 + (Vpn{1} << vpnBits)), 42u);
}

// ------------------------------------------- coherence with a walk

/** The plain translation of a page: a walk of its table and the one
 *  hash output its CPFN names; invalidPfn when it is not present. */
Pfn
plainTranslation(MosaicVm &vm, Asid asid, Vpn vpn)
{
    const MosaicWalkResult walk = vm.pageTable(asid).walk(vpn);
    if (!walk.present)
        return invalidPfn;
    // A present page's ToC is bound, so this never creates a binding.
    const std::optional<std::uint64_t> input = vm.hashInputIfBound(asid, vpn);
    EXPECT_TRUE(input.has_value());
    return vm.allocator().mapper().pfnOf(input.value_or(0), walk.cpfn);
}

Pfn
plainTranslation(LinuxVm &vm, Asid asid, Vpn vpn)
{
    const VanillaWalkResult walk = vm.pageTable(asid).walk(vpn);
    return walk.present ? walk.pfn : invalidPfn;
}

Pfn
plainTranslation(ShardedMosaicVm &vm, Asid asid, Vpn vpn)
{
    const std::size_t s = vm.routeOf(asid, vpn);
    const Pfn local = plainTranslation(vm.shard(s), asid, vpn);
    return local == invalidPfn ? invalidPfn
                               : vm.partition().toGlobal(s, local);
}

std::uint64_t
fold(std::uint64_t h, std::uint64_t v)
{
    return mix64(h ^ v) + 0x9E3779B97F4A7C15ull;
}

std::uint64_t
foldStats(const VmStats &s)
{
    std::uint64_t h = 0;
    for (const std::uint64_t v :
             {s.minorFaults, s.majorFaults, s.swapIns, s.swapOuts,
              s.conflicts, s.recoveredConflicts, s.ghostEvictions,
              s.ghostRescues, s.steadyUtilization.count()})
        h = fold(h, v);
    for (const double g : {s.firstConflictUtilization,
                           s.firstSwapOutUtilization,
                           s.steadyUtilization.sum()})
        h = fold(h, std::bit_cast<std::uint64_t>(g));
    return h;
}

/** What one drive produced: folded PFNs and stats, how many scalar
 *  touches found their page resident, and how many shares ran. */
struct Drive
{
    std::uint64_t pfns = 0;
    std::uint64_t stats = 0;
    std::uint64_t resident = 0;
    std::uint64_t touches = 0;
    std::uint64_t shares = 0;
};

/**
 * A multi-tenant op stream with heavy reuse: a touch repeats the last
 * page 30% of the time and one of the last 16 pages 40% of the time;
 * 2% of ops unmap a short range, 2% run a 16-touch block through
 * touchBatch, and (when @p share) 1% share a mosaic page between
 * ASIDs. Every scalar touch of a resident page must return its plain
 * translation, and afterwards every touched page is present there.
 */
template <typename Vm>
Drive
drive(Vm &vm, std::uint64_t seed, unsigned asids, Vpn pages, bool share,
      unsigned ops = 20000)
{
    constexpr unsigned arity = 4;
    Rng rng(seed);
    std::array<PageTouch, 16> recent{};
    std::size_t seen = 0;
    const auto nextTouch = [&] {
        PageTouch t;
        const double u = rng.uniform();
        if (seen > 0 && u < 0.3) {
            t = recent[(seen - 1) % recent.size()];
        } else if (seen > 0 && u < 0.7) {
            t = recent[rng.below(std::min(seen, recent.size()))];
        } else {
            t = PageTouch{static_cast<Asid>(1 + rng.below(asids)),
                          rng.below(pages), false};
        }
        t.write = rng.chance(0.3);
        recent[seen++ % recent.size()] = t;
        return t;
    };

    Drive d;
    std::vector<PageTouch> block(16);
    std::vector<Pfn> out(block.size());
    for (unsigned op = 0; op < ops; ++op) {
        const unsigned kind = static_cast<unsigned>(rng.below(100));
        if (kind < 2) {
            vm.unmapRange(static_cast<Asid>(1 + rng.below(asids)),
                          rng.below(pages), 1 + rng.below(8));
        } else if (kind < 3 && share) {
            if constexpr (requires { vm.hasLocationBinding(1, 0); }) {
                const auto src = static_cast<Asid>(1 + rng.below(asids));
                const auto dst = static_cast<Asid>(
                    1 + (src + rng.below(asids - 1)) % asids);
                const Vpn sv = rng.below(pages / arity) * arity;
                const Vpn dv = rng.below(pages / arity) * arity;
                if (!vm.hasLocationBinding(dst, dv)) {
                    vm.shareRange(src, sv, dst, dv, arity);
                    ++d.shares;
                }
            }
        } else if (kind < 5) {
            for (PageTouch &t : block)
                t = nextTouch();
            vm.touchBatch(block, out.data());
            for (const Pfn pfn : out)
                d.pfns = fold(d.pfns, pfn);
        } else {
            const PageTouch t = nextTouch();
            const Pfn want = plainTranslation(vm, t.asid, t.vpn);
            const Pfn got = vm.touch(t.asid, t.vpn, t.write);
            ++d.touches;
            if (want != invalidPfn) {
                ++d.resident;
                EXPECT_EQ(got, want) << "op " << op << " (" << t.asid
                                     << ", " << t.vpn << ")";
            }
            EXPECT_EQ(plainTranslation(vm, t.asid, t.vpn), got)
                << "op " << op;
            d.pfns = fold(d.pfns, got);
            if (::testing::Test::HasFailure())
                return d;
        }
    }
    d.stats = foldStats(vm.stats());
    return d;
}

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

/** Folded PFNs and stats of one drive, computed on the code before
 *  the translation cache existed. */
struct Pin
{
    std::uint64_t pfns;
    std::uint64_t stats;
};

void
expectPinned(const Drive &d, const Pin &pin)
{
    // Most touches hit a resident page, so the cache is exercised.
    EXPECT_GT(d.resident * 2, d.touches);
    EXPECT_EQ(d.pfns, pin.pfns) << std::hex << "0x" << d.pfns;
    EXPECT_EQ(d.stats, pin.stats) << std::hex << "0x" << d.stats;
}

struct MosaicCase
{
    EvictionPolicy policy;
    SharingMode sharing;
    Pin pin;
};

std::string
caseName(const ::testing::TestParamInfo<MosaicCase> &info)
{
    const char *const policies[] = {"HorizonLru", "LocalLru",
                                    "ShrunkenCache"};
    return std::string(policies[static_cast<int>(info.param.policy)]) +
           (info.param.sharing == SharingMode::PageIdHash ? "_PageIdHash"
                                                          : "_LocationId");
}

class MosaicCoherence : public ::testing::TestWithParam<MosaicCase>
{
};

TEST_P(MosaicCoherence, CachedTouchesEqualPlainWalks)
{
    MosaicVmConfig cfg;
    cfg.geometry = tinyGeometry(32); // 256 frames
    cfg.policy = GetParam().policy;
    cfg.sharing = GetParam().sharing;
    cfg.seed = 77;
    MosaicVm vm(cfg);
    // 4 ASIDs x 96 pages: 1.5x over-commit.
    const Drive d = drive(vm, 1234, 4, 96,
                          cfg.sharing == SharingMode::LocationId);
    EXPECT_GT(vm.stats().swapOuts, 0u);
    if (cfg.sharing == SharingMode::LocationId) {
        EXPECT_GT(d.shares, 0u);
    }
    expectPinned(d, GetParam().pin);
}

INSTANTIATE_TEST_SUITE_P(
    PolicyAndSharing, MosaicCoherence,
    ::testing::Values(
        MosaicCase{EvictionPolicy::HorizonLru, SharingMode::PageIdHash,
                   {0xf6f3d201fdf40413ull, 0x579ffe887a599869ull}},
        MosaicCase{EvictionPolicy::LocalLru, SharingMode::PageIdHash,
                   {0x7117b5d5692983cfull, 0xfe21749728b2216eull}},
        MosaicCase{EvictionPolicy::ShrunkenCache, SharingMode::PageIdHash,
                   {0xd91acc482cae0d60ull, 0x46d553cfe6dda124ull}},
        MosaicCase{EvictionPolicy::HorizonLru, SharingMode::LocationId,
                   {0x90f3372d661dfcedull, 0x828d969aa085dfe7ull}},
        MosaicCase{EvictionPolicy::LocalLru, SharingMode::LocationId,
                   {0xd6856be3992421d4ull, 0xe21cdc44e9644ca1ull}},
        MosaicCase{EvictionPolicy::ShrunkenCache, SharingMode::LocationId,
                   {0xcc42b7f2123c6d65ull, 0x82c14aadd4ae1190ull}}),
    caseName);

TEST(MosaicCoherenceFaults, InjectedPlacementFailures)
{
    const auto plan = fault::FaultPlan::parse("vm.place:every=7").value();
    fault::FaultInjector inj(&plan, 5);
    MosaicVmConfig cfg;
    cfg.geometry = tinyGeometry(32);
    cfg.faults = &inj;
    MosaicVm vm(cfg);
    const Drive d = drive(vm, 99, 3, 128, false);
    EXPECT_GT(vm.stats().recoveredConflicts, 0u);
    expectPinned(d, {0xf27cea4f719894acull, 0x8463b2659b7a7278ull});
}

TEST(LinuxCoherence, CachedTouchesEqualPlainWalks)
{
    LinuxVmConfig cfg;
    cfg.numFrames = 256;
    LinuxVm vm(cfg);
    const Drive d = drive(vm, 4321, 4, 96, false);
    EXPECT_GT(vm.stats().swapOuts, 0u);
    expectPinned(d, {0x93a554e9622c7da9ull, 0x6346479009f69c47ull});
}

TEST(ShardedCoherence, TwoShardsWithSteals)
{
    ShardedVmConfig cfg;
    cfg.base.geometry = tinyGeometry(2 * 16);
    cfg.shards = 2;
    ShardedMosaicVm vm(cfg);
    const Drive d = drive(vm, 2024, 5, 96, false);
    EXPECT_GT(vm.counters().steals, 0u);
    expectPinned(d, {0x426dde915acd367aull, 0x267301fec6b2f850ull});
}

} // namespace
