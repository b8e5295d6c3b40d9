/**
 * @file
 * Tests for MosaicMapper: candidate-set computation, CPFN <-> PFN
 * conversion, and agreement between the two directions.
 */

#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <vector>

#include "mem/mosaic_mapper.hh"
#include "util/random.hh"

namespace mosaic
{
namespace
{

MemoryGeometry
geometry(std::size_t buckets = 256)
{
    MemoryGeometry g;
    g.numFrames = buckets * g.slotsPerBucket();
    return g;
}

TEST(Mapper, CandidatesAreDeterministic)
{
    const MosaicMapper m(geometry());
    const PageId id{1, 12345};
    const CandidateSet a = m.candidates(id);
    const CandidateSet b = m.candidates(id);
    EXPECT_EQ(a.frontBucket, b.frontBucket);
    EXPECT_EQ(a.numBackChoices, 6u);
    for (unsigned k = 0; k < a.numBackChoices; ++k)
        EXPECT_EQ(a.backBuckets[k], b.backBuckets[k]);
}

TEST(Mapper, CandidatesDependOnAsid)
{
    const MosaicMapper m(geometry());
    const CandidateSet a = m.candidates(PageId{1, 777});
    const CandidateSet b = m.candidates(PageId{2, 777});
    // With 256 buckets a coincidental front match is possible but
    // all seven matching is vanishingly unlikely.
    bool all_equal = a.frontBucket == b.frontBucket;
    for (unsigned k = 0; k < 6; ++k)
        all_equal &= a.backBuckets[k] == b.backBuckets[k];
    EXPECT_FALSE(all_equal);
}

TEST(Mapper, BucketsWithinRange)
{
    const MemoryGeometry g = geometry(100);
    const MosaicMapper m(g);
    for (Vpn vpn = 0; vpn < 5000; ++vpn) {
        const CandidateSet c = m.candidates(PageId{1, vpn});
        EXPECT_LT(c.frontBucket, g.numBuckets());
        for (unsigned k = 0; k < c.numBackChoices; ++k)
            EXPECT_LT(c.backBuckets[k], g.numBuckets());
    }
}

TEST(Mapper, FrontPfnLandsInFrontYard)
{
    const MemoryGeometry g = geometry();
    const MosaicMapper m(g);
    const CandidateSet c = m.candidates(PageId{1, 9});
    for (unsigned off = 0; off < g.frontSlots; ++off) {
        const Pfn pfn = m.frontPfn(c, off);
        EXPECT_EQ(pfn / g.slotsPerBucket(), c.frontBucket);
        EXPECT_LT(pfn % g.slotsPerBucket(), g.frontSlots);
    }
}

TEST(Mapper, BackPfnLandsInBackyard)
{
    const MemoryGeometry g = geometry();
    const MosaicMapper m(g);
    const CandidateSet c = m.candidates(PageId{1, 9});
    for (unsigned k = 0; k < c.numBackChoices; ++k) {
        for (unsigned off = 0; off < g.backSlots; ++off) {
            const Pfn pfn = m.backPfn(c, k, off);
            EXPECT_EQ(pfn / g.slotsPerBucket(), c.backBuckets[k]);
            EXPECT_GE(pfn % g.slotsPerBucket(), g.frontSlots);
        }
    }
}

TEST(Mapper, CpfnPfnRoundTripOverAllCandidates)
{
    const MemoryGeometry g = geometry();
    const MosaicMapper m(g);
    for (Vpn vpn = 0; vpn < 200; ++vpn) {
        const CandidateSet c = m.candidates(PageId{3, vpn});
        for (unsigned off = 0; off < g.frontSlots; ++off) {
            const Pfn pfn = m.frontPfn(c, off);
            const Cpfn cpfn = m.toCpfn(c, pfn);
            EXPECT_EQ(m.toPfn(c, cpfn), pfn);
        }
        for (unsigned k = 0; k < c.numBackChoices; ++k) {
            for (unsigned off = 0; off < g.backSlots; ++off) {
                const Pfn pfn = m.backPfn(c, k, off);
                const Cpfn cpfn = m.toCpfn(c, pfn);
                EXPECT_EQ(m.toPfn(c, cpfn), pfn);
            }
        }
    }
}

/** Geometries for the pfnOf differential: the paper default, a
 *  small odd one with a non-power-of-two bucket count, and one whose
 *  1 + d outputs exceed TabulationHash::maxProbes, so candidates()
 *  takes the hashMany fallback. */
std::vector<MemoryGeometry>
pfnOfGeometries()
{
    std::vector<MemoryGeometry> out;
    out.push_back(geometry());

    MemoryGeometry odd;
    odd.frontSlots = 24;
    odd.backSlots = 4;
    odd.backChoices = 3;
    odd.hashSeed = 77;
    odd.numFrames = 97 * odd.slotsPerBucket();
    out.push_back(odd);

    MemoryGeometry wide;
    wide.backChoices = 10;
    wide.backSlots = 4;
    wide.hashSeed = 5;
    wide.numFrames = 300 * wide.slotsPerBucket();
    out.push_back(wide);
    return out;
}

/** Every valid CPFN of the codec: each front offset, then each
 *  (backyard choice, offset). */
std::vector<Cpfn>
allCpfns(const MemoryGeometry &g, const CpfnCodec &codec)
{
    std::vector<Cpfn> out;
    for (unsigned off = 0; off < g.frontSlots; ++off)
        out.push_back(codec.encodeFront(off));
    for (unsigned k = 0; k < g.backChoices; ++k) {
        for (unsigned off = 0; off < g.backSlots; ++off)
            out.push_back(codec.encodeBack(k, off));
    }
    return out;
}

TEST(Mapper, PfnOfEqualsToPfnOfCandidates)
{
    const std::vector<MemoryGeometry> geometries = pfnOfGeometries();
    ASSERT_GT(geometries.back().backChoices + 1,
              TabulationHash::maxProbes);
    for (const MemoryGeometry &g : geometries) {
        const MosaicMapper m(g);
        const std::vector<Cpfn> cpfns = allCpfns(g, m.codec());
        ASSERT_EQ(cpfns.size(), g.associativity());
        Rng rng(g.hashSeed);
        for (unsigned i = 0; i < 10000; ++i) {
            // Mix in packed (ASID, VPN) keys next to raw 64-bit ones.
            const std::uint64_t input =
                i % 2 ? rng() : packPageId(PageId{1, rng.below(1 << 20)});
            const CandidateSet c = m.candidates(input);
            for (const Cpfn cpfn : cpfns) {
                ASSERT_EQ(m.pfnOf(input, cpfn), m.toPfn(c, cpfn))
                    << "d " << g.backChoices << " input " << input
                    << " cpfn " << unsigned(cpfn);
            }
        }
    }
}

TEST(Mapper, SharedConstMapperAgreesAcrossThreads)
{
    // Four threads read one const mapper at once. Every read path is
    // free of shared writes (probe reads are returned, not counted in
    // the hash), so each thread sees exactly the serial results.
    const MemoryGeometry g = geometry();
    const MosaicMapper m(g);
    const std::vector<Cpfn> cpfns = allCpfns(g, m.codec());
    std::vector<std::uint64_t> inputs(4096);
    Rng rng(42);
    for (std::uint64_t &input : inputs)
        input = rng();

    const auto digestOf = [&](const CandidateSet &c) {
        std::uint64_t d = c.frontBucket;
        for (unsigned k = 0; k < c.numBackChoices; ++k)
            d = d * 1000003 + c.backBuckets[k];
        return d;
    };
    std::vector<std::uint64_t> serial_cands;
    std::vector<Pfn> serial_pfns;
    for (const std::uint64_t input : inputs) {
        serial_cands.push_back(digestOf(m.candidates(input)));
        for (const Cpfn cpfn : cpfns)
            serial_pfns.push_back(m.pfnOf(input, cpfn));
    }

    constexpr unsigned threads = 4;
    std::vector<unsigned> mismatches(threads, 0);
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
            for (unsigned rep = 0; rep < 4; ++rep) {
                std::size_t p = 0;
                for (std::size_t i = 0; i < inputs.size(); ++i) {
                    mismatches[t] +=
                        digestOf(m.candidates(inputs[i])) !=
                        serial_cands[i];
                    for (const Cpfn cpfn : cpfns)
                        mismatches[t] +=
                            m.pfnOf(inputs[i], cpfn) != serial_pfns[p++];
                }
            }
        });
    }
    for (std::thread &w : workers)
        w.join();
    for (unsigned t = 0; t < threads; ++t)
        EXPECT_EQ(mismatches[t], 0u) << "thread " << t;
}

TEST(Mapper, AssociativityIs104DistinctFramesUsually)
{
    // The h candidate slots are distinct frames unless two hash
    // outputs collide on a bucket; with many buckets, most pages get
    // the full 104.
    const MemoryGeometry g = geometry(1024);
    const MosaicMapper m(g);
    unsigned full = 0;
    constexpr unsigned pages = 200;
    for (Vpn vpn = 0; vpn < pages; ++vpn) {
        const CandidateSet c = m.candidates(PageId{1, vpn});
        std::set<Pfn> frames;
        for (unsigned off = 0; off < g.frontSlots; ++off)
            frames.insert(m.frontPfn(c, off));
        for (unsigned k = 0; k < c.numBackChoices; ++k)
            for (unsigned off = 0; off < g.backSlots; ++off)
                frames.insert(m.backPfn(c, k, off));
        EXPECT_LE(frames.size(), 104u);
        full += frames.size() == 104 ? 1 : 0;
    }
    EXPECT_GT(full, pages * 9 / 10);
}

TEST(Mapper, SameHashSeedSameMapping)
{
    MemoryGeometry g = geometry();
    const MosaicMapper a(g), b(g);
    for (Vpn vpn = 0; vpn < 100; ++vpn) {
        EXPECT_EQ(a.candidates(PageId{1, vpn}).frontBucket,
                  b.candidates(PageId{1, vpn}).frontBucket);
    }
}

TEST(Mapper, DifferentHashSeedDifferentMapping)
{
    MemoryGeometry g1 = geometry();
    MemoryGeometry g2 = geometry();
    g2.hashSeed = 999;
    const MosaicMapper a(g1), b(g2);
    unsigned same = 0;
    for (Vpn vpn = 0; vpn < 200; ++vpn) {
        same += a.candidates(PageId{1, vpn}).frontBucket ==
                        b.candidates(PageId{1, vpn}).frontBucket
            ? 1
            : 0;
    }
    // ~1/256 coincidence rate expected.
    EXPECT_LT(same, 20u);
}

using MapperDeathTest = ::testing::Test;

TEST(MapperDeathTest, NonCandidatePfnPanics)
{
    const MemoryGeometry g = geometry();
    const MosaicMapper m(g);
    const CandidateSet c = m.candidates(PageId{1, 1});
    // A front-yard frame of a bucket that is not the candidate
    // front bucket.
    const std::uint32_t other =
        (c.frontBucket + 1) % static_cast<std::uint32_t>(g.numBuckets());
    const Pfn bad = Pfn{other} * g.slotsPerBucket();
    EXPECT_DEATH((void)m.toCpfn(c, bad), "not a candidate");
}

} // namespace
} // namespace mosaic
