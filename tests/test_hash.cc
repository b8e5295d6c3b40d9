/**
 * @file
 * Unit and property tests for src/hash: xxHash64 against published
 * test vectors, tabulation hashing determinism and distribution, and
 * the probed multi-output scheme of paper §3.1.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <map>
#include <span>
#include <vector>

#include "hash/mix.hh"
#include "hash/tabulation.hh"
#include "hash/xxhash64.hh"

namespace mosaic
{
namespace
{

// Published XXH64 test vectors (xxHash reference implementation).
TEST(XxHash64, EmptyInput)
{
    EXPECT_EQ(xxhash64(nullptr, 0, 0), 0xEF46DB3751D8E999ull);
}

TEST(XxHash64, SingleByte)
{
    const char a = 'a';
    EXPECT_EQ(xxhash64(&a, 1, 0), 0xD24EC4F1A98C6E5Bull);
}

TEST(XxHash64, Abc)
{
    EXPECT_EQ(xxhash64("abc", 3, 0), 0x44BC2CF5AD770999ull);
}

TEST(XxHash64, SeedChangesOutput)
{
    EXPECT_NE(xxhash64("abc", 3, 0), xxhash64("abc", 3, 1));
}

TEST(XxHash64, LongInputsExerciseStripeLoop)
{
    std::vector<unsigned char> buf(1000);
    for (std::size_t i = 0; i < buf.size(); ++i)
        buf[i] = static_cast<unsigned char>(i * 31 + 7);
    const auto h1 = xxhash64(buf.data(), buf.size(), 0);
    const auto h2 = xxhash64(buf.data(), buf.size(), 0);
    EXPECT_EQ(h1, h2);
    buf[500] ^= 1;
    EXPECT_NE(xxhash64(buf.data(), buf.size(), 0), h1);
}

TEST(XxHash64, AllTailLengthsDiffer)
{
    // Lengths 0..64 walk every remainder path (8/4/1-byte tails).
    std::vector<unsigned char> buf(64, 0xAB);
    std::map<std::uint64_t, std::size_t> seen;
    for (std::size_t len = 0; len <= buf.size(); ++len) {
        const auto h = xxhash64(buf.data(), len, 0);
        EXPECT_FALSE(seen.contains(h)) << "collision at len " << len
                                       << " with " << seen[h];
        seen[h] = len;
    }
}

TEST(XxHash64, WordOverloadMatchesBuffer)
{
    const std::uint64_t w = 0x0123456789ABCDEFull;
    EXPECT_EQ(xxhash64(w, 42), xxhash64(&w, sizeof(w), 42));
}

TEST(Tabulation, DeterministicAcrossInstances)
{
    TabulationHash a(99), b(99);
    for (std::uint64_t k = 0; k < 1000; ++k)
        EXPECT_EQ(a.hash(k * 7919), b.hash(k * 7919));
}

TEST(Tabulation, SeedsProduceDifferentFunctions)
{
    TabulationHash a(1), b(2);
    int same = 0;
    for (std::uint64_t k = 0; k < 256; ++k)
        same += (a.hash(k) == b.hash(k)) ? 1 : 0;
    EXPECT_LT(same, 3);
}

TEST(Tabulation, HashManyMatchesIndividualProbes)
{
    TabulationHash h(5);
    std::array<std::uint32_t, 7> out;
    for (std::uint64_t key : {0ull, 1ull, 42ull, 0xDEADBEEFull,
                              ~0ull}) {
        h.hashMany(key, out);
        for (unsigned k = 0; k < out.size(); ++k)
            EXPECT_EQ(out[k], h.hash(key, k)) << "key " << key
                                              << " probe " << k;
    }
}

TEST(Tabulation, ProbedOutputsAreDistinct)
{
    TabulationHash h(5);
    std::array<std::uint32_t, 7> out;
    h.hashMany(0x123456789ABCDEFull, out);
    for (unsigned i = 0; i < out.size(); ++i)
        for (unsigned j = i + 1; j < out.size(); ++j)
            EXPECT_NE(out[i], out[j]);
}

TEST(Tabulation, SingleByteChangesOutput)
{
    TabulationHash h(5);
    const std::uint64_t base = 0x1122334455667788ull;
    for (unsigned byte = 0; byte < 8; ++byte) {
        const std::uint64_t flipped =
            base ^ (std::uint64_t{0xFF} << (8 * byte));
        EXPECT_NE(h.hash(base), h.hash(flipped)) << "byte " << byte;
    }
}

TEST(Tabulation, BucketBalanceOverSequentialKeys)
{
    // Sequential VPNs (the common allocation pattern) must spread
    // evenly over buckets — the property page placement relies on.
    TabulationHash h(7);
    constexpr unsigned buckets = 64;
    std::array<unsigned, buckets> counts{};
    constexpr unsigned n = 64000;
    for (std::uint64_t k = 0; k < n; ++k)
        ++counts[h.hash(k) % buckets];
    const double expected = double{n} / buckets;
    for (unsigned b = 0; b < buckets; ++b) {
        EXPECT_GT(counts[b], expected * 0.8);
        EXPECT_LT(counts[b], expected * 1.2);
    }
}

TEST(Tabulation, ProbeBalanceOverSequentialKeys)
{
    // The probed secondary outputs must stay balanced too.
    TabulationHash h(7);
    constexpr unsigned buckets = 64;
    for (unsigned probe = 1; probe <= 6; ++probe) {
        std::array<unsigned, buckets> counts{};
        constexpr unsigned n = 32000;
        for (std::uint64_t k = 0; k < n; ++k)
            ++counts[h.hash(k, probe) % buckets];
        const double expected = double{n} / buckets;
        for (unsigned b = 0; b < buckets; ++b) {
            EXPECT_GT(counts[b], expected * 0.75) << "probe " << probe;
            EXPECT_LT(counts[b], expected * 1.25) << "probe " << probe;
        }
    }
}

TEST(Tabulation, ProbeAllMatchesIndividualProbes)
{
    // The batched path must be bit-identical to hash()/hashMany()
    // for every batch width. Keys with bytes >= 249 push the probe
    // window past index 255 and into the mirrored tail.
    const std::uint64_t keys[] = {
        0ull,           1ull,
        42ull,          0xDEADBEEFull,
        ~0ull,          0xF9FAFBFCFDFEFF00ull,
        0xFF00FF00FF00FF00ull, 0x123456789ABCDEF0ull,
    };
    for (std::uint64_t seed : {1ull, 5ull, 99ull}) {
        TabulationHash h(seed);
        std::array<std::uint32_t, TabulationHash::maxProbes> batched;
        for (std::uint64_t key : keys) {
            for (unsigned width = 1;
                 width <= TabulationHash::maxProbes; ++width) {
                std::span<std::uint32_t> out(batched.data(), width);
                h.probeAll(key, out);
                for (unsigned k = 0; k < width; ++k) {
                    EXPECT_EQ(out[k], h.hash(key, k))
                        << "seed " << seed << " key " << key
                        << " width " << width << " probe " << k;
                }
            }
        }
    }
}

TEST(Tabulation, ProbeAllMirroredTailAllByteValues)
{
    // Every byte value in every byte position, at the full batch
    // width: bytes 248..255 wrap through the mirrored tail entries.
    TabulationHash h(17);
    std::array<std::uint32_t, TabulationHash::maxProbes> out;
    for (unsigned pos = 0; pos < 8; ++pos) {
        for (unsigned byte = 0; byte < 256; ++byte) {
            const std::uint64_t key = std::uint64_t{byte} << (8 * pos);
            h.probeAll(key, out);
            for (unsigned k = 0; k < out.size(); ++k) {
                ASSERT_EQ(out[k], h.hash(key, k))
                    << "pos " << pos << " byte " << byte
                    << " probe " << k;
            }
        }
    }
}

TEST(Tabulation, ProbeAllReadsExactlyOneWordPerTable)
{
    // The hardware claim probeAll models: numTables (8) table reads
    // per batch, independent of how many probes the batch requests.
    TabulationHash h(3);
    std::array<std::uint32_t, TabulationHash::maxProbes> buf;

    std::uint64_t calls = 0;
    std::uint64_t reads = 0;
    for (unsigned width = 1; width <= TabulationHash::maxProbes;
         ++width) {
        for (std::uint64_t key : {0ull, 0xFEDCBA9876543210ull, ~0ull}) {
            std::span<std::uint32_t> out(buf.data(), width);
            reads += h.probeAll(key, out);
            ++calls;
            EXPECT_EQ(reads, calls * TabulationHash::numTables)
                << "width " << width << " key " << key;
        }
    }
}

TEST(Tabulation, ProbeAllEmptyBatchReadsNothing)
{
    // An empty probe window touches no table words, so it must not
    // charge any reads (a zero-width batch is not a memory access).
    TabulationHash h(3);
    EXPECT_EQ(h.probeAll(0xDEADBEEFull, std::span<std::uint32_t>{}), 0u);
}

TEST(Tabulation, ProbeAllManyMatchesPerKeyProbeAll)
{
    // The table-major batched sweep must be bit-identical to one
    // probeAll per key — including mirrored-tail keys — and charge
    // exactly the per-key accounting: batching amortizes physical
    // table streaming, never the modeled read complexity.
    const std::uint64_t keys[] = {
        0ull,           1ull,
        42ull,          0xDEADBEEFull,
        ~0ull,          0xF9FAFBFCFDFEFF00ull,
        0xFF00FF00FF00FF00ull, 0x123456789ABCDEF0ull,
        7ull,           0xF8F9FAFBFCFDFEFFull,
    };
    constexpr std::size_t n = std::size(keys);
    for (std::uint64_t seed : {1ull, 5ull, 99ull}) {
        TabulationHash h(seed);
        for (unsigned width = 1;
             width <= TabulationHash::maxProbes; ++width) {
            std::vector<std::uint32_t> batched(n * width);
            const std::uint64_t batched_reads =
                h.probeAllMany(keys, width, batched.data());
            // Exactly B * numTables: the sum of B scalar calls.
            EXPECT_EQ(batched_reads, n * TabulationHash::numTables)
                << "seed " << seed << " width " << width;

            std::uint64_t scalar_reads = 0;
            std::array<std::uint32_t, TabulationHash::maxProbes> one;
            for (std::size_t i = 0; i < n; ++i) {
                std::span<std::uint32_t> out(one.data(), width);
                scalar_reads += h.probeAll(keys[i], out);
                for (unsigned k = 0; k < width; ++k) {
                    ASSERT_EQ(batched[i * width + k], out[k])
                        << "seed " << seed << " width " << width
                        << " key " << keys[i] << " probe " << k;
                }
            }
            EXPECT_EQ(batched_reads, scalar_reads)
                << "seed " << seed << " width " << width;
        }
    }
}

TEST(Tabulation, ProbeAllManyZeroWidthReadsNothing)
{
    TabulationHash h(7);
    const std::uint64_t keys[] = {1ull, 2ull, 3ull};
    EXPECT_EQ(h.probeAllMany(keys, 0, nullptr), 0u);
}

TEST(Tabulation, HashKeysMatchesScalarHashAndChargesNothing)
{
    // hashKeys batches the single-output hash; like scalar hash()
    // it is not a probe, so it reports no probe reads.
    TabulationHash h(23);
    const std::uint64_t keys[] = {
        0ull, 42ull, ~0ull, 0xF9FAFBFCFDFEFF00ull,
        0xCAFEBABE12345678ull,
    };
    constexpr std::size_t n = std::size(keys);
    for (unsigned k : {0u, 1u, 5u, TabulationHash::maxProbes - 1}) {
        std::array<std::uint32_t, n> out;
        h.hashKeys(keys, k, out.data());
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_EQ(out[i], h.hash(keys[i], k))
                << "k " << k << " key " << keys[i];
        }
    }
}

TEST(Tabulation, TableEntryExposesRom)
{
    TabulationHash h(11);
    // hash(key) of a one-byte key equals the XOR of each table's
    // entry at that byte (byte 0 = key, others = 0).
    const std::uint64_t key = 0xA5;
    std::uint32_t expected = h.tableEntry(0, 0xA5);
    for (unsigned t = 1; t < TabulationHash::numTables; ++t)
        expected ^= h.tableEntry(t, 0);
    EXPECT_EQ(h.hash(key), expected);
}

TEST(Mix, Mix64IsBijectiveOnSamples)
{
    // fmix64 is invertible; distinct inputs must map to distinct
    // outputs (spot check) and zero must not be a fixed point class.
    std::map<std::uint64_t, std::uint64_t> seen;
    for (std::uint64_t i = 0; i < 10000; ++i) {
        const auto v = mix64(i);
        EXPECT_FALSE(seen.contains(v));
        seen[v] = i;
    }
}

TEST(Mix, WeakHashIsCorrelatedAcrossProbes)
{
    // Documents *why* the weak hash is unsuitable: probe outputs are
    // translates of each other, so the d "choices" collapse.
    const std::uint64_t k = 1234567;
    const std::uint64_t delta =
        weakMultiplicativeHash(k, 1) - weakMultiplicativeHash(k, 0);
    const std::uint64_t delta2 =
        weakMultiplicativeHash(k, 2) - weakMultiplicativeHash(k, 1);
    EXPECT_EQ(delta, delta2);
}

} // namespace
} // namespace mosaic
