/**
 * @file
 * Tests for the radix tree and both page tables: mapping lifecycle,
 * walk results and reference counts, ToC leaves (Figure 5), and
 * iteration.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "mem/geometry.hh"
#include "pt/mosaic_page_table.hh"
#include "pt/radix_tree.hh"
#include "pt/vanilla_page_table.hh"
#include "util/random.hh"

namespace mosaic
{
namespace
{

TEST(RadixTree, LevelsFromKeyBits)
{
    EXPECT_EQ(RadixTree<int>(9).levels(), 1u);
    EXPECT_EQ(RadixTree<int>(10).levels(), 2u);
    EXPECT_EQ(RadixTree<int>(36).levels(), 4u);
    EXPECT_EQ(RadixTree<int>(27).levels(), 3u);
}

TEST(RadixTree, GetOrCreateThenFind)
{
    RadixTree<int> t(36);
    t.getOrCreate(0x123456789) = 42;
    int *leaf = t.find(0x123456789);
    ASSERT_NE(leaf, nullptr);
    EXPECT_EQ(*leaf, 42);
    // A key on the same path but in the same leaf node resolves to a
    // default-constructed leaf; a key in an untouched subtree finds
    // no leaf node at all.
    ASSERT_NE(t.find(0x123456788), nullptr);
    EXPECT_EQ(*t.find(0x123456788), 0);
    EXPECT_EQ(t.find(0x823456789), nullptr);
}

TEST(RadixTree, FindReportsWalkLength)
{
    RadixTree<int> t(36);
    t.getOrCreate(99);
    unsigned refs = 0;
    t.find(99, &refs);
    EXPECT_EQ(refs, 4u);
    refs = 0;
    t.getOrCreate(99, &refs);
    EXPECT_EQ(refs, 4u);
}

TEST(RadixTree, SparseKeysDoNotInterfere)
{
    RadixTree<std::uint64_t> t(36);
    std::map<std::uint64_t, std::uint64_t> model;
    std::uint64_t x = 1;
    for (int i = 0; i < 2000; ++i) {
        x = x * 6364136223846793005ull + 1;
        const std::uint64_t key = x >> 28; // 36-bit keys
        t.getOrCreate(key) = x;
        model[key] = x;
    }
    for (const auto &[key, value] : model) {
        auto *leaf = t.find(key);
        ASSERT_NE(leaf, nullptr);
        EXPECT_EQ(*leaf, value);
    }
}

TEST(RadixTree, ForEachVisitsLeavesWithKeys)
{
    RadixTree<int> t(18);
    t.getOrCreate(5) = 50;
    t.getOrCreate(100000) = 77;
    std::map<std::uint64_t, int> seen;
    t.forEach([&](std::uint64_t key, int &leaf) {
        if (leaf != 0)
            seen[key] = leaf;
    });
    EXPECT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[5], 50);
    EXPECT_EQ(seen[100000], 77);
}

TEST(RadixTree, SingleLevelTree)
{
    RadixTree<int> t(5);
    t.getOrCreate(31) = 3;
    unsigned refs = 0;
    EXPECT_EQ(*t.find(31, &refs), 3);
    EXPECT_EQ(refs, 1u);
}

TEST(RadixTree, WideLeavesAreContiguousPerKey)
{
    // Three leaves per key, runs filled with 7: a key's leaves sit
    // side by side and neighbouring keys of a run start at the fill.
    RadixTree<std::uint16_t> t(20, 3, 7);
    EXPECT_EQ(t.width(), 3u);
    std::uint16_t *leaves = &t.getOrCreate(0x12345);
    for (unsigned i = 0; i < 3; ++i) {
        EXPECT_EQ(leaves[i], 7);
        leaves[i] = static_cast<std::uint16_t>(100 + i);
    }
    std::uint16_t *next = &t.getOrCreate(0x12346);
    EXPECT_EQ(next, leaves + 3);
    EXPECT_EQ(next[0], 7);
    const std::uint16_t *found = t.find(0x12345);
    ASSERT_EQ(found, leaves);
    EXPECT_EQ(found[2], 102);
}

TEST(RadixTree, WrittenMarksOnlyCreatedKeys)
{
    RadixTree<std::uint8_t> t(36, 4, 0x7F);
    t.getOrCreate(1000);
    unsigned refs = 0;
    // Same leaf run, never created: find reads the fill after a full
    // four-level walk, and only the created key reads as written.
    const std::uint8_t *fresh = t.find(1001, &refs);
    ASSERT_NE(fresh, nullptr);
    EXPECT_EQ(fresh[0], 0x7F);
    EXPECT_EQ(refs, 4u);
    EXPECT_FALSE(t.written(1001, fresh));
    EXPECT_TRUE(t.written(1000, t.find(1000)));
    // The first and last key of a run, and a one-level tree.
    EXPECT_FALSE(t.written(1023, t.find(1023)));
    t.getOrCreate(1023);
    EXPECT_TRUE(t.written(1023, t.find(1023)));
    EXPECT_FALSE(t.written(512, t.find(512)));
    RadixTree<int> flat(5, 2);
    flat.getOrCreate(31);
    EXPECT_TRUE(flat.written(31, flat.find(31)));
    EXPECT_FALSE(flat.written(30, flat.find(30)));
    // No leaf run on the path: find stops where the path ends.
    refs = 0;
    EXPECT_EQ(t.find(1000 + (1u << 9), &refs), nullptr);
    EXPECT_EQ(refs, 3u);
}

/**
 * The full-height tree a RadixTree models: the leaves of every
 * created key, and per level the key prefixes that own a node. A
 * walk of that tree visits the root, then one node per level while
 * the key's prefix owns one, then the leaf run.
 */
class FullHeightModel
{
  public:
    FullHeightModel(unsigned levels, unsigned width, std::uint8_t fill)
        : levels_(levels), width_(width), fill_(fill), prefixes_(levels)
    {
    }

    std::uint64_t
    mask(std::uint64_t key) const
    {
        return levels_ * 9 >= 64 ? key
                                 : key & ((std::uint64_t{1} << (levels_ * 9)) - 1);
    }

    std::vector<std::uint8_t> &
    create(std::uint64_t key)
    {
        key = mask(key);
        for (unsigned level = 1; level < levels_; ++level)
            prefixes_[level].insert(key >> (9 * level));
        auto [it, fresh] = leaves_.try_emplace(key);
        if (fresh)
            it->second.assign(width_, fill_);
        return it->second;
    }

    /** Node visits of find(key), and whether it reaches a leaf run. */
    std::pair<unsigned, bool>
    walk(std::uint64_t key) const
    {
        key = mask(key);
        unsigned refs = 1;
        for (unsigned level = levels_ - 1; level >= 1; --level) {
            if (!prefixes_[level].contains(key >> (9 * level)))
                return {refs, false};
            ++refs;
        }
        return {refs, true};
    }

    /** Leaf i of a key whose run exists (the fill if never created). */
    std::uint8_t
    leaf(std::uint64_t key, unsigned i) const
    {
        const auto it = leaves_.find(mask(key));
        return it == leaves_.end() ? fill_ : it->second[i];
    }

    bool written(std::uint64_t key) const
    {
        return leaves_.contains(mask(key));
    }

    /** Every key of every leaf run, ascending. */
    std::vector<std::uint64_t>
    runKeys() const
    {
        std::vector<std::uint64_t> keys;
        std::set<std::uint64_t> runs;
        if (levels_ == 1)
            runs.insert(0); // a one-level tree is its eager run
        for (const auto &entry : leaves_)
            runs.insert(entry.first >> 9);
        for (const std::uint64_t run : runs) {
            for (std::uint64_t i = 0; i < 512; ++i)
                keys.push_back((run << 9) | i);
        }
        return keys;
    }

    /** Levels the created keys need (0 with none). */
    unsigned
    height() const
    {
        unsigned h = levels_ == 1 ? 1 : 0;
        for (const auto &entry : leaves_) {
            const unsigned bits =
                static_cast<unsigned>(std::bit_width(entry.first));
            h = std::max(h, bits <= 9 ? 1u : (bits + 8) / 9);
        }
        return h;
    }

  private:
    unsigned levels_;
    unsigned width_;
    std::uint8_t fill_;
    std::map<std::uint64_t, std::vector<std::uint8_t>> leaves_;
    std::vector<std::set<std::uint64_t>> prefixes_;
};

/** find() on @p key agrees with the model: node visits, leaf run
 *  presence, every leaf, and the written bit. */
void
expectFindMatchesModel(RadixTree<std::uint8_t> &tree,
                       const FullHeightModel &model, std::uint64_t key)
{
    unsigned refs = 0;
    const std::uint8_t *leaves = tree.find(key, &refs);
    const auto [model_refs, has_run] = model.walk(key);
    ASSERT_EQ(refs, model_refs) << "key " << key;
    ASSERT_EQ(leaves != nullptr, has_run) << "key " << key;
    if (!leaves)
        return;
    for (unsigned i = 0; i < tree.width(); ++i)
        ASSERT_EQ(leaves[i], model.leaf(key, i)) << "key " << key;
    ASSERT_EQ(tree.written(key, leaves), model.written(key))
        << "key " << key;
}

void
expectTreeMatchesModel(RadixTree<std::uint8_t> &tree,
                       const FullHeightModel &model)
{
    EXPECT_EQ(tree.height(), model.height());
    std::vector<std::uint64_t> visited;
    tree.forEach([&](std::uint64_t key, std::uint8_t &first) {
        visited.push_back(key);
        EXPECT_EQ(first, model.leaf(key, 0)) << "key " << key;
    });
    EXPECT_EQ(visited, model.runKeys());
}

/** A key that needs exactly @p height levels, clustered with the
 *  keys made before it half the time. */
std::uint64_t
keyOfHeight(Rng &rng, unsigned height, std::vector<std::uint64_t> &made)
{
    std::uint64_t key;
    if (!made.empty() && rng.chance(0.5)) {
        key = (made[rng.below(made.size())] & ~std::uint64_t{511}) |
              rng.below(512);
    } else {
        const std::uint64_t lo =
            height == 1 ? 0 : std::uint64_t{1} << (9 * (height - 1));
        const std::uint64_t span = height * 9 >= 64
            ? ~std::uint64_t{0} - lo
            : (std::uint64_t{1} << (9 * height)) - lo;
        key = lo + rng.below(span);
    }
    made.push_back(key);
    return key;
}

/** The right-sized tree against a full-height model: random keys of
 *  every height and above the modelled width, finds on an empty
 *  tree, growth after data exists, at one to five levels and widths
 *  1, 4 and 64. */
TEST(RadixTree, RightSizedTreeMatchesFullHeightModel)
{
    constexpr std::uint8_t fill = 0x7F;
    for (const unsigned key_bits : {5u, 9u, 18u, 27u, 36u, 45u}) {
        for (const unsigned width : {1u, 4u, 64u}) {
            SCOPED_TRACE("key_bits " + std::to_string(key_bits) +
                         " width " + std::to_string(width));
            RadixTree<std::uint8_t> tree(key_bits, width, fill);
            const unsigned levels = tree.levels();
            FullHeightModel model(levels, width, fill);
            Rng rng(key_bits * 131 + width);
            std::vector<std::uint64_t> made;
            const auto probe = [&] {
                const unsigned h =
                    1 + static_cast<unsigned>(rng.below(levels));
                std::vector<std::uint64_t> scratch;
                expectFindMatchesModel(tree, model,
                                       rng.chance(0.1)
                                           ? rng()
                                           : keyOfHeight(rng, h, scratch));
                if (!made.empty()) {
                    expectFindMatchesModel(
                        tree, model, made[rng.below(made.size())]);
                }
            };
            for (int i = 0; i < 20; ++i)
                probe();
            expectTreeMatchesModel(tree, model);
            // Grow one level at a time, so every growth stacks nodes
            // above a root that already holds data; the last phase
            // mixes every height with keys above 9 × levels bits.
            for (unsigned phase = 1; phase <= levels + 1; ++phase) {
                for (int op = 0; op < 60; ++op) {
                    const unsigned h = phase <= levels
                        ? phase
                        : 1 + static_cast<unsigned>(rng.below(levels));
                    const std::uint64_t key =
                        phase > levels && rng.chance(0.2)
                            ? rng()
                            : keyOfHeight(rng, h, made);
                    unsigned refs = 0;
                    std::uint8_t *leaves = &tree.getOrCreate(key, &refs);
                    ASSERT_EQ(refs, levels);
                    std::vector<std::uint8_t> &expect = model.create(key);
                    for (unsigned i = 0; i < width; ++i) {
                        ASSERT_EQ(leaves[i], expect[i]);
                        leaves[i] = expect[i] =
                            static_cast<std::uint8_t>(rng.below(fill));
                    }
                    probe();
                }
                expectTreeMatchesModel(tree, model);
                for (const std::uint64_t key : made)
                    expectFindMatchesModel(tree, model, key);
            }
            EXPECT_EQ(tree.height(), levels);
        }
    }
}

TEST(VanillaPt, MapWalkUnmap)
{
    VanillaPageTable pt;
    EXPECT_FALSE(pt.walk(123).present);
    pt.map(123, 456);
    const auto walk = pt.walk(123);
    EXPECT_TRUE(walk.present);
    EXPECT_EQ(walk.pfn, 456u);
    EXPECT_FALSE(walk.huge);
    EXPECT_EQ(pt.mapped4k(), 1u);
    pt.unmap(123);
    EXPECT_FALSE(pt.walk(123).present);
    EXPECT_EQ(pt.mapped4k(), 0u);
}

TEST(VanillaPt, WalkLengthMatchesX86)
{
    VanillaPageTable pt;
    pt.map(1, 1);
    EXPECT_EQ(pt.walk(1).memRefs, 4u);
    pt.mapHuge(512, 1024);
    const auto walk = pt.walk(512 + 5);
    EXPECT_TRUE(walk.huge);
    EXPECT_EQ(walk.memRefs, 3u);
}

TEST(VanillaPt, HugeMappingCoversRegionAndComputesOffset)
{
    VanillaPageTable pt;
    pt.mapHuge(1024, 8192);
    for (Vpn v = 1024; v < 1536; v += 100) {
        const auto walk = pt.walk(v);
        ASSERT_TRUE(walk.present);
        EXPECT_EQ(walk.pfn, 8192 + (v - 1024));
    }
    EXPECT_FALSE(pt.walk(1536).present);
    EXPECT_EQ(pt.mappedHuge(), 1u);
}

TEST(VanillaPt, FourKOverridesHugeOnWalk)
{
    // When both exist, the 4 KiB mapping wins (deeper walk first).
    VanillaPageTable pt;
    pt.mapHuge(0, 1000);
    pt.map(3, 77);
    EXPECT_EQ(pt.walk(3).pfn, 77u);
    EXPECT_EQ(pt.walk(4).pfn, 1004u);
}

TEST(VanillaPt, RemapUpdatesPfn)
{
    VanillaPageTable pt;
    pt.map(9, 1);
    pt.map(9, 2);
    EXPECT_EQ(pt.walk(9).pfn, 2u);
    EXPECT_EQ(pt.mapped4k(), 1u);
}

TEST(MosaicPt, SetWalkClear)
{
    MosaicPageTable pt(4, 0x7F);
    EXPECT_FALSE(pt.walk(10).present);
    pt.setCpfn(10, 33);
    const auto walk = pt.walk(10);
    EXPECT_TRUE(walk.present);
    EXPECT_EQ(walk.cpfn, 33);
    EXPECT_EQ(pt.mappedPages(), 1u);
    pt.clearCpfn(10);
    EXPECT_FALSE(pt.walk(10).present);
    EXPECT_EQ(pt.mappedPages(), 0u);
}

TEST(MosaicPt, WalkReturnsWholeToc)
{
    MosaicPageTable pt(4, 0x7F);
    pt.setCpfn(8, 1);
    pt.setCpfn(9, 2);
    pt.setCpfn(11, 4);
    const auto walk = pt.walk(10); // unmapped sub-page, same ToC
    EXPECT_FALSE(walk.present);
    ASSERT_EQ(walk.toc.size(), 4u);
    EXPECT_EQ(walk.toc[0], 1);
    EXPECT_EQ(walk.toc[1], 2);
    EXPECT_EQ(walk.toc[2], 0x7F);
    EXPECT_EQ(walk.toc[3], 4);
}

TEST(MosaicPt, TocsAreIndependent)
{
    MosaicPageTable pt(4, 0x7F);
    pt.setCpfn(0, 1);
    pt.setCpfn(4, 2);
    EXPECT_EQ(pt.walk(0).cpfn, 1);
    EXPECT_EQ(pt.walk(4).cpfn, 2);
    EXPECT_FALSE(pt.walk(1).present);
}

TEST(MosaicPt, MvpnOffsetForArities)
{
    MosaicPageTable pt64(64, 0x7F);
    EXPECT_EQ(pt64.mvpnOf(64), 1u);
    EXPECT_EQ(pt64.offsetOf(64 + 63), 63u);
    MosaicPageTable pt1(1, 0x7F);
    EXPECT_EQ(pt1.mvpnOf(7), 7u);
    EXPECT_EQ(pt1.offsetOf(7), 0u);
}

TEST(MosaicPt, WalkCountsNodeVisits)
{
    MosaicPageTable pt(64, 0x7F);
    pt.setCpfn(0, 1);
    // 36 - 6 = 30 bits of MVPN -> ceil(30/9) = 4 levels.
    EXPECT_EQ(pt.walk(0).memRefs, 4u);
}

TEST(MosaicPt, RemapCounting)
{
    MosaicPageTable pt(4, 0x7F);
    pt.setCpfn(3, 5);
    pt.setCpfn(3, 6); // remap: count stays 1
    EXPECT_EQ(pt.mappedPages(), 1u);
    EXPECT_EQ(pt.walk(3).cpfn, 6);
}

/** Node visits of a walk that finds the path missing at each level.
 *  Expected values were taken from the tree before its nodes were
 *  compacted into leaf runs. */
TEST(MosaicPt, MemRefsOfMissingPathsPerLevel)
{
    struct Probe
    {
        std::uint64_t mvpn;
        unsigned memRefs;
        bool written;
    };
    // One ToC written at MVPN 0. The probes diverge from its path at
    // the leaf slot (same run), the leaf run, and the two interior
    // levels below the root.
    const Probe probes[] = {
        {0, 4, true},
        {1, 4, false},
        {std::uint64_t{1} << 9, 3, false},
        {std::uint64_t{1} << 18, 2, false},
        {std::uint64_t{1} << 27, 1, false},
        {(std::uint64_t{1} << 27) + 5, 1, false},
    };
    for (const unsigned arity : {1u, 4u, 16u, 64u}) {
        MosaicPageTable pt(arity, 0x7F);
        pt.setCpfn(3 % arity, 9);
        for (const Probe &p : probes) {
            const auto walk = pt.walk(p.mvpn * arity);
            EXPECT_EQ(walk.memRefs, p.memRefs)
                << "arity " << arity << " mvpn " << p.mvpn;
            EXPECT_EQ(walk.toc.size(), p.written ? arity : 0u);
        }
    }
}

TEST(VanillaPt, MemRefsOfMissingPathsPerLevel)
{
    VanillaPageTable pt;
    pt.map(3, 9);
    pt.mapHuge(std::uint64_t{1} << 30, 4096);
    const struct
    {
        Vpn vpn;
        unsigned memRefs;
        bool present;
    } probes[] = {
        {0, 4, false},
        {1, 4, false},
        {1u << 9, 3, false},
        {1u << 18, 2, false},
        {std::uint64_t{1} << 27, 1, false},
        {(std::uint64_t{1} << 30) + 7, 3, true},
        {(std::uint64_t{1} << 30) + (1u << 9), 1, false},
    };
    for (const auto &p : probes) {
        const auto walk = pt.walk(p.vpn);
        EXPECT_EQ(walk.memRefs, p.memRefs) << "vpn " << p.vpn;
        EXPECT_EQ(walk.present, p.present) << "vpn " << p.vpn;
    }
}

/** Expected walk(vpn) from a model of the written ToCs. */
void
expectWalkMatchesModel(const MosaicPageTable &pt,
                       const std::map<Mvpn, std::vector<Cpfn>> &model,
                       Vpn vpn)
{
    const unsigned arity = pt.arity();
    const Mvpn mvpn = pt.mvpnOf(vpn);
    const auto walk = pt.walk(vpn);
    // The walk visits the root and every interior node that exists on
    // the path, then the leaf run: a node at depth d exists iff some
    // written ToC shares the MVPN's top bits above d.
    constexpr unsigned levels = 4;
    unsigned refs = 0;
    for (unsigned level = levels - 1; level >= 1; --level) {
        ++refs;
        const Mvpn prefix = mvpn >> (level * 9);
        const auto it = model.lower_bound(prefix << (level * 9));
        if (it == model.end() || (it->first >> (level * 9)) != prefix)
            break;
        if (level == 1)
            ++refs;
    }
    EXPECT_EQ(walk.memRefs, refs) << "vpn " << vpn;
    const auto it = model.find(mvpn);
    if (it == model.end()) {
        EXPECT_TRUE(walk.toc.empty()) << "vpn " << vpn;
        EXPECT_EQ(walk.cpfn, pt.unmappedCode());
        EXPECT_FALSE(walk.present);
        return;
    }
    ASSERT_EQ(walk.toc.size(), arity);
    for (unsigned i = 0; i < arity; ++i)
        EXPECT_EQ(walk.toc[i], it->second[i]) << "vpn " << vpn;
    EXPECT_EQ(walk.cpfn, it->second[pt.offsetOf(vpn)]);
    EXPECT_EQ(walk.present, walk.cpfn != pt.unmappedCode());
    EXPECT_EQ(pt.cpfnIn(pt.findLeaf(vpn), vpn), walk.cpfn);
}

TEST(MosaicPt, WalkMatchesMapModelAtEveryArity)
{
    constexpr Cpfn unmapped = 0x7F;
    for (const unsigned arity : {1u, 4u, 16u, 64u}) {
        MosaicPageTable pt(arity, unmapped);
        std::map<Mvpn, std::vector<Cpfn>> model;
        std::uint64_t mapped = 0;
        Rng rng(arity);
        // Clustered MVPNs, so runs hold written and never-written
        // ToCs side by side, plus a few far-away ones.
        const auto pick = [&]() -> Vpn {
            const Mvpn mvpn = rng.chance(0.9)
                ? rng.below(2000)
                : rng.below(std::uint64_t{1} << (36 - ceilLog2(arity)));
            return mvpn * arity + rng.below(arity);
        };
        for (int op = 0; op < 4000; ++op) {
            const Vpn vpn = pick();
            const Cpfn cpfn = rng.chance(0.2)
                ? unmapped
                : static_cast<Cpfn>(rng.below(unmapped));
            auto [toc, fresh] = model.try_emplace(pt.mvpnOf(vpn));
            if (fresh)
                toc->second.assign(arity, unmapped);
            Cpfn &slot = toc->second[pt.offsetOf(vpn)];
            mapped += (cpfn != unmapped) - (slot != unmapped);
            slot = cpfn;
            if (cpfn == unmapped)
                pt.clearCpfn(vpn);
            else
                pt.setCpfn(vpn, cpfn);
            EXPECT_EQ(pt.mappedPages(), mapped);
            expectWalkMatchesModel(pt, model, pick());
        }
        for (Vpn vpn = 0; vpn < 2100 * arity; vpn += 1 + arity / 2)
            expectWalkMatchesModel(pt, model, vpn);
    }
}

using MosaicPtDeathTest = ::testing::Test;

TEST(MosaicPtDeathTest, BadArityPanics)
{
    EXPECT_DEATH(MosaicPageTable(5, 0x7F), "power of two");
}

} // namespace
} // namespace mosaic
