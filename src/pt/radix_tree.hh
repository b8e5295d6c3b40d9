/**
 * @file
 * A radix (multi-level) page-table tree with 9-bit fanout per level,
 * i.e. 512-entry nodes that would each occupy one 4 KiB page in a
 * real page table.
 *
 * Both the vanilla x86-style page table and the mosaic page table
 * (whose leaves hold tables of contents, paper Figure 5) are built on
 * this structure. Lookups report how many node visits ("memory
 * references") the walk took so the simulator can account for walk
 * traffic.
 *
 * Layout (DESIGN.md §12.1). Interior nodes hold only their 512 child
 * slots. The slot above the leaves points straight at a leaf run:
 * one allocation holding a 512-bit "written" bitmap and then
 * fanout × width leaves, so each key owns `width` contiguous leaves
 * (one PTE for the vanilla table, one ToC of `arity` CPFNs for the
 * mosaic table). A one-level tree is a single leaf run.
 *
 * Stored height (DESIGN.md §12.1). levels() is the modelled depth,
 * but a multi-level tree stores only the levels its keys use: it
 * starts empty, its first key builds a root just tall enough for it,
 * and a key the root cannot hold adds interior nodes above the old
 * root, which becomes child 0. memRefs still counts the node visits
 * of the full-height tree, whose levels above the stored root hold
 * only child 0 on a path that exists.
 */

#ifndef MOSAIC_PT_RADIX_TREE_HH_
#define MOSAIC_PT_RADIX_TREE_HH_

#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>

#include "util/log.hh"

namespace mosaic
{

/**
 * @tparam Leaf payload stored per key (width() of them); runs are
 *         filled with the tree's fill value when created.
 */
template <typename Leaf>
class RadixTree
{
    static_assert(std::is_trivially_destructible_v<Leaf>,
                  "leaf runs are freed without running destructors");

  public:
    static constexpr unsigned fanoutBits = 9;
    static constexpr unsigned fanout = 1u << fanoutBits;

    /**
     * @param key_bits significant key width; determines the number
     *        of levels (ceil(key_bits / 9), minimum 1).
     * @param width leaves per key.
     * @param fill value every leaf of a new leaf run starts as.
     */
    explicit RadixTree(unsigned key_bits, unsigned width = 1,
                       Leaf fill = Leaf{})
        : levels_((key_bits + fanoutBits - 1) / fanoutBits),
          width_(width),
          fill_(fill)
    {
        ensure(width >= 1, "radix_tree: width must be positive");
        if (levels_ == 0)
            levels_ = 1;
        keyMask_ = maskOf(levels_);
        if (levels_ == 1)
            plant(1);
    }

    ~RadixTree()
    {
        if (root_)
            release(root_, height_ - 1);
    }

    RadixTree(const RadixTree &) = delete;
    RadixTree &operator=(const RadixTree &) = delete;

    /** Number of radix levels a walk is charged for. */
    unsigned levels() const { return levels_; }

    /** Levels actually stored (0 while a multi-level tree is empty). */
    unsigned height() const { return height_; }

    /** Leaves per key. */
    unsigned width() const { return width_; }

    /**
     * The first of a key's width() contiguous leaves, creating
     * interior nodes and the leaf run as needed, and marking the key
     * written. Keys are taken modulo 2^(9 × levels()). @p refs, when
     * non-null, accumulates the walk length, levels().
     */
    Leaf &
    getOrCreate(std::uint64_t key, unsigned *refs = nullptr)
    {
        key &= keyMask_;
        if (refs)
            *refs += levels_;
        if (!root_ || (key & ~heightMask_))
            plant(heightOf(key));
        void **slot = &root_;
        for (unsigned level = height_; level-- > 1;) {
            void **child =
                &static_cast<Node *>(*slot)->children[indexAt(key, level)];
            if (!*child) {
                *child = level == 1 ? static_cast<void *>(newRun())
                                    : static_cast<void *>(new Node());
            }
            slot = child;
        }
        Run *run = static_cast<Run *>(*slot);
        const unsigned i = indexAt(key, 0);
        run->written[i / 64] |= std::uint64_t{1} << (i % 64);
        return run->leaves()[std::size_t{i} * width_];
    }

    /**
     * The first of a key's leaves without creating anything; nullptr
     * when no leaf run exists on the path. A key of an existing run
     * that was never written reads as the fill value. @p refs counts
     * the node visits the full-height tree's walk would make.
     */
    Leaf *
    find(std::uint64_t key, unsigned *refs = nullptr)
    {
        key &= keyMask_;
        Run *run = findRun(key, refs);
        return run ? &run->leaves()[std::size_t{indexAt(key, 0)} * width_]
                   : nullptr;
    }

    const Leaf *
    find(std::uint64_t key, unsigned *refs = nullptr) const
    {
        return const_cast<RadixTree *>(this)->find(key, refs);
    }

    /**
     * True once getOrCreate ran for @p key. @p leaves must be
     * find(key)'s non-null result; the bit sits in the run's header,
     * which a caller that reads only the leaves never touches.
     */
    bool
    written(std::uint64_t key, const Leaf *leaves) const
    {
        const unsigned i = indexAt(key, 0);
        const Run *run = reinterpret_cast<const Run *>(
                             leaves - std::size_t{i} * width_) -
                         1;
        return (run->written[i / 64] >> (i % 64)) & 1;
    }

    /** Visit every key of every leaf run as (key, first leaf), in
     *  ascending key order. */
    template <typename Visitor>
    void
    forEach(Visitor &&visit)
    {
        if (root_)
            forEachImpl(root_, height_ - 1, 0, visit);
    }

  private:
    struct Node
    {
        std::array<void *, fanout> children{};
    };

    /** A leaf-run header; the leaves follow it in one allocation. */
    struct alignas(64) Run
    {
        std::array<std::uint64_t, fanout / 64> written{};

        Leaf *
        leaves()
        {
            return std::launder(reinterpret_cast<Leaf *>(this + 1));
        }
    };
    static_assert(alignof(Leaf) <= alignof(Run));

    static unsigned
    indexAt(std::uint64_t key, unsigned level)
    {
        return static_cast<unsigned>(
            (key >> (level * fanoutBits)) & (fanout - 1));
    }

    /** Levels a tree needs to hold @p key (at least 1). */
    static unsigned
    heightOf(std::uint64_t key)
    {
        const unsigned bits = static_cast<unsigned>(std::bit_width(key));
        return bits <= fanoutBits ? 1 : (bits + fanoutBits - 1) / fanoutBits;
    }

    /** Make the stored root at least @p height levels tall: build it
     *  on an empty tree, else stack nodes above the old root. */
    void
    plant(unsigned height)
    {
        if (!root_) {
            root_ = height == 1 ? static_cast<void *>(newRun())
                                : static_cast<void *>(new Node());
            height_ = height;
        }
        for (; height_ < height; ++height_) {
            Node *node = new Node();
            node->children[0] = root_;
            root_ = node;
        }
        heightMask_ = maskOf(height_);
    }

    /** The keys @p levels levels hold: 2^(9 × levels) - 1. */
    static std::uint64_t
    maskOf(unsigned levels)
    {
        return levels * fanoutBits >= 64
            ? ~std::uint64_t{0}
            : (std::uint64_t{1} << (levels * fanoutBits)) - 1;
    }

    Run *
    newRun() const
    {
        const std::size_t n = std::size_t{fanout} * width_;
        void *mem = ::operator new(sizeof(Run) + n * sizeof(Leaf),
                                   std::align_val_t{alignof(Run)});
        Run *run = new (mem) Run{};
        std::uninitialized_fill_n(
            reinterpret_cast<Leaf *>(run + 1), n, fill_);
        return run;
    }

    /** Free the subtree at @p p, whose children are @p level deep
     *  (0: @p p is a leaf run). */
    static void
    release(void *p, unsigned level)
    {
        if (!p)
            return;
        if (level == 0) {
            ::operator delete(p, std::align_val_t{alignof(Run)});
            return;
        }
        Node *node = static_cast<Node *>(p);
        for (void *child : node->children)
            release(child, level - 1);
        delete node;
    }

    /** The leaf run of a masked key. A key above the stored height
     *  diverges from the full-height tree's chain of child-0 nodes at
     *  its highest nonzero 9-bit group; an empty tree has only its
     *  root. */
    Run *
    findRun(std::uint64_t key, unsigned *refs) const
    {
        if (!root_ || (key & ~heightMask_)) {
            if (refs)
                *refs += root_ ? levels_ - (heightOf(key) - 1) : 1;
            return nullptr;
        }
        if (refs)
            *refs += levels_ - height_;
        void *p = root_;
        for (unsigned level = height_; level-- > 1;) {
            if (refs)
                ++*refs;
            p = static_cast<Node *>(p)->children[indexAt(key, level)];
            if (!p)
                return nullptr;
        }
        if (refs)
            ++*refs;
        return static_cast<Run *>(p);
    }

    template <typename Visitor>
    void
    forEachImpl(void *p, unsigned level, std::uint64_t prefix,
                Visitor &visit)
    {
        if (level == 0) {
            Leaf *leaves = static_cast<Run *>(p)->leaves();
            for (unsigned i = 0; i < fanout; ++i) {
                visit((prefix << fanoutBits) | i,
                      leaves[std::size_t{i} * width_]);
            }
            return;
        }
        Node *node = static_cast<Node *>(p);
        for (unsigned i = 0; i < fanout; ++i) {
            if (node->children[i]) {
                forEachImpl(node->children[i], level - 1,
                            (prefix << fanoutBits) | i, visit);
            }
        }
    }

    unsigned levels_;
    unsigned width_;
    Leaf fill_;
    std::uint64_t keyMask_;
    /** maskOf(height_): the keys the stored root holds. */
    std::uint64_t heightMask_ = 0;
    unsigned height_ = 0;
    void *root_ = nullptr;
};

} // namespace mosaic

#endif // MOSAIC_PT_RADIX_TREE_HH_
