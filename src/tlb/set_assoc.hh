/**
 * @file
 * A generic set-associative cache array with true-LRU replacement,
 * shared by the vanilla and mosaic TLB models.
 *
 * The paper stresses that mosaic's mapping restrictions are
 * orthogonal to the TLB's own cache organization (§3.1): a mosaic TLB
 * can be direct-mapped through fully associative, exactly like a
 * conventional one. This array implements that whole range: ways ==
 * entries gives a fully associative table, ways == 1 direct-mapped.
 *
 * Lookup cost: for small associativities the way scan is already a
 * handful of comparisons, but fully-associative configurations (the
 * walk cache, fuzzer geometries) would scan every entry per probe.
 * Arrays with more than 8 ways therefore keep a FlatMap from tag to
 * the *lowest-way valid* matching entry, which makes find/peek O(1)
 * while preserving the scan's first-match semantics exactly — even
 * for duplicate tags, which fillConventional can legitimately create.
 * The index relies on every tag embedding its index key (true for
 * all in-tree tag schemes), so a tag determines its set.
 *
 * Fill cost: indexed arrays also keep each set's valid entries on an
 * intrusive recency list (head = least recently used) and its invalid
 * ways in a bitmap, so allocate() picks the lowest invalid way or the
 * LRU way without scanning the set. The list order is the use-clock
 * order, so the victim is exactly the one the scan would pick.
 */

#ifndef MOSAIC_TLB_SET_ASSOC_HH_
#define MOSAIC_TLB_SET_ASSOC_HH_

#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/flat_map.hh"
#include "util/log.hh"
#include "util/types.hh"

namespace mosaic
{

/** Cache organization of a TLB. */
struct TlbGeometry
{
    /** Total entries (paper: 1024). */
    unsigned entries = 1024;

    /** Associativity; entries for fully associative, 1 for direct. */
    unsigned ways = 4;

    unsigned sets() const { return entries / ways; }

    void
    check() const
    {
        ensure(entries > 0 && ways > 0, "tlb: empty geometry");
        ensure(ways <= entries, "tlb: more ways than entries");
        ensure(entries % ways == 0, "tlb: entries must divide into sets");
    }
};

/**
 * The tag/data array. Replacement is true LRU within a set, driven by
 * a monotonic use counter.
 */
template <typename Payload>
class SetAssocArray
{
  public:
    struct Entry
    {
        std::uint64_t tag = 0;
        Tick lastUse = 0;
        bool valid = false;
        Payload payload{};
    };

    explicit SetAssocArray(const TlbGeometry &geometry)
        : geometry_(geometry), entries_(geometry.entries),
          useIndex_(geometry.ways > indexThresholdWays)
    {
        geometry_.check();
        sets_ = geometry_.sets();
        if (std::has_single_bit(sets_) &&
                std::has_single_bit(geometry_.ways)) {
            log2Ways_ = static_cast<unsigned>(
                std::countr_zero(geometry_.ways));
        }
        if (useIndex_) {
            tagIndex_.reserve(geometry_.entries);
            wordsPerSet_ = (geometry_.ways + 63) / 64;
            lruPrev_.resize(geometry_.entries);
            lruNext_.resize(geometry_.entries);
            resetRecency();
        }
    }

    const TlbGeometry &geometry() const { return geometry_; }

    /** Set index for an index key (e.g. a VPN or MVPN). */
    std::uint64_t
    setOf(std::uint64_t index_key) const
    {
        // Every in-tree geometry is a power of two: mask instead of
        // paying a hardware divide per probe.
        return log2Ways_ != noShift ? index_key & (sets_ - 1)
                                    : index_key % sets_;
    }

    /** Find a valid entry with this tag; updates recency on hit. */
    Entry *
    find(std::uint64_t index_key, std::uint64_t tag)
    {
        if (useIndex_) {
            const IndexSlot *slot = tagIndex_.find(tag);
            if (!slot)
                return nullptr;
            Entry &e = entries_[slot->entry];
            e.lastUse = ++useClock_;
            lruTouch(slot->entry);
            return &e;
        }
        const std::uint64_t set = setOf(index_key);
        for (unsigned w = 0; w < geometry_.ways; ++w) {
            Entry &e = at(set, w);
            if (e.valid && e.tag == tag) {
                e.lastUse = ++useClock_;
                return &e;
            }
        }
        return nullptr;
    }

    /**
     * Prefetch the tag/data lines of the set an index key maps to —
     * a pure performance hint the batched translation pipeline
     * issues one stage before the lookups that consume them. Indexed
     * (high-associativity) arrays resolve through the tag hash
     * instead of a set scan, so there is nothing useful to warm.
     */
    void
    prefetchSet(std::uint64_t index_key) const
    {
        if (useIndex_)
            return;
        const Entry *base = &entries_[setOf(index_key) * geometry_.ways];
        for (unsigned w = 0; w < geometry_.ways; w += 2)
            __builtin_prefetch(base + w);
    }

    /** Find without updating recency (for inspection). */
    const Entry *
    peek(std::uint64_t index_key, std::uint64_t tag) const
    {
        if (useIndex_) {
            const IndexSlot *slot = tagIndex_.find(tag);
            return slot ? &entries_[slot->entry] : nullptr;
        }
        const std::uint64_t set = setOf(index_key);
        for (unsigned w = 0; w < geometry_.ways; ++w) {
            const Entry &e = at(set, w);
            if (e.valid && e.tag == tag)
                return &e;
        }
        return nullptr;
    }

    /**
     * Claim an entry for this tag: an invalid way if one exists,
     * otherwise the LRU way (setting *evicted). The returned entry is
     * marked valid and most recently used; the caller sets the
     * payload.
     */
    Entry &
    allocate(std::uint64_t index_key, std::uint64_t tag, bool *evicted)
    {
        const std::uint64_t set = setOf(index_key);
        Entry *victim = useIndex_ ? &entries_[indexedVictim(set)]
                                  : scanVictim(set);
        *evicted = victim->valid;
        const auto idx = static_cast<std::uint32_t>(indexOf(victim));
        if (useIndex_) {
            if (victim->valid) {
                lruUnlink(idx);
                indexErase(victim->tag, idx);
            } else {
                markInvalid(idx, false);
            }
        }
        victim->valid = true;
        victim->tag = tag;
        victim->lastUse = ++useClock_;
        victim->payload = Payload{};
        if (useIndex_) {
            lruPushMru(idx);
            indexInsert(tag, idx);
        }
        return *victim;
    }

    /** Invalidate a specific tag; true when something was dropped. */
    bool
    invalidate(std::uint64_t index_key, std::uint64_t tag)
    {
        const std::uint64_t set = setOf(index_key);
        if (useIndex_) {
            const IndexSlot *slot = tagIndex_.find(tag);
            if (!slot)
                return false;
            const std::uint32_t idx = slot->entry;
            entries_[idx].valid = false;
            lruUnlink(idx);
            markInvalid(idx, true);
            indexErase(tag, idx);
            return true;
        }
        for (unsigned w = 0; w < geometry_.ways; ++w) {
            Entry &e = at(set, w);
            if (e.valid && e.tag == tag) {
                e.valid = false;
                return true;
            }
        }
        return false;
    }

    /** Invalidate every entry matching a predicate on (tag, payload);
     *  returns how many were dropped. */
    template <typename Pred>
    unsigned
    invalidateIf(Pred &&pred)
    {
        unsigned dropped = 0;
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            Entry &e = entries_[i];
            if (e.valid && pred(e.tag, e.payload)) {
                e.valid = false;
                ++dropped;
                if (useIndex_) {
                    const auto idx = static_cast<std::uint32_t>(i);
                    lruUnlink(idx);
                    markInvalid(idx, true);
                }
            }
        }
        if (useIndex_ && dropped > 0)
            rebuildIndex();
        return dropped;
    }

    /** Drop everything. */
    void
    flush()
    {
        for (Entry &e : entries_)
            e.valid = false;
        tagIndex_.clear();
        if (useIndex_)
            resetRecency();
    }

    /** Number of currently valid entries. */
    unsigned
    validEntries() const
    {
        unsigned n = 0;
        for (const Entry &e : entries_)
            n += e.valid ? 1 : 0;
        return n;
    }

    /** Visit every valid entry as fn(tag, payload); no recency
     *  effects. Used to total translation reach across an array. */
    template <typename Fn>
    void
    forEachValid(Fn &&fn) const
    {
        for (const Entry &e : entries_) {
            if (e.valid)
                fn(e.tag, e.payload);
        }
    }

  private:
    // Below this associativity the way scan beats a hash lookup.
    static constexpr unsigned indexThresholdWays = 8;

    Entry &
    at(std::uint64_t set, unsigned way)
    {
        return entries_[set * geometry_.ways + way];
    }

    const Entry &
    at(std::uint64_t set, unsigned way) const
    {
        return entries_[set * geometry_.ways + way];
    }

    std::uint64_t
    indexOf(const Entry *e) const
    {
        return static_cast<std::uint64_t>(e - entries_.data());
    }

    /** The scan path's victim: the first invalid way, else the least
     *  recently used one. */
    Entry *
    scanVictim(std::uint64_t set)
    {
        Entry *victim = nullptr;
        for (unsigned w = 0; w < geometry_.ways; ++w) {
            Entry &e = at(set, w);
            if (!e.valid)
                return &e;
            if (!victim || e.lastUse < victim->lastUse)
                victim = &e;
        }
        return victim;
    }

    /** The indexed path's victim, the same way scanVictim picks: the
     *  lowest invalid way from the bitmap, else the recency list's
     *  head. */
    std::uint32_t
    indexedVictim(std::uint64_t set) const
    {
        if (invalidCount_[set] == 0)
            return lruHead_[set];
        const std::uint64_t *bits = &invalidBits_[set * wordsPerSet_];
        unsigned word = 0;
        while (bits[word] == 0)
            ++word;
        return static_cast<std::uint32_t>(
            set * geometry_.ways + word * 64 +
            static_cast<unsigned>(std::countr_zero(bits[word])));
    }

    /** Flag entry @p idx's way invalid (true) or claimed (false) in
     *  its set's bitmap. */
    void
    markInvalid(std::uint32_t idx, bool invalid)
    {
        const std::uint64_t set = setOfEntry(idx);
        const std::uint64_t way = idx - set * geometry_.ways;
        std::uint64_t &word = invalidBits_[set * wordsPerSet_ + way / 64];
        const std::uint64_t bit = std::uint64_t{1} << (way % 64);
        if (invalid) {
            word |= bit;
            ++invalidCount_[set];
        } else {
            word &= ~bit;
            --invalidCount_[set];
        }
    }

    std::uint64_t
    setOfEntry(std::uint32_t idx) const
    {
        return log2Ways_ != noShift ? idx >> log2Ways_
                                    : idx / geometry_.ways;
    }

    /** Append a valid entry at its set's most-recently-used end. */
    void
    lruPushMru(std::uint32_t idx)
    {
        const std::uint64_t set = setOfEntry(idx);
        lruPrev_[idx] = lruTail_[set];
        lruNext_[idx] = nil;
        if (lruTail_[set] != nil)
            lruNext_[lruTail_[set]] = idx;
        else
            lruHead_[set] = idx;
        lruTail_[set] = idx;
    }

    void
    lruUnlink(std::uint32_t idx)
    {
        const std::uint64_t set = setOfEntry(idx);
        const std::uint32_t prev = lruPrev_[idx];
        const std::uint32_t next = lruNext_[idx];
        (prev != nil ? lruNext_[prev] : lruHead_[set]) = next;
        (next != nil ? lruPrev_[next] : lruTail_[set]) = prev;
    }

    /** Move a valid entry to its set's most-recently-used end. */
    void
    lruTouch(std::uint32_t idx)
    {
        if (lruTail_[setOfEntry(idx)] == idx)
            return;
        lruUnlink(idx);
        lruPushMru(idx);
    }

    /** Every way invalid, every recency list empty. */
    void
    resetRecency()
    {
        const std::size_t sets = geometry_.sets();
        lruHead_.assign(sets, nil);
        lruTail_.assign(sets, nil);
        invalidCount_.assign(sets, 0);
        invalidBits_.assign(sets * wordsPerSet_, 0);
        for (std::uint32_t i = 0; i < entries_.size(); ++i)
            markInvalid(i, true);
    }

    /** Count a valid entry under its tag; the index keeps pointing
     *  at the lowest way (first-match semantics for duplicates). */
    void
    indexInsert(std::uint64_t tag, std::uint32_t idx)
    {
        auto [slot, inserted] = tagIndex_.emplace(tag);
        if (inserted || idx < slot.entry)
            slot.entry = idx;
        ++slot.copies;
    }

    /**
     * Entry @p idx stops carrying @p tag (evicted or invalidated).
     * Without a duplicate the mapping is dropped; only when the index
     * pointed at @p idx and a duplicate survives is the set rescanned
     * for the lowest-way survivor.
     */
    void
    indexErase(std::uint64_t tag, std::uint32_t idx)
    {
        IndexSlot *slot = tagIndex_.find(tag);
        if (--slot->copies == 0) {
            tagIndex_.erase(tag);
            return;
        }
        if (slot->entry != idx)
            return;
        const std::uint64_t set = setOfEntry(idx);
        for (unsigned w = 0; w < geometry_.ways; ++w) {
            const Entry &e = at(set, w);
            const auto i = static_cast<std::uint32_t>(indexOf(&e));
            if (e.valid && e.tag == tag && i != idx) {
                slot->entry = i;
                return;
            }
        }
    }

    void
    rebuildIndex()
    {
        tagIndex_.clear();
        // Ascending order keeps the lowest-way invariant.
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            if (entries_[i].valid) {
                indexInsert(entries_[i].tag,
                            static_cast<std::uint32_t>(i));
            }
        }
    }

    /** Tag index value: the lowest-way valid entry carrying the tag,
     *  and how many valid entries carry it. */
    struct IndexSlot
    {
        std::uint32_t entry = 0;
        std::uint32_t copies = 0;
    };

    static constexpr std::uint32_t nil =
        std::numeric_limits<std::uint32_t>::max();

    static constexpr unsigned noShift = 64;

    TlbGeometry geometry_;
    std::uint64_t sets_ = 1;
    // log2(ways) when both ways and sets are powers of two, else
    // noShift (set arithmetic falls back to divides).
    unsigned log2Ways_ = noShift;
    std::vector<Entry> entries_;
    Tick useClock_ = 0;
    bool useIndex_ = false;
    FlatMap<std::uint64_t, IndexSlot> tagIndex_;

    // Indexed mode only: per-entry recency links, per-set list ends
    // (head = LRU, tail = MRU), and per-set invalid-way bitmaps.
    unsigned wordsPerSet_ = 0;
    std::vector<std::uint32_t> lruPrev_;
    std::vector<std::uint32_t> lruNext_;
    std::vector<std::uint32_t> lruHead_;
    std::vector<std::uint32_t> lruTail_;
    std::vector<std::uint64_t> invalidBits_;
    std::vector<std::uint32_t> invalidCount_;
};

} // namespace mosaic

#endif // MOSAIC_TLB_SET_ASSOC_HH_
