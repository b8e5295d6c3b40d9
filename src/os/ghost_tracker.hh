/**
 * @file
 * Horizon-LRU ghost bookkeeping, factored out of MosaicVm so each
 * shard of the sharded engine (DESIGN.md §17) reuses the exact same
 * live-order / ghost-count / ghost-bitmap machinery.
 *
 * Invariants maintained (identical to the pre-refactor MosaicVm
 * fields): used frames at or above the horizon live in the LRU list
 * in ascending lastAccess order; used frames strictly below it are
 * counted in ghostCount() and have their bit set in bits(), which is
 * exactly isGhostFrame() and drives the bitmap placement path.
 */

#ifndef MOSAIC_OS_GHOST_TRACKER_HH_
#define MOSAIC_OS_GHOST_TRACKER_HH_

#include <cstddef>

#include "mem/frame_table.hh"
#include "os/lru_list.hh"
#include "util/bitvec.hh"
#include "util/types.hh"

namespace mosaic
{

/** Live-order + ghost accounting for one Horizon LRU clock. */
class GhostTracker
{
  public:
    explicit GhostTracker(std::size_t num_frames)
        : liveOrder_(num_frames), ghostBits_(num_frames)
    {
    }

    /**
     * Move frames that fell below @p horizon out of the live order
     * and into the ghost count. The live order is in ascending
     * lastAccess order, so every newly ghosted frame sits at the
     * front; each frame is reaped at most once per residency,
     * amortized O(1) per ghosting.
     */
    void
    reap(const FrameTable &frames, Tick horizon)
    {
        while (!liveOrder_.empty() &&
                   frames.frame(liveOrder_.front()).lastAccess < horizon) {
            ghostBits_.set(liveOrder_.front());
            liveOrder_.popFront();
            ++ghostCount_;
        }
    }

    /** Bookkeeping for a frame about to be unmapped. */
    void
    noteFreed(Pfn pfn, bool was_ghost)
    {
        if (was_ghost) {
            ghostBits_.clear(pfn);
            --ghostCount_;
        } else {
            liveOrder_.remove(pfn);
        }
    }

    /** A resident ghost was referenced again: it rejoins the live
     *  order as most recently used. */
    void
    rescue(Pfn pfn)
    {
        ghostBits_.clear(pfn);
        --ghostCount_;
        liveOrder_.pushBack(pfn);
    }

    /** A live frame was touched: move it to most recently used. */
    void touchLive(Pfn pfn) { liveOrder_.touch(pfn); }

    /** Prefetch what touchLive(pfn) reads first: its node. */
    void prefetchLive(Pfn pfn) const { liveOrder_.prefetch(pfn); }

    /** Prefetch the live-order neighbours touchLive(pfn) relinks. */
    void
    prefetchLiveNeighbours(Pfn pfn) const
    {
        liveOrder_.prefetchNeighbours(pfn);
    }

    /** A frame was (re)mapped: append as most recently used. */
    void recordLive(Pfn pfn) { liveOrder_.pushBack(pfn); }

    /** Resident pages that are ghosts. O(1). */
    std::size_t ghostCount() const { return ghostCount_; }

    /** PFN-indexed ghost bits, exactly isGhostFrame() per frame. */
    const BitVec &bits() const { return ghostBits_; }

  private:
    /** Used frames at or above the horizon, ascending lastAccess. */
    LruList liveOrder_;

    /** Used frames strictly below the horizon. */
    std::size_t ghostCount_ = 0;

    /** Set iff the frame is used and its lastAccess is below the
     *  horizon; maintained incrementally at the ghost transitions
     *  (reap, rescue, free). */
    BitVec ghostBits_;
};

} // namespace mosaic

#endif // MOSAIC_OS_GHOST_TRACKER_HH_
