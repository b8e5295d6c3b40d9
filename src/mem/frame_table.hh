/**
 * @file
 * Per-frame metadata for the modeled physical memory.
 *
 * The frame table is policy-free: it records which virtual page owns
 * each frame, when the frame was last accessed, and whether it is
 * dirty. Ghost status (Horizon LRU, paper §2.4) is *derived* by the
 * eviction policy from lastAccess and the current horizon; the frame
 * table itself does not distinguish ghosts from live pages.
 */

#ifndef MOSAIC_MEM_FRAME_TABLE_HH_
#define MOSAIC_MEM_FRAME_TABLE_HH_

#include <cstddef>
#include <vector>

#include "util/bitvec.hh"
#include "util/log.hh"
#include "util/types.hh"

namespace mosaic
{

/** Metadata for one physical frame. */
struct Frame
{
    /** Owning virtual page; meaningful only when used. */
    PageId owner{};

    /** Tick of the most recent access to the owning page. */
    Tick lastAccess = 0;

    /** True when some virtual page is mapped here. */
    bool used = false;

    /** True when the contents differ from the swap copy. */
    bool dirty = false;
};

/** An indexed array of Frame records; PFN == index. */
class FrameTable
{
  public:
    explicit FrameTable(std::size_t num_frames)
        : frames_(num_frames), ticks_(num_frames, 0),
          usedBits_(num_frames)
    {
    }

    std::size_t numFrames() const { return frames_.size(); }

    /** Frames currently holding a page (live or ghost). */
    std::size_t usedFrames() const { return used_; }

    /** Fraction of frames holding a page. */
    double
    utilization() const
    {
        return static_cast<double>(used_) /
               static_cast<double>(frames_.size());
    }

    const Frame &frame(Pfn pfn) const { return frames_.at(pfn); }

    /** lastAccess of a frame, from the dense tick array. Equal to
     *  frame(pfn).lastAccess; placement scans read it here so that a
     *  bucket's worth of ticks spans 8 bytes per slot, not a whole
     *  Frame record each. */
    Tick lastAccessOf(Pfn pfn) const { return ticks_[pfn]; }

    /** Used bits of frames [base, base + width), width in [1, 64]
     *  (bit k set iff frame base + k holds a page). Lets placement
     *  find free slots with countr_zero and count bucket occupancy
     *  with popcount instead of scanning Frame records. */
    std::uint64_t
    usedWindow(Pfn base, unsigned width) const
    {
        return usedBits_.window(base, width);
    }

    /** Record a page -> frame mapping. The frame must be free. */
    void
    map(Pfn pfn, PageId owner, Tick now, bool dirty = true)
    {
        Frame &f = frames_.at(pfn);
        ensure(!f.used, "frame_table: mapping an occupied frame");
        f.owner = owner;
        f.lastAccess = now;
        f.used = true;
        f.dirty = dirty;
        ticks_[pfn] = now;
        usedBits_.set(pfn);
        ++used_;
    }

    /** Release a frame. The frame must be in use. */
    void
    unmap(Pfn pfn)
    {
        Frame &f = frames_.at(pfn);
        ensure(f.used, "frame_table: unmapping a free frame");
        f.used = false;
        f.dirty = false;
        f.owner = PageId{};
        usedBits_.clear(pfn);
        --used_;
    }

    /**
     * Hint the cache hierarchy that touch(pfn) is coming: prefetch the
     * frame's record and its tick slot. Pure performance hint — no
     * observable state changes. Used by the batched touch pipeline a
     * few touches ahead of the touch itself.
     */
    void
    prefetch(Pfn pfn) const
    {
        if (pfn >= frames_.size())
            return;
        __builtin_prefetch(&frames_[pfn]);
        __builtin_prefetch(&ticks_[pfn]);
    }

    /** Update the access timestamp (and dirtiness) of a used frame. */
    void
    touch(Pfn pfn, Tick now, bool write)
    {
        Frame &f = frames_.at(pfn);
        ensure(f.used, "frame_table: touching a free frame");
        f.lastAccess = now;
        f.dirty = f.dirty || write;
        ticks_[pfn] = now;
    }

  private:
    std::vector<Frame> frames_;

    /** Mirror of Frame::lastAccess, densely packed for placement
     *  scans. Maintained by map() and touch() only. */
    std::vector<Tick> ticks_;

    /** Mirror of Frame::used, one bit per frame. Maintained by
     *  map() and unmap() only. */
    BitVec usedBits_;

    std::size_t used_ = 0;
};

} // namespace mosaic

#endif // MOSAIC_MEM_FRAME_TABLE_HH_
