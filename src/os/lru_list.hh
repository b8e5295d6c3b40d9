/**
 * @file
 * An intrusive doubly-linked LRU list over frame numbers, used by the
 * baseline VM to find global-LRU victims in O(1). (The mosaic VM
 * does not need one: Horizon LRU derives eviction order from
 * per-frame timestamps and the horizon, paper §2.4.)
 */

#ifndef MOSAIC_OS_LRU_LIST_HH_
#define MOSAIC_OS_LRU_LIST_HH_

#include <cstddef>
#include <vector>

#include "util/log.hh"
#include "util/types.hh"

namespace mosaic
{

/** O(1) LRU ordering of physical frames. */
class LruList
{
  public:
    explicit LruList(std::size_t num_frames)
        : nodes_(num_frames)
    {
    }

    /** True when no frame is on the list. */
    bool empty() const { return head_ == npos; }

    /** Number of frames on the list. */
    std::size_t size() const { return size_; }

    /** True when the frame is currently linked. */
    bool
    contains(Pfn pfn) const
    {
        const Node &n = nodes_.at(pfn);
        return n.linked;
    }

    /** Insert a frame as most-recently-used. */
    void
    pushBack(Pfn pfn)
    {
        Node &n = nodes_.at(pfn);
        ensure(!n.linked, "lru_list: frame already linked");
        n.linked = true;
        n.next = npos;
        n.prev = tail_;
        if (tail_ != npos)
            nodes_[tail_].next = pfn;
        tail_ = pfn;
        if (head_ == npos)
            head_ = pfn;
        ++size_;
    }

    /** Move a linked frame to the most-recently-used position. */
    void
    touch(Pfn pfn)
    {
        // Check linkage before the tail_ early exit: with an empty
        // list tail_ is npos, and touching an unlinked or invalid
        // frame used to silently no-op when the two compared equal —
        // corrupting the caller's eviction order. Fail loudly instead.
        ensure(pfn < nodes_.size() && nodes_[pfn].linked,
               "lru_list: touching unlinked frame");
        if (tail_ == pfn)
            return;
        remove(pfn);
        pushBack(pfn);
    }

    /** Unlink a frame. */
    void
    remove(Pfn pfn)
    {
        Node &n = nodes_.at(pfn);
        ensure(n.linked, "lru_list: removing unlinked frame");
        if (n.prev != npos)
            nodes_[n.prev].next = n.next;
        else
            head_ = n.next;
        if (n.next != npos)
            nodes_[n.next].prev = n.prev;
        else
            tail_ = n.prev;
        n.linked = false;
        --size_;
    }

    /** Prefetch the frame's node (read by touch/remove). */
    void
    prefetch(Pfn pfn) const
    {
        if (pfn < nodes_.size())
            __builtin_prefetch(&nodes_[pfn]);
    }

    /** Prefetch the nodes linked before and after the frame, which
     *  touch/remove rewrite; the frame's own node must be cached
     *  already for this to pay off. A no-op for unlinked frames. */
    void
    prefetchNeighbours(Pfn pfn) const
    {
        if (pfn >= nodes_.size() || !nodes_[pfn].linked)
            return;
        const Node &n = nodes_[pfn];
        if (n.prev != npos)
            __builtin_prefetch(&nodes_[n.prev]);
        if (n.next != npos)
            __builtin_prefetch(&nodes_[n.next]);
    }

    /** The least-recently-used frame; list must be nonempty. */
    Pfn
    front() const
    {
        ensure(head_ != npos, "lru_list: front of empty list");
        return head_;
    }

    /** Pop and return the least-recently-used frame. */
    Pfn
    popFront()
    {
        const Pfn pfn = front();
        remove(pfn);
        return pfn;
    }

  private:
    static constexpr Pfn npos = invalidPfn;

    struct Node
    {
        Pfn prev = npos;
        Pfn next = npos;
        bool linked = false;
    };

    std::vector<Node> nodes_;
    Pfn head_ = npos;
    Pfn tail_ = npos;
    std::size_t size_ = 0;
};

} // namespace mosaic

#endif // MOSAIC_OS_LRU_LIST_HH_
