#include "event_queue.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace charon::sim
{

EventQueue::EventQueue()
{
    heap_.reserve(64);
}

void
EventQueue::growSlab()
{
    chunks_.push_back(
        std::make_unique<Slot[]>(std::size_t{1} << kChunkShift));
}

void
EventQueue::popTop()
{
    heap_.front() = heap_.back();
    heap_.pop_back();
    if (!heap_.empty())
        siftDown(0);
}

void
EventQueue::compact()
{
    std::size_t keep = 0;
    for (std::size_t i = 0; i < heap_.size(); ++i) {
        std::uint32_t slot = heap_[i].slot;
        if (state_[slotAt(slot).id - 1] == Pending)
            heap_[keep++] = heap_[i];
        else
            releaseSlot(slot);
    }
    heap_.resize(keep);
    // Heapify from scratch; pop order depends only on (when, seq),
    // never on the internal arrangement, so this is order-neutral.
    for (std::size_t i = keep / 2; i-- > 0;)
        siftDown(i);
}

bool
EventQueue::findMin()
{
    if (pending_ == 0)
        return false;
    while (!heap_.empty()) {
        std::uint32_t slot = heap_.front().slot;
        if (state_[slotAt(slot).id - 1] == Pending)
            return true;
        releaseSlot(slot);
        popTop();
    }
    CHARON_ASSERT(false, "pending count %llu but heap empty",
                  static_cast<unsigned long long>(pending_));
    return false;
}

bool
EventQueue::step()
{
    if (!findMin())
        return false;
    const Node top = heap_.front();
    Slot &s = slotAt(top.slot);
    state_[s.id - 1] = Fired;
    --pending_;
    now_ = top.when;
    ++executed_;
    popTop();
    // Execute in place: the chunked slab never relocates a slot, so
    // callbacks scheduled by s.fn() cannot move it mid-call, and its
    // Fired state keeps deschedule()/compact() hands off.
    s.fn();
    releaseSlot(top.slot);
    return true;
}

std::uint64_t
EventQueue::run(Tick until)
{
    std::uint64_t executed = 0;
    while (findMin()) {
        const Node top = heap_.front();
        if (top.when > until) {
            now_ = until;
            return executed;
        }
        Slot &s = slotAt(top.slot);
        state_[s.id - 1] = Fired;
        --pending_;
        now_ = top.when;
        ++executed_;
        popTop();
        s.fn();
        releaseSlot(top.slot);
        ++executed;
    }
    return executed;
}

} // namespace charon::sim
