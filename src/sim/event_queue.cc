#include "event_queue.hh"

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
        std::make_unique<Callback[]>(std::size_t{1} << kChunkShift));
}

void
EventQueue::removeAt(std::size_t i)
{
    const Node last = heap_.back();
    heap_.pop_back();
    if (i == heap_.size())
        return;
    heap_[i] = last;
    if (i > 0 && earlier(last, heap_[(i - 1) / 2]))
        siftUp(i);
    else
        siftDown(i);
}

void
EventQueue::fireTop()
{
    const Node top = heap_.front();
    now_ = top.when;
    ++executed_;
    removeAt(0);
    meta_[top.slot].pos = kNone;
    // Execute in place: the chunked slab never relocates a slot, so
    // callbacks scheduled by fn() cannot move it mid-call, and the
    // slot is out of the heap, so its own id is no longer pending.
    fnAt(top.slot)();
    releaseSlot(top.slot);
}

bool
EventQueue::step()
{
    if (heap_.empty())
        return false;
    fireTop();
    return true;
}

std::uint64_t
EventQueue::run(Tick until)
{
    std::uint64_t executed = 0;
    while (!heap_.empty()) {
        if (heap_.front().when > until) {
            now_ = until;
            return executed;
        }
        fireTop();
        ++executed;
    }
    return executed;
}

} // namespace charon::sim
