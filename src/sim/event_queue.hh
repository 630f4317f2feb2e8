/**
 * @file
 * A small discrete-event simulation kernel.
 *
 * Events are callbacks scheduled at absolute ticks.  Same-tick events
 * fire in FIFO (insertion) order, which keeps every run bit-for-bit
 * deterministic.  The queue is single-threaded by design: all
 * simulated concurrency (GC threads, Charon units, memory channels)
 * is expressed through event interleaving, never host threads.
 *
 * Storage is an indexed binary min-heap of POD nodes ordered by
 * (when, seq); the callbacks live in a side slab reached through a
 * 4-byte slot index so sift operations move 24-byte nodes instead of
 * 100+-byte closures.  The replay population is small (tens of
 * pending events), which makes an O(log n) heap cheaper in practice
 * than a calendar queue whose min-location must scan bucket windows.
 * Cancellation is a lazy tombstone: descheduled nodes stay in the
 * heap and are peeled when they surface (with a rebuild if tombstones
 * ever dominate).
 */

#ifndef CHARON_SIM_EVENT_QUEUE_HH
#define CHARON_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/callback.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace charon::sim
{

/** Opaque handle identifying a scheduled event (for cancellation). */
using EventId = std::uint64_t;

/**
 * Deterministic single-threaded event queue.
 *
 * Typical use:
 * @code
 *   EventQueue eq;
 *   eq.schedule(100, [&]{ ... });
 *   eq.run();
 * @endcode
 */
class EventQueue
{
  public:
    /**
     * Event callback.  The inline budget covers the simulator's
     * common wrappers (a continuation plus a few scalars) without a
     * heap allocation per scheduled event.
     */
    using Callback = Function<void(), 104>;

    EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /**
     * Schedule @p fn at absolute time @p when.
     *
     * Defined inline: schedule/deschedule are the simulator's hottest
     * entry points (every flow reallocation reschedules a timer) and
     * the callers live in other translation units.
     *
     * @pre when >= now() (scheduling in the past is a simulator bug).
     * @return handle usable with cancellation via deschedule().
     */
    EventId
    schedule(Tick when, Callback fn)
    {
        CHARON_ASSERT(when >= now_,
                      "scheduling at %llu before now %llu",
                      static_cast<unsigned long long>(when),
                      static_cast<unsigned long long>(now_));
        EventId id = nextId_++;
        state_.push_back(Pending);
        ++pending_;
        std::uint32_t slot;
        if (!freeSlots_.empty()) {
            slot = freeSlots_.back();
            freeSlots_.pop_back();
        } else {
            slot = static_cast<std::uint32_t>(slotCount_);
            if ((slotCount_ & kChunkMask) == 0)
                growSlab();
            ++slotCount_;
        }
        Slot &s = slotAt(slot);
        s.fn = std::move(fn);
        s.id = id;
        heap_.push_back(Node{when, nextSeq_++, slot});
        siftUp(heap_.size() - 1);
        return id;
    }

    /** Schedule @p fn @p delay ticks from now. */
    EventId
    scheduleIn(Tick delay, Callback fn)
    {
        return schedule(now_ + delay, std::move(fn));
    }

    /**
     * Cancel a previously scheduled event.
     *
     * An id is cancellable iff it is still pending; its node stays
     * behind as a tombstone and is peeled when it reaches the root
     * (or dropped wholesale by compact()).
     *
     * @retval true the event was pending and is now cancelled.
     * @retval false the event already fired or was already cancelled.
     */
    bool
    deschedule(EventId id)
    {
        if (id == 0 || id >= nextId_ || state_[id - 1] != Pending)
            return false;
        state_[id - 1] = Cancelled;
        --pending_;
        if (heap_.size() > 64 && heap_.size() > 4 * pending_)
            compact();
        return true;
    }

    /** Number of pending (non-cancelled) events. */
    std::size_t pendingEvents() const { return pending_; }

    /** True when no events remain. */
    bool empty() const { return pending_ == 0; }

    /** Events executed over the queue's lifetime (perf metric). */
    std::uint64_t executedEvents() const { return executed_; }

    /**
     * Run until the queue drains or @p until is reached (whichever is
     * first). Time stops at the last executed event (or @p until).
     *
     * @return number of events executed.
     */
    std::uint64_t run(Tick until = maxTick);

    /**
     * Execute exactly one event if any is pending.
     *
     * @retval true an event was executed.
     */
    bool step();

  private:
    /** Heap node: everything sift operations need, nothing more. */
    struct Node
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t slot; ///< index into slots_
    };

    enum State : std::uint8_t
    {
        Pending,
        Fired,
        Cancelled,
    };

    /** Slab entry owning the callback for one scheduled event. */
    struct Slot
    {
        Callback fn;
        EventId id = 0;
    };

    /**
     * Slots live in fixed-size chunks so a schedule() issued from a
     * running callback can grow the slab without relocating the slot
     * that callback is executing from.
     */
    static constexpr std::uint32_t kChunkShift = 9;
    static constexpr std::uint32_t kChunkMask = (1u << kChunkShift) - 1;

    static bool
    earlier(const Node &a, const Node &b)
    {
        return a.when != b.when ? a.when < b.when : a.seq < b.seq;
    }

    /**
     * Peel tombstones off the root until a pending event surfaces.
     * @retval false no pending events.
     */
    bool findMin();
    /** Remove the root node and restore the heap property. */
    void popTop();
    /** Drop all tombstones and re-heapify (order-preserving). */
    void compact();

    void
    siftUp(std::size_t i)
    {
        Node n = heap_[i];
        while (i > 0) {
            std::size_t parent = (i - 1) / 2;
            if (!earlier(n, heap_[parent]))
                break;
            heap_[i] = heap_[parent];
            i = parent;
        }
        heap_[i] = n;
    }

    void
    siftDown(std::size_t i)
    {
        const std::size_t n = heap_.size();
        Node v = heap_[i];
        for (;;) {
            std::size_t child = 2 * i + 1;
            if (child >= n)
                break;
            if (child + 1 < n && earlier(heap_[child + 1], heap_[child]))
                ++child;
            if (!earlier(heap_[child], v))
                break;
            heap_[i] = heap_[child];
            i = child;
        }
        heap_[i] = v;
    }

    Slot &
    slotAt(std::uint32_t slot)
    {
        return chunks_[slot >> kChunkShift][slot & kChunkMask];
    }

    void growSlab();

    void
    releaseSlot(std::uint32_t slot)
    {
        Slot &s = slotAt(slot);
        s.fn = Callback();
        s.id = 0;
        freeSlots_.push_back(slot);
    }

    Tick now_ = 0;
    std::uint64_t executed_ = 0;
    std::uint64_t nextSeq_ = 0;
    EventId nextId_ = 1;
    std::size_t pending_ = 0;

    std::vector<Node> heap_;
    std::vector<std::unique_ptr<Slot[]>> chunks_;
    std::size_t slotCount_ = 0;
    std::vector<std::uint32_t> freeSlots_;
    std::vector<std::uint8_t> state_; ///< per-id lifecycle, id-indexed
};

} // namespace charon::sim

#endif // CHARON_SIM_EVENT_QUEUE_HH
