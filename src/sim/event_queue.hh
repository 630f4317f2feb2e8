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
 *
 * The queue records every slot's heap position: deschedule() removes
 * its node in O(log n) and reschedule() re-keys a pending event in
 * place.  An EventId names a slot and that slot's generation, which
 * is bumped whenever the slot's event fires or is cancelled, so a
 * stale id matches nothing.
 *
 * A firing event's node stays at the heap root while its callback
 * runs: every other pending event, and every event the callback
 * schedules, keys later, so nothing can displace it.  The callback
 * may re-key its own event with reschedule(); the node then takes a
 * fresh key in place and stays pending under the same id, which is
 * how a recurring timer (a FluidChannel's completion timer) keeps one
 * slot and one callback for its whole life.  Otherwise the node
 * leaves the heap and the slot is released after the callback.
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

/**
 * Opaque nonzero handle identifying a scheduled event (for
 * cancellation and re-keying): the slot's generation in the high 32
 * bits, the slot index in the low 32.  0 never names an event.
 */
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
     * Defined inline: schedule/reschedule are the simulator's hottest
     * entry points (every flow reallocation re-keys a timer) and the
     * callers live in other translation units.
     *
     * @pre when >= now() (scheduling in the past is a simulator bug).
     * @return handle usable with deschedule() and reschedule().
     */
    EventId
    schedule(Tick when, Callback fn)
    {
        assertNotPast(when);
        std::uint32_t slot;
        if (!freeSlots_.empty()) {
            slot = freeSlots_.back();
            freeSlots_.pop_back();
        } else {
            slot = static_cast<std::uint32_t>(meta_.size());
            if ((slot & kChunkMask) == 0)
                growSlab();
            meta_.push_back(SlotMeta{});
        }
        fnAt(slot) = std::move(fn);
        heap_.push_back(Node{when, nextSeq_++, slot});
        siftUp(heap_.size() - 1);
        return idOf(slot);
    }

    /** Schedule @p fn @p delay ticks from now. */
    EventId
    scheduleIn(Tick delay, Callback fn)
    {
        return schedule(now_ + delay, std::move(fn));
    }

    /**
     * Cancel a pending event: its node leaves the heap and its
     * callback is destroyed now, or, for a running event that
     * re-keyed itself, when its callback returns.
     *
     * @retval true the event was pending and is now cancelled.
     * @retval false the id names no pending event: it already fired,
     *         is running and has not re-keyed itself, was cancelled,
     *         or never existed.
     */
    bool
    deschedule(EventId id)
    {
        const std::uint32_t slot = pendingSlot(id);
        if (slot == kNone)
            return false;
        removeAt(meta_[slot].pos);
        if (slot == running_)
            retire(meta_[slot]); // fireTop() releases the running slot
        else
            releaseSlot(slot);
        return true;
    }

    /**
     * Move a pending event to @p when, keeping its callback and its
     * id.  The event takes a fresh insertion sequence number, so it
     * fires exactly where deschedule() followed by schedule() of the
     * same callback would put it: behind every event already
     * scheduled for @p when.
     *
     * The running event may re-key itself, from inside its own
     * callback: it then stays pending under the same id, at the
     * (when, seq) a schedule() made at this point would get, and
     * fires again.
     *
     * @pre when >= now(), as for schedule().
     * @retval true the event was pending, or is the running one, and
     *         is re-keyed.
     * @retval false the id names no pending event (see deschedule()).
     */
    bool
    reschedule(EventId id, Tick when)
    {
        assertNotPast(when);
        const std::uint32_t slot = pendingSlot(id);
        if (slot == kNone) {
            if (!parked_ || id != idOf(running_))
                return false;
            // The running event re-arms: its node still sits at the
            // root, and its new key is the latest so far.
            parked_ = false;
            place(0, Node{when, nextSeq_++, running_});
            siftDown(0);
            return true;
        }
        const std::size_t i = meta_[slot].pos;
        // A fresh seq makes the new key later than the old one at
        // the same tick, so only an earlier tick can move it up.
        const bool up = when < heap_[i].when;
        heap_[i] = Node{when, nextSeq_++, slot};
        if (up)
            siftUp(i);
        else
            siftDown(i);
        return true;
    }

    /**
     * Number of pending events.  A running event counts once it has
     * re-keyed itself.
     */
    std::size_t pendingEvents() const { return heap_.size() - parked_; }

    /** True when no events remain. */
    bool empty() const { return pendingEvents() == 0; }

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
        std::uint32_t slot; ///< index into the slab and meta_
    };

    /** Per-slot bookkeeping, kept apart from the wide callbacks. */
    struct SlotMeta
    {
        std::uint32_t gen = 1;     ///< bumped on release, never 0
        std::uint32_t pos = kNone; ///< heap index while pending
    };

    /** "No slot" from pendingSlot(), "not in the heap" in SlotMeta. */
    static constexpr std::uint32_t kNone = ~std::uint32_t{0};

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

    void
    assertNotPast(Tick when) const
    {
        CHARON_ASSERT(when >= now_,
                      "scheduling at %llu before now %llu",
                      static_cast<unsigned long long>(when),
                      static_cast<unsigned long long>(now_));
    }

    /** The slot @p id names if its event is pending, else kNone. */
    std::uint32_t
    pendingSlot(EventId id) const
    {
        const auto slot = static_cast<std::uint32_t>(id);
        if (slot >= meta_.size())
            return kNone;
        const SlotMeta &m = meta_[slot];
        if (m.gen != static_cast<std::uint32_t>(id >> 32)
            || m.pos == kNone)
            return kNone;
        return slot;
    }

    /** The id naming @p slot's current generation. */
    EventId
    idOf(std::uint32_t slot) const
    {
        return (static_cast<EventId>(meta_[slot].gen) << 32) | slot;
    }

    /** Remove the node at heap index @p i, keeping the heap valid. */
    void removeAt(std::size_t i);
    /**
     * Run the earliest event; afterwards remove it and release its
     * slot unless it re-keyed itself.  @pre !empty().
     */
    void fireTop();

    void
    place(std::size_t i, const Node &n)
    {
        heap_[i] = n;
        meta_[n.slot].pos = static_cast<std::uint32_t>(i);
    }

    void
    siftUp(std::size_t i)
    {
        Node n = heap_[i];
        while (i > 0) {
            std::size_t parent = (i - 1) / 2;
            if (!earlier(n, heap_[parent]))
                break;
            place(i, heap_[parent]);
            i = parent;
        }
        place(i, n);
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
            place(i, heap_[child]);
            i = child;
        }
        place(i, v);
    }

    /** The slab entry owning the callback of @p slot. */
    Callback &
    fnAt(std::uint32_t slot)
    {
        return chunks_[slot >> kChunkShift][slot & kChunkMask];
    }

    void growSlab();

    /** Take a slot out of the heap's bookkeeping; stale its ids. */
    static void
    retire(SlotMeta &m)
    {
        m.pos = kNone;
        if (++m.gen == 0)
            m.gen = 1;
    }

    /** Destroy the slot's callback and retire every id naming it. */
    void
    releaseSlot(std::uint32_t slot)
    {
        fnAt(slot).reset();
        retire(meta_[slot]);
        freeSlots_.push_back(slot);
    }

    Tick now_ = 0;
    std::uint64_t executed_ = 0;
    std::uint64_t nextSeq_ = 0;
    /** Slot whose callback is running, or kNone. */
    std::uint32_t running_ = kNone;
    /** The running event's node sits at the root, not yet re-keyed. */
    bool parked_ = false;

    std::vector<Node> heap_;
    std::vector<std::unique_ptr<Callback[]>> chunks_;
    std::vector<SlotMeta> meta_; ///< one per slot ever allocated
    std::vector<std::uint32_t> freeSlots_;
};

} // namespace charon::sim

#endif // CHARON_SIM_EVENT_QUEUE_HH
