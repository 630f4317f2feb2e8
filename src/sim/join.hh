/**
 * @file
 * Pooled countdown join: the one way a flow, a stream or a bucket
 * completes.
 *
 * Every layered memory operation (a DDR4 stream over N channels, an
 * HMC segment over its route, a Charon bucket over its resources)
 * fans out into parallel parts and completes when the last of them
 * drains, often followed by a fixed tail: the response hops of an
 * HMC segment, the CXL round trip, a bucket's per-invocation
 * overhead.  A join counts the arrivals, keeps the latest arrival
 * tick, and carries that tail as its delay: with delay d > 0 it
 * completes through one event at (latest arrival + d), with d == 0
 * it completes inline on its last arrival.
 *
 * A join completes into its caller's Join (a null pointer means no
 * completion), so a bucket is a tree of joins whose leaves are
 * FluidChannel flows.  A join holds a callback only where something
 * must run at completion (a thread agent resuming, a second stream
 * that waits for the first, a bucket end computed from a stream's
 * finish).  arriveAt() arrives on a join at a known tick through
 * exactly one event: the empty-bucket and zero-byte completions, and
 * the host's compute-bound endings.
 *
 * The replay issues hundreds of thousands of joins, so a join must
 * not cost a heap allocation: joins live in per-pool slabs with
 * stable addresses and recycle through a free list.
 *
 * Lifetime protocol: exactly @p parts arrive() calls per acquire();
 * the join recycles after the last of them (and after its delayed
 * completion event, if that runs later) and before its completion
 * is delivered.  Nothing may touch a join after its last arrive().
 *
 * Call sites whose completion intentionally does not wait for every
 * part (a trailing posted write) pass FireAfter{k} with k below
 * @p parts: the join completes on its k-th arrival while it stays
 * live, and pooled, until all @p parts have arrived.
 */

#ifndef CHARON_SIM_JOIN_HH
#define CHARON_SIM_JOIN_HH

#include <algorithm>
#include <cstddef>
#include <deque>
#include <utility>
#include <vector>

#include "sim/callback.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace charon::sim
{

class JoinPool;

/**
 * Ticks from a join's firing arrival to its completion.  A distinct
 * type, like FireAfter, so neither can be passed for the other.
 */
struct Delay
{
    constexpr Delay() = default;
    constexpr explicit Delay(Tick t) : ticks(t) {}
    Tick ticks = 0;
};

/** Complete on this arrival instead of the last (0: the last). */
struct FireAfter
{
    constexpr FireAfter() = default;
    constexpr explicit FireAfter(std::size_t n) : arrivals(n) {}
    std::size_t arrivals = 0;
};

/**
 * Countdown join: completes with the latest arrival tick, plus its
 * delay, once the expected number of parts has arrived.  Obtained
 * from a JoinPool, never constructed directly.
 */
class Join
{
  public:
    /**
     * Completion callback.  The widest capture is a second stream
     * that waits for the first (the Scan&Push probes behind the
     * reference blocks): the owner pointer, the 40-byte request and
     * the join it completes into.
     */
    using Callback = Function<void(Tick), 56>;

    void arrive(Tick t); // defined after JoinPool

  private:
    friend class JoinPool;
    Join() = default;

    /** Recycle if nothing holds the join, then deliver at @p t. */
    void complete(Tick t);

    std::size_t remaining_ = 0; ///< arrivals until recycle
    std::size_t untilFire_ = 0; ///< arrivals until the join fires
    Tick last_ = 0;
    Tick delay_ = 0;
    bool held_ = false; ///< the delayed completion event is pending
    Join *into_ = nullptr; ///< completion target, or
    Callback done_;        ///< completion callback (at most one set)
    JoinPool *pool_ = nullptr;
};

/**
 * Slab-and-free-list allocator for Join objects, built on its
 * owner's event queue (delayed completions are its events).  One
 * pool per owning component: replays run concurrently under --jobs,
 * so a pool is never shared across owners.
 */
class JoinPool
{
  public:
    explicit JoinPool(EventQueue &eq) : eq_(eq) {}

    JoinPool(const JoinPool &) = delete;
    JoinPool &operator=(const JoinPool &) = delete;

    /** A join of @p parts arrivals that completes into @p into. */
    Join *
    acquire(std::size_t parts, Join *into, Delay delay = {},
            FireAfter fire = {})
    {
        Join *j = take(parts, delay, fire);
        j->into_ = into;
        return j;
    }

    /** A join of @p parts arrivals that completes by calling @p done. */
    Join *
    acquire(std::size_t parts, Join::Callback done, Delay delay = {},
            FireAfter fire = {})
    {
        Join *j = take(parts, delay, fire);
        j->done_ = std::move(done);
        return j;
    }

  private:
    friend class Join;

    Join *
    take(std::size_t parts, Delay delay, FireAfter fire)
    {
        CHARON_ASSERT(parts > 0, "join must expect at least one part");
        const std::size_t fire_after =
            fire.arrivals == 0 ? parts : fire.arrivals;
        CHARON_ASSERT(fire_after <= parts,
                      "join cannot fire after more arrivals than it "
                      "expects");
        Join *j;
        if (!free_.empty()) {
            j = free_.back();
            free_.pop_back();
        } else {
            j = &storage_.emplace_back(Join());
            j->pool_ = this;
        }
        j->remaining_ = parts;
        j->untilFire_ = fire_after;
        j->last_ = 0;
        j->delay_ = delay.ticks;
        j->into_ = nullptr;
        return j;
    }

    void release(Join *j) { free_.push_back(j); }

    EventQueue &eq_;
    std::deque<Join> storage_; ///< deque: addresses never move
    std::vector<Join *> free_;
};

inline void
Join::arrive(Tick t)
{
    CHARON_ASSERT(remaining_ > 0, "arrive on a recycled join");
    last_ = std::max(last_, t);
    --remaining_;
    if (untilFire_ == 0 || --untilFire_ > 0) {
        // Not the firing arrival; an early-fired join only counts
        // down to recycling.
        if (remaining_ == 0 && !held_)
            pool_->release(this);
        return;
    }
    if (delay_ == 0) {
        complete(last_);
        return;
    }
    // The completion event holds the join until it runs.
    held_ = true;
    const Tick when = last_ + delay_;
    pool_->eq_.schedule(when, [this, when] {
        held_ = false;
        complete(when);
    });
}

inline void
Join::complete(Tick t)
{
    // Recycle before delivering: the completion may reentrantly fan
    // out again and acquire from the same pool.
    Join *into = into_;
    Callback done = std::move(done_);
    if (remaining_ == 0)
        pool_->release(this);
    if (into)
        into->arrive(t);
    else if (done)
        done(t);
}

/**
 * Arrive on @p join at @p when through exactly one event, also when
 * @p when is now(); a null @p join makes the event a no-op.
 */
inline void
arriveAt(EventQueue &eq, Join *join, Tick when)
{
    eq.schedule(when, [join, when] {
        if (join)
            join->arrive(when);
    });
}

} // namespace charon::sim

#endif // CHARON_SIM_JOIN_HH
