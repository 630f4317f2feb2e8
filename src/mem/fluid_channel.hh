/**
 * @file
 * Fluid-approximation model of a shared bandwidth resource.
 *
 * A FluidChannel has a fixed capacity (bytes/tick).  Concurrent flows
 * share it by progressive filling (max-min fairness): every flow is
 * capped at its own maximum issue rate; the residual capacity is split
 * equally among flows that can still absorb more.  Whenever the set of
 * active flows changes, remaining bytes are advanced at the old rates
 * and the allocation is recomputed; the channel's one completion timer
 * is re-keyed to the earliest projected finish, and it leaves the
 * event queue only when the last flow does.
 *
 * Every flow completes into a sim::Join, the fan-in its caller built
 * over the resources the transfer occupies (the HMC route, the DDR4
 * channels, a unit pool and its memory), so finishing a flow is one
 * arrive() with no per-flow callback.
 *
 * This is the standard fluid-flow network abstraction: it captures the
 * two effects the paper's evaluation hinges on — (1) an agent with
 * limited MLP cannot saturate a fat pipe, and (2) many agents contend
 * for a thin pipe — without per-transaction DRAM simulation.
 */

#ifndef CHARON_MEM_FLUID_CHANNEL_HH
#define CHARON_MEM_FLUID_CHANNEL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "mem/request.hh"
#include "sim/event_queue.hh"
#include "sim/instrumentation.hh"
#include "sim/join.hh"
#include "sim/stats.hh"
#include "sim/timeline.hh"
#include "sim/types.hh"

namespace charon::mem
{

/**
 * A max-min-fair shared pipe driven by the global event queue.
 */
class FluidChannel
{
  public:
    /**
     * @param eq global event queue
     * @param name stat-group name ("ddr4.ch0", "hmc.cube2.tsv", ...)
     * @param capacity peak capacity in bytes/tick
     * @param instr instrumentation context; when enabled the channel
     *        becomes a counter track (named after its stat group)
     *        sampling the number of active flows, so busy/idle and
     *        contention are visible per channel.  With the disabled
     *        context the emit path is one branch.
     */
    FluidChannel(sim::EventQueue &eq, std::string name, double capacity,
                 const sim::Instrumentation &instr = {});

    FluidChannel(const FluidChannel &) = delete;
    FluidChannel &operator=(const FluidChannel &) = delete;

    /**
     * Begin transferring @p bytes at up to @p maxRate bytes/tick
     * (0 == unlimited).  When the last byte completes the flow calls
     * @p join->arrive() with the finish tick; a null @p join means
     * no completion.  A zero-byte flow completes through one event
     * at the current tick.
     *
     * The transfer begins at the current event-queue time.
     */
    void startFlow(std::uint64_t bytes, double maxRate, sim::Join *join);

    /** Peak capacity in bytes/tick. */
    double capacity() const { return capacity_; }

    /**
     * Change the capacity (fault injection: link/TSV degradation).
     * In-flight flows are advanced at their old rates first, then
     * rates are recomputed under the new capacity.  Clamped to a tiny
     * positive floor so active flows always drain.
     */
    void setCapacity(double capacity);

    /** Total bytes ever pushed through this channel. */
    double totalBytes() const { return bytesTransferred_.value(); }

    /** Busy time integral: sum over time of (allocated/capacity) dt. */
    double utilizedTicks() const { return utilizedTicks_.value(); }

    /** Number of currently active flows. */
    std::size_t activeFlows() const { return flowBytes_.size(); }

    /** Stats access (bytes, utilization). */
    const sim::StatGroup &stats() const { return stats_; }

    /** Reset the accounting (not the in-flight flows). */
    void resetStats() { stats_.resetAll(); }

  private:
    /** Advance all flows to now() at their current rates. */
    void advance();

    /** Recompute max-min-fair rates; re-key the completion timer. */
    void reallocate();

    /**
     * Point the completion timer at @p when: re-key the pending
     * timer, or schedule one if none is pending.
     */
    void armTimer(sim::Tick when);

    /** Completion-event body. */
    void onTimer();

    sim::EventQueue &eq_;
    double capacity_;
    /**
     * Active flows in insertion order, structure-of-arrays: the
     * advance/reallocate loops run once per completion timer and
     * touch only the 8-byte column they need instead of striding
     * over a ~90-byte flow record.  The insertion order is the order
     * the progressive filling must visit flows in so the
     * floating-point accumulation sequence (and therefore every
     * projected finish time) matches runs made with any earlier
     * container choice.  Erases compact all columns stably for the
     * same reason.
     */
    std::vector<double> flowBytes_;     ///< bytes left
    std::vector<double> flowMax_;       ///< cap (0 == unlimited)
    std::vector<double> flowRate_;      ///< current allocation
    std::vector<sim::Join *> flowDone_; ///< completion joins (or null)
    sim::Tick lastAdvance_ = 0;
    sim::EventId timer_ = 0; ///< pending completion timer, or 0
    std::vector<std::uint32_t> uncappedScratch_; ///< reallocate() reuse
    std::vector<sim::Join *> doneScratch_;       ///< onTimer() reuse

    sim::StatGroup stats_;
    sim::Counter bytesTransferred_;
    sim::Counter utilizedTicks_;
    sim::Counter flowCount_;

    sim::Timeline *timeline_ = nullptr;
    sim::Timeline::TrackId track_ = 0;
};

} // namespace charon::mem

#endif // CHARON_MEM_FLUID_CHANNEL_HH
