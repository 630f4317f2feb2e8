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
 * is re-keyed to the earliest projected finish, also from inside its
 * own callback, so it keeps one event slot and one callback from the
 * channel's first flow to its last and leaves the event queue only
 * when the last flow does.
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
#include <iosfwd>
#include <string>
#include <vector>

#include "mem/request.hh"
#include "sim/event_queue.hh"
#include "sim/instrumentation.hh"
#include "sim/join.hh"
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
     * @param name channel name ("ddr4.ch0", "hmc.cube2.tsv", ...),
     *        the prefix of its statistics lines
     * @param capacity peak capacity in bytes/tick
     * @param instr instrumentation context; when enabled the channel
     *        becomes a counter track (named after the channel)
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
    double totalBytes() const { return bytes_; }

    /** Busy time integral: sum over time of (allocated/capacity) dt. */
    double utilizedTicks() const { return utilizedTicks_; }

    /** Number of currently active flows. */
    std::size_t activeFlows() const { return flowBytes_.size(); }

    /** Reset the accounting (not the in-flight flows). */
    void
    resetStats()
    {
        bytes_ = 0;
        utilizedTicks_ = 0;
        flows_ = 0;
    }

    /**
     * Print "<name>.bytes = ...", "<name>.utilized_ticks = ..." and
     * "<name>.flows = ..." lines, values in the stream's formatting.
     */
    void dumpStats(std::ostream &os) const;

  private:
    /** Advance all flows to now() at their current rates. */
    void advance();

    /** Recompute max-min-fair rates; re-key the completion timer. */
    void reallocate();

    /**
     * Point the completion timer at @p when: re-key the channel's
     * timer, pending or running, or schedule one if it has none.
     */
    void armTimer(sim::Tick when);

    /** Completion-event body. */
    void onTimer();

    sim::EventQueue &eq_;
    double capacity_;
    /**
     * Active flows in insertion order, structure-of-arrays: the
     * advance and reallocate loops run on every flow start and timer
     * fire, and each touches only the columns it needs.  One 32-byte
     * record per flow, with the advance folded into the pass that
     * follows it, ran no faster on the warm perfbench pass, so the
     * columns stay.  The insertion order is the order the progressive
     * filling must visit flows in so the floating-point accumulation
     * sequence (and therefore every projected finish time) matches
     * runs made with any earlier container choice.  Erases compact
     * all columns stably for the same reason.
     */
    std::vector<double> flowBytes_;     ///< bytes left
    std::vector<double> flowMax_;       ///< cap (0 == unlimited)
    std::vector<double> flowRate_;      ///< current allocation
    std::vector<sim::Join *> flowDone_; ///< completion joins (or null)
    sim::Tick lastAdvance_ = 0;
    sim::EventId timer_ = 0; ///< completion timer while flows are active, or 0
    std::vector<std::uint32_t> uncappedScratch_; ///< reallocate() reuse
    std::vector<sim::Join *> doneScratch_;       ///< onTimer() reuse

    std::string name_;
    double bytes_ = 0;         ///< bytes of every flow started
    double utilizedTicks_ = 0; ///< integral of utilization over time
    /** Flows served; a double like the others, so the stats lines
     *  print every value the same way. */
    double flows_ = 0;

    sim::Timeline *timeline_ = nullptr;
    sim::Timeline::TrackId track_ = 0;
};

} // namespace charon::mem

#endif // CHARON_MEM_FLUID_CHANNEL_HH
