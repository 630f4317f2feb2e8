/**
 * @file
 * The port abstraction a memory *requester* (host core model or Charon
 * processing unit) uses to talk to a memory system, independent of
 * whether that system is DDR4 or stacked HMC.
 */

#ifndef CHARON_MEM_MEM_MODEL_HH
#define CHARON_MEM_MEM_MODEL_HH

#include "mem/request.hh"
#include "sim/join.hh"
#include "sim/types.hh"

namespace charon::mem
{

/**
 * A point of attachment to some memory system.
 *
 * stream() begins a transfer at the current event time and arrives
 * on the caller's join once, at completion; latency() reports the
 * average round-trip latency a single access of the given pattern
 * would see, which requesters use to derive their MLP-limited issue
 * rate (rate = inflight x granularity / latency).
 */
class MemPort
{
  public:
    virtual ~MemPort() = default;

    /**
     * Begin a stream transfer; arrives on @p done once, at the
     * completion tick (null: no completion).
     */
    virtual void stream(const StreamRequest &req, sim::Join *done) = 0;

    /** Average access round-trip latency in ticks for @p pattern. */
    virtual sim::Tick latency(AccessPattern pattern) const = 0;

    /** Peak deliverable bandwidth through this port, bytes/tick. */
    virtual double peakRate() const = 0;

    /**
     * Highest per-request granularity this port supports, bytes
     * (64 for a cache-line host port, 256 for HMC).
     */
    virtual int maxGranularity() const = 0;

    /**
     * Efficiency factor (0..1] applied to a stream of the given
     * pattern: the fraction of peak the DRAM can sustain for it.
     */
    virtual double efficiency(AccessPattern pattern) const = 0;
};

} // namespace charon::mem

#endif // CHARON_MEM_MEM_MODEL_HH
