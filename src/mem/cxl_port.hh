/**
 * @file
 * Host-side attachment to a CXL.mem expander.
 *
 * When the heap lives on a CXL expander, every *host* access crosses
 * the serial link: latency() grows by the round trip (which shrinks
 * the requester's MLP-derived issue rate), and the stream itself
 * occupies both the link (with flit-header inflation) and the
 * expander DRAM, completing when the slower of the two drains plus
 * one exposed round trip.  The link FluidChannel is shared with the
 * memory-side accelerator's coherence and translation traffic, so
 * device metadata snoops contend with host demand fetches.
 */

#ifndef CHARON_MEM_CXL_PORT_HH
#define CHARON_MEM_CXL_PORT_HH

#include "mem/ddr4.hh"
#include "mem/fluid_channel.hh"
#include "mem/mem_model.hh"
#include "sim/config.hh"
#include "sim/join.hh"

namespace charon::mem
{

/** MemPort view of expander DRAM across a CXL.mem link. */
class CxlHostPort : public MemPort
{
  public:
    /** @param instr the link becomes a counter track ("cxl.link"). */
    CxlHostPort(sim::EventQueue &eq, Ddr4Memory &dram,
                const sim::CxlConfig &cfg,
                const sim::Instrumentation &instr = {});

    // MemPort
    void stream(const StreamRequest &req, sim::Join *done) override;
    sim::Tick latency(AccessPattern pattern) const override;
    double peakRate() const override;
    int maxGranularity() const override { return dram_.maxGranularity(); }
    double efficiency(AccessPattern pattern) const override
    {
        return dram_.efficiency(pattern);
    }

    /** The shared CXL.mem link (device snoop traffic rides it too). */
    FluidChannel &link() { return link_; }

    /** One-way link latency in ticks. */
    sim::Tick linkLatency() const;

  private:
    Ddr4Memory &dram_;
    sim::CxlConfig cfg_;
    FluidChannel link_;
    sim::JoinPool joins_;
};

} // namespace charon::mem

#endif // CHARON_MEM_CXL_PORT_HH
