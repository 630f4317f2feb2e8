/**
 * @file
 * Timing/energy model of the DDR4 main-memory system of Table 2:
 * 32 GB, 2 channels x 17 GB/s, 4 ranks/channel, 8 banks/rank.
 *
 * Channels are FluidChannels; a stream is split across channels the way
 * cache-line interleaving spreads it in hardware.  Pattern efficiency
 * and average loaded latency are derived from the DDR4 timing
 * parameters (see the .cc for the derivations).
 */

#ifndef CHARON_MEM_DDR4_HH
#define CHARON_MEM_DDR4_HH

#include <memory>
#include <ostream>
#include <vector>

#include "mem/fluid_channel.hh"
#include "mem/mem_model.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/join.hh"

namespace charon::mem
{

/**
 * The DDR4 memory system; also a MemPort since the host attaches
 * directly to it.
 */
class Ddr4Memory : public MemPort
{
  public:
    /** @param instr instrumentation: one counter track per channel. */
    Ddr4Memory(sim::EventQueue &eq, const sim::Ddr4Config &cfg,
               const sim::Instrumentation &instr = {});

    // MemPort
    void stream(const StreamRequest &req, sim::Join *done) override;
    sim::Tick latency(AccessPattern pattern) const override;
    double peakRate() const override;
    int maxGranularity() const override { return cfg_.burstBytes; }
    double efficiency(AccessPattern pattern) const override;

    /** Total bytes moved through all channels. */
    double totalBytes() const;

    /** DRAM access energy so far, in picojoules. */
    double energyPj() const;

    /** Mean utilization of the busiest window [0, now]. */
    double utilization(sim::Tick elapsed) const;

    /** Print per-channel statistics. */
    void dumpStats(std::ostream &os) const;

    const sim::Ddr4Config &config() const { return cfg_; }

  private:
    sim::EventQueue &eq_;
    sim::Ddr4Config cfg_;
    std::vector<std::unique_ptr<FluidChannel>> channels_;
    double usefulBytes_ = 0; ///< excludes occupancy-overhead inflation
    sim::JoinPool joins_{eq_};
};

} // namespace charon::mem

#endif // CHARON_MEM_DDR4_HH
