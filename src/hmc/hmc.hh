/**
 * @file
 * Timing/energy model of the Hybrid Memory Cube main-memory system of
 * Table 2: 32 GB over 4 cubes (32 vaults each), star topology with the
 * host attached to the central cube (cube 0).
 *
 * Resources modelled as FluidChannels:
 *  - one internal (TSV/vault aggregate) channel per cube, 320 GB/s;
 *  - one serial link host<->cube0 and one cube0<->cube{1,2,3} each,
 *    80 GB/s, 3 ns per hop.
 *
 * A stream issued from some origin (the host, or a Charon unit on a
 * cube) is split into per-cube segments by the address interleaving;
 * each segment concurrently occupies every resource on its route and
 * completes when the slowest one drains.  Packet header/tail overhead
 * (16 B each way per request) is charged on the links.
 */

#ifndef CHARON_HMC_HMC_HH
#define CHARON_HMC_HMC_HH

#include <memory>
#include <ostream>
#include <vector>

#include "mem/fluid_channel.hh"
#include "mem/mem_model.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/join.hh"

namespace charon::hmc
{

/** Where a memory request originates. */
struct Origin
{
    bool isHost = true;
    int cube = 0; ///< valid when !isHost

    static Origin host() { return Origin{true, 0}; }
    static Origin onCube(int cube) { return Origin{false, cube}; }
};

/**
 * The HMC memory system.
 */
class HmcMemory
{
  public:
    /**
     * @param instr instrumentation: one counter track per cube TSV
     *        aggregate and per serial link (creation order: all
     *        cubes, then all links).
     */
    HmcMemory(sim::EventQueue &eq, const sim::HmcConfig &cfg,
              const sim::Instrumentation &instr = {});

    /**
     * Configure the address-to-cube mapping: cube =
     * (addr >> shift) & (cubes-1).  The paper interleaves 1 GiB huge
     * pages over cubes via address bits [31:30]; scaled-down heaps set
     * a smaller shift so the heap still spans all cubes.
     */
    void setCubeShift(int shift);
    int cubeShift() const { return cubeShift_; }

    /** Cube that services @p addr. */
    int cubeOf(mem::Addr addr) const;

    /**
     * Begin a stream from @p origin; arrives on @p done once every
     * per-cube segment has drained.
     */
    void stream(const Origin &origin, const mem::StreamRequest &req,
                sim::Join *done);

    /**
     * Begin a stream whose data lives entirely on @p cube, bypassing
     * the address-based split (used by timing models that track cube
     * ids rather than addresses).
     */
    void streamToCube(const Origin &origin, int cube,
                      const mem::StreamRequest &req, sim::Join *done);

    /**
     * Occupy only the serial links between two cubes (metadata
     * lookups to remote structures: unified bitmap cache / TLB).
     * No DRAM traffic is charged.
     */
    void linkStream(int cube_a, int cube_b, std::uint64_t bytes,
                    double max_rate, sim::Join *done);

    /** Round-trip latency of one access from @p origin to @p addr. */
    sim::Tick latency(const Origin &origin, mem::Addr addr,
                      mem::AccessPattern pattern) const;

    /** Latency assuming the worst-case (remote, random) access. */
    sim::Tick worstLatency() const;

    /** Latency of a local (same-cube) access. */
    sim::Tick localLatency(mem::AccessPattern pattern) const;

    /** Fraction of DRAM efficiency sustained for @p pattern. */
    double efficiency(mem::AccessPattern pattern) const;

    /** Total useful bytes serviced by the DRAM stacks. */
    double totalBytes() const { return usefulBytes_; }

    /** Bytes serviced without crossing any serial link. */
    double localBytes() const { return localBytes_; }

    /** Bytes that crossed at least one serial link. */
    double remoteBytes() const { return usefulBytes_ - localBytes_; }

    /** Bytes pushed over serial links (payload + headers). */
    double linkBytes() const;

    /** DRAM + link (SerDes) energy so far, picojoules. */
    double energyPj() const;

    /** Aggregate internal bandwidth, bytes/tick. */
    double internalPeakRate() const;

    /** Off-chip (host link) bandwidth, bytes/tick. */
    double hostLinkRate() const;

    /** Zero the byte/energy accounting. */
    void resetStats();

    // ------------------------------------------------------------------
    // Fault injection (bandwidth degradation)

    /**
     * Multiply serial link @p link's capacity by @p factor (fault
     * injection; links_[0] is host<->cube0, links_[i] cube0<->cube i).
     * Only the fluid capacity degrades: the per-hop latency constants
     * and offload-overhead serialization terms stay at spec values.
     */
    void degradeLink(int link, double factor);

    /** Multiply cube @p cube's internal TSV capacity by @p factor. */
    void degradeCube(int cube, double factor);

    /** Print per-cube / per-link statistics. */
    void dumpStats(std::ostream &os) const;

    const sim::HmcConfig &config() const { return cfg_; }

    /**
     * A MemPort view of this HMC as seen by the host (routes every
     * access over the host link into the cube network).
     */
    class HostPort : public mem::MemPort
    {
      public:
        explicit HostPort(HmcMemory &hmc) : hmc_(hmc) {}
        void stream(const mem::StreamRequest &req,
                    sim::Join *done) override;
        sim::Tick latency(mem::AccessPattern pattern) const override;
        double peakRate() const override;
        int maxGranularity() const override;
        double efficiency(mem::AccessPattern pattern) const override;

      private:
        HmcMemory &hmc_;
    };

    HostPort &hostPort() { return hostPort_; }

  private:
    /** Per-cube-segment submission. */
    void streamSegment(const Origin &origin, int cube,
                       const mem::StreamRequest &req, std::uint64_t bytes,
                       sim::Join *done);

    /** Number of link hops between @p origin and @p cube. */
    int hops(const Origin &origin, int cube) const;

    sim::EventQueue &eq_;
    sim::HmcConfig cfg_;
    int cubeShift_ = 30; // paper default: 1 GiB regions, bits [31:30]

    /** Internal TSV/vault aggregate bandwidth per cube. */
    std::vector<std::unique_ptr<mem::FluidChannel>> internal_;
    /** links_[0]: host<->cube0; links_[i]: cube0<->cube i (i>=1). */
    std::vector<std::unique_ptr<mem::FluidChannel>> links_;

    double usefulBytes_ = 0;
    double localBytes_ = 0;

    sim::JoinPool joins_{eq_};
    /** Hot-path scratch (stream/streamSegment never reenter). */
    std::vector<mem::FluidChannel *> routeScratch_;
    struct Segment
    {
        int cube;
        std::uint64_t bytes;
    };
    std::vector<Segment> segScratch_;

    HostPort hostPort_;
};

} // namespace charon::hmc

#endif // CHARON_HMC_HMC_HH
