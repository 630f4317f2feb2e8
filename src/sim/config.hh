/**
 * @file
 * Architectural parameters: the C++ rendering of Table 2 of the paper.
 *
 * Every timing/energy model takes one of these structs; the default
 * member values are exactly the paper's evaluation configuration so that
 * the bench harness reproduces the published setup by default, while
 * tests and ablations can freely override fields.
 */

#ifndef CHARON_SIM_CONFIG_HH
#define CHARON_SIM_CONFIG_HH

#include <cstdint>

#include "sim/types.hh"

namespace charon::sim
{

/**
 * Host processor: 8x 2.67 GHz Westmere-class out-of-order cores.
 *
 * Table 2's 128-entry ROB, 4-wide issue, 64/1024-entry L1/L2 TLBs,
 * 32 KiB 8-way L1D (4 cycles), 32 KiB 4-way L1I (3 cycles), 256 KiB
 * 8-way L2 (12 cycles), 16-way LLC (28 cycles) and 64 B lines are not
 * fields: the host model bounds memory-level parallelism by the
 * instruction window and the MSHRs, and the LLC enters only through
 * its size (the flush at GC start).
 */
struct HostConfig
{
    int numCores = 8;
    double freqHz = 2.67e9;
    int instructionWindow = 36;  ///< scheduler entries limiting MLP
    std::uint64_t llcSize = 8 * kMiB;

    /**
     * Per-core MSHR count; together with the instruction window this
     * caps the number of in-flight misses (memory-level parallelism).
     * Westmere L1D supports 10 outstanding misses.
     */
    int mshrsPerCore = 10;

    /**
     * Average observed GC IPC on the host for the non-primitive glue
     * work (pop/allocate/check-mark).  The paper reports the average
     * IPC of a Xeon core running GC is "below 0.5" (Section 1).
     */
    double gcGlueIpc = 0.5;

    /** Application (mutator) IPC per core between collections. */
    double mutatorIpc = 0.8;

    /** McPAT-style per-core active power while running GC (Watts). */
    double coreActivePowerW = 9.0;
    /** Uncore/LLC power while collecting (Watts). */
    double uncorePowerW = 12.0;
};

/**
 * DDR4 main memory: 2 channels.
 *
 * Table 2's 32 GB, 4 ranks/channel, 8 banks/rank, tRAS 35 ns, tWR
 * 15 ns and 8 KiB row buffers are not fields: the latencies in
 * ddr4.cc are built from tCK, tRCD, tCAS and tRP alone.
 */
struct Ddr4Config
{
    int channels = 2;

    // Timing (Table 2).
    double tCkNs = 0.937;
    double tRcdNs = 13.50;
    double tCasNs = 13.50;
    double tRpNs = 13.50;

    /** Peak bandwidth: 17 GB/s per channel, 34 GB/s total. */
    double perChannelGBs = 17.0;

    /** Access energy (Table 2, from [35] MAGE): 35 pJ/bit. */
    double energyPjPerBit = 35.0;

    /** Burst (minimum transfer) size in bytes: 64 B cache line. */
    int burstBytes = 64;

    double totalGBs() const { return perChannelGBs * channels; }
};

/** Inter-cube interconnect shape (Section 4.6: not architecture-bound). */
enum class HmcTopology
{
    Star,  ///< satellites hang off the central cube (paper default)
    Chain, ///< cubes daisy-chained 0-1-2-...; host at cube 0
};

/**
 * HMC main memory: 4 cubes, star topology with the host attached to
 * the central cube (cube 0).
 *
 * Table 2's 32 GB, 32 vaults per cube, 8 banks per vault, tRAS
 * 22.4 ns, tWR 14.4 ns and 256 B maximum requests are not fields: a
 * cube's vaults are one TSV channel, and the latencies in hmc.cc are
 * built from tCK, tRCD, tCAS and tRP alone.
 */
struct HmcConfig
{
    /** Inter-cube topology. */
    HmcTopology topology = HmcTopology::Star;

    int cubes = 4;

    // Timing (Table 2).
    double tCkNs = 1.6;
    double tRcdNs = 11.2;
    double tCasNs = 11.2;
    double tRpNs = 11.2;

    /** Aggregate internal (TSV) bandwidth per cube: 320 GB/s. */
    double internalGBsPerCube = 320.0;

    /** External serial-link bandwidth per link: 80 GB/s. */
    double linkGBs = 80.0;

    /** One-way serial link latency: 3 ns. */
    double linkLatencyNs = 3.0;

    /** Access energy (Table 2, from [59]): 21 pJ/bit. */
    double energyPjPerBit = 21.0;

    /** Energy cost of a link traversal, pJ/bit (SerDes). */
    double linkEnergyPjPerBit = 4.0;

    /** Minimum access granularity: 16 B (Section 4.5). */
    int minRequestBytes = 16;

    Tick linkLatency() const { return nsToTicks(linkLatencyNs); }
};

/**
 * Charon accelerator configuration (Table 2 "Charon Configuration").
 */
struct CharonConfig
{
    /** Copy/Search units in total (2 per cube). */
    int copySearchUnits = 8;
    /** Bitmap Count units in total (2 per cube). */
    int bitmapCountUnits = 8;
    /** Scan&Push units (8, all on the central cube). */
    int scanPushUnits = 8;

    /** Logic-layer clock for the processing units (1 req/cycle issue). */
    double unitFreqHz = 625e6; // HMC tCK = 1.6 ns

    /** MAI request buffer entries per cube (caps in-flight accesses). */
    int maiEntries = 32;

    // The bitmap cache's geometry is gc::kBitmapCache (gc/recorder.hh):
    // its hit rate is measured at record time and stored in the trace.

    /** Huge-page size used for heap pinning (1 GiB). */
    std::uint64_t hugePageBytes = 1ull * kGiB;

    /** Offload request packet size (Section 4.1): 48 B. */
    int requestPacketBytes = 48;
    /** Response packet size: 32 B with a return value, else 16 B. */
    int responsePacketBytes = 32;
    int responsePacketNoValBytes = 16;

    /** Distributed (per-cube) bitmap cache and TLB slices (Fig. 15). */
    bool distributedStructures = false;

    /**
     * Ablation: run Scan&Push on the cube that owns each object
     * instead of the paper's central-cube placement (Section 4.4).
     */
    bool scanPushLocal = false;

    /**
     * Average unit power while active (W).  Calibrated so the fleet's
     * mean draw lands near the paper's reported 2.98 W average
     * (Section 5.3) at the utilizations our workloads produce.
     */
    double unitActivePowerW = 1.2;
    double unitIdlePowerW = 0.02;

    /**
     * Heap-scale compensation for the GC-start bulk cache flush: the
     * repository runs 1/64-scale heaps (DESIGN.md), which shrinks GC
     * durations 64x while an LLC flush is a fixed cost; dividing the
     * flush by the same factor keeps its share of a GC equal to the
     * paper's (~0.3%, Section 4.6).  Set to 1 for full-size heaps.
     */
    double hostFlushScale = 64.0;
};

/**
 * Integrated-GPU offload backend ("Trash Talk" comparison point).
 *
 * The GPU slice sits on the host die: offloaded primitives stream
 * through the same DDR4 controller the mutator threads use — no
 * TSV-bandwidth advantage — and every offload call pays a
 * driver/doorbell kernel-launch latency that near-memory units avoid.
 */
struct IgpuConfig
{
    /** EU clusters a GC kernel can occupy concurrently. */
    int computeUnits = 8;
    double euFreqHz = 1.2e9;

    /** Per-offload kernel dispatch latency (driver + doorbell + EU
     *  thread spawn).  Hundreds of ns, vs ~10 ns for a Charon packet. */
    double launchLatencyNs = 450.0;

    /** Outstanding misses the GPU L2 sustains (device-wide MLP cap). */
    int concurrentRequests = 48;

    /**
     * EU cycles to dispatch one work item (one primitive invocation)
     * inside a running kernel: thread setup + divergence overhead.
     */
    int dispatchCyclesPerInvocation = 64;

    /**
     * EU cycles per bitmap bit for the loop-carried bit scans
     * (Bitmap Count's first-fit run search, Bit Sweep's free-run
     * walk).  The run-length state makes each iteration depend on
     * the last, so the scan runs on one scalar EU lane per bucket —
     * no SIMT win, and the in-order EU at a third of the host clock
     * retires bits *slower* than the host's 2.6 cycles/bit.
     */
    double bitLoopCyclesPerBit = 2.0;

    /** Per-EU-cluster power (the whole slice = computeUnits x this). */
    double activePowerW = 1.5;
    double idlePowerW = 0.1;

    /** GT2-class slice area charged to the backend (mm^2 @22nm). */
    double areaMm2 = 38.0;
};

/**
 * CXL memory-side accelerator: processing units on a CXL.mem expander,
 * next to the expander DRAM but across a serial link from the host.
 * The PIM-adoption survey's mechanisms are modeled as costs: device-side
 * translation with host-managed invalidations (a fraction of device
 * accesses pays a host-mediated walk) and coherence back-invalidation
 * round-trips when the device writes host-cacheable GC metadata.
 */
struct CxlConfig
{
    /** Effective CXL.mem bandwidth of the x8 port (GB/s). */
    double linkGBs = 64.0;

    /** One-way port-to-port link latency (ns). */
    double linkLatencyNs = 35.0;

    /** Near-DRAM processing units on the expander. */
    int deviceUnits = 8;
    double unitFreqHz = 1.0e9;

    /** Outstanding device requests into the expander DRAM. */
    int concurrentRequests = 32;

    /**
     * Fraction of device translations missing the device TLB and
     * requiring a host round-trip (host-managed invalidations keep the
     * device TLB small and occasionally cold).
     */
    double translationWalkRate = 0.02;

    /** Back-invalidation snoop bytes per metadata cache line written. */
    int snoopBytes = 64;

    double unitActivePowerW = 1.5;
    double unitIdlePowerW = 0.05;

    /** Device logic area (units + TLB + link PHY share), mm^2. */
    double areaMm2 = 6.0;
};

/**
 * Which machine executes the GC: the four platforms of Figure 12 plus
 * the alternative offload backends (iGPU, CXL memory-side accelerator).
 * New kinds append after Ideal: the integer values are serialized in
 * timing caches and must stay stable.
 */
enum class PlatformKind
{
    HostDdr4,      ///< baseline: host CPU + DDR4
    HostHmc,       ///< host CPU + HMC (no accelerator)
    CharonNmp,     ///< Charon in the HMC logic layer
    CharonCpuSide, ///< Charon next to the host memory controller
    Ideal,         ///< offloaded primitives complete in zero time
    IgpuOffload,   ///< integrated GPU sharing LLC + DDR4 controller
    CxlMsa,        ///< memory-side accelerator on a CXL.mem expander
};

/** Printable platform name. */
const char *platformName(PlatformKind kind);

/** The offload engine (if any) a platform pairs with the host. */
enum class BackendKind
{
    None,   ///< pure host platforms and the zero-cost Ideal
    Charon, ///< near-memory units (HMC logic layer or CPU-side)
    Igpu,   ///< integrated GPU
    Cxl,    ///< CXL memory-side accelerator
};

BackendKind backendFor(PlatformKind kind);
const char *backendName(BackendKind kind);

/** Bundle of everything a platform needs. */
struct SystemConfig
{
    HostConfig host;
    Ddr4Config ddr4;
    HmcConfig hmc;
    CharonConfig charon;
    IgpuConfig igpu;
    CxlConfig cxl;
    int gcThreads = 8;

    // ------------------------------------------------------------------
    // Named presets: the configurations the paper evaluates.  Benches
    // use these instead of hand-rolling field overrides so the setup
    // each figure measures is stated once.

    /** The Table 2 evaluation configuration (same as the defaults). */
    static SystemConfig
    table2()
    {
        return SystemConfig{};
    }

    /**
     * Section 4.6 cube scaling: @p cubes cubes carrying 2 Copy/Search
     * and 2 BitmapCount units each (Scan&Push stays central).  The
     * paired trace must be re-recorded with numCubes = @p cubes.
     */
    static SystemConfig
    scalability(int cubes)
    {
        SystemConfig cfg;
        cfg.hmc.cubes = cubes;
        cfg.charon.copySearchUnits = 2 * cubes;
        cfg.charon.bitmapCountUnits = 2 * cubes;
        return cfg;
    }

    /**
     * Figure 15 thread-scaling point: @p threads GC threads matched
     * by @p threads units of each kind.
     */
    static SystemConfig
    threadScaling(int threads)
    {
        SystemConfig cfg;
        cfg.gcThreads = threads;
        cfg.charon.copySearchUnits = threads;
        cfg.charon.bitmapCountUnits = threads;
        cfg.charon.scanPushUnits = threads;
        return cfg;
    }
};

} // namespace charon::sim

#endif // CHARON_SIM_CONFIG_HH
