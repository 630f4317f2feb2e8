/**
 * @file
 * TraceRecorder: the instrumentation sink the collectors write into.
 *
 * Owns the open GcTrace, maps heap addresses to HMC cubes, spreads
 * work over the configured number of GC threads, and runs the
 * functional bitmap-cache model over the bitmap access stream so the
 * trace carries a measured hit rate (Section 4.5 reports ~90%).
 */

#ifndef CHARON_GC_RECORDER_HH
#define CHARON_GC_RECORDER_HH

#include <cstdint>
#include <memory>

#include "gc/capability.hh"
#include "gc/costs.hh"
#include "gc/trace.hh"
#include "mem/cache_model.hh"

namespace charon::gc
{

/**
 * Charon's bitmap cache (Table 2, Section 4.5): 8 KiB, 8-way, 32 B
 * blocks.  The recorder simulates it over the bitmap access stream,
 * so its hit rate is measured at record time and travels in the
 * trace; the timing models read only that rate.
 */
struct BitmapCacheGeometry
{
    std::uint64_t bytes;
    int assoc;
    int blockBytes;
};
inline constexpr BitmapCacheGeometry kBitmapCache{8 * 1024, 8, 32};

/**
 * Collects one RunTrace across a whole mutator run.
 */
class TraceRecorder
{
  public:
    /**
     * @param num_threads GC threads the work is striped over
     * @param cube_shift address-to-cube mapping shift (cube =
     *        (addr >> shift) & 3); pick so the heap spans all cubes
     * @param num_cubes cubes in the HMC network
     */
    TraceRecorder(int num_threads, int cube_shift, int num_cubes = 4);

    int numThreads() const { return numThreads_; }
    int cubeOf(mem::Addr addr) const;

    // ------------------------------------------------------------------
    // GC / phase lifecycle

    void beginGc(bool major);
    void beginPhase(PhaseKind kind);
    void endPhase();
    GcTrace &endGc();

    /**
     * Capability gate: primitives outside @p caps record hostOnly
     * from here on (the collector has no unit path for them), and
     * each subsequent GcTrace is stamped with the declared mask.
     * Defaults to CapabilitySet::all() so direct recorder users —
     * tests, examples — keep the historical fully-offloadable
     * behavior.
     */
    void setCapabilities(const CapabilitySet &caps) { caps_ = caps; }
    const CapabilitySet &capabilities() const { return caps_; }

    /** Mutator instructions executed since the previous GC. */
    void recordMutator(std::uint64_t instructions);

    /** Flush the post-final-GC mutator tail into the run trace. */
    void finishRun();

    // ------------------------------------------------------------------
    // Primitive records (thread chosen round-robin per invocation)

    /** Bulk copy of @p bytes from @p src to @p dst. */
    void recordCopy(mem::Addr src, mem::Addr dst, std::uint64_t bytes);

    /**
     * Copies below this size are not worth a 48 B offload packet and
     * stay on the host (the JVM call site knows the object size, so
     * this is one extra compare in the 37-line patch of Section 4.6).
     */
    void setCopyOffloadThreshold(std::uint64_t bytes);
    std::uint64_t copyOffloadThreshold() const
    {
        return copyThreshold_;
    }

    /** Card-table Search over table storage [start, start+bytes). */
    void recordSearch(mem::Addr table_start, std::uint64_t bytes);

    /**
     * Scan&Push over one object: sequential read of its @p obj_bytes
     * (header + ref slots), @p refs random header probes of 16 B
     * each, and @p pushed 8 B stack pushes.
     * @param acceleratable false for the rare klass layouts the
     *        Scan&Push unit does not implement (host fallback)
     */
    void recordScanPush(mem::Addr obj, std::uint64_t obj_bytes,
                        std::uint64_t refs, std::uint64_t pushed,
                        bool acceleratable = true);

    /**
     * One live_words_in_range call over @p range_bits bits starting at
     * begin-map VA @p beg_storage_addr; feeds the bitmap cache.
     */
    void recordBitmapCount(mem::Addr beg_storage_addr,
                           mem::Addr end_storage_addr,
                           std::uint64_t range_bits);

    /** mark_obj: an 8 B RMW on the bitmap (through the bitmap cache). */
    void recordMarkObj(mem::Addr bitmap_storage_addr);

    /**
     * Bit-sweep: one free-run discovery pass over @p range_bits bits
     * of both mark bitmaps starting at begin-map VA
     * @p beg_storage_addr, emitting @p free_runs free-list entries
     * (CMS-style sweep; Table 1's bit-sweep primitive).
     */
    void recordBitSweep(mem::Addr beg_storage_addr,
                        std::uint64_t range_bits,
                        std::uint64_t free_runs);

    /**
     * Reference-count maintenance on @p obj: @p updates 8 B
     * read-modify-writes on per-object count words (RC/ZCT epochs;
     * Table 1's reference-counting primitive).
     */
    void recordRefCount(mem::Addr obj, std::uint64_t updates);

    /**
     * Block-zeroing: a write-only Copy of @p bytes at @p dst
     * (recycled-block scrubbing; Table 1's block-zeroing use of the
     * Copy unit).  Subject to the same offload threshold as copies.
     */
    void recordBlockZero(mem::Addr dst, std::uint64_t bytes);

    /** Host-only instructions attributable to the current thread. */
    void recordGlue(std::uint64_t instructions,
                    std::uint64_t mem_accesses = 0);

    // ------------------------------------------------------------------
    // Fault injection

    /**
     * Charon failure: after @p after further primitive invocations,
     * every subsequent bucket is forced hostOnly, and the buckets of
     * the phase open at the trip point are re-marked hostOnly — the
     * functional image of the JVM re-dispatching in-flight Copy /
     * Search / Scan&Push / Bitmap Count work to its host paths when
     * the accelerator dies mid-collection.
     */
    void armFailover(std::uint64_t after);

    /** True once an armed failover has tripped. */
    bool failoverTripped() const { return failoverTripped_; }

    /** Advance the round-robin thread cursor (call per work item). */
    void nextThread();

    /** Attribute subsequent records to a specific thread (striping). */
    void setThread(int thread);

    const GlueCosts &costs() const { return costs_; }

    /** Completed run trace. */
    RunTrace &run() { return run_; }
    const RunTrace &run() const { return run_; }

  private:
    ThreadWork &work();

    /** Count one primitive invocation; true once failover is active. */
    bool failoverActive();

    int numThreads_;
    int cubeShift_;
    int numCubes_;
    GlueCosts costs_;

    RunTrace run_;
    GcTrace current_;
    /** Per-thread AoS builders of the open phase (sealed at endPhase). */
    std::vector<ThreadWork> open_;
    PhaseKind openKind_ = PhaseKind::MinorRoots;
    bool gcOpen_ = false;
    bool phaseOpen_ = false;
    int cursor_ = 0;
    std::uint64_t mutatorSinceGc_ = 0;
    std::uint64_t copyThreshold_ = 256;
    CapabilitySet caps_ = CapabilitySet::all();

    bool failoverArmed_ = false;
    bool failoverTripped_ = false;
    std::uint64_t failoverAfter_ = 0;

    mem::CacheModel bitmapCache_;
};

} // namespace charon::gc

#endif // CHARON_GC_RECORDER_HH
