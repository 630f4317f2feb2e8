/**
 * @file
 * CollectorIface: the one contract every collector family implements,
 * so the mutator, the harness, the fault layer, and the DSE sweep all
 * drive "a collector" rather than ParallelScavenge specifically.
 *
 * The interface is exactly what a mutator needs: allocation entry
 * points (fast path + humongous), the allocation-failure hook that
 * triggers a collection, the GC counters, and the declared
 * CapabilitySet that tells the TraceRecorder which primitives may be
 * offloaded (everything else is recorded hostOnly).  Anything behind
 * this interface automatically inherits trace recording, timeline
 * spans, fault injection/degradation, and DSE sweepability.
 */

#ifndef CHARON_GC_COLLECTOR_IFACE_HH
#define CHARON_GC_COLLECTOR_IFACE_HH

#include <cstdint>
#include <memory>

#include "gc/capability.hh"
#include "heap/klass.hh"
#include "mem/addr.hh"

namespace charon::heap
{
class ObjectHeap;
}

namespace charon::gc
{

class TraceRecorder;

/** What the driver did on an allocation failure. */
enum class GcOutcome
{
    Minor,       ///< scavenge / young evacuation ran
    Major,       ///< full (or old-generation) collection ran
    OutOfMemory, ///< live set does not fit: allocation cannot proceed
};

const char *gcOutcomeName(GcOutcome outcome);

/**
 * The collector families the factory builds.  The values are
 * persisted (trace-cache headers), so the order never changes.
 */
enum class CollectorModel : std::uint8_t
{
    ParallelScavenge = 0, ///< copying minors + mark-compact majors
    G1 = 1,               ///< region evacuation + marking + mixed
    Cms = 2,              ///< copying minors + non-moving mark-sweep majors
    Rc = 3,               ///< reference counting with ZCT reclamation
};

/** Short lowercase token ("ps", "g1", "cms", "rc"): keys, cache
 *  file names, journal keys and the DSE collector axis. */
const char *collectorToken(CollectorModel model);

/** Display name ("ParallelScavenge", "G1", "CMS", "RC"). */
const char *collectorTitle(CollectorModel model);

/** Every family, in persisted order. */
constexpr CollectorModel kCollectorModels[] = {
    CollectorModel::ParallelScavenge, CollectorModel::G1,
    CollectorModel::Cms, CollectorModel::Rc};

/**
 * One collector family on one heap.
 */
class CollectorIface
{
  public:
    virtual ~CollectorIface() = default;

    /** Short family name ("ps", "cms", "rc", "g1"). */
    virtual const char *name() const = 0;

    /** Which primitives this collector can offload, and which heap
     *  metadata it maintains.  Constant over the collector's life. */
    virtual CapabilitySet capabilities() const = 0;

    /**
     * Mutator fast-path allocation (Eden for the generational
     * families; free-queue-then-bump old allocation for RC).
     * @return object address, or 0 when the fast path is exhausted
     *         and the caller must invoke onAllocationFailure()
     */
    virtual mem::Addr allocate(heap::KlassId klass,
                               std::uint64_t array_len = 0) = 0;

    /** True when an object of @p size_words must bypass the fast
     *  path (it could never fit there even after a collection). */
    virtual bool isHumongous(std::uint64_t size_words) const = 0;

    /** Allocation for isHumongous() objects; 0 when full. */
    virtual mem::Addr allocateHumongous(heap::KlassId klass,
                                        std::uint64_t array_len = 0) = 0;

    /**
     * Collect in response to a failed allocation.  The allocation
     * should be retried afterwards (unless OutOfMemory).
     * @param humongous the failed allocation was allocateHumongous()
     *        (G1 answers with a marking cycle; the others ignore it)
     */
    virtual GcOutcome onAllocationFailure(bool humongous) = 0;

    virtual std::uint64_t minorCount() const = 0;
    virtual std::uint64_t majorCount() const = 0;
    /** Stand-alone marking cycles (G1's); 0 for families that mark
     *  only inside a major collection. */
    virtual std::uint64_t markCount() const { return 0; }
};

/**
 * A heap of the shape @p model collects, sized from @p heap_bytes:
 * a ManagedHeap rounded to whole pages for PS, CMS and RC; a G1Heap
 * of about 64 regions for G1.
 */
std::unique_ptr<heap::ObjectHeap>
makeHeap(CollectorModel model, std::uint64_t heap_bytes,
         const heap::KlassTable &klasses);

/**
 * Build a @p model collector on @p heap (from makeHeap()), recording
 * into @p recorder.  The recorder's capability gate is set to the
 * new collector's declared set as a side effect, so every subsequent
 * record is offload-eligible only where the declaration allows.
 */
std::unique_ptr<CollectorIface> makeCollector(CollectorModel model,
                                              heap::ObjectHeap &heap,
                                              TraceRecorder &recorder);

} // namespace charon::gc

#endif // CHARON_GC_COLLECTOR_IFACE_HH
