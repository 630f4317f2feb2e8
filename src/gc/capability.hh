/**
 * @file
 * The collector capability model: Table 1 as a declared, testable
 * contract instead of wiring baked into each collector's driver.
 *
 * Every collector behind CollectorIface declares a CapabilitySet:
 * which Charon primitives its phases can hand to a near-memory unit,
 * and which heap metadata structures it maintains (card table, mark
 * bitmaps) — the latter bounds which *fault kinds* are meaningful to
 * inject against it.  The TraceRecorder composes the declared set
 * into its per-record offload gating, so a primitive the collector
 * does not declare is recorded hostOnly and replays on the host on
 * every platform, exactly like a sub-threshold copy.
 *
 * bench/collector_zoo closes the loop: it derives the *observed* set
 * from a recorded trace and diffs it against the declaration, which
 * is how the computed Table 1 is produced (and how
 * tests/test_capability.cc keeps declarations honest).
 */

#ifndef CHARON_GC_CAPABILITY_HH
#define CHARON_GC_CAPABILITY_HH

#include <cstdint>

#include "gc/trace.hh"

namespace charon::gc
{

/** Bit for @p kind in a capability mask. */
constexpr std::uint32_t
primBit(PrimKind kind)
{
    return 1u << static_cast<unsigned>(kind);
}

/** Mask with every primitive set. */
constexpr std::uint32_t kAllPrimsMask = (1u << kNumPrimKinds) - 1;

/**
 * What one collector can hand to Charon, and which metadata
 * structures it keeps.
 */
struct CapabilitySet
{
    /** OR of primBit(kind) for each offloadable primitive. */
    std::uint32_t primMask = 0;
    /** Maintains a card table (generational write barrier). */
    bool hasCardTable = false;
    /** Maintains mark bitmaps (mark phase or sweep metadata). */
    bool hasMarkBitmap = false;

    constexpr bool canOffload(PrimKind kind) const
    {
        return (primMask & primBit(kind)) != 0;
    }

    constexpr bool empty() const { return primMask == 0; }

    /** The fully-capable set (ParallelScavenge-era default). */
    static constexpr CapabilitySet all()
    {
        return CapabilitySet{kAllPrimsMask, true, true};
    }

    /** No offload at all: every record degrades to the host path. */
    static constexpr CapabilitySet none()
    {
        return CapabilitySet{0, false, false};
    }

    bool operator==(const CapabilitySet &o) const
    {
        return primMask == o.primMask && hasCardTable == o.hasCardTable
               && hasMarkBitmap == o.hasMarkBitmap;
    }
    bool operator!=(const CapabilitySet &o) const { return !(*this == o); }
};

} // namespace charon::gc

#endif // CHARON_GC_CAPABILITY_HH
