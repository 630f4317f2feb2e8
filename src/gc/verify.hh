/**
 * @file
 * Functional GC verification: a canonical fingerprint of the live
 * object graph that must be invariant across any correct collection.
 *
 * The fingerprint assigns BFS discovery ids from the roots (root
 * order, then slot order) and hashes, per object, its klass, size,
 * non-reference payload, and the discovery ids of its referents.  Two
 * heaps have equal fingerprints iff the reachable graphs are
 * isomorphic under the root-preserving mapping and all payload bytes
 * survived — exactly what a moving collector must preserve.
 */

#ifndef CHARON_GC_VERIFY_HH
#define CHARON_GC_VERIFY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "heap/heap.hh"

namespace charon::gc
{

/** Summary of the reachable subgraph. */
struct GraphFingerprint
{
    std::uint64_t hash = 0;
    std::uint64_t objects = 0;
    std::uint64_t bytes = 0;
    std::uint64_t edges = 0;

    bool
    operator==(const GraphFingerprint &o) const
    {
        return hash == o.hash && objects == o.objects && bytes == o.bytes
               && edges == o.edges;
    }
};

/** Fingerprint everything reachable from the roots of any heap
 *  shape. */
GraphFingerprint fingerprintGraph(const heap::ObjectHeap &heap);

/**
 * Structural invariants that must hold after any GC: every root and
 * every reference in a live object points to a live, well-formed
 * object; panics with a diagnostic otherwise.
 */
void checkHeapIntegrity(const heap::ManagedHeap &heap);

/**
 * Non-panicking audit result for the GC metadata verifiers below.
 * Findings are human-readable diagnostics, capped at kMaxFindings
 * (the total count keeps climbing past the cap).
 */
struct MetadataVerifyReport
{
    static constexpr std::size_t kMaxFindings = 16;

    std::uint64_t checked = 0;  ///< entries examined
    std::uint64_t corrupt = 0;  ///< invariant violations found
    std::vector<std::string> findings;

    bool ok() const { return corrupt == 0; }
    void note(std::string finding);
    std::string str() const;
};

/**
 * Audit the card table: every byte must be exactly kClean or kDirty
 * (any single-bit flip of either encoding yields an invalid byte),
 * and every old-generation reference into the young generation must
 * sit on a dirty card.  Never panics — used to detect injected
 * corruption.
 */
MetadataVerifyReport verifyCardTable(const heap::ManagedHeap &heap);

/**
 * Rebuild the begin/end mark bitmaps from the ground-truth object
 * layout: clears both maps, then sets the begin bit of every
 * allocated object and the end bit of its last word.  Gives the
 * bitmap verifier (and fault-injection tests) a consistent baseline
 * without running a full collection.
 */
void populateMarkBitmaps(heap::ManagedHeap &heap);

/**
 * Audit the begin/end mark bitmaps against the object layout: each
 * begin bit must start a well-formed allocated object whose end bit
 * is set at begin + sizeWords - 1, no end bit may lack its begin bit,
 * and the two maps must carry equal counts.  Never panics.
 */
MetadataVerifyReport verifyMarkBitmaps(const heap::ManagedHeap &heap);

} // namespace charon::gc

#endif // CHARON_GC_VERIFY_HH
