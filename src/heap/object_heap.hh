/**
 * @file
 * ObjectHeap: what every heap shape shares — the ObjectArena holding
 * the objects, the root set, the VA span, and the object-access
 * forwards onto the arena.
 *
 * The mutator drives a heap only through this surface: it reads
 * objects, edits the roots, and stores references.  The one virtual
 * is that store, because its post-write barrier is the shape's own:
 * a card mark on the generational ManagedHeap, a remembered-set
 * insert on the region-based G1Heap.  Allocation and collection go
 * through the collector (gc::CollectorIface), which knows the shape.
 */

#ifndef CHARON_HEAP_OBJECT_HEAP_HH
#define CHARON_HEAP_OBJECT_HEAP_HH

#include <cstdint>
#include <vector>

#include "heap/arena.hh"
#include "heap/klass.hh"
#include "mem/addr.hh"
#include "sim/logging.hh"

namespace charon::heap
{

/**
 * The base of ManagedHeap and G1Heap.
 */
class ObjectHeap
{
  public:
    virtual ~ObjectHeap() = default;
    ObjectHeap(const ObjectHeap &) = delete;
    ObjectHeap &operator=(const ObjectHeap &) = delete;

    const KlassTable &klasses() const { return arena_.klasses(); }
    /** The underlying object model. */
    ObjectArena &arena() { return arena_; }
    const ObjectArena &arena() const { return arena_; }

    mem::Addr base() const { return arena_.base(); }
    std::uint64_t heapBytes() const { return arena_.bytes(); }
    /** Heap plus its metadata (bitmaps, card table): total VA span. */
    mem::Addr vaLimit() const { return vaLimit_; }

    /** Root set (simulated stack + globals); owned by the mutator. */
    std::vector<mem::Addr> &roots() { return roots_; }
    const std::vector<mem::Addr> &roots() const { return roots_; }

    // ------------------------------------------------------------------
    // Object access

    /** Size in words an object of @p klass with @p array_len needs. */
    std::uint64_t
    sizeWordsFor(KlassId klass, std::uint64_t array_len) const
    {
        return arena_.sizeWordsFor(klass, array_len);
    }
    KlassId klassOf(mem::Addr obj) const { return arena_.klassOf(obj); }
    std::uint64_t sizeWords(mem::Addr obj) const
    {
        return arena_.sizeWords(obj);
    }
    std::uint64_t sizeBytes(mem::Addr obj) const
    {
        return arena_.sizeWords(obj) * 8;
    }
    /** Array length (array klasses only). */
    std::uint64_t arrayLength(mem::Addr obj) const
    {
        return arena_.arrayLength(obj);
    }
    /** Number of reference slots in @p obj. */
    std::uint64_t refCount(mem::Addr obj) const
    {
        return arena_.refCount(obj);
    }
    /** VA of reference slot @p i of @p obj. */
    mem::Addr refSlotAddr(mem::Addr obj, std::uint64_t i) const
    {
        return arena_.refSlotAddr(obj, i);
    }
    /** Read reference slot @p i. */
    mem::Addr refAt(mem::Addr obj, std::uint64_t i) const
    {
        return arena_.refAt(obj, i);
    }

    /**
     * Mutator reference store: writes slot @p i of @p obj and runs
     * the shape's post-write barrier.
     */
    virtual void storeRef(mem::Addr obj, std::uint64_t i,
                          mem::Addr target) = 0;

    /** GC-internal slot write: no barrier. */
    void setRefRaw(mem::Addr obj, std::uint64_t i, mem::Addr target)
    {
        arena_.setRef(obj, i, target);
    }

    /** Raw 64-bit load/store at a heap VA (slots, payload). */
    std::uint64_t load64(mem::Addr addr) const
    {
        return arena_.load64(addr);
    }
    void store64(mem::Addr addr, std::uint64_t value)
    {
        arena_.store64(addr, value);
    }

    /**
     * Move @p bytes from @p src to @p dst inside the heap
     * (memmove semantics: overlapping leftward moves are safe).
     */
    void copyObjectBytes(mem::Addr dst, mem::Addr src, std::uint64_t bytes)
    {
        arena_.copyBytes(dst, src, bytes);
    }

    // ------------------------------------------------------------------
    // Mark word: age and forwarding

    int age(mem::Addr obj) const { return arena_.age(obj); }
    void setAge(mem::Addr obj, int age) { arena_.setAge(obj, age); }
    bool isForwarded(mem::Addr obj) const
    {
        return arena_.isForwarded(obj);
    }
    mem::Addr forwardee(mem::Addr obj) const
    {
        return arena_.forwardee(obj);
    }
    void setForwarding(mem::Addr obj, mem::Addr to)
    {
        arena_.setForwarding(obj, to);
    }
    void clearForwarding(mem::Addr obj) { arena_.clearForwarding(obj); }

  protected:
    ObjectHeap(mem::Addr base, std::uint64_t heap_bytes,
               const KlassTable &klasses)
        : arena_(base, heap_bytes, klasses)
    {
    }

    ObjectArena arena_;
    /** Set by the shape once it has laid out its metadata. */
    mem::Addr vaLimit_ = 0;

  private:
    std::vector<mem::Addr> roots_;
};

/** @p heap as shape @p HeapT; panics when it is another shape. */
template <typename HeapT>
HeapT &
heapAs(ObjectHeap &heap)
{
    auto *shaped = dynamic_cast<HeapT *>(&heap);
    CHARON_ASSERT(shaped != nullptr, "heap is of another shape");
    return *shaped;
}

} // namespace charon::heap

#endif // CHARON_HEAP_OBJECT_HEAP_HH
