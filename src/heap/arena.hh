/**
 * @file
 * The object model over a flat backing arena, shared by every heap
 * organization in the repository (the HotSpot-style generational
 * ManagedHeap and the region-based G1Heap).
 *
 * An ObjectArena owns the bytes of a virtual-address range and knows
 * how to read objects laid out in it: the two-word header (klass id +
 * size, mark word), reference slots per klass kind, array lengths,
 * ages and forwarding pointers.  Heap organizations add spaces and
 * allocation policy on top.
 *
 * The bytes live in a demand-zero anonymous mapping advised for
 * transparent huge pages, as the paper backs its heap with huge pages:
 * a page costs host memory only once the mutator or a collector
 * touches it, and every byte reads zero until it is first written.
 */

#ifndef CHARON_HEAP_ARENA_HH
#define CHARON_HEAP_ARENA_HH

#include <cstdint>

#include "heap/klass.hh"
#include "mem/addr.hh"

namespace charon::heap
{

/**
 * Flat arena plus object accessors.
 */
class ObjectArena
{
  public:
    /**
     * @param base first VA of the arena
     * @param bytes arena size
     * @param klasses class table (must outlive the arena)
     */
    ObjectArena(mem::Addr base, std::uint64_t bytes,
                const KlassTable &klasses);
    ~ObjectArena();

    /** Owns its mapping: neither copyable nor movable. */
    ObjectArena(const ObjectArena &) = delete;
    ObjectArena &operator=(const ObjectArena &) = delete;

    mem::Addr base() const { return base_; }
    std::uint64_t bytes() const { return bytes_; }
    mem::Addr limit() const { return base_ + bytes_; }
    const KlassTable &klasses() const { return klasses_; }

    /** True when @p addr lies inside the arena. */
    bool
    contains(mem::Addr addr) const
    {
        return addr >= base_ && addr < base_ + bytes_;
    }

    /** Host bytes of the arena's storage now resident in memory. */
    std::uint64_t residentBytes() const;

    // ------------------------------------------------------------------
    // Raw access: every byte of an access must lie inside the arena.

    std::uint64_t load64(mem::Addr addr) const;
    void store64(mem::Addr addr, std::uint64_t value);

    /** memmove inside the arena (leftward overlaps are safe). */
    void copyBytes(mem::Addr dst, mem::Addr src, std::uint64_t bytes);

    // ------------------------------------------------------------------
    // Object layout

    /** Words an object of @p klass with @p array_len occupies. */
    std::uint64_t sizeWordsFor(KlassId klass,
                               std::uint64_t array_len) const;

    /** Write a fresh header (and null refs / length) at @p obj. */
    void writeHeader(mem::Addr obj, KlassId klass,
                     std::uint64_t size_words, std::uint64_t array_len);

    KlassId klassOf(mem::Addr obj) const;
    std::uint64_t sizeWords(mem::Addr obj) const;
    std::uint64_t sizeBytes(mem::Addr obj) const
    {
        return sizeWords(obj) * 8;
    }
    std::uint64_t arrayLength(mem::Addr obj) const;
    std::uint64_t refCount(mem::Addr obj) const;
    mem::Addr refSlotAddr(mem::Addr obj, std::uint64_t i) const;
    mem::Addr refAt(mem::Addr obj, std::uint64_t i) const;
    void setRef(mem::Addr obj, std::uint64_t i, mem::Addr target);

    // ------------------------------------------------------------------
    // Mark word: age + forwarding

    int age(mem::Addr obj) const;
    void setAge(mem::Addr obj, int age);
    bool isForwarded(mem::Addr obj) const;
    mem::Addr forwardee(mem::Addr obj) const;
    void setForwarding(mem::Addr obj, mem::Addr to);
    /** Drop the forwarding mark, keeping the age bits. */
    void clearForwarding(mem::Addr obj);

  private:
    /** Host pointer to [addr, addr + len), which must be in bounds. */
    std::uint8_t *raw(mem::Addr addr, std::uint64_t len);
    const std::uint8_t *raw(mem::Addr addr, std::uint64_t len) const;

    mem::Addr base_;
    std::uint64_t bytes_;
    const KlassTable &klasses_;
    /** Mapping length: bytes_ rounded up to a whole huge page. */
    std::uint64_t mapBytes_;
    std::uint8_t *data_;
};

} // namespace charon::heap

#endif // CHARON_HEAP_ARENA_HH
