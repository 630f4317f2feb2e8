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
#include <cstring>

#include "heap/klass.hh"
#include "mem/addr.hh"
#include "sim/logging.hh"

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

    /**
     * Hint the host cache line holding @p addr into the cache, as a
     * tracing loop does for an object header it will read soon;
     * nothing for an address outside the arena (null included).
     */
    void
    prefetch(mem::Addr addr) const
    {
        if (contains(addr))
            __builtin_prefetch(data_ + (addr - base_));
    }

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

    /**
     * The mark word's forwarding-address field (bits 8..63), free
     * storage for a collector that never forwards.  Writing it
     * zeroes bits 0..7, so the object reads unforwarded and age 0.
     */
    std::uint64_t markPayload(mem::Addr obj) const;
    void setMarkPayload(mem::Addr obj, std::uint64_t payload);

  private:
    // Mark-word encoding: bit 0 = forwarded, bits 1..6 = age,
    // bits 8..63 = forwarding address >> 3.
    static constexpr std::uint64_t kFwdFlag = 1ull;
    static constexpr std::uint64_t kAgeShift = 1;
    static constexpr std::uint64_t kAgeMask = 0x3full << kAgeShift;
    static constexpr std::uint64_t kFwdAddrShift = 8;

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

// ----------------------------------------------------------------------
// The per-object accessors below run tens of millions of times per
// collection, so they are defined here for inlining; raw() keeps the
// bounds check on every access.

inline std::uint8_t *
ObjectArena::raw(mem::Addr addr, std::uint64_t len)
{
    // The whole access must fit: the mapping runs on past bytes_ to
    // the next huge page, so neither the kernel nor a sanitizer would
    // catch a word that straddles the limit.
    CHARON_ASSERT(addr >= base_ && len <= bytes_
                      && addr - base_ <= bytes_ - len,
                  "arena access out of bounds: 0x%llx+%llu",
                  static_cast<unsigned long long>(addr),
                  static_cast<unsigned long long>(len));
    return data_ + (addr - base_);
}

inline const std::uint8_t *
ObjectArena::raw(mem::Addr addr, std::uint64_t len) const
{
    return const_cast<ObjectArena *>(this)->raw(addr, len);
}

inline std::uint64_t
ObjectArena::load64(mem::Addr addr) const
{
    std::uint64_t v;
    std::memcpy(&v, raw(addr, 8), 8);
    return v;
}

inline void
ObjectArena::store64(mem::Addr addr, std::uint64_t value)
{
    std::memcpy(raw(addr, 8), &value, 8);
}

inline std::uint64_t
ObjectArena::sizeWordsFor(KlassId klass, std::uint64_t array_len) const
{
    const Klass &k = klasses_.get(klass);
    if (k.kind == KlassKind::ObjArray)
        return 3 + array_len;
    if (isTypeArrayKind(k.kind)) {
        return 3
               + mem::divCeil(array_len
                                  * static_cast<std::uint64_t>(
                                      typeArrayElemBytes(k.kind)),
                              8);
    }
    if (k.kind == KlassKind::ConstantPool
        || k.kind == KlassKind::MethodData) {
        return 3 + mem::divCeil(array_len, 8);
    }
    return k.instanceWords();
}

inline void
ObjectArena::writeHeader(mem::Addr obj, KlassId klass,
                         std::uint64_t size_words,
                         std::uint64_t array_len)
{
    CHARON_ASSERT(size_words >= 2, "undersized object");
    CHARON_ASSERT(size_words < (1ull << 32), "oversized object");
    store64(obj, static_cast<std::uint64_t>(klass) | (size_words << 32));
    store64(obj + 8, 0);
    const Klass &k = klasses_.get(klass);
    if (k.kind == KlassKind::ObjArray || isTypeArrayKind(k.kind)
        || k.kind == KlassKind::ConstantPool
        || k.kind == KlassKind::MethodData) {
        store64(obj + 16, array_len);
        if (k.kind == KlassKind::ObjArray) {
            for (std::uint64_t i = 0; i < array_len; ++i)
                store64(obj + 24 + i * 8, 0);
        }
    } else {
        for (std::uint64_t i = 0; i < k.refFields; ++i)
            store64(obj + 16 + i * 8, 0);
    }
}

inline KlassId
ObjectArena::klassOf(mem::Addr obj) const
{
    return static_cast<KlassId>(load64(obj) & 0xffffffffull);
}

inline std::uint64_t
ObjectArena::sizeWords(mem::Addr obj) const
{
    return load64(obj) >> 32;
}

inline std::uint64_t
ObjectArena::arrayLength(mem::Addr obj) const
{
    return load64(obj + 16);
}

inline std::uint64_t
ObjectArena::refCount(mem::Addr obj) const
{
    const Klass &k = klasses_.get(klassOf(obj));
    if (k.kind == KlassKind::ObjArray)
        return arrayLength(obj);
    switch (k.kind) {
      case KlassKind::Instance:
      case KlassKind::InstanceMirror:
      case KlassKind::InstanceClassLoader:
      case KlassKind::InstanceRef:
        return k.refFields;
      default:
        return 0;
    }
}

inline mem::Addr
ObjectArena::refSlotAddr(mem::Addr obj, std::uint64_t i) const
{
    const Klass &k = klasses_.get(klassOf(obj));
    if (k.kind == KlassKind::ObjArray)
        return obj + 24 + i * 8;
    return obj + 16 + i * 8;
}

inline mem::Addr
ObjectArena::refAt(mem::Addr obj, std::uint64_t i) const
{
    return load64(refSlotAddr(obj, i));
}

inline int
ObjectArena::age(mem::Addr obj) const
{
    return static_cast<int>((load64(obj + 8) & kAgeMask) >> kAgeShift);
}

inline void
ObjectArena::setAge(mem::Addr obj, int age)
{
    std::uint64_t mark = load64(obj + 8);
    mark = (mark & ~kAgeMask)
           | ((static_cast<std::uint64_t>(age) << kAgeShift) & kAgeMask);
    store64(obj + 8, mark);
}

inline bool
ObjectArena::isForwarded(mem::Addr obj) const
{
    return load64(obj + 8) & kFwdFlag;
}

inline mem::Addr
ObjectArena::forwardee(mem::Addr obj) const
{
    CHARON_ASSERT(isForwarded(obj), "forwardee of unforwarded object");
    return (load64(obj + 8) >> kFwdAddrShift) << 3;
}

inline void
ObjectArena::setForwarding(mem::Addr obj, mem::Addr to)
{
    CHARON_ASSERT((to & 7) == 0, "unaligned forwardee");
    std::uint64_t mark = load64(obj + 8);
    mark = (mark & kAgeMask) | kFwdFlag | ((to >> 3) << kFwdAddrShift);
    store64(obj + 8, mark);
}

inline void
ObjectArena::clearForwarding(mem::Addr obj)
{
    store64(obj + 8, load64(obj + 8) & kAgeMask);
}

inline std::uint64_t
ObjectArena::markPayload(mem::Addr obj) const
{
    return load64(obj + 8) >> kFwdAddrShift;
}

inline void
ObjectArena::setMarkPayload(mem::Addr obj, std::uint64_t payload)
{
    CHARON_ASSERT(payload >> (64 - kFwdAddrShift) == 0,
                  "mark payload 0x%llx overflows the address field",
                  static_cast<unsigned long long>(payload));
    store64(obj + 8, payload << kFwdAddrShift);
}

} // namespace charon::heap

#endif // CHARON_HEAP_ARENA_HH
