/**
 * @file
 * Class metadata (Klass) model.
 *
 * HotSpot distinguishes 15 class-metadata layouts, each with its own
 * field-iteration strategy (Section 4.4 of the paper: "there are 15
 * different class metadata types in HotSpot JVM ... which ha[ve]
 * distinct class metadata layout[s]").  Charon's Scan&Push unit
 * implements iteration for the dominant data-class kinds and leaves
 * the rare metadata kinds to the host; we reproduce exactly that
 * split via Klass::acceleratable().
 */

#ifndef CHARON_HEAP_KLASS_HH
#define CHARON_HEAP_KLASS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/logging.hh"

namespace charon::heap
{

/** The 15 class-metadata kinds, mirroring HotSpot's Klass hierarchy. */
enum class KlassKind : std::uint8_t
{
    Instance,            ///< plain Java object
    InstanceMirror,      ///< java.lang.Class instances
    InstanceClassLoader, ///< class-loader instances
    InstanceRef,         ///< soft/weak/phantom Reference subclasses
    ObjArray,            ///< arrays of references
    TypeArrayBoolean,
    TypeArrayByte,
    TypeArrayChar,
    TypeArrayShort,
    TypeArrayInt,
    TypeArrayLong,
    TypeArrayFloat,
    TypeArrayDouble,
    ConstantPool,        ///< runtime metadata blob (no heap refs)
    MethodData,          ///< profiling metadata blob (no heap refs)
};

/** Number of distinct klass kinds. */
constexpr int kNumKlassKinds = 15;

/** Printable kind name. */
const char *klassKindName(KlassKind kind);

/** True when the kind is one of the eight primitive array kinds. */
constexpr bool
isTypeArrayKind(KlassKind kind)
{
    // The eight kinds are contiguous in KlassKind.
    return kind >= KlassKind::TypeArrayBoolean
           && kind <= KlassKind::TypeArrayDouble;
}

/** Element width in bytes for a type-array kind. */
inline int
typeArrayElemBytes(KlassKind kind)
{
    switch (kind) {
      case KlassKind::TypeArrayBoolean:
      case KlassKind::TypeArrayByte:
        return 1;
      case KlassKind::TypeArrayChar:
      case KlassKind::TypeArrayShort:
        return 2;
      case KlassKind::TypeArrayInt:
      case KlassKind::TypeArrayFloat:
        return 4;
      case KlassKind::TypeArrayLong:
      case KlassKind::TypeArrayDouble:
        return 8;
      default:
        sim::panic("typeArrayElemBytes on non-array kind %s",
                   klassKindName(kind));
    }
}

/**
 * True when reference slot @p slot of a @p kind object is *weak*:
 * slot 0 of a Reference subclass holds the referent, which collectors
 * must not keep alive on its own (java.lang.ref semantics).
 */
constexpr bool
isWeakSlot(KlassKind kind, std::uint64_t slot)
{
    return kind == KlassKind::InstanceRef && slot == 0;
}

/** Identifier of a Klass within a KlassTable. */
using KlassId = std::uint32_t;

/**
 * One class descriptor.
 *
 * Instance-flavoured klasses have a fixed layout: @ref refFields
 * reference slots first, then (@ref payloadWords) non-reference
 * payload.  Array klasses size per-object from the stored length.
 */
struct Klass
{
    KlassId id = 0;
    KlassKind kind = KlassKind::Instance;
    std::string name;
    /** Reference fields (instance kinds only). */
    std::uint32_t refFields = 0;
    /** Non-reference payload words (instance kinds only). */
    std::uint32_t payloadWords = 0;

    /** Fixed total size in 8-byte words for instance-flavoured kinds. */
    std::uint32_t
    instanceWords() const
    {
        // 2 header words + ref slots + payload.
        return 2 + refFields + payloadWords;
    }

    /** True when objects of this klass can hold references. */
    bool hasRefs() const;

    /**
     * True when Charon's Scan&Push unit knows this layout (the
     * dominant data-class kinds); the remaining kinds fall back to
     * host execution.
     */
    bool acceleratable() const;
};

/**
 * The table of all classes loaded in the simulated JVM.
 *
 * Id 0 is reserved as invalid so that a zero klass word in the heap is
 * always a corruption, never a valid object.
 */
class KlassTable
{
  public:
    KlassTable();

    /** Register an instance-flavoured class; returns its id. */
    KlassId defineInstance(std::string name, std::uint32_t ref_fields,
                           std::uint32_t payload_words,
                           KlassKind kind = KlassKind::Instance);

    /** Register an array or metadata class of the given kind. */
    KlassId define(std::string name, KlassKind kind);

    /** Class @p id (inline: every object access looks one up). */
    const Klass &
    get(KlassId id) const
    {
        CHARON_ASSERT(id > 0 && id < klasses_.size(), "bad klass id %u",
                      id);
        return klasses_[id];
    }

    std::size_t size() const { return klasses_.size(); }

    /** Convenience ids for the always-present array klasses. */
    KlassId objArrayId() const { return objArrayId_; }
    KlassId byteArrayId() const { return byteArrayId_; }
    KlassId intArrayId() const { return intArrayId_; }
    KlassId longArrayId() const { return longArrayId_; }
    KlassId doubleArrayId() const { return doubleArrayId_; }
    /** Two-word ref-free instance used to plug sub-array-size holes. */
    KlassId fillerId() const { return fillerId_; }

  private:
    std::vector<Klass> klasses_;
    KlassId objArrayId_ = 0;
    KlassId byteArrayId_ = 0;
    KlassId intArrayId_ = 0;
    KlassId longArrayId_ = 0;
    KlassId doubleArrayId_ = 0;
    KlassId fillerId_ = 0;
};

} // namespace charon::heap

#endif // CHARON_HEAP_KLASS_HH
