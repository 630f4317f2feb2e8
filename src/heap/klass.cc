#include "klass.hh"

#include "sim/logging.hh"

namespace charon::heap
{

const char *
klassKindName(KlassKind kind)
{
    switch (kind) {
      case KlassKind::Instance:            return "instanceKlass";
      case KlassKind::InstanceMirror:      return "instanceMirrorKlass";
      case KlassKind::InstanceClassLoader: return "instanceClassLoaderKlass";
      case KlassKind::InstanceRef:         return "instanceRefKlass";
      case KlassKind::ObjArray:            return "objArrayKlass";
      case KlassKind::TypeArrayBoolean:    return "typeArrayKlass<bool>";
      case KlassKind::TypeArrayByte:       return "typeArrayKlass<byte>";
      case KlassKind::TypeArrayChar:       return "typeArrayKlass<char>";
      case KlassKind::TypeArrayShort:      return "typeArrayKlass<short>";
      case KlassKind::TypeArrayInt:        return "typeArrayKlass<int>";
      case KlassKind::TypeArrayLong:       return "typeArrayKlass<long>";
      case KlassKind::TypeArrayFloat:      return "typeArrayKlass<float>";
      case KlassKind::TypeArrayDouble:     return "typeArrayKlass<double>";
      case KlassKind::ConstantPool:        return "constantPool";
      case KlassKind::MethodData:          return "methodData";
    }
    return "unknown";
}

bool
Klass::hasRefs() const
{
    switch (kind) {
      case KlassKind::Instance:
      case KlassKind::InstanceMirror:
      case KlassKind::InstanceClassLoader:
      case KlassKind::InstanceRef:
        return refFields > 0;
      case KlassKind::ObjArray:
        return true;
      default:
        return false;
    }
}

bool
Klass::acceleratable() const
{
    // Charon handles the dominant data-class layouts: plain instances,
    // reference arrays and primitive arrays.  Mirrors, class loaders,
    // Reference subclasses and the metadata blobs keep their special
    // host-side processing (Section 4.4).
    switch (kind) {
      case KlassKind::Instance:
      case KlassKind::ObjArray:
      case KlassKind::TypeArrayBoolean:
      case KlassKind::TypeArrayByte:
      case KlassKind::TypeArrayChar:
      case KlassKind::TypeArrayShort:
      case KlassKind::TypeArrayInt:
      case KlassKind::TypeArrayLong:
      case KlassKind::TypeArrayFloat:
      case KlassKind::TypeArrayDouble:
        return true;
      default:
        return false;
    }
}

KlassTable::KlassTable()
{
    // Reserve id 0 as invalid.
    klasses_.push_back(Klass{0, KlassKind::Instance, "<invalid>", 0, 0});
    objArrayId_ = define("Object[]", KlassKind::ObjArray);
    byteArrayId_ = define("byte[]", KlassKind::TypeArrayByte);
    intArrayId_ = define("int[]", KlassKind::TypeArrayInt);
    longArrayId_ = define("long[]", KlassKind::TypeArrayLong);
    doubleArrayId_ = define("double[]", KlassKind::TypeArrayDouble);
    fillerId_ = defineInstance("<filler>", 0, 0);
}

KlassId
KlassTable::defineInstance(std::string name, std::uint32_t ref_fields,
                           std::uint32_t payload_words, KlassKind kind)
{
    CHARON_ASSERT(kind == KlassKind::Instance
                      || kind == KlassKind::InstanceMirror
                      || kind == KlassKind::InstanceClassLoader
                      || kind == KlassKind::InstanceRef,
                  "defineInstance with non-instance kind %s",
                  klassKindName(kind));
    Klass k;
    k.id = static_cast<KlassId>(klasses_.size());
    k.kind = kind;
    k.name = std::move(name);
    k.refFields = ref_fields;
    k.payloadWords = payload_words;
    klasses_.push_back(std::move(k));
    return klasses_.back().id;
}

KlassId
KlassTable::define(std::string name, KlassKind kind)
{
    Klass k;
    k.id = static_cast<KlassId>(klasses_.size());
    k.kind = kind;
    k.name = std::move(name);
    klasses_.push_back(std::move(k));
    return klasses_.back().id;
}

} // namespace charon::heap
