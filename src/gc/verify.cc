#include "verify.hh"

#include <deque>
#include <unordered_map>
#include <unordered_set>

#include "sim/logging.hh"

namespace charon::gc
{

using heap::Space;
using mem::Addr;

namespace
{

/** 64-bit FNV-1a step. */
std::uint64_t
fnvMix(std::uint64_t h, std::uint64_t v)
{
    h ^= v;
    h *= 0x100000001b3ull;
    return h;
}

} // namespace

GraphFingerprint
fingerprintGraph(const heap::ObjectHeap &heap)
{
    GraphFingerprint fp;
    fp.hash = 0xcbf29ce484222325ull;

    std::unordered_map<Addr, std::uint64_t> ids;
    std::deque<Addr> queue;
    auto discover = [&](Addr obj) -> std::uint64_t {
        auto [it, fresh] = ids.emplace(obj, ids.size());
        if (fresh)
            queue.push_back(obj);
        return it->second;
    };

    for (Addr root : heap.roots()) {
        if (root == 0) {
            fp.hash = fnvMix(fp.hash, ~0ull);
            continue;
        }
        fp.hash = fnvMix(fp.hash, discover(root));
    }

    while (!queue.empty()) {
        Addr obj = queue.front();
        queue.pop_front();
        ++fp.objects;
        std::uint64_t size_words = heap.sizeWords(obj);
        fp.bytes += size_words * 8;
        fp.hash = fnvMix(fp.hash, heap.klassOf(obj));
        fp.hash = fnvMix(fp.hash, size_words);

        std::uint64_t refs = heap.refCount(obj);
        fp.edges += refs;
        for (std::uint64_t i = 0; i < refs; ++i) {
            Addr t = heap.refAt(obj, i);
            fp.hash = fnvMix(fp.hash, t == 0 ? ~0ull : discover(t));
        }
        const auto &k = heap.klasses().get(heap.klassOf(obj));
        std::uint64_t payload_start_word;
        if (k.kind == heap::KlassKind::ObjArray) {
            payload_start_word = size_words;
            fp.hash = fnvMix(fp.hash, heap.arrayLength(obj));
        } else if (heap::isTypeArrayKind(k.kind)
                   || k.kind == heap::KlassKind::ConstantPool
                   || k.kind == heap::KlassKind::MethodData) {
            payload_start_word = 3;
            fp.hash = fnvMix(fp.hash, heap.arrayLength(obj));
        } else {
            payload_start_word = 2 + k.refFields;
        }
        for (std::uint64_t w = payload_start_word; w < size_words; ++w)
            fp.hash = fnvMix(fp.hash, heap.load64(obj + w * 8));
    }
    return fp;
}

void
checkHeapIntegrity(const heap::ManagedHeap &heap)
{
    std::unordered_map<Addr, bool> seen;
    std::deque<Addr> queue;
    auto visit = [&](Addr obj, Addr from) {
        CHARON_ASSERT(heap.spaceOf(obj) != Space::None,
                      "reference 0x%llx (from 0x%llx) outside all spaces",
                      static_cast<unsigned long long>(obj),
                      static_cast<unsigned long long>(from));
        Space s = heap.spaceOf(obj);
        const auto &r = heap.region(s);
        CHARON_ASSERT(obj < r.top,
                      "reference 0x%llx points above %s top",
                      static_cast<unsigned long long>(obj), spaceName(s));
        heap::KlassId kid = heap.klassOf(obj);
        CHARON_ASSERT(kid > 0 && kid < heap.klasses().size(),
                      "object 0x%llx has bad klass %u",
                      static_cast<unsigned long long>(obj), kid);
        if (!seen.emplace(obj, true).second)
            return;
        queue.push_back(obj);
    };

    for (Addr root : heap.roots()) {
        if (root != 0)
            visit(root, 0);
    }
    while (!queue.empty()) {
        Addr obj = queue.front();
        queue.pop_front();
        std::uint64_t refs = heap.refCount(obj);
        for (std::uint64_t i = 0; i < refs; ++i) {
            Addr t = heap.refAt(obj, i);
            if (t != 0)
                visit(t, obj);
        }
    }
}

void
MetadataVerifyReport::note(std::string finding)
{
    ++corrupt;
    if (findings.size() < kMaxFindings)
        findings.push_back(std::move(finding));
}

std::string
MetadataVerifyReport::str() const
{
    std::string out = sim::format(
        "%llu checked, %llu corrupt",
        static_cast<unsigned long long>(checked),
        static_cast<unsigned long long>(corrupt));
    for (const auto &f : findings)
        out += "\n  " + f;
    if (corrupt > findings.size())
        out += sim::format("\n  ... and %llu more",
                           static_cast<unsigned long long>(
                               corrupt - findings.size()));
    return out;
}

MetadataVerifyReport
verifyCardTable(const heap::ManagedHeap &heap)
{
    MetadataVerifyReport report;
    const auto &cards = heap.cardTable();

    // Encoding check: HotSpot's byte-per-card table only ever holds
    // kClean (0xFF) or kDirty (0x00), so any single-bit flip of
    // either value is provably invalid.
    for (std::uint64_t c = 0; c < cards.numCards(); ++c) {
        ++report.checked;
        std::uint8_t b = cards.rawByte(c);
        if (b != heap::CardTable::kClean && b != heap::CardTable::kDirty)
            report.note(sim::format(
                "card %llu holds invalid byte 0x%02x",
                static_cast<unsigned long long>(c), b));
    }

    // Remembered-set check: every old-to-young reference must be
    // covered by a dirty card, or the next scavenge would miss it.
    // Two barriers maintain this, at different granularities — the
    // mutator post-barrier dirties the storing object's header card,
    // the scavenge's slot-update barrier dirties the slot's card —
    // and the card scan walks whole objects from the covering object
    // of each dirty card, so either card keeps the ref visible.
    heap.forEachObject(heap::Space::Old, [&](Addr obj) {
        std::uint64_t n = heap.refCount(obj);
        std::uint64_t header_card = cards.cardIndex(obj);
        for (std::uint64_t i = 0; i < n; ++i) {
            Addr target = heap.refAt(obj, i);
            if (target == 0 || !heap.inYoung(target))
                continue;
            std::uint64_t card = cards.cardIndex(heap.refSlotAddr(obj, i));
            if (cards.rawByte(card) == heap::CardTable::kClean
                && cards.rawByte(header_card) == heap::CardTable::kClean)
                report.note(sim::format(
                    "old-to-young ref at 0x%llx with clean slot card "
                    "%llu and clean header card %llu",
                    static_cast<unsigned long long>(
                        heap.refSlotAddr(obj, i)),
                    static_cast<unsigned long long>(card),
                    static_cast<unsigned long long>(header_card)));
        }
    });
    return report;
}

void
populateMarkBitmaps(heap::ManagedHeap &heap)
{
    auto &beg = heap.begBitmap();
    auto &end = heap.endBitmap();
    beg.clearAll();
    end.clearAll();
    for (heap::Space s : {heap::Space::Old, heap::Space::Eden,
                          heap::Space::From, heap::Space::To}) {
        heap.forEachObject(s, [&](Addr obj) {
            beg.set(obj);
            end.set(obj + (heap.sizeWords(obj) - 1) * 8);
        });
    }
}

MetadataVerifyReport
verifyMarkBitmaps(const heap::ManagedHeap &heap)
{
    MetadataVerifyReport report;
    const auto &beg = heap.begBitmap();
    const auto &end = heap.endBitmap();
    const std::uint64_t limit = beg.numBits();
    std::unordered_set<std::uint64_t> expected_ends;

    for (std::uint64_t b = beg.findNextSet(0, limit); b < limit;
         b = beg.findNextSet(b + 1, limit)) {
        ++report.checked;
        Addr obj = beg.bitAddr(b);
        heap::Space s = heap.spaceOf(obj);
        if (s == heap::Space::None || obj >= heap.region(s).top) {
            report.note(sim::format(
                "begin bit %llu (0x%llx) outside any allocated space",
                static_cast<unsigned long long>(b),
                static_cast<unsigned long long>(obj)));
            continue;
        }
        heap::KlassId kid = heap.klassOf(obj);
        if (kid == 0 || kid >= heap.klasses().size()) {
            report.note(sim::format(
                "begin bit %llu (0x%llx) marks a non-object (klass %u)",
                static_cast<unsigned long long>(b),
                static_cast<unsigned long long>(obj), kid));
            continue;
        }
        std::uint64_t e = b + heap.sizeWords(obj) - 1;
        if (e >= limit) {
            report.note(sim::format(
                "begin bit %llu implies out-of-range end bit %llu",
                static_cast<unsigned long long>(b),
                static_cast<unsigned long long>(e)));
            continue;
        }
        expected_ends.insert(e);
        if (!end.testBit(e))
            report.note(sim::format(
                "object 0x%llx (begin bit %llu) missing end bit %llu",
                static_cast<unsigned long long>(obj),
                static_cast<unsigned long long>(b),
                static_cast<unsigned long long>(e)));
    }

    for (std::uint64_t e = end.findNextSet(0, limit); e < limit;
         e = end.findNextSet(e + 1, limit)) {
        ++report.checked;
        if (!expected_ends.count(e))
            report.note(sim::format(
                "orphan end bit %llu (0x%llx) without a begin bit",
                static_cast<unsigned long long>(e),
                static_cast<unsigned long long>(end.bitAddr(e))));
    }

    std::uint64_t nbeg = beg.countSet(0, limit);
    std::uint64_t nend = end.countSet(0, limit);
    if (nbeg != nend)
        report.note(sim::format(
            "bitmap population mismatch: %llu begin vs %llu end bits",
            static_cast<unsigned long long>(nbeg),
            static_cast<unsigned long long>(nend)));
    return report;
}

} // namespace charon::gc
