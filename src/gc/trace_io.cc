#include "trace_io.hh"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>

namespace charon::gc
{

namespace io
{

// --- little-endian primitives ---------------------------------------

void
putU64(std::ostream &os, std::uint64_t v)
{
    char buf[8];
    for (int i = 0; i < 8; ++i)
        buf[i] = static_cast<char>((v >> (8 * i)) & 0xff);
    os.write(buf, 8);
}

void
putF64(std::ostream &os, double v)
{
    std::uint64_t bits;
    std::memcpy(&bits, &v, 8);
    putU64(os, bits);
}

bool
getU64(std::istream &is, std::uint64_t &v)
{
    char buf[8];
    if (!is.read(buf, 8))
        return false;
    v = 0;
    for (int i = 0; i < 8; ++i) {
        v |= static_cast<std::uint64_t>(
                 static_cast<unsigned char>(buf[i]))
             << (8 * i);
    }
    return true;
}

bool
getF64(std::istream &is, double &v)
{
    std::uint64_t bits;
    if (!getU64(is, bits))
        return false;
    std::memcpy(&v, &bits, 8);
    return true;
}

void
putString(std::ostream &os, const std::string &s)
{
    putU64(os, s.size());
    os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

bool
getString(std::istream &is, std::string &s)
{
    std::uint64_t n;
    if (!getU64(is, n))
        return false;
    // Cap so a corrupted length cannot trigger a huge allocation.
    if (n > (1u << 20))
        return false;
    s.resize(n);
    return static_cast<bool>(
        is.read(s.data(), static_cast<std::streamsize>(n)));
}

} // namespace io

namespace
{

constexpr char kMagic[8] = {'C', 'H', 'A', 'R', 'O', 'N', 'T', 'R'};

using io::getF64;
using io::putF64;

void
put64(std::ostream &os, std::uint64_t v)
{
    io::putU64(os, v);
}

bool
get64(std::istream &is, std::uint64_t &v)
{
    return io::getU64(is, v);
}

// LEB128 varints: the body of the v3 format.  Counters in a trace are
// overwhelmingly small, so most values take one byte instead of eight.

void
putVar(std::ostream &os, std::uint64_t v)
{
    char buf[10];
    int n = 0;
    while (v >= 0x80) {
        buf[n++] = static_cast<char>((v & 0x7f) | 0x80);
        v >>= 7;
    }
    buf[n++] = static_cast<char>(v);
    os.write(buf, n);
}

/**
 * One byte straight from the stream buffer: istream::get() would
 * build a sentry for every byte of the body.  At end of input it sets
 * eofbit | failbit, as get() does.
 */
int
getByte(std::istream &is)
{
    const int c = is.rdbuf()->sbumpc();
    if (c == std::char_traits<char>::eof())
        is.setstate(std::ios::eofbit | std::ios::failbit);
    return c;
}

bool
getVar(std::istream &is, std::uint64_t &v)
{
    v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
        int c = getByte(is);
        if (c == std::char_traits<char>::eof())
            return false;
        // The tenth byte holds only bit 63: a continuation flag or
        // any higher value bit would encode past 64 bits, which the
        // writer never produces — corrupt input, not a wide value.
        if (shift == 63 && (c & 0xfe) != 0)
            return false;
        v |= static_cast<std::uint64_t>(c & 0x7f) << shift;
        if ((c & 0x80) == 0)
            return true;
    }
    return false; // over-long encoding
}

/**
 * Ceiling on every element count the decoder honors (collections,
 * phases, threads, buckets, mutator segments).  Real traces sit
 * orders of magnitude below it; a corrupted count above it would
 * otherwise turn one flipped byte into a multi-gigabyte resize.
 */
constexpr std::uint64_t kMaxElementCount = 1u << 24;

/** Read a varint that sizes a container: bounded, never trusted. */
bool
getCount(std::istream &is, std::uint64_t &v,
         std::uint64_t cap = kMaxElementCount)
{
    return getVar(is, v) && v <= cap;
}

/** Write a whole u64 column, varint-packed. */
void
putColumn(std::ostream &os, const std::vector<std::uint64_t> &col)
{
    for (auto v : col)
        putVar(os, v);
}

bool
getColumn(std::istream &is, std::vector<std::uint64_t> &col,
          std::size_t n)
{
    col.resize(n);
    for (auto &v : col) {
        if (!getVar(is, v))
            return false;
    }
    return true;
}

void
putColumns(std::ostream &os, const BucketColumns &c)
{
    for (auto k : c.kind)
        os.put(static_cast<char>(k));
    for (auto v : c.srcCube)
        putVar(os, static_cast<std::uint64_t>(v));
    for (auto v : c.dstCube)
        putVar(os, static_cast<std::uint64_t>(v));
    for (auto v : c.hostOnly)
        os.put(static_cast<char>(v));
    putColumn(os, c.invocations);
    putColumn(os, c.seqReadBytes);
    putColumn(os, c.writeBytes);
    putColumn(os, c.randomAccesses);
    putColumn(os, c.randomBytes);
    putColumn(os, c.refsVisited);
    putColumn(os, c.rangeBits);
    putColumn(os, c.bitmapRmwAccesses);
    putColumn(os, c.stackPushes);
}

bool
getColumns(std::istream &is, BucketColumns &c, std::size_t n)
{
    c.kind.resize(n);
    for (auto &k : c.kind) {
        int v = getByte(is);
        if (v == std::char_traits<char>::eof()
            || v >= kNumPrimKinds) {
            return false;
        }
        k = static_cast<PrimKind>(v);
    }
    // Cube ids are small non-negative ints; a value that does not
    // round-trip the int32 cast is corruption, not a big system.
    std::uint64_t u;
    c.srcCube.resize(n);
    for (auto &v : c.srcCube) {
        if (!getVar(is, u) || u > INT32_MAX)
            return false;
        v = static_cast<std::int32_t>(u);
    }
    c.dstCube.resize(n);
    for (auto &v : c.dstCube) {
        if (!getVar(is, u) || u > INT32_MAX)
            return false;
        v = static_cast<std::int32_t>(u);
    }
    c.hostOnly.resize(n);
    for (auto &v : c.hostOnly) {
        int b = getByte(is);
        if (b == std::char_traits<char>::eof())
            return false;
        v = static_cast<std::uint8_t>(b);
    }
    return getColumn(is, c.invocations, n)
           && getColumn(is, c.seqReadBytes, n)
           && getColumn(is, c.writeBytes, n)
           && getColumn(is, c.randomAccesses, n)
           && getColumn(is, c.randomBytes, n)
           && getColumn(is, c.refsVisited, n)
           && getColumn(is, c.rangeBits, n)
           && getColumn(is, c.bitmapRmwAccesses, n)
           && getColumn(is, c.stackPushes, n);
}

} // namespace

void
writeTrace(std::ostream &os, const RunTrace &trace)
{
    os.write(kMagic, sizeof(kMagic));
    put64(os, kTraceFormatVersion);
    putVar(os, trace.gcs.size());
    for (const auto &gc : trace.gcs) {
        putVar(os, gc.major ? 1 : 0);
        putVar(os, gc.capabilityMask);
        putVar(os, gc.liveObjects);
        putVar(os, gc.bytesCopied);
        putVar(os, gc.bytesPromoted);
        putVar(os, gc.objectsScanned);
        putVar(os, gc.refsVisited);
        putVar(os, gc.cardsSearched);
        putVar(os, gc.bitmapCountCalls);
        putVar(os, gc.phases.size());
        for (const auto &phase : gc.phases) {
            putVar(os, static_cast<std::uint64_t>(phase.kind));
            putF64(os, phase.bitmapCacheHitRate);
            putVar(os, phase.bitmapCacheWritebacks);
            putVar(os, phase.threads.size());
            // Spans: bucket counts are implicit starts (cumulative),
            // so only the count and the glue pair are stored.
            for (const auto &t : phase.threads) {
                putVar(os, t.bucketCount);
                putVar(os, t.glueInstructions);
                putVar(os, t.glueMemAccesses);
            }
            putColumns(os, phase.buckets);
        }
    }
    putVar(os, trace.mutatorInstructions.size());
    for (auto n : trace.mutatorInstructions)
        putVar(os, n);
}

bool
readTrace(std::istream &is, RunTrace &trace, std::string *error)
{
    auto fail = [&](const char *why) {
        if (error)
            *error = why;
        return false;
    };
    char magic[8];
    if (!is.read(magic, sizeof(magic))
        || std::memcmp(magic, kMagic, sizeof(magic)) != 0) {
        return fail("bad magic");
    }
    std::uint64_t version;
    if (!get64(is, version) || version != kTraceFormatVersion)
        return fail("unsupported trace version");

    trace = RunTrace{};
    std::uint64_t gcs;
    if (!getCount(is, gcs))
        return fail("truncated or oversized header");
    trace.gcs.resize(gcs);
    for (auto &gc : trace.gcs) {
        std::uint64_t major, caps, phases;
        if (!getVar(is, major) || !getVar(is, caps)
            || !getVar(is, gc.liveObjects)
            || !getVar(is, gc.bytesCopied)
            || !getVar(is, gc.bytesPromoted)
            || !getVar(is, gc.objectsScanned)
            || !getVar(is, gc.refsVisited)
            || !getVar(is, gc.cardsSearched)
            || !getVar(is, gc.bitmapCountCalls)
            || !getCount(is, phases)) {
            return fail("truncated or oversized gc record");
        }
        if (caps > UINT32_MAX)
            return fail("bad capability mask");
        gc.major = major != 0;
        gc.capabilityMask = static_cast<std::uint32_t>(caps);
        gc.phases.resize(phases);
        for (auto &phase : gc.phases) {
            std::uint64_t kind, threads;
            if (!getVar(is, kind)
                || !getF64(is, phase.bitmapCacheHitRate)
                || !getVar(is, phase.bitmapCacheWritebacks)
                || !getCount(is, threads)) {
                return fail("truncated or oversized phase record");
            }
            if (kind > static_cast<std::uint64_t>(kLastPhaseKind))
                return fail("bad phase kind");
            // The recorder only measures rates in [0, 1]; anything
            // else (including NaN from flipped exponent bits) is
            // corruption that would silently skew replay timing.
            if (!(phase.bitmapCacheHitRate >= 0.0
                  && phase.bitmapCacheHitRate <= 1.0)) {
                return fail("bad bitmap-cache hit rate");
            }
            phase.kind = static_cast<PhaseKind>(kind);
            phase.threads.resize(threads);
            std::uint64_t total_buckets = 0;
            for (auto &t : phase.threads) {
                std::uint64_t count;
                if (!getCount(is, count)
                    || !getVar(is, t.glueInstructions)
                    || !getVar(is, t.glueMemAccesses)) {
                    return fail("truncated or oversized thread record");
                }
                t.firstBucket =
                    static_cast<std::uint32_t>(total_buckets);
                t.bucketCount = static_cast<std::uint32_t>(count);
                total_buckets += count;
                if (total_buckets > kMaxElementCount)
                    return fail("oversized bucket record");
            }
            if (!getColumns(is, phase.buckets,
                            static_cast<std::size_t>(total_buckets))) {
                return fail("truncated bucket record");
            }
        }
    }
    std::uint64_t segments;
    if (!getCount(is, segments))
        return fail("truncated or oversized mutator segments");
    trace.mutatorInstructions.resize(segments);
    for (auto &n : trace.mutatorInstructions) {
        if (!getVar(is, n))
            return fail("truncated mutator segment");
    }
    return true;
}

bool
saveTraceFile(const std::string &path, const RunTrace &trace,
              std::string *error)
{
    std::ofstream os(path, std::ios::binary);
    if (!os) {
        if (error)
            *error = "cannot open " + path + " for writing";
        return false;
    }
    writeTrace(os, trace);
    if (!os) {
        if (error)
            *error = "write failure on " + path;
        return false;
    }
    return true;
}

bool
loadTraceFile(const std::string &path, RunTrace &trace,
              std::string *error)
{
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        if (error)
            *error = "cannot open " + path;
        return false;
    }
    return readTrace(is, trace, error);
}

bool
traceEquals(const RunTrace &a, const RunTrace &b)
{
    if (a.gcs.size() != b.gcs.size()
        || a.mutatorInstructions != b.mutatorInstructions) {
        return false;
    }
    for (std::size_t g = 0; g < a.gcs.size(); ++g) {
        const auto &x = a.gcs[g];
        const auto &y = b.gcs[g];
        if (x.major != y.major
            || x.capabilityMask != y.capabilityMask
            || x.liveObjects != y.liveObjects
            || x.bytesCopied != y.bytesCopied
            || x.bytesPromoted != y.bytesPromoted
            || x.objectsScanned != y.objectsScanned
            || x.refsVisited != y.refsVisited
            || x.cardsSearched != y.cardsSearched
            || x.bitmapCountCalls != y.bitmapCountCalls
            || x.phases.size() != y.phases.size()) {
            return false;
        }
        for (std::size_t p = 0; p < x.phases.size(); ++p) {
            const auto &px = x.phases[p];
            const auto &py = y.phases[p];
            if (px.kind != py.kind
                || px.bitmapCacheHitRate != py.bitmapCacheHitRate
                || px.bitmapCacheWritebacks != py.bitmapCacheWritebacks
                || px.threads.size() != py.threads.size()) {
                return false;
            }
            for (std::size_t t = 0; t < px.threads.size(); ++t) {
                const auto &tx = px.threads[t];
                const auto &ty = py.threads[t];
                if (tx.firstBucket != ty.firstBucket
                    || tx.bucketCount != ty.bucketCount
                    || tx.glueInstructions != ty.glueInstructions
                    || tx.glueMemAccesses != ty.glueMemAccesses) {
                    return false;
                }
            }
            if (px.buckets != py.buckets)
                return false;
        }
    }
    return true;
}

} // namespace charon::gc
