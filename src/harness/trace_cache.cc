#include "trace_cache.hh"

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "gc/trace_io.hh"
#include "harness/atomic_publish.hh"
#include "sim/logging.hh"

namespace charon::harness
{

namespace
{

constexpr char kCacheMagic[8] = {'C', 'H', 'R', 'N', 'C', 'A', 'C', 'H'};

/** FNV-1a, for the key-to-file-name mapping only (not integrity). */
std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 1469598103934665603ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

void
writeHeader(std::ostream &os, const FunctionalKey &key)
{
    using namespace gc::io;
    os.write(kCacheMagic, sizeof(kCacheMagic));
    putU64(os, gc::kTraceFormatVersion);
    putString(os, key.workload);
    putU64(os, static_cast<std::uint64_t>(key.collector));
    putU64(os, key.heapBytes);
    putU64(os, key.seed);
    putU64(os, static_cast<std::uint64_t>(key.gcThreads));
    putU64(os, static_cast<std::uint64_t>(key.numCubes));
    putU64(os, key.copyOffloadThreshold);
}

bool
readHeader(std::istream &is, const FunctionalKey &key)
{
    using namespace gc::io;
    char magic[8];
    if (!is.read(magic, sizeof(magic))
        || std::memcmp(magic, kCacheMagic, sizeof(magic)) != 0) {
        return false;
    }
    std::uint64_t version, collector, heap, seed, threads, cubes,
        copy_thr;
    std::string workload;
    if (!getU64(is, version) || version != gc::kTraceFormatVersion)
        return false;
    if (!getString(is, workload) || !getU64(is, collector)
        || !getU64(is, heap) || !getU64(is, seed)
        || !getU64(is, threads) || !getU64(is, cubes)
        || !getU64(is, copy_thr)) {
        return false;
    }
    // A hash collision or a manually renamed file: the stored key must
    // equal the requested one field-for-field.
    return workload == key.workload
           && collector == static_cast<std::uint64_t>(key.collector)
           && heap == key.heapBytes && seed == key.seed
           && threads == static_cast<std::uint64_t>(key.gcThreads)
           && cubes == static_cast<std::uint64_t>(key.numCubes)
           && copy_thr == key.copyOffloadThreshold;
}

} // namespace

void
writeFunctionalRun(std::ostream &os, const FunctionalRun &run)
{
    using namespace gc::io;
    putU64(os, static_cast<std::uint64_t>(run.cubeShift));
    putU64(os, run.oom ? 1 : 0);
    putU64(os, run.gcsMinor);
    putU64(os, run.gcsMajor);
    putU64(os, run.markCycles);
    putU64(os, run.allocatedBytes);
    putU64(os, run.mutatorInstructions);
    gc::writeTrace(os, run.trace);
}

bool
readFunctionalRun(std::istream &is, FunctionalRun &run)
{
    using namespace gc::io;
    std::uint64_t cube_shift, oom;
    if (!getU64(is, cube_shift) || !getU64(is, oom)
        || !getU64(is, run.gcsMinor) || !getU64(is, run.gcsMajor)
        || !getU64(is, run.markCycles) || !getU64(is, run.allocatedBytes)
        || !getU64(is, run.mutatorInstructions)) {
        return false;
    }
    run.cubeShift = static_cast<int>(cube_shift);
    run.oom = oom != 0;
    std::string error;
    return gc::readTrace(is, run.trace, &error);
}

TraceCache::TraceCache(std::string dir) : dir_(std::move(dir)) {}

std::string
TraceCache::path(const FunctionalKey &key) const
{
    std::ostringstream name;
    name << key.workload << '-' << gc::collectorToken(key.collector)
         << '-'
         << std::hex
         << fnv1a(key.str() + "/v"
                  + std::to_string(gc::kTraceFormatVersion))
         << ".trace";
    return (std::filesystem::path(dir_.empty() ? "." : dir_)
            / name.str())
        .string();
}

bool
TraceCache::load(const FunctionalKey &key, FunctionalRun &out) const
{
    if (!enabled())
        return false;
    std::ifstream is(path(key), std::ios::binary);
    if (!is)
        return false;
    FunctionalRun run;
    if (!readHeader(is, key) || !readFunctionalRun(is, run))
        return false;
    out = std::move(run);
    return true;
}

bool
TraceCache::store(const FunctionalKey &key, const FunctionalRun &run) const
{
    if (!enabled())
        return false;
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec) {
        sim::warn("trace cache: cannot create %s: %s", dir_.c_str(),
                  ec.message().c_str());
        return false;
    }
    std::ostringstream os(std::ios::binary);
    writeHeader(os, key);
    writeFunctionalRun(os, run);
    // A crash or power cut must not publish an entry whose bytes
    // never hit the disk: the loader would reject it, but only after
    // a wasted read; worse, a torn page could alias another key's
    // hash name.
    std::string error;
    if (!atomicPublish(path(key), os.view(), &error)) {
        sim::warn("trace cache: %s", error.c_str());
        return false;
    }
    return true;
}

std::string
TraceCache::defaultDir()
{
    if (const char *env = std::getenv("CHARON_CACHE_DIR"))
        return env;
    if (const char *xdg = std::getenv("XDG_CACHE_HOME")) {
        return (std::filesystem::path(xdg) / "charon-traces").string();
    }
    if (const char *home = std::getenv("HOME")) {
        return (std::filesystem::path(home) / ".cache"
                / "charon-traces")
            .string();
    }
    return ".charon-trace-cache";
}

} // namespace charon::harness
