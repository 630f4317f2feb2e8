/**
 * @file
 * Content-keyed persistent cache of functional runs.
 *
 * The functional mutator run is the expensive half of every
 * experiment; its trace is deterministic in the FunctionalKey.  The
 * cache stores each run as a small keyed header (every key field,
 * plus the mutator-side outcome) followed by the standard trace_io
 * stream, under a file name derived from a hash of the key and
 * kTraceFormatVersion — so bumping the format orphans old entries
 * instead of misreading them, and a hash collision is caught by the
 * header comparison.  Corrupted or truncated files read as misses
 * and are silently regenerated.
 */

#ifndef CHARON_HARNESS_TRACE_CACHE_HH
#define CHARON_HARNESS_TRACE_CACHE_HH

#include <iosfwd>
#include <string>

#include "harness/cell.hh"

namespace charon::harness
{

class TraceCache
{
  public:
    /** @param dir cache directory; empty disables the cache. */
    explicit TraceCache(std::string dir);

    bool enabled() const { return !dir_.empty(); }
    const std::string &dir() const { return dir_; }

    /** The file a key maps to (even when the cache is disabled). */
    std::string path(const FunctionalKey &key) const;

    /**
     * Load the entry for @p key.
     * @retval false miss: absent, corrupted, version- or key-mismatched
     */
    bool load(const FunctionalKey &key, FunctionalRun &out) const;

    /**
     * Persist @p run under @p key through atomicPublish (concurrent
     * writers of the same key are safe).  Failures warn and return
     * false — a broken cache must never fail an experiment.
     */
    bool store(const FunctionalKey &key, const FunctionalRun &run) const;

    /**
     * Default directory: $CHARON_CACHE_DIR, else
     * $XDG_CACHE_HOME/charon-traces, else ~/.cache/charon-traces,
     * else ./.charon-trace-cache.
     */
    static std::string defaultDir();

  private:
    std::string dir_;
};

/**
 * A FunctionalRun's mutator-side outcome and trace in the trace_io
 * framing: the body of a cache entry, and of an isolated cell's
 * result on its pipe.  A read of a short stream fails.
 */
void writeFunctionalRun(std::ostream &os, const FunctionalRun &run);
bool readFunctionalRun(std::istream &is, FunctionalRun &run);

} // namespace charon::harness

#endif // CHARON_HARNESS_TRACE_CACHE_HH
