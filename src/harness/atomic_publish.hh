/**
 * @file
 * Crash-safe file output shared by the trace cache, the DSE journal,
 * and the forked workers' result pipes.
 */

#ifndef CHARON_HARNESS_ATOMIC_PUBLISH_HH
#define CHARON_HARNESS_ATOMIC_PUBLISH_HH

#include <cstddef>
#include <string>
#include <string_view>

namespace charon::harness
{

/**
 * write(2) all @p size bytes of @p data to @p fd, retrying on EINTR
 * and short writes.  Returns false, with errno set, on any other
 * error.
 */
bool writeAll(int fd, const char *data, std::size_t size);

/**
 * Replace the file at @p path with @p bytes so that readers, and a
 * crash at any point, see either the old file or the complete new
 * one: never a torn mixture, and never an entry whose bytes did not
 * reach the disk.
 *
 * Writes a temp file beside @p path (unique per process and call, so
 * concurrent publishers of one path race benignly: the last rename
 * wins), fsyncs it, renames it over @p path, then fsyncs the
 * directory so the rename itself is durable.  A failed write or
 * fsync of the temp file aborts the publish; the directory fsync is
 * best effort, because the new file is already in place by then.
 *
 * @return false on failure, with @p path untouched, no temp file
 *         left behind, and @p error (when non-null) naming @p path
 *         and the step that failed.
 */
bool atomicPublish(const std::string &path, std::string_view bytes,
                   std::string *error);

} // namespace charon::harness

#endif // CHARON_HARNESS_ATOMIC_PUBLISH_HH
