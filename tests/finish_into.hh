/**
 * @file
 * Test helper: a one-part completion join that records its tick, for
 * the memory layers and backends whose streams and buckets complete
 * into joins.
 */

#ifndef CHARON_TESTS_FINISH_INTO_HH
#define CHARON_TESTS_FINISH_INTO_HH

#include "sim/join.hh"

namespace charon::test
{

/** A one-part join from @p pool that stores its finish tick in @p out. */
inline sim::Join *
finishInto(sim::JoinPool &pool, sim::Tick &out)
{
    return pool.acquire(1, [&out](sim::Tick t) { out = t; });
}

} // namespace charon::test

#endif // CHARON_TESTS_FINISH_INTO_HH
