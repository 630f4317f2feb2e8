/**
 * @file
 * Exact gtest comparators for replay results: every RunTiming field,
 * every collection's unit-seconds, and every roll-up cell (the only
 * record of thread time), with no tolerance.  Shared by the replay
 * determinism check and the crash-isolated runner's in-process
 * equivalence test.
 */

#ifndef CHARON_TESTS_TIMING_EQ_HH
#define CHARON_TESTS_TIMING_EQ_HH

#include <gtest/gtest.h>

#include <string>

#include "gc/rollup.hh"
#include "platform/results.hh"

namespace charon::test
{

inline void
expectTimingEq(const platform::RunTiming &a,
               const platform::RunTiming &b)
{
    EXPECT_EQ(a.platform, b.platform);
    EXPECT_EQ(a.gcSeconds, b.gcSeconds);
    EXPECT_EQ(a.minorSeconds, b.minorSeconds);
    EXPECT_EQ(a.majorSeconds, b.majorSeconds);
    EXPECT_EQ(a.mutatorSeconds, b.mutatorSeconds);
    EXPECT_EQ(a.dramBytes, b.dramBytes);
    EXPECT_EQ(a.avgGcBandwidthGBs, b.avgGcBandwidthGBs);
    EXPECT_EQ(a.localAccessFraction, b.localAccessFraction);
    EXPECT_EQ(a.hostEnergyJ, b.hostEnergyJ);
    EXPECT_EQ(a.dramEnergyJ, b.dramEnergyJ);
    EXPECT_EQ(a.unitEnergyJ, b.unitEnergyJ);
    ASSERT_EQ(a.gcs.size(), b.gcs.size());
    for (std::size_t i = 0; i < a.gcs.size(); ++i) {
        SCOPED_TRACE("gc " + std::to_string(i));
        EXPECT_EQ(a.gcs[i].major, b.gcs[i].major);
        EXPECT_EQ(a.gcs[i].seconds, b.gcs[i].seconds);
        EXPECT_EQ(a.gcs[i].unitSeconds, b.gcs[i].unitSeconds);
    }
    EXPECT_TRUE(gc::rollupEquals(a.rollup(), b.rollup()));
}

} // namespace charon::test

#endif // CHARON_TESTS_TIMING_EQ_HH
