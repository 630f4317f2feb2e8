/**
 * @file
 * Tests for the summary statistics: quantiles and the geometric mean.
 */

#include <gtest/gtest.h>

#include <limits>

#include "sim/stats.hh"

using namespace charon::sim;

TEST(Geomean, MatchesHandComputation)
{
    EXPECT_NEAR(geomean({2.0, 8.0}), 4.0, 1e-9);
    EXPECT_NEAR(geomean({1.0, 1.0, 1.0}), 1.0, 1e-9);
}

TEST(Geomean, IgnoresNonPositive)
{
    EXPECT_NEAR(geomean({2.0, 8.0, 0.0, -3.0}), 4.0, 1e-9);
}

TEST(Geomean, EmptyIsZero)
{
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
}

TEST(QuantileAccumulator, ExactNearestRank)
{
    QuantileAccumulator q;
    // 1..100 in scrambled insertion order: quantiles must not depend
    // on how samples arrived.
    for (int v = 100; v >= 1; --v)
        q.add(v);
    EXPECT_EQ(q.count(), 100u);
    EXPECT_DOUBLE_EQ(q.quantile(0.5), 50.0);
    EXPECT_DOUBLE_EQ(q.quantile(0.99), 99.0);
    EXPECT_DOUBLE_EQ(q.quantile(0.999), 100.0);
    EXPECT_DOUBLE_EQ(q.quantile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(q.quantile(1.0), 100.0);
    EXPECT_DOUBLE_EQ(q.min(), 1.0);
    EXPECT_DOUBLE_EQ(q.max(), 100.0);
    EXPECT_DOUBLE_EQ(q.mean(), 50.5);
}

TEST(QuantileAccumulator, EmptyIsZeroNotNaN)
{
    QuantileAccumulator q;
    EXPECT_EQ(q.count(), 0u);
    EXPECT_DOUBLE_EQ(q.quantile(0.5), 0.0);
    EXPECT_DOUBLE_EQ(q.mean(), 0.0);
    EXPECT_DOUBLE_EQ(q.min(), 0.0);
    EXPECT_DOUBLE_EQ(q.max(), 0.0);
}

TEST(QuantileAccumulator, SingleSampleIsEveryQuantile)
{
    QuantileAccumulator q;
    q.add(42.0);
    EXPECT_DOUBLE_EQ(q.quantile(0.0), 42.0);
    EXPECT_DOUBLE_EQ(q.quantile(0.5), 42.0);
    EXPECT_DOUBLE_EQ(q.quantile(0.999), 42.0);
}

TEST(QuantileAccumulator, StreamingAfterQuantileRead)
{
    // add() after a quantile() read must invalidate the sorted view.
    QuantileAccumulator q;
    q.add(10.0);
    q.add(20.0);
    EXPECT_DOUBLE_EQ(q.quantile(1.0), 20.0);
    q.add(30.0);
    EXPECT_DOUBLE_EQ(q.quantile(1.0), 30.0);
    EXPECT_DOUBLE_EQ(q.quantile(0.5), 20.0);
}

TEST(QuantileAccumulator, DeterministicMerge)
{
    // Merging per-tenant accumulators in tenant order must equal the
    // single-accumulator result, whatever order the samples were
    // produced in.
    QuantileAccumulator a, b, merged, direct;
    for (int v = 0; v < 50; ++v) {
        a.add(v * 3 % 101);
        direct.add(v * 3 % 101);
    }
    for (int v = 0; v < 50; ++v) {
        b.add(v * 7 % 89);
        direct.add(v * 7 % 89);
    }
    merged.merge(a);
    merged.merge(b);
    EXPECT_EQ(merged.count(), direct.count());
    for (double p : {0.0, 0.5, 0.9, 0.99, 0.999, 1.0})
        EXPECT_DOUBLE_EQ(merged.quantile(p), direct.quantile(p))
            << "at q=" << p;
    // And the sample *sequence* is the concatenation, so a second
    // merge pass over the merged accumulator reproduces it exactly.
    EXPECT_EQ(merged.samples().size(), 100u);
    EXPECT_DOUBLE_EQ(merged.samples()[0], a.samples()[0]);
    EXPECT_DOUBLE_EQ(merged.samples()[50], b.samples()[0]);
}

TEST(QuantileAccumulator, ResetClears)
{
    QuantileAccumulator q;
    q.add(1.0);
    q.add(2.0);
    q.reset();
    EXPECT_EQ(q.count(), 0u);
    EXPECT_DOUBLE_EQ(q.quantile(0.5), 0.0);
}

TEST(Geomean, SkipsNonFiniteEntries)
{
    // A zero-GC cell upstream produces inf (or NaN) speedups; the
    // aggregate must survive them instead of reporting inf.
    std::vector<double> vals = {2.0, 8.0,
                                std::numeric_limits<double>::infinity(),
                                std::numeric_limits<double>::quiet_NaN(),
                                -1.0, 0.0};
    EXPECT_DOUBLE_EQ(geomean(vals), 4.0);
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
}
