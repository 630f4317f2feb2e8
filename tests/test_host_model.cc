/**
 * @file
 * Tests for the host CPU execution model: glue IPC, MLP-derived
 * stream rates, pattern asymmetries, and the compute-bound kernels.
 */

#include <gtest/gtest.h>

#include "cpu/host_model.hh"
#include "finish_into.hh"
#include "mem/ddr4.hh"
#include "sim/event_queue.hh"

using namespace charon;
using charon::sim::EventQueue;
using charon::sim::JoinPool;
using charon::sim::Tick;
using charon::test::finishInto;
using cpu::HostModel;

class HostModelTest : public ::testing::Test
{
  protected:
    EventQueue eq;
    sim::HostConfig host;
    gc::GlueCosts costs;
    mem::Ddr4Memory ddr4{eq, sim::Ddr4Config{}};
    HostModel model{eq, host, ddr4, costs};
    JoinPool joins{eq};

    Tick
    exec(const gc::Bucket &b)
    {
        Tick done = 0;
        bool fired = false;
        model.execBucket(b, 0, joins.acquire(1, [&](Tick t) {
            done = t;
            fired = true;
        }));
        EXPECT_FALSE(fired)
            << "execBucket completed synchronously (contract: the "
               "completion must come off the event queue)";
        eq.run();
        EXPECT_TRUE(fired);
        return done;
    }
};

TEST_F(HostModelTest, GlueRunsAtConfiguredIpc)
{
    // 1M instructions at IPC 0.5 on a 2.67 GHz core: ~0.75 ms.
    Tick t = model.glueTicks(1'000'000);
    EXPECT_NEAR(sim::ticksToMs(t), 0.75, 0.02);
}

TEST_F(HostModelTest, SequentialRateIsMshrLimited)
{
    // 10 MSHRs x 64 B / ~row-hit latency: tens of GB/s, below the
    // DDR4 peak but well above the dependent-miss rate.
    double seq = sim::bytesPerTickToGbPerSec(model.seqRate());
    double rnd = sim::bytesPerTickToGbPerSec(model.randomRate());
    EXPECT_GT(seq, 8.0);
    EXPECT_LT(seq, 34.0);
    EXPECT_GT(seq, 5.0 * rnd);
}

TEST_F(HostModelTest, RandomRateReflectsWindowLimit)
{
    // IW 36 / ~20 instructions per probe ~= 1.8 in-flight misses.
    sim::HostConfig tiny = host;
    tiny.instructionWindow = 18;
    HostModel narrow(eq, tiny, ddr4, costs);
    EXPECT_LT(narrow.randomRate(), model.randomRate());
}

TEST_F(HostModelTest, CopyBucketIsBandwidthBound)
{
    gc::Bucket b;
    b.kind = gc::PrimKind::Copy;
    b.invocations = 1;
    b.seqReadBytes = 8 << 20;
    b.writeBytes = 8 << 20;
    Tick done = exec(b);
    // 16 MB of traffic at the MSHR-limited rate: ~1.2-2.5 ms.
    EXPECT_GT(sim::ticksToMs(done), 0.8);
    EXPECT_LT(sim::ticksToMs(done), 3.0);
}

TEST_F(HostModelTest, ScanPushDependentProbesAreSlow)
{
    gc::Bucket b;
    b.kind = gc::PrimKind::ScanPush;
    b.invocations = 1000;
    b.seqReadBytes = 1000 * 32;
    b.randomAccesses = 4000;
    b.randomBytes = 4000 * 16;
    Tick t_scan = exec(b);

    gc::Bucket c;
    c.kind = gc::PrimKind::Copy;
    c.invocations = 1000;
    c.seqReadBytes = 1000 * 32 + 4000 * 16; // same useful bytes
    Tick copy_start = eq.now();
    Tick t_copy = 0;
    model.execBucket(c, 0, finishInto(joins, t_copy));
    eq.run();
    // Pointer chasing is far slower than streaming the same volume.
    EXPECT_GT(t_scan, 3 * (t_copy - copy_start));
}

TEST_F(HostModelTest, SearchIsComputeBoundOnLargeCleanRanges)
{
    gc::Bucket b;
    b.kind = gc::PrimKind::Search;
    b.invocations = 1;
    b.seqReadBytes = 1 << 20; // 1 MiB of card bytes
    Tick done = exec(b);
    // Compute floor: bytes x cyclesPerCardByte / freq.
    double min_ms =
        (1 << 20) * costs.cpuCyclesPerCardByte / host.freqHz * 1e3;
    EXPECT_GE(sim::ticksToMs(done) + 1e-6, min_ms);
}

TEST_F(HostModelTest, BitmapCountIsPureCompute)
{
    gc::Bucket b;
    b.kind = gc::PrimKind::BitmapCount;
    b.invocations = 1;
    b.rangeBits = 1'000'000;
    Tick done = exec(b);
    double expect_ms = 1e6 * costs.cpuCyclesPerBitmapBit / host.freqHz
                       * 1e3;
    EXPECT_NEAR(sim::ticksToMs(done), expect_ms, expect_ms * 0.05);
    // No DRAM traffic (the walked range is cache-resident).
    EXPECT_DOUBLE_EQ(ddr4.totalBytes(), 0.0);
}

TEST_F(HostModelTest, EmptyBucketCompletesImmediately)
{
    gc::Bucket b;
    b.kind = gc::PrimKind::Copy;
    b.invocations = 0;
    EXPECT_EQ(exec(b), eq.now());
}

TEST_F(HostModelTest, InvocationOverheadAccumulates)
{
    gc::Bucket one;
    one.kind = gc::PrimKind::Copy;
    one.invocations = 1;
    one.seqReadBytes = 64;
    Tick t1 = exec(one);

    EventQueue eq2;
    mem::Ddr4Memory ddr2(eq2, sim::Ddr4Config{});
    HostModel m2(eq2, host, ddr2, costs);
    JoinPool joins2(eq2);
    gc::Bucket many = one;
    many.invocations = 10000;
    many.seqReadBytes = 64 * 10000;
    Tick tn = 0;
    m2.execBucket(many, 0, finishInto(joins2, tn));
    eq2.run();
    EXPECT_GT(tn, 2000 * t1);
}
