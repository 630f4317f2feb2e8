/**
 * @file
 * One recorded trace pinned per collector family.
 *
 * Records KM once under each family (ParallelScavenge, G1, CMS, RC),
 * at the heap `collector_zoo --smoke` gives it, and pins the FNV-1a
 * of the gc::writeTrace bytes plus the run's collection counts and
 * allocated bytes.  The zoo and figure goldens compare timings within
 * a relative 1e-6, which a reordered or re-addressed record can pass;
 * these pins cannot.  A change that means to move a trace updates the
 * pin and says why.
 *
 * The G1 pin follows libstdc++'s hash iteration: G1 walks its
 * collection set and remembered sets as std::unordered_sets, so the
 * order of pushed slots, copied objects and freed regions is the
 * bucket layout's.  The pin moves when G1 takes its walks to region
 * and address order.
 */

#include <cstdint>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "gc/trace_io.hh"
#include "harness/experiment_runner.hh"
#include "workload/catalog.hh"

using namespace charon;
using gc::CollectorModel;

namespace
{

struct Pin
{
    std::uint64_t traceFnv;
    std::uint64_t gcsMinor;
    std::uint64_t gcsMajor;
    std::uint64_t allocatedBytes;
};

std::uint64_t
fnv1a(const std::string &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

/** KM under @p collector, keyed as collector_zoo --smoke keys it. */
void
expectPinned(CollectorModel collector, std::uint64_t heap_bytes,
             const Pin &pin)
{
    harness::FunctionalKey key;
    key.workload = "KM";
    key.collector = collector;
    key.heapBytes = heap_bytes;
    auto run = harness::ExperimentRunner::executeFunctional(
        harness::ExperimentRunner::resolve(key));
    ASSERT_FALSE(run.oom);
    std::ostringstream os;
    gc::writeTrace(os, run.trace);
    EXPECT_EQ(fnv1a(os.str()), pin.traceFnv)
        << std::hex << "0x" << fnv1a(os.str());
    EXPECT_EQ(run.gcsMinor, pin.gcsMinor);
    EXPECT_EQ(run.gcsMajor, pin.gcsMajor);
    EXPECT_EQ(run.allocatedBytes, pin.allocatedBytes);
}

} // namespace

TEST(TracePin, ParallelScavenge)
{
    expectPinned(CollectorModel::ParallelScavenge, 0,
                 {0xbe94a26f54f2d7beull, 39, 2, 1498459480});
}

TEST(TracePin, G1)
{
    expectPinned(CollectorModel::G1, 0,
                 {0xc28ec145d6a7ad42ull, 42, 5, 1498459480});
}

TEST(TracePin, Cms)
{
    expectPinned(CollectorModel::Cms, 0,
                 {0x878547d2b88f2223ull, 39, 4, 1498459480});
}

TEST(TracePin, Rc)
{
    // The zoo gives RC twice the catalog heap: it keeps everything in
    // its old space.
    expectPinned(CollectorModel::Rc,
                 2 * workload::findWorkload("KM").heapBytes,
                 {0x9e4eb94631fc9f6aull, 0, 9, 1498459480});
}
