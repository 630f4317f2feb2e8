/**
 * @file
 * Adversarial-input tests for the varint-packed trace format
 * (gc/trace_io.cc): the decoder must reject every truncation and
 * every over-long or oversized varint cleanly (false + diagnostic,
 * no crash, no unbounded allocation), survive arbitrary single-bit
 * corruption (run under ASan/UBSan in CI), and a cache entry that no
 * longer parses must degrade to a cache miss, never to garbage.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "gc/trace.hh"
#include "gc/trace_io.hh"
#include "harness/experiment_runner.hh"
#include "scratch_dir.hh"

using namespace charon;
using namespace charon::gc;

namespace
{

/** A small but structurally complete trace: every field exercised. */
RunTrace
makeTrace()
{
    RunTrace trace;
    for (int g = 0; g < 2; ++g) {
        GcTrace gct;
        gct.major = g == 1;
        gct.capabilityMask = g == 0 ? 0x3fu : 0u;
        gct.liveObjects = 1000 + g;
        gct.bytesCopied = 1 << 20;
        gct.bytesPromoted = 1 << 14;
        gct.objectsScanned = 512;
        gct.refsVisited = 2048;
        gct.cardsSearched = 64;
        gct.bitmapCountCalls = 8;
        for (int p = 0; p < 2; ++p) {
            PhaseTrace phase;
            phase.kind = static_cast<PhaseKind>(p + 3 * g);
            phase.bitmapCacheHitRate = 0.25 * (p + 1);
            phase.bitmapCacheWritebacks = 17;
            for (int t = 0; t < 2; ++t) {
                ThreadWork work;
                work.glueInstructions = 10000 + 100 * t;
                work.glueMemAccesses = 250;
                for (int bi = 0; bi < 2; ++bi) {
                    Bucket b;
                    b.kind = static_cast<PrimKind>((p + bi) % 6);
                    b.srcCube = bi;
                    b.dstCube = (bi + 1) % 4;
                    b.hostOnly = bi == 0;
                    b.invocations = 5 + bi;
                    b.seqReadBytes = 1 << 12;
                    b.writeBytes = 1 << 10;
                    b.randomAccesses = 33;
                    b.randomBytes = 33 * 16;
                    b.refsVisited = 99;
                    b.rangeBits = 1 << 13;
                    b.bitmapRmwAccesses = 21;
                    b.stackPushes = 7;
                    work.buckets.push_back(b);
                }
                phase.addThread(work);
            }
            gct.phases.push_back(std::move(phase));
        }
        trace.gcs.push_back(std::move(gct));
        trace.mutatorInstructions.push_back(123456 + g);
    }
    return trace;
}

std::string
serialize(const RunTrace &trace)
{
    std::ostringstream os(std::ios::binary);
    writeTrace(os, trace);
    return os.str();
}

bool
parse(const std::string &bytes, RunTrace &out,
      std::string *error = nullptr)
{
    std::istringstream is(bytes, std::ios::binary);
    return readTrace(is, out, error);
}

/** Unbounded LEB128 encoder, for crafting adversarial varints. */
std::string
leb(std::uint64_t v)
{
    std::string s;
    while (v >= 0x80) {
        s.push_back(static_cast<char>((v & 0x7f) | 0x80));
        v >>= 7;
    }
    s.push_back(static_cast<char>(v));
    return s;
}

/** Magic (8) + version u64 (8): the first varint starts at 16. */
constexpr std::size_t kHeaderBytes = 16;

TEST(TraceFuzz, RoundTripBaseline)
{
    RunTrace original = makeTrace();
    const std::string bytes = serialize(original);
    ASSERT_GT(bytes.size(), kHeaderBytes);
    RunTrace loaded;
    std::string error;
    ASSERT_TRUE(parse(bytes, loaded, &error)) << error;
    EXPECT_TRUE(traceEquals(original, loaded));
}

TEST(TraceFuzz, EveryTruncationFailsCleanly)
{
    const std::string bytes = serialize(makeTrace());
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
        RunTrace out;
        std::string error;
        EXPECT_FALSE(parse(bytes.substr(0, cut), out, &error))
            << "prefix of " << cut << " bytes parsed";
        EXPECT_FALSE(error.empty()) << "cut at " << cut;
    }
}

TEST(TraceFuzz, SingleBitFlipsNeverCrashAndReserializeStably)
{
    const std::string bytes = serialize(makeTrace());
    for (std::size_t i = 0; i < bytes.size(); ++i) {
        for (int bit = 0; bit < 8; ++bit) {
            std::string mutated = bytes;
            mutated[i] = static_cast<char>(
                static_cast<unsigned char>(mutated[i]) ^ (1u << bit));
            RunTrace out;
            std::string error;
            if (!parse(mutated, out, &error)) {
                EXPECT_FALSE(error.empty())
                    << "byte " << i << " bit " << bit;
                continue;
            }
            // A flip in payload bytes is undetectable; the decoded
            // trace must still be internally coherent, proven by a
            // stable decode -> encode -> decode cycle.
            RunTrace again;
            ASSERT_TRUE(parse(serialize(out), again, &error))
                << "byte " << i << " bit " << bit << ": " << error;
            EXPECT_TRUE(traceEquals(out, again))
                << "byte " << i << " bit " << bit;
        }
    }
}

TEST(TraceFuzz, OverlongVarintsAreRejected)
{
    const std::string header = serialize(RunTrace{}).substr(
        0, kHeaderBytes);

    // Eleven continuation bytes: encodes past 64 bits outright.
    // Ten bytes with a continuation flag on the tenth: same.
    // Ten bytes whose tenth carries a value bit above bit 63.
    const std::vector<std::string> overlong = {
        std::string(11, '\x80'),
        std::string(9, '\x80') + std::string("\x80\x00", 2),
        std::string(9, '\x80') + "\x02",
    };
    for (std::size_t i = 0; i < overlong.size(); ++i) {
        RunTrace out;
        std::string error;
        EXPECT_FALSE(parse(header + overlong[i], out, &error))
            << "over-long form " << i << " accepted";
        EXPECT_FALSE(error.empty());
    }

    // Control: the maximal *legal* tenth byte (bit 63 alone) decodes
    // as a varint and is then thrown out by the element-count cap.
    RunTrace out;
    std::string error;
    EXPECT_FALSE(
        parse(header + std::string(9, '\x80') + "\x01", out, &error));
    EXPECT_NE(error.find("oversized"), std::string::npos) << error;
}

TEST(TraceFuzz, OversizedCountsAreRejectedWithoutAllocating)
{
    const std::string header = serialize(RunTrace{}).substr(
        0, kHeaderBytes);
    // A flipped byte can inflate a count arbitrarily; the decoder
    // must refuse before sizing any container (a 2^32 GC-record
    // resize would be multi-gigabyte).  Rejection must be immediate
    // even though the stream ends right after the count.
    for (std::uint64_t count :
         {std::uint64_t{1} << 25, std::uint64_t{1} << 32,
          std::uint64_t{1} << 52, ~std::uint64_t{0}}) {
        RunTrace out;
        std::string error;
        EXPECT_FALSE(parse(header + leb(count), out, &error))
            << "count " << count << " accepted";
        EXPECT_NE(error.find("oversized"), std::string::npos)
            << "count " << count << ": " << error;
    }
}

TEST(TraceFuzz, CorruptedHitRateIsRejected)
{
    for (double bad : {std::nan(""), 2.0, -0.5,
                       std::numeric_limits<double>::infinity()}) {
        RunTrace trace = makeTrace();
        trace.gcs[0].phases[0].bitmapCacheHitRate = bad;
        RunTrace out;
        std::string error;
        EXPECT_FALSE(parse(serialize(trace), out, &error))
            << "hit rate " << bad << " accepted";
        EXPECT_NE(error.find("hit rate"), std::string::npos) << error;
    }
}

TEST(TraceFuzz, CorruptCacheEntryDegradesToMiss)
{
    const std::filesystem::path dir = test::freshDir("cache");

    harness::FunctionalKey key;
    key.workload = "CC";
    key.gcThreads = 4;
    key = harness::ExperimentRunner::resolve(key);

    gc::RunTrace first;
    {
        harness::ExperimentRunner runner(
            harness::RunnerConfig{1, dir.string()});
        auto run = runner.functional(key);
        ASSERT_FALSE(run->oom);
        ASSERT_FALSE(run->trace.gcs.empty());
        first = run->trace;
    }

    // Truncate every cache entry mid-stream: guaranteed parse
    // failure, the shape a crash mid-store or disk corruption leaves.
    std::size_t corrupted = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir)) {
        if (entry.path().extension() != ".trace")
            continue;
        auto size = std::filesystem::file_size(entry.path());
        ASSERT_GT(size, 8u);
        std::filesystem::resize_file(entry.path(), size / 2);
        ++corrupted;
    }
    ASSERT_GT(corrupted, 0u) << "no cache entry was written";

    // A fresh runner must treat the mangled entry as a miss and
    // re-record the identical functional trace.
    harness::ExperimentRunner runner(
        harness::RunnerConfig{1, dir.string()});
    auto run = runner.functional(key);
    ASSERT_FALSE(run->oom);
    EXPECT_TRUE(traceEquals(first, run->trace))
        << "re-recorded trace diverged from the original";
}

} // namespace
