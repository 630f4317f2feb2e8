/**
 * @file
 * google-benchmark microbenchmarks of the functional kernels: the
 * Figure 8 reference bit-loop versus Charon's optimized word-wise
 * Bitmap Count (Section 4.3), the bitmap-cache model, the fluid
 * bandwidth channel, heap allocation and the trace decoder — the hot
 * paths of the simulator itself.
 */

#include <benchmark/benchmark.h>

#include <sstream>
#include <string>

#include "gc/recorder.hh"
#include "gc/trace_io.hh"
#include "heap/bitmap.hh"
#include "heap/heap.hh"
#include "mem/cache_model.hh"
#include "mem/fluid_channel.hh"
#include "sim/event_queue.hh"
#include "sim/join.hh"
#include "sim/rng.hh"
#include "workload/mutator.hh"

using namespace charon;

namespace
{

constexpr mem::Addr kBase = 0x10000;
constexpr std::uint64_t kBytes = 4 * 1024 * 1024;

struct PaintedMaps
{
    heap::MarkBitmap beg{kBase, kBytes, 0};
    heap::MarkBitmap end{kBase, kBytes, 0};

    PaintedMaps()
    {
        sim::Rng rng(42);
        std::uint64_t bit = 0;
        const std::uint64_t limit = kBytes / 8;
        while (bit + 64 < limit) {
            std::uint64_t words = rng.range(2, 16);
            beg.setBit(bit);
            end.setBit(bit + words - 1);
            bit += words + rng.below(4);
        }
    }
};

PaintedMaps &
maps()
{
    static PaintedMaps m;
    return m;
}

} // namespace

static void
BM_BitmapCountReference(benchmark::State &state)
{
    auto &m = maps();
    const std::uint64_t range = static_cast<std::uint64_t>(state.range(0));
    std::uint64_t start = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            heap::liveWordsInRange(m.beg, m.end, start, start + range));
        start = (start + range) % (kBytes / 8 - range);
    }
    state.SetItemsProcessed(state.iterations()
                            * static_cast<std::int64_t>(range));
}
BENCHMARK(BM_BitmapCountReference)->Arg(64)->Arg(128)->Arg(512)->Arg(4096);

static void
BM_BitmapCountOptimized(benchmark::State &state)
{
    auto &m = maps();
    const std::uint64_t range = static_cast<std::uint64_t>(state.range(0));
    std::uint64_t start = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(heap::optimizedLiveWords(
            m.beg, m.end, start, start + range));
        start = (start + range) % (kBytes / 8 - range);
    }
    state.SetItemsProcessed(state.iterations()
                            * static_cast<std::int64_t>(range));
}
BENCHMARK(BM_BitmapCountOptimized)->Arg(64)->Arg(128)->Arg(512)->Arg(4096);

static void
BM_BitmapCacheAccess(benchmark::State &state)
{
    mem::CacheModel cache(gc::kBitmapCache.bytes, gc::kBitmapCache.assoc,
                          gc::kBitmapCache.blockBytes);
    sim::Rng rng(7);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cache.access(rng.below(64 * 1024), false));
    }
}
BENCHMARK(BM_BitmapCacheAccess);

static void
BM_FluidChannelFlows(benchmark::State &state)
{
    for (auto _ : state) {
        sim::EventQueue eq;
        mem::FluidChannel ch(eq, "bench", 1.0);
        for (int i = 0; i < 64; ++i)
            ch.startFlow(1000 + i, 0, nullptr);
        eq.run();
    }
}
BENCHMARK(BM_FluidChannelFlows);

namespace
{

/**
 * A memory stream's window on one channel: @p window flows in
 * flight, every other one capped below the fair share, and each
 * finish starts the next flow through its join until @p total have
 * run.
 */
struct StreamWindow
{
    sim::EventQueue eq;
    mem::FluidChannel ch{eq, "bench", 16.0};
    sim::JoinPool joins{eq};
    sim::Rng rng;
    std::int64_t left;

    StreamWindow(std::uint64_t seed, std::int64_t total)
        : rng(seed), left(total)
    {
    }

    void
    start()
    {
        --left;
        const double cap = left % 2 ? 1.5 : 0.0;
        ch.startFlow(rng.range(64, 4096), cap,
                     joins.acquire(1, [this](sim::Tick) {
                         if (left > 0)
                             start();
                     }));
    }
};

} // namespace

static void
BM_FluidChannelSteady(benchmark::State &state)
{
    // The replay's steady state: every timer fire finishes a flow and
    // re-arms the timer from inside its own callback, and most
    // reallocations cap a flow.
    constexpr int kWindow = 8;
    for (auto _ : state) {
        StreamWindow w(state.range(1), state.range(0));
        for (int i = 0; i < kWindow; ++i)
            w.start();
        w.eq.run();
        benchmark::DoNotOptimize(w.eq.now());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FluidChannelSteady)->Args({4096, 7});

static void
BM_TraceDecode(benchmark::State &state)
{
    // What a warm cache load decodes: one recorded trace (ALS),
    // encoded once and decoded from memory each iteration.
    static const std::string encoded = [] {
        const auto &params = workload::findWorkload("ALS");
        workload::Mutator mut(params, params.heapBytes, 1);
        mut.run();
        std::ostringstream os;
        gc::writeTrace(os, mut.recorder().run());
        return os.str();
    }();
    for (auto _ : state) {
        std::istringstream is(encoded);
        gc::RunTrace trace;
        if (!gc::readTrace(is, trace, nullptr))
            state.SkipWithError("decode failed");
        benchmark::DoNotOptimize(trace.gcs.data());
    }
    state.SetBytesProcessed(state.iterations()
                            * static_cast<std::int64_t>(encoded.size()));
}
BENCHMARK(BM_TraceDecode);

static void
BM_HeapAllocation(benchmark::State &state)
{
    heap::KlassTable klasses;
    auto node = klasses.defineInstance("Node", 2, 2);
    heap::HeapConfig cfg;
    cfg.heapBytes = 64 * sim::kMiB;
    for (auto _ : state) {
        state.PauseTiming();
        heap::ManagedHeap heap(cfg, klasses);
        state.ResumeTiming();
        while (heap.allocEden(node) != 0) {
        }
    }
}
BENCHMARK(BM_HeapAllocation);

static void
BM_EventQueueSchedule(benchmark::State &state)
{
    for (auto _ : state) {
        sim::EventQueue eq;
        for (sim::Tick t = 0; t < 4096; ++t)
            eq.schedule(t, [] {});
        eq.run();
    }
}
BENCHMARK(BM_EventQueueSchedule);

BENCHMARK_MAIN();
