/**
 * @file
 * sim::Function small-buffer-optimization edge cases: the event queue
 * schedules hundreds of thousands of these per replay, so the inline
 * vs. heap storage decision, the byte-copy path of trivially copyable
 * closures, the move/copy vtable paths, and exact destruction
 * counting all have to be airtight.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

#include "sim/callback.hh"
#include "sim/event_queue.hh"

using charon::sim::EventQueue;
using charon::sim::Function;
using charon::sim::Tick;

namespace
{

/** Global allocation counter: observes the heap-fallback boundary. */
std::size_t g_allocs = 0;

} // namespace

void *
operator new(std::size_t size)
{
    ++g_allocs;
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    ++g_allocs;
    return std::malloc(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

namespace
{

/** Counts every special-member call of each live instance. */
struct Probe
{
    static int live;
    static int copies;
    static int moves;

    Probe() { ++live; }
    Probe(const Probe &) { ++live, ++copies; }
    Probe(Probe &&) noexcept { ++live, ++moves; }
    ~Probe() { --live; }

    static void
    reset()
    {
        live = 0;
        copies = 0;
        moves = 0;
    }
};

int Probe::live = 0;
int Probe::copies = 0;
int Probe::moves = 0;

TEST(Callback, SmallCaptureStaysInline)
{
    int x = 41;
    g_allocs = 0;
    Function<int()> f([x] { return x + 1; });
    EXPECT_EQ(g_allocs, 0u) << "small capture must not heap-allocate";
    EXPECT_EQ(f(), 42);
}

TEST(Callback, LargeCaptureFallsBackToHeap)
{
    // One byte past the default inline budget forces the heap path.
    struct Big
    {
        unsigned char pad[97];
    };
    Big big{};
    big.pad[0] = 7;
    g_allocs = 0;
    Function<int()> f([big] { return big.pad[0]; });
    EXPECT_GE(g_allocs, 1u) << "oversized capture must heap-allocate";
    EXPECT_EQ(f(), 7);

    // A tighter inline budget flips the same capture to the heap.
    int x = 3;
    g_allocs = 0;
    Function<int(), 8> tiny([x] { return x; });
    EXPECT_EQ(g_allocs, 0u);
    std::uint64_t a = 1, b = 2;
    g_allocs = 0;
    Function<int(), 8> spilled(
        [a, b] { return static_cast<int>(a + b); });
    EXPECT_GE(g_allocs, 1u);
    EXPECT_EQ(spilled(), 3);
}

TEST(Callback, MoveOnlyCallable)
{
    auto p = std::make_unique<int>(99);
    Function<int()> f([p = std::move(p)] { return *p; });
    EXPECT_EQ(f(), 99);

    // Moving the Function moves the capture, ownership intact.
    Function<int()> g(std::move(f));
    EXPECT_FALSE(static_cast<bool>(f));
    EXPECT_TRUE(static_cast<bool>(g));
    EXPECT_EQ(g(), 99);

    Function<int()> h;
    h = std::move(g);
    EXPECT_EQ(h(), 99);
}

TEST(CallbackDeathTest, CopyingMoveOnlyCallableAborts)
{
    auto p = std::make_unique<int>(1);
    Function<int()> f([p = std::move(p)] { return *p; });
    EXPECT_DEATH(
        {
            Function<int()> copy(f);
            (void)copy;
        },
        "");
}

TEST(Callback, InlineDestructionCounts)
{
    Probe::reset();
    {
        Probe probe;
        Function<void()> f([probe] {});
        EXPECT_EQ(Probe::live, 2); // stack original + inline capture
        f();
        Function<void()> g(f); // inline copy path
        EXPECT_EQ(Probe::live, 3);
        EXPECT_GE(Probe::copies, 2);
        Function<void()> h(std::move(g)); // inline move path
        EXPECT_EQ(Probe::live, 3) << "moved-from capture is destroyed";
        g = h; // copy-assign over the empty moved-from g
        EXPECT_EQ(Probe::live, 4);
    }
    EXPECT_EQ(Probe::live, 0) << "every capture must be destroyed";
}

TEST(Callback, HeapDestructionCounts)
{
    struct Heavy
    {
        Probe probe;
        unsigned char pad[128] = {};
    };
    Probe::reset();
    {
        Heavy heavy;
        Function<void()> f([heavy] {});
        EXPECT_EQ(Probe::live, 2); // stack original + heap capture
        Function<void()> g(f); // heap copy path: a second allocation
        EXPECT_EQ(Probe::live, 3);
        Function<void()> h(std::move(g)); // heap move: pointer steal
        EXPECT_EQ(Probe::live, 3);
        EXPECT_FALSE(static_cast<bool>(g));
        h = f; // copy-assign destroys h's old capture first
        EXPECT_EQ(Probe::live, 3);
    }
    EXPECT_EQ(Probe::live, 0) << "every capture must be destroyed";
}

/**
 * A replay-shaped closure: pointers and ticks only, within one cache
 * line, so it is trivially copyable and moves through the queue as
 * bytes.  Each fire checks its captures and schedules its successor.
 */
struct Hop
{
    EventQueue *eq;
    std::uint64_t *next; ///< per chain (tag % 2): the tag due next
    std::uint64_t tag;
    Tick stride;
    std::uint64_t check; ///< tag ^ stride, written at construction

    void
    operator()() const
    {
        EXPECT_EQ(check, tag ^ stride) << "capture bytes were mangled";
        EXPECT_EQ(tag, next[tag % 2]) << "a chain fired out of order";
        next[tag % 2] = tag + 2;
        if (tag >= 2000)
            return;
        eq->scheduleIn(stride,
                       Hop{eq, next, tag + 2, stride, (tag + 2) ^ stride});
        // A same-tick filler that fires first and frees its slot, so
        // the successors cycle through recycled slots.
        eq->scheduleIn(0, [] {});
    }
};
static_assert(sizeof(Hop) <= 64 && std::is_trivially_copyable_v<Hop>
              && std::is_trivially_destructible_v<Hop>);

TEST(Callback, BytewiseClosureKeepsCapturesThroughQueueSlots)
{
    EventQueue eq;
    // Two interleaved chains of hops, 1001 fires each.
    std::uint64_t next[2] = {0, 1};
    eq.schedule(0, Hop{&eq, next, 0, 3, 0 ^ 3});
    eq.schedule(1, Hop{&eq, next, 1, 5, 1 ^ 5});
    eq.run();
    EXPECT_EQ(next[0], 2002u);
    EXPECT_EQ(next[1], 2003u);
    EXPECT_EQ(eq.executedEvents(), 2u * 2002u - 2u);

    // Moves between Functions: no allocation, the captures intact,
    // the source left empty.
    std::uint64_t direct[2] = {4000, 4001};
    g_allocs = 0;
    Function<void(), 104> f(Hop{&eq, direct, 4000, 7, 4000 ^ 7});
    Function<void(), 104> g(std::move(f));
    Function<void(), 104> h;
    h = std::move(g);
    EXPECT_EQ(g_allocs, 0u);
    EXPECT_FALSE(static_cast<bool>(f));
    EXPECT_FALSE(static_cast<bool>(g));
    h();
    EXPECT_EQ(direct[0], 4002u);
    h.reset();
    EXPECT_FALSE(static_cast<bool>(h));
}

TEST(Callback, NonTrivialClosuresThroughQueueAreDestroyedOnce)
{
    // A capture with a destructor keeps the vtable path: every copy
    // the queue's moves make is destroyed, fired or cancelled.
    Probe::reset();
    {
        EventQueue eq;
        int fired = 0;
        charon::sim::EventId ids[100] = {};
        for (int i = 0; i < 100; ++i) {
            Probe probe;
            ids[i] = eq.schedule(static_cast<Tick>(i),
                                 [probe, &fired] { ++fired; });
        }
        EXPECT_EQ(Probe::live, 100) << "one capture per pending event";
        for (int i = 0; i < 100; i += 4)
            EXPECT_TRUE(eq.deschedule(ids[i]));
        EXPECT_EQ(Probe::live, 75);
        eq.run();
        EXPECT_EQ(fired, 75);
        EXPECT_EQ(Probe::live, 0) << "fired captures are destroyed";
        EXPECT_EQ(Probe::copies, 100);
    }
    EXPECT_EQ(Probe::live, 0);
}

TEST(Callback, SelfAssignmentIsSafe)
{
    Probe::reset();
    {
        Probe probe;
        Function<void()> f([probe] {});
        auto &alias = f;
        f = alias;
        EXPECT_EQ(Probe::live, 2);
        f = std::move(alias);
        EXPECT_TRUE(static_cast<bool>(f));
        EXPECT_EQ(Probe::live, 2);
    }
    EXPECT_EQ(Probe::live, 0);
}

TEST(Callback, ArgumentsAndReturnValues)
{
    Function<int(int, int)> add([](int a, int b) { return a + b; });
    EXPECT_EQ(add(2, 3), 5);

    // Reference arguments pass through the type-erased invoke.
    Function<void(int &)> bump([](int &v) { ++v; });
    int v = 10;
    bump(v);
    EXPECT_EQ(v, 11);
}

} // namespace
