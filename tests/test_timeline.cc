/**
 * @file
 * Tests for the timeline tracer: track bookkeeping, the emit API, the
 * Chrome/Perfetto JSON exporter (parsed back with the test-only JSON
 * parser), and a seeded fuzz run proving that any sequence of
 * well-formed emits exports to a well-nested, parseable trace.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "json_mini.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/timeline.hh"

using namespace charon;
using sim::Timeline;
using charon::testjson::parse;

namespace
{

std::string
exported(const Timeline &tl)
{
    std::ostringstream os;
    Timeline::writeChromeTrace(os, {&tl});
    return os.str();
}

} // namespace

TEST(Timeline, TrackFindOrCreateIsStable)
{
    Timeline tl("p");
    auto a = tl.track("alpha");
    auto b = tl.track("beta");
    EXPECT_NE(a, b);
    EXPECT_EQ(tl.track("alpha"), a);
    EXPECT_EQ(tl.trackCount(), 2u);
    EXPECT_EQ(tl.trackName(a), "alpha");
    EXPECT_EQ(tl.trackName(b), "beta");
}

TEST(Timeline, EventsRecordWhatWasEmitted)
{
    Timeline tl("p");
    auto t = tl.track("t");
    tl.beginSpan(t, "outer", 10);
    tl.completeSpan(t, "inner", 20, 30);
    tl.endSpan(t, 40);
    tl.instant(t, "mark", 25);
    tl.counter(t, 50, 3.5);
    ASSERT_EQ(tl.events().size(), 5u);
    EXPECT_EQ(tl.events()[0].type, Timeline::EventType::Begin);
    EXPECT_EQ(tl.eventName(tl.events()[0].name), "outer");
    EXPECT_EQ(tl.events()[1].type, Timeline::EventType::Complete);
    EXPECT_EQ(tl.events()[1].start, 20u);
    EXPECT_EQ(tl.events()[1].end, 30u);
    EXPECT_EQ(tl.events()[2].type, Timeline::EventType::End);
    EXPECT_EQ(tl.events()[3].type, Timeline::EventType::Instant);
    EXPECT_EQ(tl.events()[4].type, Timeline::EventType::Counter);
    EXPECT_DOUBLE_EQ(tl.events()[4].value, 3.5);
}

TEST(Timeline, ScopedSpanReadsQueueTime)
{
    sim::EventQueue eq;
    Timeline tl("p");
    auto t = tl.track("t");
    eq.schedule(1000, [&] {
        sim::ScopedSpan span(&tl, eq, t, "work");
        eq.schedule(5000, [] {});
    });
    eq.run();
    // The span closes when it goes out of scope at tick 1000 (the
    // nested event only extends the queue, not the C++ scope).
    ASSERT_EQ(tl.events().size(), 1u);
    EXPECT_EQ(tl.events()[0].type, Timeline::EventType::Complete);
    EXPECT_EQ(tl.events()[0].start, 1000u);
    EXPECT_EQ(tl.events()[0].end, 1000u);
}

TEST(Timeline, NullScopedSpanEmitsNothing)
{
    sim::EventQueue eq;
    const std::uint64_t before = Timeline::totalEventsRecorded();
    {
        sim::ScopedSpan span(nullptr, eq, 0, "ignored");
    }
    EXPECT_EQ(Timeline::totalEventsRecorded(), before);
}

TEST(Timeline, ExportParsesBackWithMetadata)
{
    Timeline tl("my cell");
    auto gc = tl.track("gc");
    auto ch = tl.track("ddr4.ch0");
    tl.completeSpan(gc, "minor GC", 1000000, 3000000);
    tl.counter(ch, 1500000, 2.0);
    tl.instant(gc, "note \"quoted\"", 2000000);

    auto root = parse(exported(tl));
    ASSERT_TRUE(root->isObject());
    auto events = root->get("traceEvents");
    ASSERT_TRUE(events && events->isArray());
    // 1 process_name + 2 thread_name + 3 events.
    ASSERT_EQ(events->array.size(), 6u);

    auto &meta = events->array[0];
    EXPECT_EQ(meta->str("ph"), "M");
    EXPECT_EQ(meta->str("name"), "process_name");
    EXPECT_EQ(meta->get("args")->str("name"), "my cell");

    auto &span = events->array[3];
    EXPECT_EQ(span->str("ph"), "X");
    EXPECT_EQ(span->str("name"), "minor GC");
    // 1000000 ticks (ps) == 1 us.
    EXPECT_DOUBLE_EQ(span->num("ts"), 1.0);
    EXPECT_DOUBLE_EQ(span->num("dur"), 2.0);

    auto &counter = events->array[4];
    EXPECT_EQ(counter->str("ph"), "C");
    EXPECT_EQ(counter->str("name"), "ddr4.ch0");
    EXPECT_DOUBLE_EQ(counter->get("args")->num("value"), 2.0);

    auto &instant = events->array[5];
    EXPECT_EQ(instant->str("ph"), "i");
    EXPECT_EQ(instant->str("name"), "note \"quoted\"");
}

TEST(Timeline, SubMicrosecondTicksRenderExactly)
{
    Timeline tl("p");
    auto t = tl.track("t");
    // 1 tick == 1 ps == 1e-6 us: the exporter must not round it away.
    tl.completeSpan(t, "tiny", 1, 2);
    auto root = parse(exported(tl));
    auto &span = root->get("traceEvents")->array[2];
    EXPECT_NEAR(span->num("ts"), 1e-6, 1e-12);
    EXPECT_NEAR(span->num("dur"), 1e-6, 1e-12);
}

TEST(Timeline, MergeSkipsNullEntriesWithoutDisturbingPids)
{
    Timeline a("first");
    Timeline c("third");
    a.completeSpan(a.track("t"), "x", 0, 1);
    c.completeSpan(c.track("t"), "y", 0, 1);
    std::ostringstream os;
    Timeline::writeChromeTrace(os, {&a, nullptr, &c});
    auto root = parse(os.str());
    std::set<double> pids;
    for (auto &e : root->get("traceEvents")->array)
        pids.insert(e->num("pid"));
    // The null cell keeps its pid slot: 1 and 3, never 2.
    EXPECT_EQ(pids, (std::set<double>{1.0, 3.0}));
}

TEST(Timeline, FuzzedEmitSequenceExportsWellNestedJson)
{
    // Drive the tracer with a seeded random emit sequence that
    // respects the API contract (ends match begins per track,
    // complete spans have start <= end), then prove the exported
    // JSON parses and every span track is well nested.
    sim::Rng rng(0xC0FFEEull);
    Timeline tl("fuzz");
    const Timeline::TrackId spans[] = {tl.track("span0"),
                                       tl.track("span1"),
                                       tl.track("span2")};
    const auto counters = tl.track("counters");
    std::map<Timeline::TrackId, int> open;
    std::multiset<std::string> emitted_names;
    sim::Tick now = 0;
    std::uint64_t begins = 0;

    for (int i = 0; i < 5000; ++i) {
        now += rng.below(1000);
        auto track = spans[rng.below(3)];
        switch (rng.below(5)) {
          case 0: {
            std::string name = "b";
            name += std::to_string(begins++);
            emitted_names.insert(name);
            tl.beginSpan(track, std::move(name), now);
            ++open[track];
            break;
          }
          case 1:
            if (open[track] > 0) {
                tl.endSpan(track, now);
                --open[track];
            }
            break;
          case 2: {
            sim::Tick start = now - std::min<sim::Tick>(
                                  now, rng.below(500));
            std::string name = "x";
            name += std::to_string(i);
            emitted_names.insert(name);
            tl.completeSpan(track, std::move(name), start, now);
            break;
          }
          case 3: {
            std::string name = "i";
            name += std::to_string(i);
            tl.instant(track, name, now);
            break;
          }
          case 4:
            tl.counter(counters, now,
                       static_cast<double>(rng.below(1 << 20)));
            break;
        }
    }
    // Close every span still open so the trace is complete.
    for (auto track : spans) {
        while (open[track] > 0) {
            tl.endSpan(track, now);
            --open[track];
        }
    }

    auto root = parse(exported(tl));
    auto events = root->get("traceEvents");
    ASSERT_TRUE(events && events->isArray());
    // Metadata (1 process + 4 tracks) + every recorded event.
    EXPECT_EQ(events->array.size(), 5u + tl.events().size());

    std::map<std::pair<double, double>, int> depth;
    std::multiset<std::string> parsed_names;
    for (auto &e : events->array) {
        const std::string ph = e->str("ph");
        auto key = std::make_pair(e->num("pid"), e->num("tid"));
        if (ph == "B") {
            parsed_names.insert(e->str("name"));
            ++depth[key];
        } else if (ph == "E") {
            --depth[key];
            ASSERT_GE(depth[key], 0) << "E without matching B";
        } else if (ph == "X") {
            parsed_names.insert(e->str("name"));
            EXPECT_GE(e->num("dur"), 0.0);
        } else if (ph == "C") {
            ASSERT_TRUE(e->get("args"));
            EXPECT_GE(e->get("args")->num("value"), 0.0);
        }
    }
    for (auto &[key, d] : depth)
        EXPECT_EQ(d, 0) << "unbalanced spans on tid " << key.second;
    EXPECT_EQ(parsed_names, emitted_names);
}
