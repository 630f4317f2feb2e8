#include "timeline.hh"

#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <ostream>

#include "sim/event_queue.hh"
#include "sim/json.hh"
#include "sim/logging.hh"

namespace charon::sim
{

namespace
{

std::atomic<std::uint64_t> instancesCreated{0};
std::atomic<std::uint64_t> eventsRecorded{0};

/** ts/dur in microseconds: 1 Tick == 1 ps == 1e-6 us, so six decimal
 *  places render every tick exactly. */
void
putMicros(std::ostream &os, Tick ticks)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%" PRIu64 ".%06" PRIu64,
                  ticks / 1000000, ticks % 1000000);
    os << buf;
}

void
putValue(std::ostream &os, double v)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    os << buf;
}

} // namespace

Timeline::Timeline(std::string process_name)
    : processName_(std::move(process_name))
{
    instancesCreated.fetch_add(1, std::memory_order_relaxed);
    names_.emplace_back(); // kEmptyName
    nameIndex_.emplace(std::string(), kEmptyName);
}

Timeline::NameId
Timeline::intern(const std::string &name)
{
    auto it = nameIndex_.find(name);
    if (it != nameIndex_.end())
        return it->second;
    NameId id = static_cast<NameId>(names_.size());
    names_.push_back(name);
    nameIndex_.emplace(name, id);
    return id;
}

Timeline::TrackId
Timeline::track(const std::string &name)
{
    auto it = trackIndex_.find(name);
    if (it != trackIndex_.end())
        return it->second;
    TrackId id = static_cast<TrackId>(trackNames_.size());
    trackNames_.push_back(name);
    trackIndex_.emplace(name, id);
    return id;
}

void
Timeline::record(Event e)
{
    eventsRecorded.fetch_add(1, std::memory_order_relaxed);
    events_.push_back(std::move(e));
}

void
Timeline::beginSpan(TrackId track, const std::string &name, Tick start)
{
    beginSpan(track, intern(name), start);
}

void
Timeline::beginSpan(TrackId track, NameId name, Tick start)
{
    record({EventType::Begin, track, name, start, 0, 0});
}

void
Timeline::endSpan(TrackId track, Tick end)
{
    record({EventType::End, track, kEmptyName, end, 0, 0});
}

void
Timeline::completeSpan(TrackId track, const std::string &name, Tick start,
                       Tick end)
{
    completeSpan(track, intern(name), start, end);
}

void
Timeline::completeSpan(TrackId track, NameId name, Tick start, Tick end)
{
    CHARON_ASSERT(end >= start, "span on '%s' ends before it starts",
                  trackNames_[track].c_str());
    record({EventType::Complete, track, name, start, end, 0});
}

void
Timeline::instant(TrackId track, const std::string &name, Tick at)
{
    instant(track, intern(name), at);
}

void
Timeline::instant(TrackId track, NameId name, Tick at)
{
    record({EventType::Instant, track, name, at, 0, 0});
}

void
Timeline::counter(TrackId track, Tick at, double value)
{
    record({EventType::Counter, track, kEmptyName, at, 0, value});
}

std::uint64_t
Timeline::totalInstancesCreated()
{
    return instancesCreated.load(std::memory_order_relaxed);
}

std::uint64_t
Timeline::totalEventsRecorded()
{
    return eventsRecorded.load(std::memory_order_relaxed);
}

void
Timeline::writeChromeTrace(std::ostream &os,
                           const std::vector<const Timeline *> &timelines)
{
    os << "{\"traceEvents\":[";
    bool first = true;
    auto sep = [&] {
        if (!first)
            os << ",\n";
        first = false;
    };
    for (std::size_t p = 0; p < timelines.size(); ++p) {
        const Timeline *tl = timelines[p];
        if (tl == nullptr)
            continue;
        const std::size_t pid = p + 1;
        sep();
        os << "{\"ph\":\"M\",\"pid\":" << pid
           << ",\"name\":\"process_name\",\"args\":{\"name\":";
        putJsonString(os, tl->processName());
        os << "}}";
        for (TrackId t = 0; t < tl->trackCount(); ++t) {
            sep();
            os << "{\"ph\":\"M\",\"pid\":" << pid << ",\"tid\":"
               << t + 1 << ",\"name\":\"thread_name\",\"args\":{"
               << "\"name\":";
            putJsonString(os, tl->trackName(t));
            os << "}}";
        }
        for (const Event &e : tl->events()) {
            sep();
            switch (e.type) {
              case EventType::Begin:
                os << "{\"ph\":\"B\",\"pid\":" << pid << ",\"tid\":"
                   << e.track + 1 << ",\"name\":";
                putJsonString(os, tl->eventName(e.name));
                os << ",\"ts\":";
                putMicros(os, e.start);
                os << "}";
                break;
              case EventType::End:
                os << "{\"ph\":\"E\",\"pid\":" << pid << ",\"tid\":"
                   << e.track + 1 << ",\"ts\":";
                putMicros(os, e.start);
                os << "}";
                break;
              case EventType::Complete:
                os << "{\"ph\":\"X\",\"pid\":" << pid << ",\"tid\":"
                   << e.track + 1 << ",\"name\":";
                putJsonString(os, tl->eventName(e.name));
                os << ",\"ts\":";
                putMicros(os, e.start);
                os << ",\"dur\":";
                putMicros(os, e.end - e.start);
                os << "}";
                break;
              case EventType::Instant:
                os << "{\"ph\":\"i\",\"s\":\"t\",\"pid\":" << pid
                   << ",\"tid\":" << e.track + 1 << ",\"name\":";
                putJsonString(os, tl->eventName(e.name));
                os << ",\"ts\":";
                putMicros(os, e.start);
                os << "}";
                break;
              case EventType::Counter:
                os << "{\"ph\":\"C\",\"pid\":" << pid << ",\"name\":";
                putJsonString(os, tl->trackName(e.track));
                os << ",\"ts\":";
                putMicros(os, e.start);
                os << ",\"args\":{\"value\":";
                putValue(os, e.value);
                os << "}}";
                break;
            }
        }
    }
    os << "],\"displayTimeUnit\":\"ms\"}\n";
}

ScopedSpan::ScopedSpan(Timeline *timeline, const EventQueue &eq,
                       Timeline::TrackId track, const std::string &name)
    : timeline_(timeline), eq_(eq), track_(track),
      name_(timeline ? timeline->intern(name) : Timeline::kEmptyName),
      start_(eq.now())
{
}

ScopedSpan::~ScopedSpan()
{
    if (timeline_)
        timeline_->completeSpan(track_, name_, start_, eq_.now());
}

} // namespace charon::sim
