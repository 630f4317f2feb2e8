#include "fleet_sim.hh"

#include <algorithm>
#include <cmath>

#include "accel/backend.hh"
#include "harness/experiment_runner.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"

namespace charon::fleet
{

using harness::Cell;
using harness::CellResult;

bool
buildProfiles(harness::ExperimentRunner &runner,
              const std::vector<TenantSpec> &tenants,
              std::vector<TenantProfile> *out, std::string *error)
{
    // Two replay cells per tenant: the tenant's offload platform and
    // the DDR4 host fallback of the *same* functional trace — so the
    // two GC sequences align index-for-index by construction.
    std::vector<Cell> cells;
    cells.reserve(tenants.size() * 2);
    for (const auto &spec : tenants) {
        Cell c;
        c.key.workload = spec.workload;
        c.key.collector = spec.collector;
        c.key.heapBytes = spec.heapBytes;
        c.key.seed = spec.seed;
        c.config = sim::SystemConfig::table2();
        c.platform = spec.platform;
        c.label = spec.name + " on " + sim::platformName(spec.platform);
        cells.push_back(c);
        c.platform = sim::PlatformKind::HostDdr4;
        c.label = spec.name + " host baseline";
        cells.push_back(c);
    }

    auto results = runner.run(cells);
    out->clear();
    out->reserve(tenants.size());
    for (std::size_t t = 0; t < tenants.size(); ++t) {
        const CellResult &accel = results[2 * t];
        const CellResult &host = results[2 * t + 1];
        for (const CellResult *r : {&accel, &host}) {
            if (!r->ok) {
                if (error) {
                    *error = tenants[t].name + ": "
                             + (r->error.empty() ? "cell failed"
                                                 : r->error);
                }
                return false;
            }
        }
        if (accel.timing.gcs.size() != host.timing.gcs.size()) {
            if (error) {
                *error = tenants[t].name
                         + ": platform/host GC count mismatch";
            }
            return false;
        }
        TenantProfile profile;
        profile.gcs.reserve(accel.timing.gcs.size());
        for (std::size_t g = 0; g < accel.timing.gcs.size(); ++g) {
            GcProfile gc;
            gc.accelTicks =
                sim::secondsToTicks(accel.timing.gcs[g].seconds);
            gc.hostTicks =
                sim::secondsToTicks(host.timing.gcs[g].seconds);
            gc.unitSec = accel.timing.gcs[g].unitSeconds;
            gc.major = accel.timing.gcs[g].major;
            profile.gcs.push_back(gc);
        }
        profile.soloAccelSec = accel.timing.gcSeconds;
        profile.soloHostSec = host.timing.gcSeconds;
        out->push_back(std::move(profile));
    }
    return true;
}

namespace
{

/** The whole DES state; one instance per runFleet call. */
struct Sim
{
    const FleetConfig &cfg;
    const std::vector<TenantProfile> &profiles;
    sim::EventQueue eq;
    Arbiter arbiter;
    sim::Tick sloTicks;
    FleetResult result;
    int slotsKilled = 0;

    struct Tenant
    {
        const TenantSpec *spec;
        const TenantProfile *profile;
        sim::Rng rng;             ///< service-time jitter
        std::vector<sim::Tick> arrivals;
        std::size_t nextArrival = 0;
        std::vector<sim::Tick> queue; ///< arrival ticks, FIFO
        std::size_t queueHead = 0;
        bool serving = false;
        bool gcBlocked = false;
        double reqSinceGc = 0;
        double reqPerGc = 1;
        std::size_t gcIdx = 0;
        sim::Tick gcEnqueued = 0;
        // Timeline plumbing (null/0 when tracing is off).
        sim::Timeline *tl = nullptr;
        sim::Timeline::TrackId gcTrack = 0;
        sim::Timeline::TrackId queueTrack = 0;
    };
    std::vector<Tenant> tenants;
    sim::Timeline *arbiterTl = nullptr;
    sim::Timeline::TrackId arbPendingTrack = 0;
    sim::Timeline::TrackId arbBusyTrack = 0;

    Sim(const FleetConfig &cfg_,
        const std::vector<TenantProfile> &profiles_, int slots)
        : cfg(cfg_), profiles(profiles_),
          arbiter(cfg_.policy, slots),
          sloTicks(cfg_.sloMs > 0
                       ? sim::secondsToTicks(cfg_.sloMs * 1e-3)
                       : sim::maxTick)
    {
    }

    void
    sampleArbiter()
    {
        if (!arbiterTl)
            return;
        arbiterTl->counter(arbPendingTrack, eq.now(),
                           static_cast<double>(arbiter.pendingCount()));
        arbiterTl->counter(arbBusyTrack, eq.now(),
                           static_cast<double>(arbiter.busy()));
    }

    void
    sampleQueue(Tenant &t)
    {
        if (t.tl) {
            t.tl->counter(t.queueTrack, eq.now(),
                          static_cast<double>(t.queue.size()
                                              - t.queueHead));
        }
    }

    void
    scheduleNextArrival(int idx)
    {
        Tenant &t = tenants[idx];
        if (t.nextArrival >= t.arrivals.size())
            return;
        sim::Tick when = t.arrivals[t.nextArrival++];
        eq.schedule(when, [this, idx] { onArrival(idx); });
    }

    void
    onArrival(int idx)
    {
        Tenant &t = tenants[idx];
        t.queue.push_back(eq.now());
        sampleQueue(t);
        scheduleNextArrival(idx);
        tryServe(idx);
    }

    void
    tryServe(int idx)
    {
        Tenant &t = tenants[idx];
        if (t.serving || t.gcBlocked || t.queueHead >= t.queue.size())
            return;
        t.serving = true;
        // Uniform jitter in [0.5, 1.5) of the mean keeps the mean
        // while decorrelating tenants' service completions.
        double us = t.spec->serviceUs * (0.5 + t.rng.uniform());
        eq.scheduleIn(sim::secondsToTicks(us * 1e-6),
                      [this, idx] { onServed(idx); });
    }

    void
    onServed(int idx)
    {
        Tenant &t = tenants[idx];
        t.serving = false;
        sim::Tick arrived = t.queue[t.queueHead++];
        // Compact the drained prefix occasionally.
        if (t.queueHead > 4096 && t.queueHead * 2 > t.queue.size()) {
            t.queue.erase(t.queue.begin(),
                          t.queue.begin()
                              + static_cast<std::ptrdiff_t>(t.queueHead));
            t.queueHead = 0;
        }
        TenantResult &res = result.tenants[idx];
        res.requestMs.add(sim::ticksToSeconds(eq.now() - arrived) * 1e3);
        ++res.requests;
        sampleQueue(t);

        t.reqSinceGc += 1;
        if (!t.profile->gcs.empty() && t.reqSinceGc >= t.reqPerGc) {
            t.reqSinceGc -= t.reqPerGc;
            triggerGc(idx);
            return; // world stopped; serving resumes after the GC
        }
        tryServe(idx);
    }

    void
    triggerGc(int idx)
    {
        Tenant &t = tenants[idx];
        const GcProfile &gc =
            t.profile->gcs[t.gcIdx % t.profile->gcs.size()];
        ++t.gcIdx;
        t.gcBlocked = true;
        t.gcEnqueued = eq.now();
        GcRequest req;
        req.tenant = idx;
        req.enqueued = eq.now();
        req.deadline = sloTicks == sim::maxTick
                           ? sim::maxTick
                           : eq.now() + sloTicks;
        req.accelTicks = gc.accelTicks;
        req.hostTicks = gc.hostTicks;
        req.unitSec = gc.unitSec;
        req.major = gc.major;
        arbiter.enqueue(req);
        pump();
    }

    void
    pump()
    {
        auto grants = arbiter.dispatch(eq.now());
        sampleArbiter();
        for (const Dispatch &d : grants) {
            int idx = d.req.tenant;
            bool fallback = d.hostFallback;
            sim::Tick dur = fallback ? d.req.hostTicks : d.req.accelTicks;
            eq.scheduleIn(dur, [this, idx, fallback, dur] {
                onGcDone(idx, fallback, dur);
            });
        }
    }

    void
    onGcDone(int idx, bool fallback, sim::Tick duration)
    {
        Tenant &t = tenants[idx];
        TenantResult &res = result.tenants[idx];
        sim::Tick start = eq.now() - duration;
        double pause_ms =
            sim::ticksToSeconds(eq.now() - t.gcEnqueued) * 1e3;
        res.pauseMs.add(pause_ms);
        res.maxPauseMs = std::max(res.maxPauseMs, pause_ms);
        ++res.gcs;
        if (fallback)
            ++res.hostFallbacks;
        if (sloTicks != sim::maxTick
            && eq.now() - t.gcEnqueued > sloTicks) {
            ++res.sloMisses;
        }
        if (t.tl) {
            const GcProfile &gc =
                t.profile->gcs[(t.gcIdx - 1) % t.profile->gcs.size()];
            if (start > t.gcEnqueued) {
                t.tl->completeSpan(t.gcTrack, "wait", t.gcEnqueued,
                                   start);
            }
            t.tl->completeSpan(t.gcTrack,
                               fallback ? "host GC"
                               : gc.major ? "major GC"
                                          : "minor GC",
                               start, eq.now());
        }
        t.gcBlocked = false;
        if (!fallback)
            arbiter.complete();
        tryServe(idx);
        pump(); // a slot may have freed
    }

    void
    scheduleFaults()
    {
        for (const auto &spec : cfg.faults.specs) {
            if (spec.kind != fault::FaultKind::UnitDeath
                && spec.kind != fault::FaultKind::CubeOffline) {
                continue;
            }
            int kill = spec.cube < 0 ? arbiter.capacity() : 1;
            eq.schedule(spec.atTick, [this, kill] {
                arbiter.killSlots(kill);
                slotsKilled += kill;
                if (arbiterTl) {
                    arbiterTl->instant(arbiterTl->track("faults"),
                                       "slot killed", eq.now());
                }
                pump(); // capacity 0 reroutes the queue to the host
            });
        }
    }
};

} // namespace

FleetResult
runFleet(const FleetConfig &cfg,
         const std::vector<TenantProfile> &profiles)
{
    CHARON_ASSERT(cfg.tenants.size() == profiles.size(),
                  "fleet: %zu tenants vs %zu profiles",
                  cfg.tenants.size(), profiles.size());

    int slots = cfg.slots;
    if (slots == 0) {
        // Derive the capacity from the first accelerated tenant's
        // platform; an all-host fleet has nothing to arbitrate.
        sim::SystemConfig sys = sim::SystemConfig::table2();
        for (const auto &spec : cfg.tenants) {
            slots = accel::concurrentOffloadSlots(spec.platform, sys);
            if (slots > 0)
                break;
        }
    }

    Sim sim(cfg, profiles, slots);
    sim.result.tenants.resize(cfg.tenants.size());

    for (std::size_t i = 0; i < cfg.tenants.size(); ++i) {
        const TenantSpec &spec = cfg.tenants[i];
        Sim::Tenant t;
        t.spec = &spec;
        t.profile = &profiles[i];
        // Decorrelated per-tenant streams from the fleet seed.
        t.rng = sim::Rng(cfg.seed * 0x9e3779b97f4a7c15ull + i * 2 + 1);
        ArrivalConfig arrival = cfg.arrival;
        arrival.meanRps = spec.meanRps;
        t.arrivals =
            generateArrivals(arrival, cfg.seed * 2654435761ull + i);
        // Pace the solo profile's collections across the expected
        // steady-state request count (times the consolidation
        // density), so load surges translate into collection surges —
        // the contention the arbiter exists for.
        double expected_requests =
            spec.meanRps * cfg.arrival.horizonSec;
        if (!profiles[i].gcs.empty()) {
            // Cap each tenant's density so its solo collection duty
            // stays under ~30% of the horizon — the upper bound of
            // GC's share of runtime the paper measures (Fig. 2).
            // Batch tenants with heavyweight profiles hit the cap;
            // request servers with millisecond profiles don't.
            double scale = std::max(1.0, cfg.gcRateScale);
            if (profiles[i].soloAccelSec > 0) {
                double cap = 0.3 * cfg.arrival.horizonSec
                             / profiles[i].soloAccelSec;
                scale = std::clamp(cap, 1.0, scale);
            }
            double gcs =
                static_cast<double>(profiles[i].gcs.size()) * scale;
            t.reqPerGc = std::max(1.0, expected_requests / gcs);
        }
        if (cfg.timeline) {
            auto tl = std::make_unique<sim::Timeline>(spec.name);
            t.tl = tl.get();
            t.gcTrack = tl->track("gc");
            t.queueTrack = tl->track("request queue");
            sim.result.timelines.push_back(std::move(tl));
        }
        sim.result.tenants[i].name = spec.name;
        sim.tenants.push_back(std::move(t));
    }
    if (cfg.timeline) {
        auto tl = std::make_unique<sim::Timeline>("arbiter");
        sim.arbiterTl = tl.get();
        sim.arbPendingTrack = tl->track("pending GCs");
        sim.arbBusyTrack = tl->track("busy slots");
        sim.result.timelines.push_back(std::move(tl));
    }

    sim.scheduleFaults();
    for (std::size_t i = 0; i < sim.tenants.size(); ++i)
        sim.scheduleNextArrival(static_cast<int>(i));

    // Run to the drain: arrivals are bounded by the horizon, queues
    // empty deterministically after it.
    sim.eq.run();

    // Fleet-wide distributions: merge in tenant-index order.
    FleetResult &result = sim.result;
    for (const auto &tr : result.tenants) {
        result.pauseMs.merge(tr.pauseMs);
        result.requestMs.merge(tr.requestMs);
        result.requests += tr.requests;
        result.gcs += tr.gcs;
        result.hostFallbacks += tr.hostFallbacks;
        result.sloMisses += tr.sloMisses;
    }
    result.slotsKilled = sim.slotsKilled;
    return std::move(sim.result);
}

std::vector<std::string>
fleetMixNames()
{
    return {"services", "mixed"};
}

std::vector<TenantSpec>
fleetMix(const std::string &name, int tenants)
{
    CHARON_ASSERT(tenants > 0, "fleet mix needs at least one tenant");
    std::vector<TenantSpec> specs;
    specs.reserve(tenants);
    for (int i = 0; i < tenants; ++i) {
        TenantSpec spec;
        if (name == "services") {
            // All latency-sensitive request servers.
            spec.workload = (i % 2 == 0) ? "SRV" : "SES";
            spec.meanRps = (i % 2 == 0) ? 2000 : 1500;
            spec.serviceUs = (i % 2 == 0) ? 50 : 60;
        } else if (name == "mixed") {
            // Services consolidated with batch tenants whose
            // "requests" are task submissions: fewer, heavier.
            switch (i % 4) {
              case 0:
                spec.workload = "SRV";
                spec.meanRps = 2000;
                spec.serviceUs = 50;
                break;
              case 1:
                spec.workload = "BS";
                spec.meanRps = 400;
                spec.serviceUs = 250;
                break;
              case 2:
                spec.workload = "SES";
                spec.meanRps = 1500;
                spec.serviceUs = 60;
                break;
              default:
                spec.workload = "PR";
                spec.meanRps = 400;
                spec.serviceUs = 250;
                break;
            }
        } else {
            sim::fatal("unknown fleet mix '%s' (expected services/mixed)",
                       name.c_str());
        }
        // Tenants sharing a workload mostly share a functional seed
        // (profiles replay once, courtesy of the trace cache); their
        // collections still land at decorrelated instants because the
        // GC trigger rides each tenant's own arrival stream.  Every
        // eighth tenant rotates the seed for demographic variety.
        spec.seed = 1 + static_cast<std::uint64_t>(i) / 8;
        std::string name = "t";
        name += std::to_string(i);
        name += ':';
        name += spec.workload;
        spec.name = std::move(name);
        specs.push_back(std::move(spec));
    }
    return specs;
}

} // namespace charon::fleet
