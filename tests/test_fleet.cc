/**
 * @file
 * Fleet subsystem tests: seeded arrival processes, arbiter policy
 * semantics (grant order, fair-share ranking, deadline bail-out,
 * fault-killed capacity), the fleet DES determinism contract
 * (identical results at any --jobs, byte-identical tenant-tagged
 * timelines), and the headline regime — the pause-deadline policy
 * beating FCFS on p99.9 GC pause under spike arrivals.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fleet/arbiter.hh"
#include "fleet/arrival.hh"
#include "fleet/fleet_sim.hh"
#include "harness/experiment_runner.hh"
#include "json_mini.hh"

using namespace charon;
using namespace charon::fleet;

// ---------------------------------------------------------------------
// Arrival processes

TEST(Arrival, DeterministicForSeedAndBoundedByHorizon)
{
    ArrivalConfig cfg;
    cfg.curve = ArrivalCurve::Steady;
    cfg.meanRps = 5000;
    cfg.horizonSec = 0.25;

    auto a = generateArrivals(cfg, 42);
    auto b = generateArrivals(cfg, 42);
    auto c = generateArrivals(cfg, 43);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);

    ASSERT_FALSE(a.empty());
    EXPECT_LT(a.back(), sim::secondsToTicks(cfg.horizonSec));
    EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
    // Poisson count concentrates near mean * horizon (= 1250).
    EXPECT_GT(a.size(), 1000u);
    EXPECT_LT(a.size(), 1500u);
}

TEST(Arrival, CurveShapes)
{
    ArrivalConfig cfg;
    cfg.meanRps = 1000;

    cfg.curve = ArrivalCurve::Steady;
    EXPECT_DOUBLE_EQ(cfg.rate(0.1), 1000);
    EXPECT_DOUBLE_EQ(cfg.peakRate(), 1000);

    cfg.curve = ArrivalCurve::Diurnal;
    // Peak a quarter into the period, trough three quarters in.
    EXPECT_GT(cfg.rate(cfg.diurnalPeriodSec * 0.25), 1000);
    EXPECT_LT(cfg.rate(cfg.diurnalPeriodSec * 0.75), 1000);
    EXPECT_DOUBLE_EQ(cfg.peakRate(), 1000 * (1 + cfg.diurnalDepth));

    cfg.curve = ArrivalCurve::Spike;
    EXPECT_DOUBLE_EQ(cfg.rate(0.0), 1000 * cfg.spikeFactor);
    EXPECT_DOUBLE_EQ(cfg.rate(cfg.spikeLenSec + 0.01), 1000);
    EXPECT_DOUBLE_EQ(cfg.peakRate(), 1000 * cfg.spikeFactor);
}

TEST(Arrival, SpikeWindowsConcentrateArrivals)
{
    ArrivalConfig cfg;
    cfg.curve = ArrivalCurve::Spike;
    cfg.meanRps = 4000;
    cfg.horizonSec = 1.0;

    auto ticks = generateArrivals(cfg, 7);
    std::size_t inSpike = 0;
    for (sim::Tick t : ticks) {
        double sec = sim::ticksToSeconds(t);
        if (std::fmod(sec, cfg.spikePeriodSec) < cfg.spikeLenSec)
            ++inSpike;
    }
    double window = cfg.spikeLenSec / cfg.spikePeriodSec;
    // The spike windows cover 12% of the horizon at 8x rate: they
    // should hold several times their share of the arrivals.
    EXPECT_GT(static_cast<double>(inSpike) / ticks.size(), 3 * window);
}

TEST(Arrival, NamesRoundTrip)
{
    for (int i = 0; i < kNumArrivalCurves; ++i) {
        auto curve = static_cast<ArrivalCurve>(i);
        ArrivalCurve parsed;
        EXPECT_TRUE(parseArrivalCurve(arrivalCurveName(curve), parsed));
        EXPECT_EQ(parsed, curve);
    }
    ArrivalCurve out;
    EXPECT_FALSE(parseArrivalCurve("sawtooth", out));
}

// ---------------------------------------------------------------------
// Arbiter policies

namespace
{

GcRequest
makeReq(int tenant, sim::Tick accel, sim::Tick host,
        sim::Tick deadline = sim::maxTick)
{
    GcRequest req;
    req.tenant = tenant;
    req.accelTicks = accel;
    req.hostTicks = host;
    req.deadline = deadline;
    req.unitSec = sim::ticksToSeconds(accel);
    return req;
}

} // namespace

TEST(Arbiter, FcfsGrantsInAdmissionOrder)
{
    Arbiter arb(ArbPolicy::Fcfs, 1);
    arb.enqueue(makeReq(0, 100, 300));
    arb.enqueue(makeReq(1, 100, 300));
    arb.enqueue(makeReq(2, 100, 300));

    auto d1 = arb.dispatch(0);
    ASSERT_EQ(d1.size(), 1u);
    EXPECT_EQ(d1[0].req.tenant, 0);
    EXPECT_FALSE(d1[0].hostFallback);
    EXPECT_EQ(arb.pendingCount(), 2u);

    arb.complete();
    auto d2 = arb.dispatch(100);
    ASSERT_EQ(d2.size(), 1u);
    EXPECT_EQ(d2[0].req.tenant, 1);

    arb.complete();
    auto d3 = arb.dispatch(200);
    ASSERT_EQ(d3.size(), 1u);
    EXPECT_EQ(d3[0].req.tenant, 2);
}

TEST(Arbiter, FairShareFavorsTheLightTenant)
{
    Arbiter arb(ArbPolicy::FairShare, 1);
    // Tenant 0 accumulates device share first.
    arb.enqueue(makeReq(0, 1000, 3000));
    ASSERT_EQ(arb.dispatch(0).size(), 1u);

    // Both queue while the slot is busy; tenant 0 was admitted first
    // but tenant 1 has consumed nothing yet.
    arb.enqueue(makeReq(0, 1000, 3000));
    arb.enqueue(makeReq(1, 1000, 3000));
    EXPECT_TRUE(arb.dispatch(500).empty());

    arb.complete();
    auto d = arb.dispatch(1000);
    ASSERT_EQ(d.size(), 1u);
    EXPECT_EQ(d[0].req.tenant, 1);
    // Each tenant has now been charged one grant's unit-seconds.
    EXPECT_DOUBLE_EQ(arb.tenantUnitSeconds()[0],
                     sim::ticksToSeconds(1000));
    EXPECT_DOUBLE_EQ(arb.tenantUnitSeconds()[1],
                     sim::ticksToSeconds(1000));
}

TEST(Arbiter, DeadlineBailsOutWhenAccelPathMissesSlo)
{
    Arbiter arb(ArbPolicy::DeadlineAware, 1);
    // Occupy the only slot until tick 10000.
    arb.enqueue(makeReq(0, 10000, 30000));
    ASSERT_EQ(arb.dispatch(0).size(), 1u);

    // Tenant 1's deadline (5000) falls before the slot frees; its
    // host path (4000 <= wait 10000 + accel 1000) is no later, so it
    // must bail out to the host immediately.
    arb.enqueue(makeReq(1, 1000, 4000, /*deadline=*/5000));
    // Tenant 2's host path (40000) is far slower than waiting; it
    // stays queued even though it will miss its deadline.
    arb.enqueue(makeReq(2, 1000, 40000, /*deadline=*/5000));

    auto d = arb.dispatch(0);
    ASSERT_EQ(d.size(), 1u);
    EXPECT_EQ(d[0].req.tenant, 1);
    EXPECT_TRUE(d[0].hostFallback);
    EXPECT_EQ(arb.hostFallbacks(), 1u);
    EXPECT_EQ(arb.pendingCount(), 1u);

    // A comfortable deadline keeps the accelerated path.
    arb.enqueue(makeReq(3, 1000, 4000, /*deadline=*/50000));
    EXPECT_TRUE(arb.dispatch(0).empty());
    EXPECT_EQ(arb.pendingCount(), 2u);
}

TEST(Arbiter, DeadlineOrdersByEarliestDeadline)
{
    Arbiter arb(ArbPolicy::DeadlineAware, 1);
    arb.enqueue(makeReq(0, 100, 100000, /*deadline=*/9000));
    arb.enqueue(makeReq(1, 100, 100000, /*deadline=*/4000));
    auto d = arb.dispatch(0);
    ASSERT_EQ(d.size(), 1u);
    EXPECT_EQ(d[0].req.tenant, 1); // tighter deadline wins the slot
}

TEST(Arbiter, ZeroCapacityRunsEverythingHostSide)
{
    for (int p = 0; p < kNumArbPolicies; ++p) {
        Arbiter arb(static_cast<ArbPolicy>(p), 2);
        arb.killSlots(5); // clamps at zero
        EXPECT_EQ(arb.capacity(), 0);
        arb.enqueue(makeReq(0, 100, 300));
        arb.enqueue(makeReq(1, 100, 300));
        auto d = arb.dispatch(0);
        ASSERT_EQ(d.size(), 2u);
        EXPECT_TRUE(d[0].hostFallback);
        EXPECT_TRUE(d[1].hostFallback);
        EXPECT_EQ(arb.pendingCount(), 0u);
    }
}

TEST(Arbiter, KillSlotsLetsInFlightWorkFinish)
{
    Arbiter arb(ArbPolicy::Fcfs, 2);
    arb.enqueue(makeReq(0, 100, 300));
    arb.enqueue(makeReq(1, 100, 300));
    ASSERT_EQ(arb.dispatch(0).size(), 2u);
    EXPECT_EQ(arb.busy(), 2);

    arb.killSlots(1);
    EXPECT_EQ(arb.capacity(), 1);
    // Both in-flight collections still complete on their slots.
    arb.complete();
    arb.complete();
    EXPECT_EQ(arb.busy(), 0);

    // But only one grant fits from now on.
    arb.enqueue(makeReq(0, 100, 300));
    arb.enqueue(makeReq(1, 100, 300));
    EXPECT_EQ(arb.dispatch(200).size(), 1u);
}

TEST(Arbiter, PolicyNamesRoundTrip)
{
    for (int i = 0; i < kNumArbPolicies; ++i) {
        auto policy = static_cast<ArbPolicy>(i);
        ArbPolicy parsed;
        EXPECT_TRUE(parseArbPolicy(arbPolicyName(policy), parsed));
        EXPECT_EQ(parsed, policy);
    }
    ArbPolicy out;
    EXPECT_FALSE(parseArbPolicy("lifo", out));
}

// ---------------------------------------------------------------------
// Fleet DES over synthetic profiles (no harness, no replay)

namespace
{

/** A tenant profile of @p gcs identical collections. */
TenantProfile
syntheticProfile(int gcs, double accelMs, double hostMs,
                 bool majorEvery4th = false)
{
    TenantProfile profile;
    for (int i = 0; i < gcs; ++i) {
        GcProfile gc;
        gc.accelTicks = sim::secondsToTicks(accelMs * 1e-3);
        gc.hostTicks = sim::secondsToTicks(hostMs * 1e-3);
        gc.unitSec = accelMs * 1e-3;
        gc.major = majorEvery4th && (i % 4 == 3);
        profile.gcs.push_back(gc);
        profile.soloAccelSec += accelMs * 1e-3;
        profile.soloHostSec += hostMs * 1e-3;
    }
    return profile;
}

FleetConfig
contendedConfig(ArbPolicy policy, int tenants = 8)
{
    FleetConfig cfg;
    cfg.policy = policy;
    cfg.sloMs = 1.0;
    cfg.slots = 4;
    cfg.seed = 1;
    cfg.arrival.curve = ArrivalCurve::Spike;
    cfg.arrival.horizonSec = 0.5;
    cfg.gcRateScale = 24;
    for (int i = 0; i < tenants; ++i) {
        TenantSpec spec;
        spec.name = "t";
        spec.name += std::to_string(i);
        spec.meanRps = 2000;
        spec.serviceUs = 50;
        cfg.tenants.push_back(spec);
    }
    return cfg;
}

std::vector<TenantProfile>
contendedProfiles(int tenants = 8)
{
    std::vector<TenantProfile> profiles;
    for (int i = 0; i < tenants; ++i)
        profiles.push_back(syntheticProfile(12, 0.2, 0.7, true));
    return profiles;
}

} // namespace

TEST(FleetSim, DeterministicAcrossRuns)
{
    FleetConfig cfg = contendedConfig(ArbPolicy::DeadlineAware);
    auto profiles = contendedProfiles();
    FleetResult a = runFleet(cfg, profiles);
    FleetResult b = runFleet(cfg, profiles);

    EXPECT_EQ(a.requests, b.requests);
    EXPECT_EQ(a.gcs, b.gcs);
    EXPECT_EQ(a.hostFallbacks, b.hostFallbacks);
    EXPECT_EQ(a.sloMisses, b.sloMisses);
    // Sample-for-sample identical, not just summary-identical.
    EXPECT_EQ(a.pauseMs.samples(), b.pauseMs.samples());
    EXPECT_EQ(a.requestMs.samples(), b.requestMs.samples());
    ASSERT_EQ(a.tenants.size(), b.tenants.size());
    for (std::size_t i = 0; i < a.tenants.size(); ++i) {
        EXPECT_EQ(a.tenants[i].pauseMs.samples(),
                  b.tenants[i].pauseMs.samples());
    }
}

TEST(FleetSim, SeedChangesTheRealization)
{
    FleetConfig cfg = contendedConfig(ArbPolicy::Fcfs);
    auto profiles = contendedProfiles();
    FleetResult a = runFleet(cfg, profiles);
    cfg.seed = 2;
    FleetResult b = runFleet(cfg, profiles);
    EXPECT_NE(a.pauseMs.samples(), b.pauseMs.samples());
}

TEST(FleetSim, DeadlineBeatsFcfsOnTailPauseUnderSpike)
{
    // 16 tenants on 4 slots: spike windows multiply the collection
    // rate well past the device's drain rate, so convoys form.  The
    // stop-the-world trigger self-limits queue depth (a waiting
    // tenant stops serving, so it stops generating collections),
    // which caps waits near half a millisecond — pick the SLO and
    // host pause inside that range so the bail-out trade is live.
    std::vector<TenantProfile> profiles;
    for (int i = 0; i < 16; ++i)
        profiles.push_back(syntheticProfile(12, 0.2, 0.5, true));
    FleetConfig fcfsCfg = contendedConfig(ArbPolicy::Fcfs, 16);
    fcfsCfg.sloMs = 0.5;
    FleetConfig dlCfg = contendedConfig(ArbPolicy::DeadlineAware, 16);
    dlCfg.sloMs = 0.5;
    FleetResult fcfs = runFleet(fcfsCfg, profiles);
    FleetResult deadline = runFleet(dlCfg, profiles);

    // The headline regime: synchronized spikes convoy collections
    // onto the shared device; the deadline policy sheds the doomed
    // waiters to the bounded host path and caps the tail.
    EXPECT_GT(deadline.hostFallbacks, 0u);
    EXPECT_LT(deadline.pauseMs.quantile(0.999),
              fcfs.pauseMs.quantile(0.999));
    EXPECT_LE(deadline.sloMisses, fcfs.sloMisses);
    // Identical demand either way: same GCs, same requests.
    EXPECT_EQ(deadline.gcs, fcfs.gcs);
    EXPECT_EQ(deadline.requests, fcfs.requests);
}

TEST(FleetSim, PauseIsWaitPlusDuration)
{
    // One tenant, no contention: every pause is exactly its solo
    // accelerated duration (wait 0).
    FleetConfig cfg;
    cfg.slots = 4;
    cfg.sloMs = 0; // no SLO: nothing may bail out
    cfg.arrival.curve = ArrivalCurve::Steady;
    cfg.arrival.horizonSec = 0.2;
    TenantSpec spec;
    spec.name = "solo";
    spec.meanRps = 2000;
    spec.serviceUs = 50;
    cfg.tenants.push_back(spec);
    std::vector<TenantProfile> profiles{syntheticProfile(10, 0.25, 1.0)};

    FleetResult res = runFleet(cfg, profiles);
    ASSERT_GT(res.gcs, 0u);
    EXPECT_EQ(res.hostFallbacks, 0u);
    EXPECT_EQ(res.sloMisses, 0u);
    EXPECT_NEAR(res.pauseMs.quantile(0.5), 0.25, 1e-9);
    EXPECT_NEAR(res.pauseMs.max(), 0.25, 1e-9);
}

TEST(FleetSim, GclessTenantServesWithoutCollecting)
{
    FleetConfig cfg;
    cfg.slots = 4;
    cfg.arrival.horizonSec = 0.1;
    TenantSpec spec;
    spec.name = "gcless";
    spec.meanRps = 1000;
    cfg.tenants.push_back(spec);
    std::vector<TenantProfile> profiles{TenantProfile{}};

    FleetResult res = runFleet(cfg, profiles);
    EXPECT_GT(res.requests, 0u);
    EXPECT_EQ(res.gcs, 0u);
    EXPECT_EQ(res.pauseMs.count(), 0u);
    // Empty distributions must report 0, not NaN.
    EXPECT_EQ(res.pauseMs.quantile(0.999), 0.0);
}

TEST(FleetSim, UnitDeathFaultShedsToHost)
{
    FleetConfig cfg = contendedConfig(ArbPolicy::Fcfs);
    auto profiles = contendedProfiles();
    FleetResult clean = runFleet(cfg, profiles);
    ASSERT_EQ(clean.slotsKilled, 0);

    fault::FaultSpec spec;
    spec.kind = fault::FaultKind::UnitDeath;
    spec.cube = -1; // the whole device
    spec.atTick = sim::secondsToTicks(0.1);
    cfg.faults.specs.push_back(spec);
    FleetResult faulted = runFleet(cfg, profiles);

    EXPECT_EQ(faulted.slotsKilled, 4);
    // Work continues host-side: same total collections, and every
    // one after the kill is a host fallback.
    EXPECT_EQ(faulted.gcs, clean.gcs);
    EXPECT_GT(faulted.hostFallbacks, 0u);
    // Host pauses are longer; the fleet tail degrades but survives.
    EXPECT_GE(faulted.pauseMs.quantile(0.999),
              clean.pauseMs.quantile(0.999));
}

TEST(FleetSim, SingleSlotKillOnlyDegradesCapacity)
{
    FleetConfig cfg = contendedConfig(ArbPolicy::Fcfs);
    auto profiles = contendedProfiles();
    fault::FaultSpec spec;
    spec.kind = fault::FaultKind::CubeOffline;
    spec.cube = 0;
    spec.atTick = sim::secondsToTicks(0.1);
    cfg.faults.specs.push_back(spec);
    FleetResult res = runFleet(cfg, profiles);
    EXPECT_EQ(res.slotsKilled, 1);
    // Three slots survive; FCFS never uses the host path.
    EXPECT_EQ(res.hostFallbacks, 0u);
}

// ---------------------------------------------------------------------
// Tenant-tagged timelines

TEST(FleetSim, TimelinesAreTenantTaggedAndRoundTripPerfettoJson)
{
    FleetConfig cfg = contendedConfig(ArbPolicy::DeadlineAware, 4);
    cfg.timeline = true;
    cfg.slots = 1; // force queueing so "wait" spans appear
    auto profiles = contendedProfiles(4);
    FleetResult res = runFleet(cfg, profiles);

    // One process per tenant plus the arbiter, in tenant order.
    ASSERT_EQ(res.timelines.size(), 5u);
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(res.timelines[i]->processName(),
                  "t" + std::to_string(i));
    }
    EXPECT_EQ(res.timelines[4]->processName(), "arbiter");

    std::vector<const sim::Timeline *> ptrs;
    for (const auto &tl : res.timelines)
        ptrs.push_back(tl.get());
    std::ostringstream os;
    sim::Timeline::writeChromeTrace(os, ptrs);

    auto root = testjson::parse(os.str());
    ASSERT_TRUE(root && root->isObject());
    auto events = root->get("traceEvents");
    ASSERT_TRUE(events && events->isArray());

    std::set<std::string> processes;
    std::set<std::string> spanNames;
    for (const auto &ev : events->array) {
        if (ev->str("ph") == "M"
            && ev->str("name") == "process_name") {
            auto args = ev->get("args");
            if (args)
                processes.insert(args->str("name"));
        }
        if (ev->str("ph") == "X")
            spanNames.insert(ev->str("name"));
    }
    EXPECT_EQ(processes.size(), 5u);
    EXPECT_TRUE(processes.count("t0"));
    EXPECT_TRUE(processes.count("arbiter"));
    // GC spans are tagged by what ran where; contention guarantees
    // both kinds appear, and the deadline policy sheds to the host.
    EXPECT_TRUE(spanNames.count("minor GC"));
    EXPECT_TRUE(spanNames.count("wait"));
    if (res.hostFallbacks > 0) {
        EXPECT_TRUE(spanNames.count("host GC"));
    }

    // Byte-identical on a rerun: the timeline is part of the
    // determinism contract.
    FleetResult res2 = runFleet(cfg, profiles);
    std::vector<const sim::Timeline *> ptrs2;
    for (const auto &tl : res2.timelines)
        ptrs2.push_back(tl.get());
    std::ostringstream os2;
    sim::Timeline::writeChromeTrace(os2, ptrs2);
    EXPECT_EQ(os.str(), os2.str());
}

TEST(FleetSim, NoTimelineObjectsWhenDisabled)
{
    FleetConfig cfg = contendedConfig(ArbPolicy::Fcfs, 2);
    auto profiles = contendedProfiles(2);
    auto before = sim::Timeline::totalInstancesCreated();
    FleetResult res = runFleet(cfg, profiles);
    EXPECT_TRUE(res.timelines.empty());
    EXPECT_EQ(sim::Timeline::totalInstancesCreated(), before);
}

// ---------------------------------------------------------------------
// Mixes and the full profile pipeline

TEST(FleetMix, NamedMixesProduceTenants)
{
    auto names = fleetMixNames();
    ASSERT_GE(names.size(), 2u);
    for (const auto &name : names) {
        auto specs = fleetMix(name, 8);
        ASSERT_EQ(specs.size(), 8u);
        for (const auto &spec : specs) {
            EXPECT_FALSE(spec.name.empty());
            EXPECT_FALSE(spec.workload.empty());
            EXPECT_GT(spec.meanRps, 0);
        }
    }
    // The mixed mix interleaves services with batch tenants.
    auto mixed = fleetMix("mixed", 4);
    EXPECT_EQ(mixed[0].workload, "SRV");
    EXPECT_EQ(mixed[1].workload, "BS");
    EXPECT_EQ(mixed[2].workload, "SES");
    EXPECT_EQ(mixed[3].workload, "PR");
}

TEST(FleetProfiles, BuildAndRunAreIdenticalAtAnyJobs)
{
    // The full chain: functional service-workload runs, platform +
    // host replays, profile assembly, fleet DES — once on one worker
    // thread and once on four.  Everything must match exactly.
    std::vector<TenantSpec> specs;
    for (int i = 0; i < 2; ++i) {
        TenantSpec spec;
        spec.name = "t" + std::to_string(i) + ":SRV";
        spec.workload = "SRV";
        spec.meanRps = 1500;
        spec.serviceUs = 50;
        specs.push_back(spec);
    }

    auto build = [&](int jobs) {
        harness::RunnerConfig rc;
        rc.jobs = jobs;
        rc.cacheDir.clear(); // no persistent cache: really rerun
        harness::ExperimentRunner runner(rc);
        std::vector<TenantProfile> profiles;
        std::string error;
        EXPECT_TRUE(buildProfiles(runner, specs, &profiles, &error))
            << error;
        return profiles;
    };
    auto p1 = build(1);
    auto p4 = build(4);

    ASSERT_EQ(p1.size(), p4.size());
    for (std::size_t t = 0; t < p1.size(); ++t) {
        ASSERT_EQ(p1[t].gcs.size(), p4[t].gcs.size());
        EXPECT_GT(p1[t].gcs.size(), 0u);
        EXPECT_DOUBLE_EQ(p1[t].soloAccelSec, p4[t].soloAccelSec);
        EXPECT_DOUBLE_EQ(p1[t].soloHostSec, p4[t].soloHostSec);
        for (std::size_t g = 0; g < p1[t].gcs.size(); ++g) {
            EXPECT_EQ(p1[t].gcs[g].accelTicks, p4[t].gcs[g].accelTicks);
            EXPECT_EQ(p1[t].gcs[g].hostTicks, p4[t].gcs[g].hostTicks);
            EXPECT_DOUBLE_EQ(p1[t].gcs[g].unitSec, p4[t].gcs[g].unitSec);
            EXPECT_EQ(p1[t].gcs[g].major, p4[t].gcs[g].major);
        }
        // The accelerated path must actually accelerate.
        EXPECT_LT(p1[t].soloAccelSec, p1[t].soloHostSec);
    }

    // And the DES over them is sample-for-sample identical.
    FleetConfig cfg;
    cfg.tenants = specs;
    cfg.slots = 4;
    cfg.arrival.horizonSec = 0.2;
    FleetResult a = runFleet(cfg, p1);
    FleetResult b = runFleet(cfg, p4);
    EXPECT_EQ(a.pauseMs.samples(), b.pauseMs.samples());
    EXPECT_EQ(a.requestMs.samples(), b.requestMs.samples());
}
