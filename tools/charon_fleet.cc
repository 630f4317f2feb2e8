/**
 * @file
 * charon-fleet: run one multi-tenant fleet configuration and report
 * per-tenant and fleet-wide tail latency.
 *
 * The bench (bench/fleet) sweeps the whole mix x curve x policy grid;
 * this tool is the single-configuration driver for interactive
 * exploration — pick a mix, an arrival curve, an arbitration policy
 * and an SLO, optionally kill device slots mid-run, and read the
 * quantiles (or open the tenant-tagged --trace-out timeline in
 * Perfetto).
 *
 *   charon-fleet --mix services --arrival spike --policy deadline
 *   charon-fleet --tenants 12 --policy fair --slo-ms 0.5
 *   charon-fleet --fault unit-death:cube=0:at-ns=200000000 \
 *       --trace-out fleet.json
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "fault/fault.hh"
#include "fleet/fleet_sim.hh"
#include "harness/options.hh"
#include "harness/result_sink.hh"
#include "report/table.hh"

using namespace charon;
using namespace charon::fleet;

int
main(int argc, char **argv)
{
    harness::Options opt;
    opt.helpHeader =
        "charon-fleet: one multi-tenant fleet run\n"
        "(bench/fleet sweeps the full policy grid)";

    std::string mix = "services";
    int tenants = 16;
    ArrivalCurve curve = ArrivalCurve::Spike;
    ArbPolicy policy = ArbPolicy::DeadlineAware;
    double sloMs = 1.0;
    double horizonSec = 1.0;
    double gcRateScale = 24.0;
    int slots = 0;
    std::uint64_t seed = 1;
    std::vector<std::string> faultSpecs;
    opt.flag("--mix", &mix,
             "tenant mix: services or mixed\n(default services)");
    opt.flag("--tenants", &tenants, "tenant heaps\n(default 16)");
    opt.flag(
        "--arrival",
        [&curve](const std::string &v) {
            return parseArrivalCurve(v, curve);
        },
        "arrival curve: steady, diurnal, spike\n(default spike)",
        "CURVE");
    opt.flag(
        "--policy",
        [&policy](const std::string &v) {
            return parseArbPolicy(v, policy);
        },
        "arbitration: fcfs, fair, deadline\n(default deadline)",
        "POLICY");
    opt.flag("--slo-ms", &sloMs,
             "GC-pause SLO deadline, ms (0 = none;\ndefault 1)");
    opt.flag("--horizon", &horizonSec,
             "simulated seconds of arrivals\n(default 1)");
    opt.flag("--gc-scale", &gcRateScale,
             "consolidation density: solo-profile GC\ncycles per "
             "horizon (default 24)");
    opt.flag("--slots", &slots,
             "device collection slots (0 = derive from\nthe platform)");
    opt.flag("--seed", &seed,
             "fleet seed for arrival + jitter streams\n(default 1)");
    opt.flag(
        "--fault",
        [&faultSpecs](const std::string &v) {
            faultSpecs.push_back(v);
            return true;
        },
        "kill slots: unit-death / cube-offline with\nat-ns "
        "(repeatable)",
        "KIND[:KEY=V]...");
    if (!harness::parseOptions(argc, argv, opt))
        return 2;

    FleetConfig cfg;
    cfg.policy = policy;
    cfg.sloMs = sloMs;
    cfg.arrival.curve = curve;
    cfg.arrival.horizonSec = horizonSec;
    cfg.gcRateScale = gcRateScale;
    cfg.slots = slots;
    cfg.seed = seed;
    cfg.faults.seed = seed;
    cfg.timeline = !opt.traceOut.empty();
    cfg.tenants = fleetMix(mix, tenants);
    for (const auto &text : faultSpecs) {
        fault::FaultSpec spec;
        std::string error;
        if (!fault::parseFaultSpec(text, spec, &error)) {
            std::fprintf(stderr, "%s: %s\n", argv[0], error.c_str());
            return 2;
        }
        cfg.faults.specs.push_back(spec);
    }

    harness::RunnerConfig rc = opt.runnerConfig();
    rc.timeline = false; // the fleet emits its own timelines
    harness::ExperimentRunner runner(rc);
    std::vector<TenantProfile> profiles;
    std::string error;
    if (!buildProfiles(runner, cfg.tenants, &profiles, &error)) {
        std::fprintf(stderr, "%s: %s\n", argv[0], error.c_str());
        return 1;
    }

    FleetResult res = runFleet(cfg, profiles);

    harness::Report report(opt);
    auto &table = report.table(
        "fleet",
        "Fleet: " + mix + " x " + std::to_string(tenants)
            + " tenants, " + arrivalCurveName(curve) + " arrivals, "
            + arbPolicyName(policy) + " policy, SLO "
            + report::num(sloMs, 2) + " ms",
        {"tenant", "requests", "GCs", "GC p50(ms)", "GC p99(ms)",
         "GC p99.9(ms)", "GC max(ms)", "req p50(ms)", "req p99.9(ms)",
         "host GCs", "SLO miss"});
    auto row = [](const std::string &name, const TenantResult &t) {
        return std::vector<std::string>{
            name,
            std::to_string(t.requests),
            std::to_string(t.gcs),
            report::num(t.pauseMs.quantile(0.50), 3),
            report::num(t.pauseMs.quantile(0.99), 3),
            report::num(t.pauseMs.quantile(0.999), 3),
            report::num(t.maxPauseMs, 3),
            report::num(t.requestMs.quantile(0.50), 3),
            report::num(t.requestMs.quantile(0.999), 3),
            std::to_string(t.hostFallbacks),
            std::to_string(t.sloMisses)};
    };
    for (const auto &tr : res.tenants)
        table.addRow(row(tr.name, tr));
    TenantResult fleetWide;
    fleetWide.pauseMs = res.pauseMs;
    fleetWide.requestMs = res.requestMs;
    fleetWide.requests = res.requests;
    fleetWide.gcs = res.gcs;
    fleetWide.hostFallbacks = res.hostFallbacks;
    fleetWide.sloMisses = res.sloMisses;
    fleetWide.maxPauseMs = res.pauseMs.max();
    table.addRow(row("fleet", fleetWide));
    if (res.slotsKilled > 0) {
        std::string note = "\n";
        note += std::to_string(res.slotsKilled);
        note += " device slot(s) fault-killed during the run";
        table.note(note);
    }

    if (!opt.traceOut.empty()) {
        std::vector<const sim::Timeline *> ptrs;
        for (const auto &tl : res.timelines)
            ptrs.push_back(tl.get());
        std::ofstream out(opt.traceOut);
        sim::Timeline::writeChromeTrace(out, ptrs);
        std::fprintf(stderr,
                     "charon-fleet: wrote %zu timelines to %s\n",
                     ptrs.size(), opt.traceOut.c_str());
    }

    return report.finish(std::cout);
}
