#include "param_space.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <set>
#include <sstream>

#include "sim/rng.hh"
#include "workload/catalog.hh"

namespace charon::dse
{

std::string
DsePoint::str() const
{
    std::ostringstream os;
    os << workload;
    // Emit the collector token only off the default, so every
    // pre-existing journal key (all ParallelScavenge) still matches
    // and resume stays intact.
    if (collector != gc::CollectorModel::ParallelScavenge)
        os << '/' << gc::collectorToken(collector);
    // Same back-compat rule for the backend axis: the default
    // (near-memory Charon) emits nothing, so journals written before
    // the axis existed resume with zero re-evaluated cells.
    if (backend != sim::PlatformKind::CharonNmp)
        os << "/bk-" << sim::backendName(sim::backendFor(backend));
    // Fleet axes follow the same off-default-only rule.
    if (tenants != 0)
        os << "/ft" << tenants;
    if (arbPolicy != "fcfs")
        os << "/arb-" << arbPolicy;
    if (fleetSloMs != 0)
        os << "/slo" << fleetSloMs;
    os << "/h" << heapBytes << "/s" << seed << "/t"
       << gcThreads << "/c" << numCubes << "/ct"
       << copyOffloadThreshold << "/cs" << copySearchUnits << "/bc"
       << bitmapCountUnits << "/sp" << scanPushUnits << "/tsv"
       << tsvGBsPerCube << "/link" << linkGBs
       << (distributedStructures ? "/dist" : "/uni");
    return os.str();
}

harness::FunctionalKey
DsePoint::functionalKey() const
{
    harness::FunctionalKey key;
    key.workload = workload;
    key.collector = collector;
    key.heapBytes = heapBytes;
    key.seed = seed;
    key.gcThreads = gcThreads;
    key.numCubes = numCubes;
    key.copyOffloadThreshold = copyOffloadThreshold;
    return key;
}

sim::SystemConfig
DsePoint::systemConfig() const
{
    sim::SystemConfig cfg = sim::SystemConfig::table2();
    cfg.gcThreads = gcThreads;
    cfg.hmc.cubes = numCubes;
    cfg.hmc.internalGBsPerCube = tsvGBsPerCube;
    cfg.hmc.linkGBs = linkGBs;
    cfg.charon.copySearchUnits = copySearchUnits;
    cfg.charon.bitmapCountUnits = bitmapCountUnits;
    cfg.charon.scanPushUnits = scanPushUnits;
    cfg.charon.distributedStructures = distributedStructures;
    return cfg;
}

namespace
{

bool
parseU64(const std::string &v, std::uint64_t &out)
{
    errno = 0;
    char *end = nullptr;
    unsigned long long n = std::strtoull(v.c_str(), &end, 10);
    if (errno != 0 || end == nullptr || *end != '\0' || v.empty())
        return false;
    out = n;
    return true;
}

bool
parseInt(const std::string &v, int &out)
{
    std::uint64_t n;
    if (!parseU64(v, n) || n > 1u << 20)
        return false;
    out = static_cast<int>(n);
    return true;
}

bool
parseDouble(const std::string &v, double &out)
{
    errno = 0;
    char *end = nullptr;
    out = std::strtod(v.c_str(), &end);
    return errno == 0 && end != nullptr && *end == '\0' && !v.empty();
}

bool
parseBool(const std::string &v, bool &out)
{
    if (v == "0" || v == "false" || v == "no") {
        out = false;
        return true;
    }
    if (v == "1" || v == "true" || v == "yes") {
        out = true;
        return true;
    }
    return false;
}

struct AxisDef
{
    const char *name;
    const char *help;
    bool (*apply)(DsePoint &, const std::string &);
};

const AxisDef kAxes[] = {
    {"workload", "catalog short name (BS KM LR CC PR ALS SRV SES)",
     [](DsePoint &p, const std::string &v) {
         // Validate against the catalogs here so a typo fails at
         // registration instead of hitting findWorkload's fatal path
         // mid-sweep; canonicalize the case while at it.
         if (const auto *w = workload::findWorkloadOrNull(v)) {
             p.workload = w->name;
             return true;
         }
         return false;
     }},
    {"collector", "collector family (ps g1 cms rc)",
     [](DsePoint &p, const std::string &v) {
         for (gc::CollectorModel model : gc::kCollectorModels) {
             if (v == gc::collectorToken(model)) {
                 p.collector = model;
                 return true;
             }
         }
         return false;
     }},
    {"heap-mib", "max heap in MiB (0 = catalog default)",
     [](DsePoint &p, const std::string &v) {
         std::uint64_t mib;
         if (!parseU64(v, mib))
             return false;
         p.heapBytes = mib << 20;
         return true;
     }},
    {"seed", "workload RNG seed",
     [](DsePoint &p, const std::string &v) {
         return parseU64(v, p.seed);
     }},
    {"gc-threads", "GC threads (functional + replay)",
     [](DsePoint &p, const std::string &v) {
         return parseInt(v, p.gcThreads) && p.gcThreads > 0;
     }},
    {"cubes", "HMC cube count (trace is re-recorded)",
     [](DsePoint &p, const std::string &v) {
         return parseInt(v, p.numCubes) && p.numCubes > 0;
     }},
    {"offload-threshold", "copies below this stay on the host (bytes)",
     [](DsePoint &p, const std::string &v) {
         return parseU64(v, p.copyOffloadThreshold);
     }},
    {"units", "per-primitive unit count (sets all three kinds)",
     [](DsePoint &p, const std::string &v) {
         int n;
         if (!parseInt(v, n) || n <= 0)
             return false;
         p.copySearchUnits = n;
         p.bitmapCountUnits = n;
         p.scanPushUnits = n;
         return true;
     }},
    {"copy-search-units", "Copy/Search units in total",
     [](DsePoint &p, const std::string &v) {
         return parseInt(v, p.copySearchUnits) && p.copySearchUnits > 0;
     }},
    {"bitmap-count-units", "Bitmap Count units in total",
     [](DsePoint &p, const std::string &v) {
         return parseInt(v, p.bitmapCountUnits)
                && p.bitmapCountUnits > 0;
     }},
    {"scan-push-units", "Scan&Push units (central cube)",
     [](DsePoint &p, const std::string &v) {
         return parseInt(v, p.scanPushUnits) && p.scanPushUnits > 0;
     }},
    {"tsv-gbs", "internal (TSV) bandwidth per cube, GB/s",
     [](DsePoint &p, const std::string &v) {
         return parseDouble(v, p.tsvGBsPerCube) && p.tsvGBsPerCube > 0;
     }},
    {"link-gbs", "external serial-link bandwidth, GB/s",
     [](DsePoint &p, const std::string &v) {
         return parseDouble(v, p.linkGBs) && p.linkGBs > 0;
     }},
    {"distributed", "distributed bitmap cache/TLB (0|1)",
     [](DsePoint &p, const std::string &v) {
         return parseBool(v, p.distributedStructures);
     }},
    {"tenants", "tenant heaps sharing the node (0 = single-tenant)",
     [](DsePoint &p, const std::string &v) {
         return parseInt(v, p.tenants) && p.tenants <= 64;
     }},
    {"arb", "fleet arbitration policy (fcfs fair deadline)",
     [](DsePoint &p, const std::string &v) {
         if (v != "fcfs" && v != "fair" && v != "deadline")
             return false;
         p.arbPolicy = v;
         return true;
     }},
    {"slo-ms", "fleet GC-pause SLO deadline in ms (0 = none)",
     [](DsePoint &p, const std::string &v) {
         return parseDouble(v, p.fleetSloMs) && p.fleetSloMs >= 0;
     }},
    {"backend", "offload backend vs the DDR4 baseline "
                "(nmp igpu cxl host)",
     [](DsePoint &p, const std::string &v) {
         using sim::PlatformKind;
         static const std::pair<const char *, PlatformKind> kinds[] = {
             {"nmp", PlatformKind::CharonNmp},
             {"igpu", PlatformKind::IgpuOffload},
             {"cxl", PlatformKind::CxlMsa},
             {"host", PlatformKind::HostHmc},
         };
         for (const auto &[token, kind] : kinds) {
             if (v == token) {
                 p.backend = kind;
                 return true;
             }
         }
         return false;
     }},
};

const AxisDef *
findAxis(const std::string &name)
{
    for (const auto &def : kAxes)
        if (name == def.name)
            return &def;
    return nullptr;
}

} // namespace

bool
applyAxisValue(DsePoint &point, const std::string &name,
               const std::string &value, std::string *error)
{
    const AxisDef *def = findAxis(name);
    if (def == nullptr) {
        if (error)
            *error = "unknown axis '" + name + "'";
        return false;
    }
    if (!def->apply(point, value)) {
        if (error)
            *error = "bad value '" + value + "' for axis '" + name + "'";
        return false;
    }
    return true;
}

bool
ParamSpace::axis(const std::string &name,
                 std::vector<std::string> values, std::string *error)
{
    if (values.empty()) {
        if (error)
            *error = "axis '" + name + "' has no values";
        return false;
    }
    // Validate every value against a scratch point now, so a typo
    // fails the command line, not the hundredth sweep cell.
    DsePoint scratch = base;
    for (const auto &v : values)
        if (!applyAxisValue(scratch, name, v, error))
            return false;
    axes_.push_back(ParamAxis{name, std::move(values)});
    return true;
}

bool
ParamSpace::axisSpec(const std::string &spec, std::string *error)
{
    auto eq = spec.find('=');
    if (eq == std::string::npos || eq == 0) {
        if (error)
            *error = "expected NAME=V1,V2,... in axis '" + spec + "'";
        return false;
    }
    std::vector<std::string> values;
    std::stringstream ss(spec.substr(eq + 1));
    std::string item;
    while (std::getline(ss, item, ','))
        values.push_back(item);
    return axis(spec.substr(0, eq), std::move(values), error);
}

std::size_t
ParamSpace::size() const
{
    std::size_t n = 1;
    for (const auto &axis : axes_)
        n *= axis.values.size();
    return n;
}

std::vector<DsePoint>
ParamSpace::enumerate() const
{
    const std::size_t n = size();
    std::vector<DsePoint> points;
    points.reserve(n);
    for (std::size_t index = 0; index < n; ++index) {
        DsePoint p = base;
        // Mixed-radix decode, last axis fastest.
        std::size_t rest = index;
        for (std::size_t a = axes_.size(); a-- > 0;) {
            const auto &axis = axes_[a];
            std::size_t v = rest % axis.values.size();
            rest /= axis.values.size();
            // Values were validated at registration; re-application
            // cannot fail.
            applyAxisValue(p, axis.name, axis.values[v], nullptr);
        }
        points.push_back(std::move(p));
    }
    return points;
}

std::vector<DsePoint>
ParamSpace::sample(std::size_t samples, std::uint64_t seed) const
{
    auto all = enumerate();
    if (samples >= all.size())
        return all;
    // Seeded Floyd sampling of distinct indices, then enumeration
    // order: deterministic in (space, samples, seed) and independent
    // of --jobs.
    sim::Rng rng(seed);
    std::set<std::size_t> picked;
    for (std::size_t j = all.size() - samples; j < all.size(); ++j) {
        std::size_t t = static_cast<std::size_t>(rng.below(j + 1));
        if (!picked.insert(t).second)
            picked.insert(j);
    }
    std::vector<DsePoint> points;
    points.reserve(samples);
    for (std::size_t i : picked)
        points.push_back(all[i]);
    return points;
}

std::vector<std::pair<std::string, std::string>>
ParamSpace::axisHelp()
{
    std::vector<std::pair<std::string, std::string>> help;
    for (const auto &def : kAxes)
        help.emplace_back(def.name, def.help);
    return help;
}

} // namespace charon::dse
