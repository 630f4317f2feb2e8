#include "fault.hh"

#include <algorithm>
#include <cstdlib>

#include "sim/logging.hh"

namespace charon::fault
{

namespace
{

struct KindName
{
    FaultKind kind;
    const char *name;
};

constexpr KindName kKindNames[] = {
    {FaultKind::UnitStall, "unit-stall"},
    {FaultKind::UnitDeath, "unit-death"},
    {FaultKind::TlbPoison, "tlb-poison"},
    {FaultKind::LinkDegrade, "link-degrade"},
    {FaultKind::TsvDegrade, "tsv-degrade"},
    {FaultKind::CubeOffline, "cube-offline"},
    {FaultKind::AllocFail, "alloc-fail"},
    {FaultKind::CardFlip, "card-flip"},
    {FaultKind::MarkBitmapFlip, "mark-bitmap-flip"},
};

/** Capacity multiplier for the TSVs of an offline cube: the cube is
 *  unreachable for new work but lets in-flight traffic crawl out, so
 *  the phase barrier still drains. */
constexpr double kOfflineTsvFactor = 0.05;

} // namespace

const char *
faultKindName(FaultKind kind)
{
    for (const auto &kn : kKindNames) {
        if (kn.kind == kind)
            return kn.name;
    }
    sim::panic("bad fault kind");
}

bool
parseFaultKind(const std::string &name, FaultKind &out)
{
    for (const auto &kn : kKindNames) {
        if (name == kn.name) {
            out = kn.kind;
            return true;
        }
    }
    return false;
}

bool
isTimingFault(FaultKind kind)
{
    switch (kind) {
      case FaultKind::UnitStall:
      case FaultKind::UnitDeath:
      case FaultKind::TlbPoison:
      case FaultKind::LinkDegrade:
      case FaultKind::TsvDegrade:
      case FaultKind::CubeOffline:
        return true;
      case FaultKind::AllocFail:
      case FaultKind::CardFlip:
      case FaultKind::MarkBitmapFlip:
        return false;
    }
    return false;
}

std::string
FaultSpec::str() const
{
    std::string s = faultKindName(kind);
    if (cube >= 0)
        s += sim::format(":cube=%d", cube);
    if (rate != 1.0)
        s += sim::format(":rate=%g", rate);
    if (factor != 1.0)
        s += sim::format(":factor=%g", factor);
    if (atTick != 0)
        s += sim::format(":at-ns=%g", sim::ticksToNs(atTick));
    if (stallTicks != 0)
        s += sim::format(":stall-ns=%g", sim::ticksToNs(stallTicks));
    if (afterCount != 0)
        s += sim::format(":after=%llu",
                         static_cast<unsigned long long>(afterCount));
    if (count != 1)
        s += sim::format(":count=%llu",
                         static_cast<unsigned long long>(count));
    return s;
}

bool
parseFaultSpec(const std::string &text, FaultSpec &spec,
               std::string *error)
{
    auto fail = [error](const std::string &msg) {
        if (error)
            *error = msg;
        return false;
    };
    std::size_t pos = text.find(':');
    std::string kind_name = text.substr(0, pos);
    FaultSpec out;
    if (!parseFaultKind(kind_name, out.kind))
        return fail("unknown fault kind '" + kind_name + "'");
    while (pos != std::string::npos) {
        std::size_t next = text.find(':', pos + 1);
        std::string part = text.substr(
            pos + 1,
            next == std::string::npos ? std::string::npos
                                      : next - pos - 1);
        pos = next;
        std::size_t eq = part.find('=');
        if (eq == std::string::npos)
            return fail("fault option '" + part + "' needs key=value");
        std::string key = part.substr(0, eq);
        std::string val = part.substr(eq + 1);
        char *end = nullptr;
        double num = std::strtod(val.c_str(), &end);
        if (end == val.c_str() || *end != '\0')
            return fail("bad number '" + val + "' for fault option '"
                        + key + "'");
        if (key == "cube") {
            out.cube = static_cast<int>(num);
        } else if (key == "rate") {
            out.rate = num;
        } else if (key == "factor") {
            out.factor = num;
        } else if (key == "at-ns") {
            out.atTick = sim::nsToTicks(num);
        } else if (key == "stall-ns") {
            out.stallTicks = sim::nsToTicks(num);
        } else if (key == "after") {
            out.afterCount = static_cast<std::uint64_t>(num);
        } else if (key == "count") {
            out.count = static_cast<std::uint64_t>(num);
        } else {
            return fail("unknown fault option '" + key + "'");
        }
    }
    spec = out;
    return true;
}

bool
FaultPlan::hasTimingFaults() const
{
    return std::any_of(specs.begin(), specs.end(), [](const FaultSpec &s) {
        return isTimingFault(s.kind);
    });
}

bool
FaultPlan::has(FaultKind kind) const
{
    return find(kind) != nullptr;
}

const FaultSpec *
FaultPlan::find(FaultKind kind) const
{
    for (const auto &s : specs) {
        if (s.kind == kind)
            return &s;
    }
    return nullptr;
}

std::string
FaultPlan::str() const
{
    std::string s = sim::format("seed=%llu",
                                static_cast<unsigned long long>(seed));
    for (const auto &spec : specs) {
        s += ' ';
        s += spec.str();
    }
    return s;
}

FaultEngine::FaultEngine(const FaultPlan &plan, int cubes)
    : plan_(plan), cubes_(cubes), rng_(plan.seed),
      applied_(plan.specs.size(), 0)
{
}

bool
FaultEngine::unitsDead(int cube, sim::Tick now) const
{
    for (const auto &s : plan_.specs) {
        if (s.kind != FaultKind::UnitDeath
            && s.kind != FaultKind::CubeOffline) {
            continue;
        }
        if ((s.cube < 0 || s.cube == cube) && now >= s.atTick)
            return true;
    }
    return false;
}

sim::Tick
FaultEngine::deathTick(int cube) const
{
    sim::Tick earliest = kNoTick;
    for (const auto &s : plan_.specs) {
        if (s.kind != FaultKind::UnitDeath
            && s.kind != FaultKind::CubeOffline) {
            continue;
        }
        if (s.cube < 0 || s.cube == cube)
            earliest = std::min(earliest, s.atTick);
    }
    return earliest;
}

sim::Tick
FaultEngine::stallTicks(int cube, sim::Tick now)
{
    sim::Tick stall = 0;
    for (const auto &s : plan_.specs) {
        if (s.kind != FaultKind::UnitStall)
            continue;
        if (s.cube >= 0 && s.cube != cube)
            continue;
        if (now < s.atTick)
            continue;
        // One deterministic draw per (offload, matching spec): the
        // replay visits offload issues in event order, so the draw
        // sequence is identical at any --jobs.
        if (rng_.uniform() < s.rate) {
            stall += s.stallTicks;
            ++injected_;
        }
    }
    return stall;
}

double
FaultEngine::tlbPoisonRate(sim::Tick now) const
{
    double rate = 0;
    for (const auto &s : plan_.specs) {
        if (s.kind == FaultKind::TlbPoison && now >= s.atTick)
            rate += s.rate;
    }
    return std::min(rate, 1.0);
}

void
FaultEngine::applyPendingDegrades(sim::Tick now)
{
    for (std::size_t i = 0; i < plan_.specs.size(); ++i) {
        if (applied_[i])
            continue;
        const FaultSpec &s = plan_.specs[i];
        if (now < s.atTick)
            continue;
        switch (s.kind) {
          case FaultKind::LinkDegrade:
            if (hooks_.degradeLink) {
                hooks_.degradeLink(std::max(0, s.cube), s.factor);
                applied_[i] = 1;
                ++injected_;
            }
            break;
          case FaultKind::TsvDegrade:
            if (hooks_.degradeCube) {
                hooks_.degradeCube(std::max(0, s.cube), s.factor);
                applied_[i] = 1;
                ++injected_;
            }
            break;
          case FaultKind::CubeOffline:
            if (hooks_.degradeCube) {
                hooks_.degradeCube(std::max(0, s.cube),
                                   kOfflineTsvFactor);
                applied_[i] = 1;
                ++injected_;
            }
            break;
          default:
            break;
        }
    }
}

} // namespace charon::fault
