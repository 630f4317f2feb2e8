/**
 * @file
 * perf_replay: the replay-core performance regression bench.
 *
 * Replays the pinned Figure 12 cell set (every Table 3 workload on
 * all five platforms) with per-cell wall-clock timing and writes
 * BENCH_replay.json so every PR has a perf baseline to compare
 * against.  The functional traces come from the shared cache; only
 * the replay (PlatformSim::simulate) is timed, because that is the
 * simulator's hot path.
 *
 * The JSON carries two kinds of data:
 *  - perf numbers (wall-clock per cell, events/sec, peak RSS, the
 *    cumulative speedup over the seed replay core), which vary run
 *    to run and machine to machine — never compared by CI;
 *  - a functional digest (a hash over every cell's gcSeconds and
 *    energy bits), which is deterministic.  `--check=OLD.json`
 *    fails iff the digest differs, so CI catches functional
 *    regressions without ever failing on timing noise.
 */

#include <sys/resource.h>

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hh"

#include "harness/repo_root.hh"

#include "platform/platform_sim.hh"

using namespace charon;
using namespace charon::bench;

namespace
{

struct CellPerf
{
    std::string workload;
    sim::PlatformKind platform;
    double wallSeconds = 0; ///< best of --repeat replays
    std::uint64_t events = 0;
    double gcSeconds = 0;
    double energyJ = 0;
};

/**
 * The seed replay core's total wall time on this cell set (best-of-3,
 * commit dffa6b9, same pinned traces): the denominator of the
 * cumulative-speedup figure this bench reports.
 */
constexpr double kSeedTotalWallMs = 289.3;

/** FNV-1a over the bit patterns of the functional results. */
class Digest
{
  public:
    void
    add(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < n; ++i) {
            hash_ ^= p[i];
            hash_ *= 0x100000001b3ull;
        }
    }

    void
    add(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        add(&bits, sizeof bits);
    }

    void add(const std::string &s) { add(s.data(), s.size()); }

    std::string
    str() const
    {
        char buf[17];
        std::snprintf(buf, sizeof buf, "%016" PRIx64, hash_);
        return buf;
    }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::uint64_t
peakRssKib()
{
    struct rusage ru;
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0;
    return static_cast<std::uint64_t>(ru.ru_maxrss); // KiB on Linux
}

/**
 * Default output location: BENCH_replay.json at the repository root,
 * so CI's artifact path works no matter which build directory the
 * bench runs from.  Root discovery lives in harness::findRepoRoot —
 * notably it keeps climbing past the `.git` entries that fetched
 * dependencies plant under `build-X/_deps/<pkg>-src`, which used to
 * capture the walk when the bench ran from an out-of-tree build.
 * Falls back to the working directory outside a checkout.
 */
std::string
defaultOutPath()
{
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::path cwd = fs::current_path(ec);
    if (ec)
        return "BENCH_replay.json";
    return (harness::findRepoRoot(cwd) / "BENCH_replay.json").string();
}

/** Pull "functional_digest": "...." out of a previous BENCH file. */
bool
readDigest(const std::string &path, std::string &digest,
           std::string &error)
{
    std::ifstream in(path);
    if (!in) {
        error = "cannot open " + path;
        return false;
    }
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string text = ss.str();
    const std::string key = "\"functional_digest\": \"";
    auto pos = text.find(key);
    if (pos == std::string::npos) {
        error = "no functional_digest field in " + path;
        return false;
    }
    pos += key.size();
    auto end = text.find('"', pos);
    if (end == std::string::npos) {
        error = "malformed functional_digest in " + path;
        return false;
    }
    digest = text.substr(pos, end - pos);
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    harness::Options opt;
    int repeat = 3;
    std::string outPath = defaultOutPath();
    std::string checkPath;
    opt.helpHeader =
        "perf_replay: time the replay core on the pinned Figure 12 "
        "cell set";
    opt.flag("--repeat", &repeat,
             "replays per cell; best time wins (default 3)");
    opt.flag("--out", &outPath,
             "result file (default BENCH_replay.json at\nthe "
             "repository root)");
    opt.flag("--check", &checkPath,
             "compare the functional digest against a\nprevious "
             "result file; exit 1 on mismatch");
    if (!harness::parseOptions(argc, argv, opt))
        return 2;
    if (repeat < 1)
        repeat = 1;

    const sim::PlatformKind kinds[] = {
        sim::PlatformKind::HostDdr4, sim::PlatformKind::HostHmc,
        sim::PlatformKind::CharonNmp, sim::PlatformKind::CharonCpuSide,
        sim::PlatformKind::Ideal};
    const auto workloads = allWorkloads();

    // Phase 1 (untimed): produce/load the functional traces through
    // the normal harness path so the cache warms exactly like any
    // other bench.
    ExperimentRunner runner(opt.runnerConfig());
    std::vector<Cell> funcCells;
    for (const auto &name : workloads) {
        Cell c = cell(name, sim::PlatformKind::HostDdr4);
        c.replay = false;
        funcCells.push_back(c);
    }
    auto funcResults = runner.run(funcCells);
    for (std::size_t i = 0; i < funcCells.size(); ++i) {
        if (!funcResults[i].run || funcResults[i].oom) {
            std::fprintf(stderr, "perf_replay: functional run failed "
                                 "for %s: %s\n",
                         workloads[i].c_str(),
                         funcResults[i].error.c_str());
            return 1;
        }
    }

    // Phase 2 (timed): replay each cell --repeat times on a fresh
    // PlatformSim; keep the best wall time.  Serial on purpose — the
    // number measured is single-replay latency, not throughput.
    const auto cfg = sim::SystemConfig::table2();
    std::vector<CellPerf> perf;
    Digest digest;
    for (std::size_t w = 0; w < workloads.size(); ++w) {
        const auto &run = *funcResults[w].run;
        for (auto kind : kinds) {
            CellPerf p;
            p.workload = workloads[w];
            p.platform = kind;
            p.wallSeconds = 1e30;
            for (int r = 0; r < repeat; ++r) {
                platform::PlatformSim sim(kind, cfg, run.cubeShift);
                double t0 = nowSeconds();
                auto timing = sim.simulate(run.trace);
                double dt = nowSeconds() - t0;
                if (dt < p.wallSeconds)
                    p.wallSeconds = dt;
                p.events = sim.executedEvents();
                p.gcSeconds = timing.gcSeconds;
                p.energyJ = timing.totalEnergyJ();
            }
            // Functional results only: event counts are a property
            // of the replay kernel, not a model output, so a faster
            // kernel with the same results keeps the digest.
            digest.add(p.workload);
            digest.add(sim::platformName(kind));
            digest.add(p.gcSeconds);
            digest.add(p.energyJ);
            perf.push_back(p);
        }
    }

    double totalWall = 0;
    std::uint64_t totalEvents = 0;
    for (const auto &p : perf) {
        totalWall += p.wallSeconds;
        totalEvents += p.events;
    }
    const double speedup =
        totalWall > 0 ? kSeedTotalWallMs / (totalWall * 1e3) : 0.0;

    std::ofstream out(outPath);
    if (!out) {
        std::fprintf(stderr, "perf_replay: cannot write %s\n",
                     outPath.c_str());
        return 1;
    }
    out << "{\n  \"bench\": \"perf_replay\",\n";
    out << "  \"repeat\": " << repeat << ",\n";
    out << "  \"cells\": [\n";
    char line[512];
    for (std::size_t i = 0; i < perf.size(); ++i) {
        const auto &p = perf[i];
        std::snprintf(
            line, sizeof line,
            "    {\"workload\": \"%s\", \"platform\": \"%s\", "
            "\"wall_ms\": %.3f, \"events\": %" PRIu64
            ", \"events_per_sec\": %.0f, \"gc_seconds\": %.17g, "
            "\"energy_j\": %.17g}%s\n",
            p.workload.c_str(), sim::platformName(p.platform),
            p.wallSeconds * 1e3, p.events,
            p.wallSeconds > 0 ? p.events / p.wallSeconds : 0.0,
            p.gcSeconds, p.energyJ,
            i + 1 < perf.size() ? "," : "");
        out << line;
    }
    out << "  ],\n";
    std::snprintf(line, sizeof line,
                  "  \"total_wall_ms\": %.3f,\n"
                  "  \"total_events\": %" PRIu64 ",\n"
                  "  \"events_per_sec\": %.0f,\n"
                  "  \"seed_total_wall_ms\": %.1f,\n"
                  "  \"cumulative_speedup_vs_seed\": %.3f,\n"
                  "  \"peak_rss_kib\": %" PRIu64 ",\n",
                  totalWall * 1e3, totalEvents,
                  totalWall > 0 ? totalEvents / totalWall : 0.0,
                  kSeedTotalWallMs, speedup, peakRssKib());
    out << line;
    out << "  \"functional_digest\": \"" << digest.str() << "\"\n}\n";
    out.close();

    std::printf("perf_replay: %zu cells, total wall %.1f ms, "
                "%.2f M events/sec, peak RSS %" PRIu64 " KiB\n",
                perf.size(), totalWall * 1e3,
                totalWall > 0 ? totalEvents / totalWall / 1e6 : 0.0,
                peakRssKib());
    std::printf("perf_replay: %.2fx vs seed (%.1f ms)\n", speedup,
                kSeedTotalWallMs);
    std::printf("perf_replay: functional digest %s -> %s\n",
                digest.str().c_str(), outPath.c_str());

    if (!checkPath.empty()) {
        std::string oldDigest, error;
        if (!readDigest(checkPath, oldDigest, error)) {
            std::fprintf(stderr, "perf_replay: %s\n", error.c_str());
            return 1;
        }
        if (oldDigest != digest.str()) {
            std::fprintf(stderr,
                         "perf_replay: FUNCTIONAL DIGEST MISMATCH: "
                         "%s (this run) vs %s (%s)\n",
                         digest.str().c_str(), oldDigest.c_str(),
                         checkPath.c_str());
            return 1;
        }
        std::printf("perf_replay: functional digest matches %s\n",
                    checkPath.c_str());
    }
    return 0;
}
