/**
 * @file
 * perfbench_driver: host-time passes over one benchmark workload.
 *
 * A pass is what one bench command does for its cell set: obtain the
 * functional run of every key (trace cache, else a mutator run whose
 * trace then fills the cache), replay each run on the Figure 12
 * platforms, and render the report.  The workloads differ in cell set
 * and in the state of the trace cache:
 *
 *   cold  ParallelScavenge on BS KM LR ALS, and G1, CMS and RC on KM;
 *         the cache is emptied before every pass, so a pass records
 *         every trace.
 *   warm  ParallelScavenge on BS KM LR CC ALS; set-up filled the
 *         cache, so a pass reads and decodes every trace and records
 *         none.  Recording CC, the graph workload, takes most of the
 *         set-up.
 *
 * --mode=setup empties the cache, runs one pass and writes the
 * digest of every cell to DIR/reference.txt.  --mode=measure runs
 * passes until --seconds have elapsed, checks every cell's digest
 * against that reference, and prints one JSON line with the per-pass
 * numbers.  With --trace=0 a pass goes through ExperimentRunner, the
 * path every bench binary takes.  With --trace=1 the benchmark makes
 * the same layer calls itself, in the runner's order, and records a
 * span around each one; the per-layer self times come from those
 * spans, which are also written to DIR/spans.json as a Chrome trace.
 *
 * Before every pass, and after the last, measure mode times a fixed
 * speed probe (SpeedProbe) so the caller can tell a slow program from
 * a slow host.
 */

#include <sys/resource.h>

#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "gc/trace_io.hh"
#include "harness/experiment_runner.hh"
#include "harness/options.hh"
#include "harness/result_sink.hh"
#include "harness/trace_cache.hh"
#include "platform/platform_sim.hh"
#include "report/table.hh"
#include "workload/catalog.hh"

using namespace charon;
using harness::CollectorKind;
using harness::FunctionalKey;
using harness::FunctionalRun;

namespace
{

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

/** The Figure 12 platforms every cell set replays on. */
constexpr sim::PlatformKind kPlatforms[] = {
    sim::PlatformKind::HostDdr4, sim::PlatformKind::HostHmc,
    sim::PlatformKind::CharonNmp, sim::PlatformKind::Ideal};
constexpr std::size_t kNumPlatforms = std::size(kPlatforms);
constexpr const char *kReplaySpan[kNumPlatforms] = {
    "replay_ddr4", "replay_hmc", "replay_charon", "replay_ideal"};

/** The functional keys of @p workload's cell set, or empty. */
std::vector<FunctionalKey>
cellKeys(const std::string &workload, std::uint64_t seed)
{
    std::vector<FunctionalKey> keys;
    auto add = [&](const std::string &name, CollectorKind kind,
                   std::uint64_t heap_scale) {
        FunctionalKey k;
        k.workload = name;
        k.collector = kind;
        k.seed = seed;
        k.heapBytes = workload::findWorkload(name).heapBytes * heap_scale;
        keys.push_back(k);
    };
    if (workload == "cold") {
        for (const char *name : {"BS", "KM", "LR", "ALS"})
            add(name, CollectorKind::ParallelScavenge, 1);
        // The other collector families, with the heap headroom
        // collector_zoo gives them: RC keeps everything in the old
        // space.
        add("KM", CollectorKind::G1, 1);
        add("KM", CollectorKind::Cms, 1);
        add("KM", CollectorKind::Rc, 2);
    } else if (workload == "warm") {
        for (const char *name : {"BS", "KM", "LR", "CC", "ALS"})
            add(name, CollectorKind::ParallelScavenge, 1);
    }
    return keys;
}

std::string
cellId(const FunctionalKey &key, std::size_t platform)
{
    return key.str() + "@" + kReplaySpan[platform];
}

/** FNV-1a over the functional and timing results of one cell. */
std::string
cellDigest(const FunctionalRun &run, const platform::RunTiming &t)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto add = [&h](const void *data, std::size_t n) {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= p[i];
            h *= 0x100000001b3ull;
        }
    };
    const double energy = t.totalEnergyJ();
    const std::uint64_t gcs = run.trace.gcs.size();
    add(&t.gcSeconds, sizeof t.gcSeconds);
    add(&energy, sizeof energy);
    add(&gcs, sizeof gcs);
    add(&run.gcsMinor, sizeof run.gcsMinor);
    add(&run.gcsMajor, sizeof run.gcsMajor);
    add(&run.allocatedBytes, sizeof run.allocatedBytes);
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, h);
    return buf;
}

/**
 * Spans recorded around layer calls, kept in memory and written out
 * when the run ends.  Single-threaded: a pass runs with one job.
 */
class Tracer
{
  public:
    explicit Tracer(bool on) : on_(on), origin_(Clock::now()) {}

    bool on() const { return on_; }
    void setPass(int pass) { pass_ = pass; }

    void
    begin(const char *name)
    {
        if (!on_)
            return;
        const int parent = open_.empty() ? -1 : open_.back();
        open_.push_back(static_cast<int>(spans_.size()));
        spans_.push_back(Span{name, parent, pass_, nowUs(), 0});
    }

    void
    end()
    {
        if (!on_)
            return;
        spans_[static_cast<std::size_t>(open_.back())].endUs = nowUs();
        open_.pop_back();
    }

    /**
     * Self time in ms per span name over one pass: each span's
     * duration minus the part its child spans cover.
     */
    std::map<std::string, double>
    selfMs(int pass) const
    {
        std::map<std::string, double> self;
        for (const auto &s : spans_) {
            if (s.pass != pass)
                continue;
            const double dur = (s.endUs - s.startUs) / 1e3;
            self[s.name] += dur;
            if (s.parent >= 0) {
                self[spans_[static_cast<std::size_t>(s.parent)].name] -=
                    dur;
            }
        }
        return self;
    }

    /** Chrome/Perfetto trace: one complete event per span. */
    bool
    writeChrome(const std::string &path) const
    {
        std::ofstream os(path);
        os << "{\"traceEvents\": [\n";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const auto &s = spans_[i];
            char line[256];
            std::snprintf(line, sizeof line,
                          "  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                          "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                          "\"args\": {\"id\": %zu, \"parent\": %d, "
                          "\"pass\": %d}}%s\n",
                          s.name, s.startUs, s.endUs - s.startUs, i,
                          s.parent, s.pass,
                          i + 1 < spans_.size() ? "," : "");
            os << line;
        }
        os << "]}\n";
        return static_cast<bool>(os);
    }

  private:
    struct Span
    {
        const char *name;
        int parent; ///< index of the enclosing span, -1 at the root
        int pass;   ///< the pass the span belongs to (its request id)
        double startUs;
        double endUs;
    };

    double
    nowUs() const
    {
        return std::chrono::duration<double, std::micro>(Clock::now()
                                                         - origin_)
            .count();
    }

    bool on_;
    Clock::time_point origin_;
    int pass_ = 0;
    std::vector<int> open_;
    std::vector<Span> spans_;
};

/** RAII span. */
class Scope
{
  public:
    Scope(Tracer &tracer, const char *name) : tracer_(tracer)
    {
        tracer_.begin(name);
    }
    ~Scope() { tracer_.end(); }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &tracer_;
};

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

/**
 * A fixed probe of the host's current speed, independent of the
 * simulator's code: a dependent xorshift chain (core clock) and a
 * random pointer chase through a 4 MiB cycle (last-level cache).
 * Other guests on the host change both, for seconds at a time.
 */
class SpeedProbe
{
  public:
    SpeedProbe() : next_(kChaseSlots)
    {
        // Sattolo's shuffle: one cycle through every slot.
        for (std::uint32_t i = 0; i < kChaseSlots; ++i)
            next_[i] = i;
        std::uint64_t x = 0x9e3779b97f4a7c15ull;
        for (std::uint32_t i = kChaseSlots - 1; i > 0; --i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            std::swap(next_[i], next_[x % i]);
        }
    }

    /** Wall ms of the core-clock part. */
    double
    alu()
    {
        const auto t0 = Clock::now();
        std::uint64_t x = sink_ | 1;
        for (int i = 0; i < kAluSteps; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        sink_ ^= x;
        return msSince(t0);
    }

    /** Wall ms of the cache part. */
    double
    chase()
    {
        const auto t0 = Clock::now();
        std::uint32_t at = static_cast<std::uint32_t>(sink_ % kChaseSlots);
        for (int i = 0; i < kChaseSteps; ++i)
            at = next_[at];
        sink_ += at;
        return msSince(t0);
    }

  private:
    static constexpr std::uint32_t kChaseSlots = 1u << 20;
    static constexpr int kAluSteps = 1 << 21;
    static constexpr int kChaseSteps = 1 << 17;
    std::vector<std::uint32_t> next_;
    std::uint64_t sink_ = 0;
};

/** What one pass produced, for the checks and the JSON line. */
struct PassResult
{
    double ms = 0;
    /** Wall time of each functional key's cells, then of the render. */
    std::vector<double> partMs;
    std::map<std::string, std::string> digests; ///< by cellId
    std::size_t cells = 0;
    std::size_t failedCells = 0;
    bool invariantsHold = true;
    std::map<std::string, double> counts;
};

/**
 * Model invariants every replay must satisfy: finite positive GC
 * time, and the zero-cycle Ideal device never slower than Charon.
 */
bool
invariantsHold(const platform::RunTiming (&t)[kNumPlatforms])
{
    for (const auto &timing : t) {
        if (!std::isfinite(timing.gcSeconds) || timing.gcSeconds <= 0)
            return false;
    }
    return t[3].gcSeconds <= t[2].gcSeconds;
}

/** The pass's report: one row per functional key, speedups vs DDR4. */
void
render(const std::vector<FunctionalKey> &keys,
       const std::vector<platform::RunTiming> &timings)
{
    harness::Report report{harness::Options{}};
    auto &table = report.table(
        "perfbench", "GC time per cell, speedup over host + DDR4",
        {"cell", "DDR4 s", "HMC", "Charon", "Ideal"});
    for (std::size_t k = 0; k < keys.size(); ++k) {
        const auto *t = &timings[k * kNumPlatforms];
        table.addRow({keys[k].str(), report::num(t[0].gcSeconds, 4),
                      harness::ratioCell(t[0].gcSeconds, t[1].gcSeconds),
                      harness::ratioCell(t[0].gcSeconds, t[2].gcSeconds),
                      harness::ratioCell(t[0].gcSeconds, t[3].gcSeconds)});
    }
    std::ostringstream os;
    report.finish(os);
}

/** Digests, failures and invariants of a pass's finished cells. */
void
checkCells(const std::vector<FunctionalKey> &keys,
           const std::vector<std::shared_ptr<const FunctionalRun>> &runs,
           const std::vector<platform::RunTiming> &timings,
           const std::vector<bool> &ok, PassResult &out)
{
    for (std::size_t k = 0; k < keys.size(); ++k) {
        platform::RunTiming t[kNumPlatforms];
        bool all_ok = true;
        for (std::size_t p = 0; p < kNumPlatforms; ++p) {
            const std::size_t i = k * kNumPlatforms + p;
            ++out.cells;
            if (!ok[i] || !runs[k]) {
                ++out.failedCells;
                all_ok = false;
                continue;
            }
            t[p] = timings[i];
            out.digests[cellId(keys[k], p)] =
                cellDigest(*runs[k], timings[i]);
        }
        if (all_ok && !invariantsHold(t))
            out.invariantsHold = false;
    }
}

/**
 * One pass through ExperimentRunner, as a bench binary runs it, with
 * one run() per functional key so each key's cells are timed apart.
 */
PassResult
harnessPass(const std::vector<FunctionalKey> &keys,
            const std::string &cache_dir)
{
    PassResult out;
    std::vector<std::shared_ptr<const FunctionalRun>> runs(keys.size());
    std::vector<platform::RunTiming> timings;
    std::vector<bool> ok;
    harness::RunnerConfig cfg;
    cfg.jobs = 1;
    cfg.cacheDir = cache_dir;
    harness::ExperimentRunner runner(cfg);
    for (std::size_t k = 0; k < keys.size(); ++k) {
        const auto t0 = Clock::now();
        std::vector<harness::Cell> cells;
        for (auto kind : kPlatforms) {
            harness::Cell c;
            c.key = keys[k];
            c.platform = kind;
            c.config = sim::SystemConfig::table2();
            cells.push_back(c);
        }
        for (auto &res : runner.run(cells)) {
            timings.push_back(res.timing);
            ok.push_back(res.ok);
            if (res.ok)
                runs[k] = res.run;
        }
        out.partMs.push_back(msSince(t0));
    }
    const auto t0 = Clock::now();
    render(keys, timings);
    out.partMs.push_back(msSince(t0));
    for (double ms : out.partMs)
        out.ms += ms;

    checkCells(keys, runs, timings, ok, out);
    return out;
}

/**
 * One pass making the runner's layer calls directly, each inside a
 * span, in the order harnessPass() makes them: for every key the
 * cache load, on a miss the mutator run and the cache store, then
 * the key's replays; the report last.  After the pass, outside its
 * span, each trace is encoded and decoded in memory once more to
 * split codec time from the cache's file I/O and to check the round
 * trip.
 */
PassResult
tracedPass(const std::vector<FunctionalKey> &keys,
           const harness::TraceCache &cache, Tracer &tr)
{
    PassResult out;
    std::vector<std::shared_ptr<const FunctionalRun>> runs(keys.size());
    std::vector<platform::RunTiming> timings(keys.size() * kNumPlatforms);
    std::vector<bool> ok(timings.size(), false);
    double events = 0, hits = 0, misses = 0, gcs = 0, allocated = 0;
    const auto cfg = sim::SystemConfig::table2();

    const auto t0 = Clock::now();
    {
        Scope pass(tr, "pass");
        for (std::size_t k = 0; k < keys.size(); ++k) {
            Scope key(tr, "key");
            auto run = std::make_shared<FunctionalRun>();
            bool hit = false;
            {
                Scope s(tr, "cache_load");
                hit = cache.load(keys[k], *run);
            }
            if (!hit) {
                {
                    Scope s(tr, "record");
                    *run = harness::ExperimentRunner::executeFunctional(
                        keys[k]);
                }
                Scope s(tr, "cache_store");
                cache.store(keys[k], *run);
            }
            (hit ? hits : misses) += 1;
            gcs += static_cast<double>(run->trace.gcs.size());
            if (!hit)
                allocated += static_cast<double>(run->allocatedBytes);
            if (run->oom)
                continue;
            runs[k] = std::move(run);
            for (std::size_t p = 0; p < kNumPlatforms; ++p) {
                Scope s(tr, kReplaySpan[p]);
                platform::PlatformSim sim(kPlatforms[p], cfg,
                                          runs[k]->cubeShift);
                timings[k * kNumPlatforms + p] =
                    sim.simulate(runs[k]->trace);
                ok[k * kNumPlatforms + p] = true;
                events += static_cast<double>(sim.executedEvents()
                                              + sim.batchedEvents());
            }
        }
        Scope s(tr, "render");
        render(keys, timings);
    }
    out.ms = msSince(t0);

    double trace_bytes = 0;
    for (const auto &run : runs) {
        if (!run)
            continue;
        std::string bytes;
        {
            Scope s(tr, "encode");
            std::ostringstream os;
            gc::writeTrace(os, run->trace);
            bytes = os.str();
        }
        trace_bytes += static_cast<double>(bytes.size());
        gc::RunTrace decoded;
        bool read_ok = false;
        {
            Scope s(tr, "decode");
            std::istringstream is(bytes);
            read_ok = gc::readTrace(is, decoded, nullptr);
        }
        if (!read_ok || !gc::traceEquals(decoded, run->trace))
            out.invariantsHold = false;
    }

    checkCells(keys, runs, timings, ok, out);
    out.counts = {{"cache_hits", hits},
                  {"cache_misses", misses},
                  {"functional_gcs", gcs},
                  {"allocated_bytes", allocated},
                  {"replay_events", events},
                  {"trace_bytes", trace_bytes}};
    return out;
}

void
emptyDir(const std::string &dir)
{
    std::error_code ec;
    fs::remove_all(dir, ec);
    fs::create_directories(dir, ec);
}

bool
writeReference(const std::string &path, const PassResult &pass)
{
    std::ofstream os(path);
    for (const auto &[id, digest] : pass.digests)
        os << id << ' ' << digest << '\n';
    return static_cast<bool>(os);
}

bool
readReference(const std::string &path,
              std::map<std::string, std::string> &ref)
{
    std::ifstream is(path);
    std::string id, digest;
    while (is >> id >> digest)
        ref[id] = digest;
    return !ref.empty();
}

std::string
jsonList(const std::vector<double> &values)
{
    std::string s = "[";
    char buf[32];
    for (std::size_t i = 0; i < values.size(); ++i) {
        std::snprintf(buf, sizeof buf, "%s%.6f", i ? ", " : "", values[i]);
        s += buf;
    }
    return s + "]";
}

} // namespace

int
main(int argc, char **argv)
{
    harness::Options opt;
    std::string mode, workloadName, dir;
    std::uint64_t seed = 1;
    double seconds = 10;
    int trace = 0;
    opt.helpHeader = "perfbench_driver: host-time passes over one "
                     "benchmark workload";
    opt.flag("--mode", &mode, "setup or measure");
    opt.flag("--workload", &workloadName, "cold or warm");
    opt.flag("--seed", &seed, "mutator seed of every cell");
    opt.flag("--seconds", &seconds, "measure mode: run passes this long");
    opt.flag("--trace", &trace,
             "1: time each layer call inside a span");
    opt.flag("--dir", &dir,
             "work directory (trace cache, reference, spans)");
    if (!harness::parseOptions(argc, argv, opt))
        return 2;
    const auto keys = cellKeys(workloadName, seed);
    if (keys.empty() || dir.empty()
        || (mode != "setup" && mode != "measure")) {
        std::fprintf(stderr, "perfbench_driver: need --mode=setup|measure "
                             "--workload=cold|warm --dir=DIR\n");
        return 2;
    }
    const std::string cacheDir = (fs::path(dir) / "cache").string();
    const std::string refPath = (fs::path(dir) / "reference.txt").string();
    const bool coldCache = workloadName != "warm";

    if (mode == "setup") {
        emptyDir(cacheDir);
        PassResult pass = harnessPass(keys, cacheDir);
        if (pass.failedCells > 0 || !pass.invariantsHold
            || !writeReference(refPath, pass)) {
            std::fprintf(stderr, "perfbench_driver: set-up pass failed "
                                 "(%zu of %zu cells)\n",
                         pass.failedCells, pass.cells);
            return 1;
        }
        return 0;
    }

    std::map<std::string, std::string> reference;
    if (!readReference(refPath, reference)) {
        std::fprintf(stderr, "perfbench_driver: no reference at %s; run "
                             "--mode=setup first\n",
                     refPath.c_str());
        return 1;
    }

    Tracer tracer(trace != 0);
    const harness::TraceCache cache(cacheDir);
    SpeedProbe probe;
    std::vector<double> passMs;
    // Per-pass wall time of each part of the pass: with --trace=1 the
    // self time of each span name, else each key's cells and the render.
    // The probe's times are taken before every pass and after the last.
    std::map<std::string, std::vector<double>> parts, counts, probes;
    auto sampleSpeed = [&] {
        probes["alu"].push_back(probe.alu());
        probes["chase"].push_back(probe.chase());
    };
    probe.alu(); // warm-up: page in the chase cycle, settle the clock
    probe.chase();
    std::size_t attempted = 0, failed = 0;
    bool correct = true;
    const auto start = Clock::now();
    for (int p = 0;; ++p) {
        if (coldCache)
            emptyDir(cacheDir);
        sampleSpeed();
        tracer.setPass(p);
        PassResult pass = tracer.on() ? tracedPass(keys, cache, tracer)
                                      : harnessPass(keys, cacheDir);
        std::size_t mismatched = 0;
        for (const auto &[id, digest] : reference) {
            auto it = pass.digests.find(id);
            if (it == pass.digests.end() || it->second != digest)
                ++mismatched;
        }
        attempted += pass.cells;
        failed += std::max(pass.failedCells, mismatched);
        correct = correct && mismatched == 0 && pass.failedCells == 0
                  && pass.invariantsHold
                  && pass.digests.size() == reference.size();
        passMs.push_back(pass.ms);
        if (tracer.on()) {
            auto self = tracer.selfMs(p);
            for (const char *name :
                 {"pass", "key", "cache_load", "record", "cache_store",
                  "replay_ddr4", "replay_hmc", "replay_charon",
                  "replay_ideal", "render", "encode", "decode"}) {
                parts[name].push_back(self[name]);
            }
            for (const auto &[name, value] : pass.counts)
                counts[name].push_back(value);
        } else {
            for (std::size_t k = 0; k < keys.size(); ++k)
                parts[keys[k].str()].push_back(pass.partMs[k]);
            parts["render"].push_back(pass.partMs.back());
        }
        if (std::chrono::duration<double>(Clock::now() - start).count()
            >= seconds) {
            break;
        }
    }
    sampleSpeed();
    if (coldCache)
        emptyDir(cacheDir);
    if (tracer.on()
        && !tracer.writeChrome((fs::path(dir) / "spans.json").string())) {
        std::fprintf(stderr, "perfbench_driver: cannot write spans\n");
    }

    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"peak_rss_kib\": %ld, \"pass_ms\": %s",
                correct ? "true" : "false", attempted, failed,
                ru.ru_maxrss, jsonList(passMs).c_str());
    for (const auto &[label, group] :
         {std::pair{"parts", &parts}, std::pair{"counts", &counts},
          std::pair{"probe", &probes}}) {
        std::printf(", \"%s\": {", label);
        bool first = true;
        for (const auto &[name, values] : *group) {
            std::printf("%s\"%s\": %s", first ? "" : ", ", name.c_str(),
                        jsonList(values).c_str());
            first = false;
        }
        std::printf("}");
    }
    std::printf("}\n");
    return 0;
}
