#include "options.hh"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "harness/trace_cache.hh"

namespace charon::harness
{

namespace
{

bool
parseInt(const std::string &v, long long &out)
{
    errno = 0;
    char *end = nullptr;
    out = std::strtoll(v.c_str(), &end, 10);
    return errno == 0 && end != nullptr && *end == '\0' && !v.empty();
}

bool
parseDouble(const std::string &v, double &out)
{
    errno = 0;
    char *end = nullptr;
    out = std::strtod(v.c_str(), &end);
    return errno == 0 && end != nullptr && *end == '\0' && !v.empty();
}

/** Classic dynamic-programming Levenshtein distance. */
std::size_t
editDistance(const std::string &a, const std::string &b)
{
    std::vector<std::size_t> row(b.size() + 1);
    for (std::size_t j = 0; j <= b.size(); ++j)
        row[j] = j;
    for (std::size_t i = 1; i <= a.size(); ++i) {
        std::size_t diag = row[0];
        row[0] = i;
        for (std::size_t j = 1; j <= b.size(); ++j) {
            std::size_t up = row[j];
            std::size_t subst = diag + (a[i - 1] != b[j - 1] ? 1 : 0);
            row[j] = std::min({subst, up + 1, row[j - 1] + 1});
            diag = up;
        }
    }
    return row[b.size()];
}

/** Every flag name this binary accepts (registered + shared). */
std::vector<std::string>
knownFlagNames(const Options &opt)
{
    std::vector<std::string> names;
    for (const auto &f : opt.flags())
        names.push_back(f.name);
    for (const char *shared :
         {"--jobs", "--cache-dir", "--no-cache", "--csv", "--json",
          "--trace-out", "--rollup", "--cell-timeout",
          "--cell-retries", "--help"})
        names.push_back(shared);
    return names;
}

/** "  --name=METAVAR       help" in the shared two-column layout. */
void
formatFlag(std::string &out, const Options::FlagSpec &f)
{
    std::string head = "  " + f.name;
    if (!f.metavar.empty())
        head += "=" + f.metavar;
    if (head.size() < 23)
        head.resize(23, ' ');
    else
        head += ' ';
    // Indent continuation lines to the help column.
    std::string help;
    for (char c : f.help) {
        help += c;
        if (c == '\n')
            help.append(23, ' ');
    }
    out += head + help + "\n";
}

} // namespace

void
Options::flag(const std::string &name, bool *out,
              const std::string &help)
{
    flags_.push_back({name, "", help, [out](const std::string &) {
                          *out = true;
                          return true;
                      }});
}

void
Options::flag(const std::string &name, int *out,
              const std::string &help)
{
    flags_.push_back({name, "N", help, [out](const std::string &v) {
                          long long n;
                          if (!parseInt(v, n))
                              return false;
                          *out = static_cast<int>(n);
                          return true;
                      }});
}

void
Options::flag(const std::string &name, std::uint64_t *out,
              const std::string &help)
{
    flags_.push_back({name, "N", help, [out](const std::string &v) {
                          long long n;
                          if (!parseInt(v, n) || n < 0)
                              return false;
                          *out = static_cast<std::uint64_t>(n);
                          return true;
                      }});
}

void
Options::flag(const std::string &name, double *out,
              const std::string &help)
{
    flags_.push_back({name, "X", help, [out](const std::string &v) {
                          return parseDouble(v, *out);
                      }});
}

void
Options::flag(const std::string &name, std::string *out,
              const std::string &help)
{
    flags_.push_back({name, "STR", help, [out](const std::string &v) {
                          *out = v;
                          return true;
                      }});
}

void
Options::flag(const std::string &name,
              std::function<bool(const std::string &)> parse,
              const std::string &help, const std::string &metavar)
{
    flags_.push_back({name, metavar, help, std::move(parse)});
}

std::string
Options::usageText() const
{
    std::string out;
    for (const auto &f : flags_)
        formatFlag(out, f);
    out += optionsUsage();
    return out;
}

std::string
suggestFlag(const std::string &arg, const Options &opt)
{
    // Compare on the flag name alone: a mistyped `--cahe-dir=/x`
    // should still land on --cache-dir.
    const std::string name = arg.substr(0, arg.find('='));
    std::string best;
    std::size_t best_dist = 0;
    for (const auto &candidate : knownFlagNames(opt)) {
        std::size_t d = editDistance(name, candidate);
        if (best.empty() || d < best_dist) {
            best = candidate;
            best_dist = d;
        }
    }
    // Only suggest near misses: a third of the typed name, with a
    // floor of 2 so one-transposition typos on short flags qualify.
    std::size_t budget = std::max<std::size_t>(2, name.size() / 3);
    if (best.empty() || best_dist > budget)
        return std::string();
    return best;
}

const char *
optionsUsage()
{
    return "  --jobs=N             replay worker threads (default: all "
           "cores)\n"
           "  --cache-dir=DIR      persistent trace cache location\n"
           "                       (default: $CHARON_CACHE_DIR or\n"
           "                       ~/.cache/charon-traces)\n"
           "  --no-cache           disable the persistent trace cache\n"
           "  --csv                emit tables as CSV\n"
           "  --json=FILE          also write the report as JSON\n"
           "  --trace-out=FILE     write a Chrome/Perfetto timeline of\n"
           "                       every replay (open in\n"
           "                       ui.perfetto.dev)\n"
           "  --rollup             print the per-phase primitive\n"
           "                       roll-up table\n"
           "  --cell-timeout=SEC   run each cell in its own process\n"
           "                       with this watchdog deadline (hung\n"
           "                       or crashed cells are quarantined)\n"
           "  --cell-retries=N     retries before quarantining a\n"
           "                       failing cell (default: 0)\n"
           "  --help               this text\n";
}

bool
parseOptions(int argc, char **argv, Options &opt)
{
    opt.cacheDir = TraceCache::defaultDir();
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        // Value flags accept both spellings: --name=VALUE and
        // --name VALUE (the next argv entry).
        auto value = [&](const char *name) -> const char * {
            std::string prefix = std::string(name) + "=";
            if (arg.rfind(prefix, 0) == 0)
                return arg.c_str() + prefix.size();
            if (arg == name && i + 1 < argc)
                return argv[++i];
            return nullptr;
        };
        // A non-negative int flag value, or the bad-value diagnostic.
        auto count = [&](const char *name, const char *v, int &out) {
            long long n;
            if (parseInt(v, n) && n >= 0 && n <= INT_MAX) {
                out = static_cast<int>(n);
                return true;
            }
            std::fprintf(stderr, "%s: bad value for %s: '%s'\n\n%s",
                         argv[0], name, v, opt.usageText().c_str());
            return false;
        };
        const Options::FlagSpec *matched = nullptr;
        std::string flagValue;
        bool missingValue = false;
        for (const auto &f : opt.flags()) {
            if (f.metavar.empty()) {
                if (arg == f.name)
                    matched = &f;
            } else if (const char *v = value(f.name.c_str())) {
                matched = &f;
                flagValue = v;
            } else if (arg == f.name) {
                matched = &f;
                missingValue = true;
            }
            if (matched)
                break;
        }
        if (missingValue) {
            std::fprintf(stderr, "%s: missing value for %s\n\n%s",
                         argv[0], matched->name.c_str(),
                         opt.usageText().c_str());
            return false;
        }
        if (matched) {
            if (!matched->parse(flagValue)) {
                std::fprintf(stderr,
                             "%s: bad value for %s: '%s'\n\n%s",
                             argv[0], matched->name.c_str(),
                             flagValue.c_str(),
                             opt.usageText().c_str());
                return false;
            }
        } else if (arg == "--help" || arg == "-h") {
            std::string header =
                opt.helpHeader.empty()
                    ? std::string(argv[0])
                          + ": harness-backed experiment binary"
                    : opt.helpHeader;
            std::printf("%s\n\n%s", header.c_str(),
                        opt.usageText().c_str());
            std::exit(0);
        } else if (const char *v = value("--jobs")) {
            if (!count("--jobs", v, opt.jobs))
                return false;
        } else if (const char *v = value("--cache-dir")) {
            opt.cacheDir = v;
        } else if (arg == "--no-cache") {
            opt.noCache = true;
        } else if (arg == "--csv") {
            opt.csv = true;
        } else if (const char *v = value("--json")) {
            opt.jsonPath = v;
        } else if (const char *v = value("--trace-out")) {
            opt.traceOut = v;
        } else if (arg == "--rollup") {
            opt.rollup = true;
        } else if (const char *v = value("--cell-timeout")) {
            if (!parseDouble(v, opt.cellTimeoutSec)
                || opt.cellTimeoutSec < 0) {
                std::fprintf(stderr,
                             "%s: bad value for --cell-timeout: "
                             "'%s'\n\n%s",
                             argv[0], v, opt.usageText().c_str());
                return false;
            }
        } else if (const char *v = value("--cell-retries")) {
            if (!count("--cell-retries", v, opt.cellRetries))
                return false;
        } else if (arg == "--jobs" || arg == "--cache-dir"
                   || arg == "--json" || arg == "--trace-out"
                   || arg == "--cell-timeout"
                   || arg == "--cell-retries") {
            std::fprintf(stderr, "%s: missing value for %s\n\n%s",
                         argv[0], arg.c_str(),
                         opt.usageText().c_str());
            return false;
        } else {
            std::fprintf(stderr, "%s: unknown option '%s'\n",
                         argv[0], arg.c_str());
            if (const std::string hint = suggestFlag(arg, opt);
                !hint.empty()) {
                std::fprintf(stderr, "(did you mean '%s'?)\n",
                             hint.c_str());
            }
            std::fprintf(stderr, "\n%s", opt.usageText().c_str());
            return false;
        }
    }
    return true;
}

Options
standardOptions(int argc, char **argv)
{
    Options opt;
    if (!parseOptions(argc, argv, opt))
        std::exit(2);
    return opt;
}

void
finishTimeline(const ExperimentRunner &runner, const Options &opt)
{
    if (opt.traceOut.empty())
        return;
    std::string error;
    if (runner.writeTimeline(opt.traceOut, &error)) {
        std::fprintf(stderr, "timeline: wrote %zu cell timelines to %s\n",
                     runner.timelines().size(), opt.traceOut.c_str());
    } else {
        std::fprintf(stderr, "timeline: %s\n", error.c_str());
    }
}

} // namespace charon::harness
