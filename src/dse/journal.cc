#include "journal.hh"

#include <cctype>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>

#include <fcntl.h>
#include <unistd.h>

#include "harness/atomic_publish.hh"
#include "sim/json.hh"

namespace charon::dse
{

std::string
fmtDouble(double v)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

namespace
{

constexpr int kVersion = 1;

/**
 * Minimal parser for the flat JSON objects the journal itself writes:
 * string / number / bool values only.  Anything unexpected — torn
 * line, nested value, trailing garbage — fails the whole line.
 */
class FlatJsonScanner
{
  public:
    explicit FlatJsonScanner(const std::string &s) : s_(s) {}

    bool
    object(std::map<std::string, std::string> &strings,
           std::map<std::string, double> &numbers,
           std::map<std::string, bool> &bools)
    {
        skipWs();
        if (!consume('{'))
            return false;
        skipWs();
        if (consume('}'))
            return trailingOk();
        for (;;) {
            std::string key;
            if (!string(key))
                return false;
            skipWs();
            if (!consume(':'))
                return false;
            skipWs();
            if (i_ < s_.size() && s_[i_] == '"') {
                std::string v;
                if (!string(v))
                    return false;
                strings[key] = v;
            } else if (matchWord("true")) {
                bools[key] = true;
            } else if (matchWord("false")) {
                bools[key] = false;
            } else {
                double v;
                if (!number(v))
                    return false;
                numbers[key] = v;
            }
            skipWs();
            if (consume(',')) {
                skipWs();
                continue;
            }
            if (consume('}'))
                return trailingOk();
            return false;
        }
    }

  private:
    void
    skipWs()
    {
        while (i_ < s_.size()
               && (s_[i_] == ' ' || s_[i_] == '\t' || s_[i_] == '\r'))
            ++i_;
    }

    bool
    consume(char c)
    {
        if (i_ < s_.size() && s_[i_] == c) {
            ++i_;
            return true;
        }
        return false;
    }

    bool
    matchWord(const char *w)
    {
        std::size_t n = std::string(w).size();
        if (s_.compare(i_, n, w) == 0) {
            i_ += n;
            return true;
        }
        return false;
    }

    bool
    string(std::string &out)
    {
        if (!consume('"'))
            return false;
        out.clear();
        while (i_ < s_.size()) {
            char c = s_[i_++];
            if (c == '"')
                return true;
            if (c == '\\') {
                if (i_ >= s_.size())
                    return false;
                char e = s_[i_++];
                switch (e) {
                case '"':
                case '\\':
                case '/':
                    out += e;
                    break;
                case 'n':
                    out += '\n';
                    break;
                case 't':
                    out += '\t';
                    break;
                case 'r':
                    out += '\r';
                    break;
                case 'u': {
                    if (i_ + 4 > s_.size())
                        return false;
                    unsigned code = 0;
                    for (int k = 0; k < 4; ++k) {
                        char h = s_[i_++];
                        code <<= 4;
                        if (h >= '0' && h <= '9')
                            code |= static_cast<unsigned>(h - '0');
                        else if (h >= 'a' && h <= 'f')
                            code |= static_cast<unsigned>(h - 'a' + 10);
                        else if (h >= 'A' && h <= 'F')
                            code |= static_cast<unsigned>(h - 'A' + 10);
                        else
                            return false;
                    }
                    // The journal only escapes control bytes.
                    out += static_cast<char>(code & 0xff);
                    break;
                }
                default:
                    return false;
                }
            } else {
                out += c;
            }
        }
        return false; // unterminated: torn line
    }

    bool
    number(double &out)
    {
        std::size_t start = i_;
        while (i_ < s_.size()
               && (std::isdigit(static_cast<unsigned char>(s_[i_]))
                   || s_[i_] == '-' || s_[i_] == '+' || s_[i_] == '.'
                   || s_[i_] == 'e' || s_[i_] == 'E' || s_[i_] == 'n'
                   || s_[i_] == 'a' || s_[i_] == 'i' || s_[i_] == 'f'))
            ++i_;
        if (i_ == start)
            return false;
        std::string tok = s_.substr(start, i_ - start);
        char *end = nullptr;
        out = std::strtod(tok.c_str(), &end);
        return end != nullptr && *end == '\0';
    }

    bool
    trailingOk()
    {
        skipWs();
        return i_ == s_.size();
    }

    const std::string &s_;
    std::size_t i_ = 0;
};

} // namespace

SweepJournal::SweepJournal(std::string path) : path_(std::move(path))
{
    if (path_.empty())
        return;
    std::ifstream is(path_, std::ios::binary);
    if (!is)
        return; // no journal yet: first run
    std::string content((std::istreambuf_iterator<char>(is)),
                        std::istreambuf_iterator<char>());
    endsWithNewline_ = content.empty() || content.back() == '\n';
    if (!endsWithNewline_) {
        // Repair the torn tail now, not on the next append: other
        // readers (merges, sibling shards) must see a well-formed
        // file even if this journal never appends again.
        int fd = ::open(path_.c_str(),
                        O_WRONLY | O_APPEND | O_CLOEXEC, 0644);
        if (fd >= 0) {
            if (harness::writeAll(fd, "\n", 1))
                endsWithNewline_ = true;
            // On failure (read-only fs) append() repairs lazily.
            ::close(fd);
        }
    }
    std::istringstream lines(content);
    std::string line;
    while (std::getline(lines, line)) {
        if (line.empty())
            continue;
        JournalRecord rec;
        // Malformed lines (torn final write, hand edits) are misses,
        // not errors: the sweep recomputes and re-appends them.
        if (parseLine(line, rec))
            records_[rec.key] = rec;
    }
}

bool
SweepJournal::lookup(const std::string &key, JournalRecord &out) const
{
    auto it = records_.find(key);
    if (it == records_.end())
        return false;
    out = it->second;
    return true;
}

SweepJournal::~SweepJournal()
{
    if (fd_ >= 0)
        ::close(fd_);
}

bool
SweepJournal::append(const JournalRecord &record)
{
    records_[record.key] = record;
    if (path_.empty())
        return true;
    if (fd_ < 0) {
        fd_ = ::open(path_.c_str(),
                     O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
        if (fd_ < 0)
            return false;
    }
    // One write(2) per record: an O_APPEND write of the whole line is
    // completed (or not) atomically by the kernel, so a signal or
    // SIGKILL between cells never tears a committed line.  A torn
    // final line from a previous crash must not swallow this record:
    // complete it first, then append on a fresh line.
    std::string line;
    if (!endsWithNewline_)
        line += '\n';
    line += formatLine(record);
    line += '\n';
    if (!harness::writeAll(fd_, line.data(), line.size()))
        return false;
    endsWithNewline_ = true;
    return true;
}

std::size_t
SweepJournal::seedFrom(const std::string &path)
{
    if (path.empty())
        return 0;
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return 0;
    std::size_t inserted = 0;
    std::string line;
    while (std::getline(is, line)) {
        if (line.empty())
            continue;
        JournalRecord rec;
        if (!parseLine(line, rec))
            continue; // torn / foreign line: not a seed
        if (records_.emplace(rec.key, rec).second)
            ++inserted;
    }
    return inserted;
}

void
SweepJournal::seedRecord(const JournalRecord &record)
{
    records_.emplace(record.key, record);
}

bool
SweepJournal::mergeJournals(const std::string &dst,
                            const std::vector<std::string> &srcs,
                            std::string *error, MergeStats *stats)
{
    MergeStats local;
    MergeStats &st = stats ? *stats : local;
    st = MergeStats{};

    // First-writer-wins in read order: dst's own lines, then each
    // source's lines, in the order each file wrote them.  Keeping the
    // first copy of a key honours the journal contract that a shard
    // never re-commits a cell it already owns.
    std::map<std::string, std::string> lines; // key -> formatted line
    auto readFile = [&](const std::string &path) {
        std::ifstream is(path, std::ios::binary);
        if (!is)
            return false;
        ++st.sources;
        std::string line;
        while (std::getline(is, line)) {
            if (line.empty())
                continue;
            JournalRecord rec;
            if (!parseLine(line, rec)) {
                ++st.tornLines;
                continue;
            }
            // Re-format rather than keep the raw line so the merged
            // file is canonical even across journal cosmetic drift.
            if (!lines.emplace(rec.key, formatLine(rec)).second)
                ++st.duplicates;
        }
        return true;
    };
    readFile(dst);
    for (const auto &src : srcs) {
        if (src == dst)
            continue;
        readFile(src);
    }
    st.records = lines.size();

    // Sorted by key (std::map iteration order).  A crash leaves
    // either the old dst or the new one, never a torn mixture.
    std::string body;
    for (const auto &[key, line] : lines) {
        body += line;
        body += '\n';
    }
    return harness::atomicPublish(dst, body, error);
}

namespace
{
volatile std::sig_atomic_t g_interrupted = 0;

void
onInterrupt(int)
{
    g_interrupted = 1;
}
} // namespace

void
SweepJournal::installSignalFlush()
{
    struct sigaction sa = {};
    sa.sa_handler = onInterrupt;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0; // no SA_RESTART: interrupt blocking syscalls
    ::sigaction(SIGINT, &sa, nullptr);
    ::sigaction(SIGTERM, &sa, nullptr);
}

bool
SweepJournal::interrupted()
{
    return g_interrupted != 0;
}

std::string
SweepJournal::formatLine(const JournalRecord &r)
{
    std::ostringstream os;
    os << "{\"v\":" << kVersion << ",\"key\":";
    sim::putJsonString(os, r.key);
    os << ",\"ok\":" << (r.ok ? "true" : "false")
       << ",\"oom\":" << (r.oom ? "true" : "false");
    if (!r.error.empty()) {
        os << ",\"error\":";
        sim::putJsonString(os, r.error);
    }
    os << ",\"gcSeconds\":" << fmtDouble(r.gcSeconds)
       << ",\"minorSeconds\":" << fmtDouble(r.minorSeconds)
       << ",\"majorSeconds\":" << fmtDouble(r.majorSeconds)
       << ",\"mutatorSeconds\":" << fmtDouble(r.mutatorSeconds)
       << ",\"avgGcBandwidthGBs\":" << fmtDouble(r.avgGcBandwidthGBs)
       << ",\"localAccessFraction\":"
       << fmtDouble(r.localAccessFraction)
       << ",\"dramBytes\":" << fmtDouble(r.dramBytes)
       << ",\"hostEnergyJ\":" << fmtDouble(r.hostEnergyJ)
       << ",\"dramEnergyJ\":" << fmtDouble(r.dramEnergyJ)
       << ",\"unitEnergyJ\":" << fmtDouble(r.unitEnergyJ) << "}";
    return os.str();
}

bool
SweepJournal::parseLine(const std::string &line, JournalRecord &out)
{
    std::map<std::string, std::string> strings;
    std::map<std::string, double> numbers;
    std::map<std::string, bool> bools;
    FlatJsonScanner scanner(line);
    if (!scanner.object(strings, numbers, bools))
        return false;

    auto v = numbers.find("v");
    if (v == numbers.end() || v->second != kVersion)
        return false;
    auto key = strings.find("key");
    if (key == strings.end() || key->second.empty())
        return false;

    out = JournalRecord{};
    out.key = key->second;
    auto b = [&](const char *name, bool &field) {
        auto it = bools.find(name);
        if (it != bools.end())
            field = it->second;
    };
    b("ok", out.ok);
    b("oom", out.oom);
    auto e = strings.find("error");
    if (e != strings.end())
        out.error = e->second;
    auto n = [&](const char *name, double &field) {
        auto it = numbers.find(name);
        if (it == numbers.end())
            return false;
        field = it->second;
        return true;
    };
    // The numeric block is all-or-nothing: a line missing any metric
    // (written by a different version, or torn) is a miss.
    return n("gcSeconds", out.gcSeconds)
           && n("minorSeconds", out.minorSeconds)
           && n("majorSeconds", out.majorSeconds)
           && n("mutatorSeconds", out.mutatorSeconds)
           && n("avgGcBandwidthGBs", out.avgGcBandwidthGBs)
           && n("localAccessFraction", out.localAccessFraction)
           && n("dramBytes", out.dramBytes)
           && n("hostEnergyJ", out.hostEnergyJ)
           && n("dramEnergyJ", out.dramEnergyJ)
           && n("unitEnergyJ", out.unitEnergyJ);
}

} // namespace charon::dse
