/**
 * @file
 * SweepJournal: the resumability layer of the design-space explorer.
 *
 * Every evaluated cell (one platform replay of one candidate design)
 * is appended to a JSONL journal as soon as its result exists, keyed
 * by the cell's full content key (functional key + platform +
 * architectural-config digest + screening depth).  A re-run of the
 * same sweep — after a crash, a Ctrl-C, or on another day — looks
 * every cell up in the journal first and only simulates the misses,
 * so an interrupted sweep resumes with zero re-simulated cells.
 *
 * Durability contract: records are flushed line-at-a-time, doubles
 * round-trip exactly (%.17g), and the loader tolerates a torn final
 * line (a crash mid-append) by treating it as a miss.  The journal is
 * an append-only cache, never a source of truth: deleting it merely
 * costs recomputation.
 */

#ifndef CHARON_DSE_JOURNAL_HH
#define CHARON_DSE_JOURNAL_HH

#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace charon::dse
{

/**
 * One journalled cell result: the replay-side scalars every report
 * and objective needs.  (Traces themselves live in the harness trace
 * cache; the journal only memoizes the timing/energy outcome.)
 */
struct JournalRecord
{
    std::string key; ///< cellKey(): the record's identity
    bool ok = false;
    bool oom = false;
    std::string error; ///< diagnostic when !ok

    double gcSeconds = 0;
    double minorSeconds = 0;
    double majorSeconds = 0;
    double mutatorSeconds = 0;
    double avgGcBandwidthGBs = 0;
    double localAccessFraction = 0;
    double dramBytes = 0;
    double hostEnergyJ = 0;
    double dramEnergyJ = 0;
    double unitEnergyJ = 0;

    double
    totalEnergyJ() const
    {
        return hostEnergyJ + dramEnergyJ + unitEnergyJ;
    }
};

/**
 * Append-only JSONL store of JournalRecords, loaded whole at
 * construction.  An empty path constructs a disabled journal: every
 * lookup misses and appends are dropped, so callers never branch.
 */
class SweepJournal
{
  public:
    /**
     * Load @p path if it exists (missing file = empty journal).
     *
     * A file that ends mid-line (a crash tore the final append) is
     * repaired immediately: a terminating newline is written at open,
     * so every *other* reader — a merge, a sibling sweep shard, a
     * plain `grep` — sees a well-formed file without having to wait
     * for this journal's next append.  On a read-only filesystem the
     * repair degrades gracefully to the old behaviour (the newline
     * goes in front of the first successful append instead).
     */
    explicit SweepJournal(std::string path);

    bool enabled() const { return !path_.empty(); }
    const std::string &path() const { return path_; }

    /** Records currently held (later duplicates win). */
    std::size_t size() const { return records_.size(); }

    /** Fetch the record for @p key into @p out; false on a miss. */
    bool lookup(const std::string &key, JournalRecord &out) const;

    /**
     * Append @p record and remember it for future lookups.  Returns
     * false when the journal is enabled but the file cannot be
     * written (the in-memory copy is still updated, so the sweep
     * completes either way).
     *
     * Durability: each record goes to a held O_APPEND descriptor as
     * one write(2) call, so a SIGKILL between cells never tears a
     * committed line — an interrupted sweep resumes from exactly the
     * last completed cell.
     */
    bool append(const JournalRecord &record);

    /**
     * Load the records of another journal file into memory only —
     * nothing is written anywhere.  Keys already present (from this
     * journal's own file or earlier seeds) win, so a sweep shard can
     * absorb its siblings' results for lookup without ever adopting a
     * record that contradicts its own committed history.  Torn or
     * malformed lines are skipped, a missing file is an empty seed.
     * Returns the number of records actually inserted.
     */
    std::size_t seedFrom(const std::string &path);

    /**
     * Insert @p record into the in-memory map only (no file write),
     * and only when its key is absent.  The supervisor uses this to
     * overlay session-local verdicts — e.g. "quarantined poison
     * point" failure records — without poisoning the durable journal:
     * a later resume retries those points from scratch.
     */
    void seedRecord(const JournalRecord &record);

    /**
     * Merge journal files: @p dst (if it exists) plus every readable
     * file of @p srcs, deduplicated first-writer-wins in that order
     * (dst's lines first, then each source's, line order within each
     * file).  The result replaces @p dst through
     * harness::atomicPublish — records sorted by key, one line
     * each — so the merged file is deterministic: any set of shard
     * journals holding the same records merges to identical bytes,
     * and re-merging is idempotent.  Torn tails in any input are
     * dropped (they are uncommitted by contract).  Missing sources
     * are skipped silently; only an unwritable @p dst fails.
     */
    struct MergeStats
    {
        std::size_t records = 0;    ///< records in the merged file
        std::size_t duplicates = 0; ///< later copies of a seen key
        std::size_t tornLines = 0;  ///< unparseable lines dropped
        std::size_t sources = 0;    ///< input files actually read
    };
    static bool mergeJournals(const std::string &dst,
                              const std::vector<std::string> &srcs,
                              std::string *error = nullptr,
                              MergeStats *stats = nullptr);

    ~SweepJournal();
    SweepJournal(const SweepJournal &) = delete;
    SweepJournal &operator=(const SweepJournal &) = delete;

    /**
     * Install SIGINT/SIGTERM handlers that set a flag (checked via
     * interrupted()) instead of killing the process, so the explorer
     * can stop at the next cell boundary with every completed cell
     * already flushed.  Idempotent; async-signal-safe handler.
     */
    static void installSignalFlush();

    /** True once SIGINT/SIGTERM arrived after installSignalFlush(). */
    static bool interrupted();

    /** Serialize one record as a single JSONL line (no newline). */
    static std::string formatLine(const JournalRecord &record);

    /**
     * Parse one journal line.  Returns false — never throws — on a
     * malformed or torn line, which the loader counts as a miss.
     */
    static bool parseLine(const std::string &line, JournalRecord &out);

  private:
    std::string path_;
    std::map<std::string, JournalRecord> records_;
    /** Held append descriptor (lazy-opened on first append). */
    int fd_ = -1;
    /** False when the loaded file ends mid-line (torn final write):
     *  the first append then starts with a repair newline. */
    bool endsWithNewline_ = true;
};

} // namespace charon::dse

#endif // CHARON_DSE_JOURNAL_HH
