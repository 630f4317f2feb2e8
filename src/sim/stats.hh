/**
 * @file
 * Lightweight statistics package: named scalar counters and exact
 * quantile accumulators grouped per component, with a registry for
 * dumping.
 *
 * Modelled loosely on gem5's Stats package but kept deliberately small:
 * a StatGroup owns named stats; every stat is registered on construction
 * and can be reset or dumped by the owning group.
 */

#ifndef CHARON_SIM_STATS_HH
#define CHARON_SIM_STATS_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace charon::sim
{

class StatGroup;

/**
 * A monotonically accumulating scalar statistic.
 *
 * The accumulation contract is deliberately narrow: the only mutators
 * are `+=` / `++` (which must be fed non-negative deltas) and
 * `reset()`, which restarts the accumulation at zero.  There is no
 * arbitrary-write `set()` — a stat that needs last-value semantics is
 * a gauge, not a Counter, and sampling one belongs on a Timeline
 * counter track.  test_stats.cc pins this surface down.
 */
class Counter
{
  public:
    Counter() = default;
    Counter(StatGroup *group, std::string name, std::string desc);

    Counter &operator+=(double v) { value_ += v; return *this; }
    Counter &operator++() { value_ += 1; return *this; }
    double value() const { return value_; }
    void reset() { value_ = 0; }
    const std::string &name() const { return name_; }
    const std::string &desc() const { return desc_; }

  private:
    std::string name_;
    std::string desc_;
    double value_ = 0;
};

/**
 * Exact streaming quantile accumulator.
 *
 * Tail-latency reporting (the fleet benches' p50/p99/p99.9) must be
 * *exact* and *deterministic*: sketches (t-digest, GK) trade those
 * away for memory, and this simulator's sample sets — one sample per
 * GC pause or per served request — are small enough (10^4..10^6) to
 * keep whole.  Samples are stored as added; the sorted view is built
 * lazily and invalidated by add()/merge(), so streaming inserts stay
 * O(1) amortized and a report touching several quantiles sorts once.
 *
 * merge() appends the other accumulator's samples in their insertion
 * order, so merging a fixed sequence of accumulators (e.g. per-tenant
 * in tenant order) is deterministic and independent of how the work
 * that filled them was scheduled.
 */
class QuantileAccumulator
{
  public:
    QuantileAccumulator() = default;
    QuantileAccumulator(StatGroup *group, std::string name,
                        std::string desc);

    void
    add(double v)
    {
        samples_.push_back(v);
        sorted_ = false;
    }

    /** Append every sample of @p other (other is unchanged). */
    void merge(const QuantileAccumulator &other);

    /**
     * Exact quantile by the nearest-rank method: the smallest sample
     * s such that at least ceil(q * count) samples are <= s.  @p q is
     * clamped to [0, 1]; an empty accumulator returns 0.
     */
    double quantile(double q) const;

    std::uint64_t count() const { return samples_.size(); }
    double mean() const;
    double min() const;
    double max() const;
    double sum() const;
    void reset();
    const std::string &name() const { return name_; }
    const std::vector<double> &samples() const { return samples_; }

  private:
    std::string name_;
    std::string desc_;
    std::vector<double> samples_;
    /** Sorted shadow of samples_, rebuilt on demand. */
    mutable std::vector<double> view_;
    mutable bool sorted_ = false;
};

/**
 * A named collection of statistics belonging to one simulated component.
 *
 * Groups form a flat registry keyed by the group name; dump() prints
 * "group.stat value" lines suitable for diffing across runs.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name) : name_(std::move(name)) {}

    const std::string &name() const { return name_; }

    /** Register hooks used by the stat constructors. */
    void add(Counter *c) { counters_.push_back(c); }
    void add(QuantileAccumulator *q) { quantiles_.push_back(q); }

    /** Reset every stat in this group. */
    void resetAll();

    /** Print "name.stat = value" lines. */
    void dump(std::ostream &os) const;

    const std::vector<Counter *> &counters() const { return counters_; }

  private:
    std::string name_;
    std::vector<Counter *> counters_;
    std::vector<QuantileAccumulator *> quantiles_;
};

/** Geometric mean of a vector (ignores non-positive entries). */
double geomean(const std::vector<double> &values);

} // namespace charon::sim

#endif // CHARON_SIM_STATS_HH
