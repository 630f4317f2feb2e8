/**
 * @file
 * Summary statistics for the reports: an exact quantile accumulator
 * and the geometric mean.
 */

#ifndef CHARON_SIM_STATS_HH
#define CHARON_SIM_STATS_HH

#include <cstdint>
#include <vector>

namespace charon::sim
{

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
    const std::vector<double> &samples() const { return samples_; }

  private:
    std::vector<double> samples_;
    /** Sorted shadow of samples_, rebuilt on demand. */
    mutable std::vector<double> view_;
    mutable bool sorted_ = false;
};

/** Geometric mean of a vector (ignores non-positive entries). */
double geomean(const std::vector<double> &values);

} // namespace charon::sim

#endif // CHARON_SIM_STATS_HH
