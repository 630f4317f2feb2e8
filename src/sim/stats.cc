#include "stats.hh"

#include <algorithm>
#include <cmath>

namespace charon::sim
{

void
QuantileAccumulator::merge(const QuantileAccumulator &other)
{
    samples_.insert(samples_.end(), other.samples_.begin(),
                    other.samples_.end());
    sorted_ = false;
}

double
QuantileAccumulator::quantile(double q) const
{
    if (samples_.empty())
        return 0.0;
    if (!sorted_) {
        view_ = samples_;
        std::sort(view_.begin(), view_.end());
        sorted_ = true;
    }
    q = std::min(1.0, std::max(0.0, q));
    // Nearest rank: rank = ceil(q * n), 1-based; q == 0 yields the
    // minimum by convention.
    std::size_t n = view_.size();
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(n)));
    if (rank == 0)
        rank = 1;
    if (rank > n)
        rank = n;
    return view_[rank - 1];
}

double
QuantileAccumulator::sum() const
{
    double s = 0;
    for (double v : samples_)
        s += v;
    return s;
}

double
QuantileAccumulator::mean() const
{
    return samples_.empty()
               ? 0.0
               : sum() / static_cast<double>(samples_.size());
}

double
QuantileAccumulator::min() const
{
    return samples_.empty()
               ? 0.0
               : *std::min_element(samples_.begin(), samples_.end());
}

double
QuantileAccumulator::max() const
{
    return samples_.empty()
               ? 0.0
               : *std::max_element(samples_.begin(), samples_.end());
}

void
QuantileAccumulator::reset()
{
    samples_.clear();
    view_.clear();
    sorted_ = false;
}

double
geomean(const std::vector<double> &values)
{
    double log_sum = 0;
    std::size_t n = 0;
    for (double v : values) {
        // Skip non-positive *and* non-finite entries: a zero-GC cell
        // divides into an inf/NaN ratio upstream, and one such value
        // must not poison the whole aggregate.
        if (v <= 0 || !std::isfinite(v))
            continue;
        log_sum += std::log(v);
        ++n;
    }
    return n ? std::exp(log_sum / static_cast<double>(n)) : 0.0;
}

} // namespace charon::sim
