#include "fluid_channel.hh"

#include <algorithm>
#include <cmath>
#include <vector>

#include "sim/logging.hh"

namespace charon::mem
{

namespace
{
/** Below this many bytes a flow counts as finished (fp slack). */
constexpr double kFinishEpsilon = 1e-6;
} // namespace

const char *
patternName(AccessPattern p)
{
    switch (p) {
      case AccessPattern::Sequential:
        return "sequential";
      case AccessPattern::Strided:
        return "strided";
      case AccessPattern::Random:
        return "random";
    }
    return "unknown";
}

FluidChannel::FluidChannel(sim::EventQueue &eq, std::string name,
                           double capacity,
                           const sim::Instrumentation &instr)
    : eq_(eq),
      capacity_(capacity),
      stats_(std::move(name)),
      bytesTransferred_(&stats_, "bytes", "total bytes transferred"),
      utilizedTicks_(&stats_, "utilized_ticks",
                     "integral of utilization over time"),
      flowCount_(&stats_, "flows", "number of flows served"),
      timeline_(instr.timeline()),
      track_(instr.track(stats_.name()))
{
    CHARON_ASSERT(capacity_ > 0, "channel capacity must be positive");
}

void
FluidChannel::startFlow(std::uint64_t bytes, double maxRate,
                        sim::Join *join)
{
    ++flowCount_;
    if (bytes == 0) {
        // Degenerate flow: complete immediately, still in event order.
        sim::arriveAt(eq_, join, eq_.now());
        return;
    }
    advance();
    bytesTransferred_ += static_cast<double>(bytes);
    flowBytes_.push_back(static_cast<double>(bytes));
    flowMax_.push_back(maxRate);
    flowRate_.push_back(0);
    flowDone_.push_back(join);
    if (timeline_) {
        timeline_->counter(track_, eq_.now(),
                           static_cast<double>(flowBytes_.size()));
    }
    reallocate();
}

void
FluidChannel::setCapacity(double capacity)
{
    // Floor keeps the utilization integral finite and guarantees the
    // phase barrier drains even for an "offline" resource.
    constexpr double kMinCapacityFraction = 1e-3;
    advance();
    capacity_ = std::max(capacity, capacity_ * kMinCapacityFraction);
    reallocate();
}

void
FluidChannel::advance()
{
    sim::Tick now = eq_.now();
    if (now <= lastAdvance_) {
        lastAdvance_ = now;
        return;
    }
    double dt = static_cast<double>(now - lastAdvance_);
    double allocated = 0;
    const std::size_t n = flowBytes_.size();
    for (std::size_t i = 0; i < n; ++i) {
        flowBytes_[i] -= flowRate_[i] * dt;
        if (flowBytes_[i] < 0)
            flowBytes_[i] = 0;
        allocated += flowRate_[i];
    }
    utilizedTicks_ += dt * (allocated / capacity_);
    lastAdvance_ = now;
}

void
FluidChannel::reallocate()
{
    const std::size_t n = flowBytes_.size();
    if (n == 1) {
        // Single flow: progressive filling reduces to one comparison.
        // share == capacity_ / 1.0 == capacity_ exactly (IEEE), so
        // the rate is bit-identical to the generic loop below.
        double rate = (flowMax_[0] > 0 && flowMax_[0] <= capacity_)
                          ? flowMax_[0]
                          : capacity_;
        flowRate_[0] = rate;
        armTimer(eq_.now()
                 + static_cast<sim::Tick>(std::ceil(flowBytes_[0] / rate)));
        return;
    }

    // Max-min fair (progressive filling) with per-flow caps.  The
    // first round is fused: a single pass caps the flows whose cap is
    // below the initial fair share and collects the survivors into
    // the scratch index list (a member so the hot path never
    // allocates).  In the common case nothing is capped and the pass
    // assigns every flow the fair share directly; the arithmetic —
    // share values and subtraction order — is exactly the generic
    // progressive loop's, so the rates are bit-identical to it.
    if (n != 0) {
        double remaining = capacity_;
        double share = capacity_ / static_cast<double>(n);
        auto &uncapped = uncappedScratch_;
        uncapped.clear();
        bool progressed = false;
        for (std::uint32_t i = 0; i < n; ++i) {
            if (flowMax_[i] > 0 && flowMax_[i] <= share) {
                flowRate_[i] = flowMax_[i];
                remaining -= flowMax_[i];
                progressed = true;
            } else {
                flowRate_[i] = 0;
                uncapped.push_back(i);
            }
        }
        if (!progressed) {
            // Nobody's cap binds: everybody absorbs the fair share.
            // Fused with the timer scan below (same visit order and
            // comparisons, so the projected finish is bit-identical).
            double earliest = -1;
            for (std::size_t i = 0; i < n; ++i) {
                flowRate_[i] = share;
                double eta = flowBytes_[i] / share;
                if (earliest < 0 || eta < earliest)
                    earliest = eta;
            }
            armTimer(eq_.now()
                     + static_cast<sim::Tick>(std::ceil(earliest)));
            return;
        } else {
            // Later rounds: give every flow whose cap is below the
            // fair share its cap; compact the survivors stably so
            // the accumulation order stays the insertion order.
            while (!uncapped.empty() && remaining > 0 && progressed) {
                progressed = false;
                share =
                    remaining / static_cast<double>(uncapped.size());
                std::size_t kept = 0;
                for (std::size_t k = 0; k < uncapped.size(); ++k) {
                    std::uint32_t i = uncapped[k];
                    if (flowMax_[i] > 0 && flowMax_[i] <= share) {
                        flowRate_[i] = flowMax_[i];
                        remaining -= flowMax_[i];
                        progressed = true;
                    } else {
                        uncapped[kept++] = uncapped[k];
                    }
                }
                uncapped.resize(kept);
                if (!progressed) {
                    for (std::uint32_t i : uncapped)
                        flowRate_[i] = share;
                    remaining = 0;
                    uncapped.clear();
                }
            }
        }
    }

    // Re-key the completion timer to the earliest projected finish,
    // from onTimer() too, where that re-arms the running timer in
    // place; it leaves the queue only with the last flow.
    if (n == 0) {
        if (timer_) {
            eq_.deschedule(timer_);
            timer_ = 0;
        }
        return;
    }
    double earliest = -1;
    for (std::size_t i = 0; i < n; ++i) {
        if (flowRate_[i] <= 0)
            continue;
        double eta = flowBytes_[i] / flowRate_[i];
        if (earliest < 0 || eta < earliest)
            earliest = eta;
    }
    CHARON_ASSERT(earliest >= 0, "active flows but none making progress");
    armTimer(eq_.now() + static_cast<sim::Tick>(std::ceil(earliest)));
}

void
FluidChannel::armTimer(sim::Tick when)
{
    if (timer_ == 0) {
        timer_ = eq_.schedule(when, [this] { onTimer(); });
        return;
    }
    const bool rekeyed = eq_.reschedule(timer_, when);
    CHARON_ASSERT(rekeyed, "fluid channel %s lost its completion timer",
                  stats_.name().c_str());
}

void
FluidChannel::onTimer()
{
    // timer_ stays set: a re-key from here or from a reentrant
    // startFlow re-arms this very event, and if no flow is left,
    // reallocate() lets it leave the queue.
    advance();
    // Collect finished flows first, then complete their joins (a
    // join's callback may reentrantly start new flows on this
    // channel).  Survivors are compacted stably to keep the insertion
    // order.
    auto &done = doneScratch_;
    done.clear();
    std::size_t kept = 0;
    const std::size_t n = flowBytes_.size();
    for (std::size_t i = 0; i < n; ++i) {
        if (flowBytes_[i] <= kFinishEpsilon) {
            done.push_back(flowDone_[i]);
        } else {
            if (kept != i) {
                flowBytes_[kept] = flowBytes_[i];
                flowMax_[kept] = flowMax_[i];
                flowRate_[kept] = flowRate_[i];
                flowDone_[kept] = flowDone_[i];
            }
            ++kept;
        }
    }
    flowBytes_.resize(kept);
    flowMax_.resize(kept);
    flowRate_.resize(kept);
    flowDone_.resize(kept);
    sim::Tick now = eq_.now();
    if (timeline_ && !done.empty()) {
        timeline_->counter(track_, now,
                           static_cast<double>(flowBytes_.size()));
    }
    for (sim::Join *join : done) {
        if (join)
            join->arrive(now);
    }
    // No advance() here: the clock has not moved since the one above,
    // and any reentrant startFlow already advanced to this tick.
    reallocate();
}

} // namespace charon::mem
