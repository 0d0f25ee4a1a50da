#include "fpga/health.hpp"

namespace salus::fpga {

HealthTracker::HealthTracker(HealthPolicy policy) : policy_(policy)
{
}

void
HealthTracker::transitionTo(sim::Nanos now, HealthState to,
                            const std::string &reason)
{
    if (to == state_)
        return;
    transitions_.push_back({now, state_, to, reason});
    state_ = to;
    lastReason_ = reason;
    if (to == HealthState::Quarantined) {
        quarantinedAt_ = now;
        window_.clear();
    }
    if (to == HealthState::Probation)
        probationStreak_ = 0;
}

void
HealthTracker::push(bool failed)
{
    window_.push_back(failed);
    while (window_.size() > policy_.windowSize)
        window_.pop_front();
}

double
HealthTracker::failureRate() const
{
    if (window_.empty())
        return 0.0;
    size_t failures = 0;
    for (bool f : window_)
        failures += f ? 1 : 0;
    return double(failures) / double(window_.size());
}

void
HealthTracker::evaluate(sim::Nanos now, const std::string &reason)
{
    if (window_.size() < policy_.minSamples)
        return;
    double rate = failureRate();
    if (rate >= policy_.quarantineThreshold) {
        transitionTo(now, HealthState::Quarantined, reason);
    } else if (rate >= policy_.degradeThreshold) {
        if (state_ == HealthState::Healthy)
            transitionTo(now, HealthState::Degraded, reason);
    } else if (state_ == HealthState::Degraded) {
        transitionTo(now, HealthState::Healthy,
                     "failure rate back under threshold");
    }
}

void
HealthTracker::recordSuccess(sim::Nanos now)
{
    if (state_ == HealthState::Quarantined)
        return; // not in service; ignore stray samples
    if (state_ == HealthState::Probation) {
        if (++probationStreak_ >= policy_.probationSuccesses) {
            window_.clear();
            transitionTo(now, HealthState::Healthy,
                         "probation served: " +
                             std::to_string(probationStreak_) +
                             " clean probes");
        }
        return;
    }
    push(false);
    evaluate(now, "");
}

void
HealthTracker::recordFailure(sim::Nanos now, const std::string &reason)
{
    lastReason_ = reason;
    if (state_ == HealthState::Quarantined)
        return;
    if (state_ == HealthState::Probation) {
        // One strike: back to quarantine, cool-down restarts.
        transitionTo(now, HealthState::Quarantined,
                     "probation failure: " + reason);
        return;
    }
    push(true);
    evaluate(now, reason);
}

void
HealthTracker::recordForgery(sim::Nanos now, const std::string &reason)
{
    permanent_ = true;
    lastReason_ = reason;
    if (state_ != HealthState::Quarantined)
        transitionTo(now, HealthState::Quarantined,
                     "forged liveness response: " + reason);
}

void
HealthTracker::beginMaintenance(sim::Nanos now,
                                const std::string &reason)
{
    maintenance_ = true;
    if (state_ != HealthState::Quarantined)
        transitionTo(now, HealthState::Quarantined,
                     "maintenance: " + reason);
}

void
HealthTracker::endMaintenance(sim::Nanos now)
{
    if (!maintenance_)
        return;
    maintenance_ = false;
    if (state_ == HealthState::Quarantined && !permanent_)
        transitionTo(now, HealthState::Probation,
                     "maintenance complete");
}

void
HealthTracker::tick(sim::Nanos now)
{
    if (state_ == HealthState::Quarantined && !permanent_ &&
        !maintenance_ &&
        now >= quarantinedAt_ + policy_.probationAfter) {
        transitionTo(now, HealthState::Probation,
                     "quarantine cool-down served");
    }
}

} // namespace salus::fpga
