/**
 * @file
 * Per-device health state machine for the fleet supervisor: a
 * sliding-window failure-rate circuit breaker with probation-based
 * reinstatement.
 *
 *   HEALTHY ──rate ≥ degrade──▶ DEGRADED ──rate ≥ quarantine──▶ QUARANTINED
 *      ▲                           │                                 │
 *      │◀───rate < degrade─────────┘                        cool-down elapses
 *      │                                                             ▼
 *      └──── N consecutive probe successes ────────────────────  PROBATION
 *                                        (any failure re-quarantines)
 *
 * Two failure grades feed the breaker:
 *  - *transient* failures (lost probe, garbage response) accumulate
 *    in the window and trip the rate thresholds;
 *  - *forgeries* (a liveness response whose MAC fails under
 *    Key_attest) are security events: the device's shell is actively
 *    lying, so quarantine is immediate and permanent — no probation.
 *
 * All timing runs on the virtual clock; every transition is recorded
 * with its timestamp so tests and the failover bench can reconstruct
 * detection latency deterministically.
 */

#ifndef SALUS_FPGA_HEALTH_HPP
#define SALUS_FPGA_HEALTH_HPP

#include <deque>
#include <string>
#include <vector>

#include "sim/clock.hpp"

namespace salus::fpga {

/** Supervisor-visible device condition. */
enum class HealthState : uint8_t {
    Healthy = 0,
    Degraded,    ///< elevated failure rate; still serving
    Quarantined, ///< pulled from service; sessions must fail over
    Probation,   ///< cool-down served; earning reinstatement
};

/** Circuit-breaker tuning. */
struct HealthPolicy
{
    /** Probe outcomes considered for the failure rate. */
    uint32_t windowSize = 8;
    /** Rates are not trusted below this many samples. */
    uint32_t minSamples = 3;
    /** Window failure rate tripping HEALTHY -> DEGRADED. */
    double degradeThreshold = 0.34;
    /** Window failure rate tripping -> QUARANTINED. */
    double quarantineThreshold = 0.67;
    /** Quarantine cool-down before PROBATION is offered. */
    sim::Nanos probationAfter = 500 * sim::kMs;
    /** Consecutive probation successes that reinstate to HEALTHY. */
    uint32_t probationSuccesses = 3;
};

/** One recorded state change. */
struct HealthTransition
{
    sim::Nanos at = 0;
    HealthState from = HealthState::Healthy;
    HealthState to = HealthState::Healthy;
    std::string reason;
};

/** The per-device breaker. */
class HealthTracker
{
  public:
    explicit HealthTracker(HealthPolicy policy = {});

    /** Successful, authentic probe. */
    void recordSuccess(sim::Nanos now);

    /** Transient probe failure (unreachable / garbage response). */
    void recordFailure(sim::Nanos now, const std::string &reason);

    /** Security failure: a liveness response that failed its MAC.
     *  Immediate, permanent quarantine — a forging shell must never
     *  earn its way back through probation. */
    void recordForgery(sim::Nanos now, const std::string &reason);

    /** Time-driven maintenance: offers PROBATION once a (non-
     *  permanent) quarantine has served its cool-down. Call before
     *  deciding whether to probe. */
    void tick(sim::Nanos now);

    /** Planned-maintenance quarantine (rolling upgrade): pulls the
     *  device from service without recording a failure. tick() will
     *  not offer probation until endMaintenance(). */
    void beginMaintenance(sim::Nanos now, const std::string &reason);
    /** Ends planned maintenance: a non-permanently-quarantined device
     *  goes to PROBATION and earns reinstatement with clean probes. */
    void endMaintenance(sim::Nanos now);
    bool inMaintenance() const { return maintenance_; }

    HealthState state() const { return state_; }
    bool permanentlyQuarantined() const { return permanent_; }
    /** Failure rate over the current window (0 when empty). */
    double failureRate() const;
    uint32_t samples() const { return uint32_t(window_.size()); }
    const std::string &lastReason() const { return lastReason_; }
    const std::vector<HealthTransition> &transitions() const
    {
        return transitions_;
    }

  private:
    void push(bool failed);
    void evaluate(sim::Nanos now, const std::string &reason);
    void transitionTo(sim::Nanos now, HealthState to,
                      const std::string &reason);

    HealthPolicy policy_;
    HealthState state_ = HealthState::Healthy;
    std::deque<bool> window_; ///< true = failure
    sim::Nanos quarantinedAt_ = 0;
    uint32_t probationStreak_ = 0;
    bool permanent_ = false;
    bool maintenance_ = false; ///< held quarantined for an upgrade
    std::string lastReason_;
    std::vector<HealthTransition> transitions_;
};

} // namespace salus::fpga

#endif // SALUS_FPGA_HEALTH_HPP
