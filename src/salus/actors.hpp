/**
 * @file
 * Event-driven actors wrapping testbed components for the sim::Engine:
 * scheduler pump sweeps and supervisor watchdog polls become queued
 * events with the engine's stable (time, priority, seq) ordering. The
 * scenario driver (salus/scenario.cpp) posts them once per sweep.
 *
 * The actors deliberately spend no virtual time themselves: waiting
 * is expressed by scheduling (the clock advances to each event's due
 * time), and work charges time exactly where the wrapped component
 * does. A same-instant event chain therefore produces the same trace
 * as calling the components directly in post order (pinned by the
 * scenario gallery's golden digests).
 */

#ifndef SALUS_SALUS_ACTORS_HPP
#define SALUS_SALUS_ACTORS_HPP

#include <functional>
#include <string>

#include "salus/supervisor.hpp"
#include "sim/engine.hpp"

namespace salus::core {

/**
 * Scheduler sweeps as events. Each kSweep event runs one pump (the
 * wrapped callback is typically Broker::pump or
 * BatchScheduler::pumpOnce behind the caller's error handling).
 */
class SchedulerPumpActor final : public sim::Actor
{
  public:
    static constexpr uint32_t kSweep = 1;

    /** @param pump runs one sweep, returns ops completed. */
    explicit SchedulerPumpActor(std::function<size_t()> pump)
        : pump_(std::move(pump))
    {}

    /** Registers with the engine (idempotent per engine instance). */
    uint32_t attach(sim::Engine &engine, const std::string &name);
    uint32_t actorId() const { return actorId_; }

    void onEvent(sim::Engine &engine, const sim::Event &event) override;

    uint64_t sweeps() const { return sweeps_; }
    uint64_t opsCompleted() const { return ops_; }

  private:
    std::function<size_t()> pump_;
    uint32_t actorId_ = 0;
    uint64_t sweeps_ = 0;
    uint64_t ops_ = 0;
};

/**
 * Supervisor watchdog polls as events. Each kPoll event runs one
 * FleetSupervisor::pollOnce() without a heartbeat spend (the scenario
 * semantics: polls run between sweeps, waits are engine-scheduled).
 */
class SupervisorPollActor final : public sim::Actor
{
  public:
    static constexpr uint32_t kPoll = 1;

    /** @param onError invoked when pollOnce throws a SalusError
     *  (failover propagation); the exception is swallowed so the
     *  event loop keeps running. Null = swallow silently. */
    explicit SupervisorPollActor(FleetSupervisor &supervisor,
                                 std::function<void()> onError = nullptr)
        : supervisor_(supervisor), onError_(std::move(onError))
    {}

    uint32_t attach(sim::Engine &engine, const std::string &name);
    uint32_t actorId() const { return actorId_; }

    void onEvent(sim::Engine &engine, const sim::Event &event) override;

    uint64_t polls() const { return polls_; }
    uint64_t errors() const { return errors_; }

  private:
    FleetSupervisor &supervisor_;
    std::function<void()> onError_;
    uint32_t actorId_ = 0;
    uint64_t polls_ = 0;
    uint64_t errors_ = 0;
};

} // namespace salus::core

#endif // SALUS_SALUS_ACTORS_HPP
