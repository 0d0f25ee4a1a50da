#include "salus/actors.hpp"

#include "common/errors.hpp"

namespace salus::core {

// ---- SchedulerPumpActor ----------------------------------------------

uint32_t
SchedulerPumpActor::attach(sim::Engine &engine, const std::string &name)
{
    if (actorId_ == 0)
        actorId_ = engine.addActor(*this, name);
    return actorId_;
}

void
SchedulerPumpActor::onEvent(sim::Engine &, const sim::Event &event)
{
    if (event.kind != kSweep)
        return;
    ++sweeps_;
    if (pump_)
        ops_ += pump_();
}

// ---- SupervisorPollActor ---------------------------------------------

uint32_t
SupervisorPollActor::attach(sim::Engine &engine, const std::string &name)
{
    if (actorId_ == 0)
        actorId_ = engine.addActor(*this, name);
    return actorId_;
}

void
SupervisorPollActor::onEvent(sim::Engine &, const sim::Event &event)
{
    if (event.kind != kPoll)
        return;
    ++polls_;
    try {
        supervisor_.pollOnce();
    } catch (const SalusError &) {
        // Failover propagation surfaces out of pollOnce as an
        // exception; the event loop keeps running and the owner
        // decides what a failover means.
        ++errors_;
        if (onError_)
            onError_();
    }
}

} // namespace salus::core
