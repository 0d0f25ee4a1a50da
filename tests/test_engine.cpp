/**
 * @file
 * Deterministic event-engine tests: stable (time, priority, seq)
 * dispatch order, cancel/reschedule behavior, clock advancement, and
 * the pump/poll actors the scenario driver posts. Scenario-level
 * behaviour (trace + metrics bytes) is pinned by the golden digests
 * in test_scenarios.cpp.
 */

#include <gtest/gtest.h>

#include <vector>

#include "salus/actors.hpp"
#include "sim/clock.hpp"
#include "sim/engine.hpp"

using namespace salus;
using namespace salus::core;

namespace {

/** Records every delivered (kind, a) pair with its dispatch time. */
struct RecordingActor final : sim::Actor
{
    struct Delivery
    {
        uint32_t kind;
        uint64_t a;
        sim::Nanos at;
    };
    std::vector<Delivery> log;

    void onEvent(sim::Engine &engine, const sim::Event &event) override
    {
        log.push_back({event.kind, event.a, engine.now()});
    }
};

} // namespace

// ---- Ordering --------------------------------------------------------

TEST(Engine, SameInstantEventsDispatchInPrioritySeqOrder)
{
    sim::VirtualClock clock;
    sim::Engine engine(clock);
    RecordingActor actor;
    uint32_t id = engine.addActor(actor, "recorder");

    // Posted out of priority order at one instant; dispatch must sort
    // (priority, seq): control first, bulk last, FIFO within a tier.
    engine.post(50, sim::kPriorityBulk, id, 1, 0);
    engine.post(50, sim::kPriorityControl, id, 2, 1);
    engine.post(50, sim::kPriorityDefault, id, 3, 2);
    engine.post(50, sim::kPriorityControl, id, 4, 3);
    engine.post(10, sim::kPriorityBulk, id, 5, 4); // earlier time wins

    ASSERT_TRUE(engine.runUntilIdle());
    ASSERT_EQ(actor.log.size(), 5u);
    EXPECT_EQ(actor.log[0].kind, 5u); // t=10 beats every priority
    EXPECT_EQ(actor.log[1].kind, 2u); // control, seq order
    EXPECT_EQ(actor.log[2].kind, 4u);
    EXPECT_EQ(actor.log[3].kind, 3u); // default
    EXPECT_EQ(actor.log[4].kind, 1u); // bulk
    EXPECT_EQ(engine.now(), 50);
    EXPECT_EQ(engine.stats().dispatched, 5u);
}

// ---- Cancel / reschedule ---------------------------------------------

TEST(Engine, CancelPreventsDispatchAndReschedulingMovesDueTime)
{
    sim::VirtualClock clock;
    sim::Engine engine(clock);
    RecordingActor actor;
    uint32_t id = engine.addActor(actor, "recorder");

    sim::EventId cancelled =
        engine.post(100, sim::kPriorityDefault, id, 1, 1);
    sim::EventId moved = engine.post(100, sim::kPriorityDefault, id, 2, 2);
    engine.post(150, sim::kPriorityDefault, id, 3, 3);

    EXPECT_TRUE(engine.cancel(cancelled));
    EXPECT_FALSE(engine.cancel(cancelled)); // second cancel is a no-op
    EXPECT_TRUE(engine.reschedule(moved, 200));
    EXPECT_EQ(engine.pendingAt(moved), 200);
    EXPECT_FALSE(engine.reschedule(cancelled, 300)); // dead id

    ASSERT_TRUE(engine.runUntilIdle());
    ASSERT_EQ(actor.log.size(), 2u);
    EXPECT_EQ(actor.log[0].kind, 3u);
    EXPECT_EQ(actor.log[0].at, 150);
    EXPECT_EQ(actor.log[1].kind, 2u); // dispatched at its NEW time
    EXPECT_EQ(actor.log[1].at, 200);
    EXPECT_EQ(engine.stats().cancelled, 1u);
}

TEST(Engine, RescheduleToThePastClampsToNow)
{
    sim::VirtualClock clock;
    sim::Engine engine(clock);
    RecordingActor actor;
    uint32_t id = engine.addActor(actor, "recorder");
    clock.advance(500);
    sim::EventId ev = engine.post(600, sim::kPriorityDefault, id, 1);
    EXPECT_TRUE(engine.reschedule(ev, 100)); // past: clamps to now
    EXPECT_EQ(engine.pendingAt(ev), 500);
    ASSERT_TRUE(engine.runUntilIdle());
    EXPECT_EQ(actor.log.at(0).at, 500);
}

TEST(Engine, PostToUnknownActorThrows)
{
    sim::VirtualClock clock;
    sim::Engine engine(clock);
    EXPECT_THROW(engine.post(0, sim::kPriorityDefault, 0, 1),
                 std::out_of_range);
    EXPECT_THROW(engine.post(0, sim::kPriorityDefault, 7, 1),
                 std::out_of_range);
}

TEST(Engine, RunUntilStopsAtDeadlineAndAdvancesClock)
{
    sim::VirtualClock clock;
    sim::Engine engine(clock);
    RecordingActor actor;
    uint32_t id = engine.addActor(actor, "recorder");
    engine.post(100, sim::kPriorityDefault, id, 1);
    engine.post(300, sim::kPriorityDefault, id, 2);
    EXPECT_EQ(engine.runUntil(200), 1u);
    EXPECT_EQ(engine.now(), 200);
    EXPECT_EQ(engine.pending(), 1u);
    EXPECT_TRUE(engine.runUntilIdle());
    EXPECT_EQ(engine.now(), 300);
}

// ---- Pump / poll actors ---------------------------------------------

TEST(Actors, PumpAndPollActorsHandlePostedEvents)
{
    sim::VirtualClock clock;
    sim::Engine engine(clock);
    size_t pumped = 0;
    SchedulerPumpActor pump([&pumped] {
        ++pumped;
        return size_t(3);
    });
    uint32_t pumpId = pump.attach(engine, "pump");
    EXPECT_EQ(pump.attach(engine, "pump"), pumpId); // idempotent

    // A probe that throws stands in for failover propagation: the poll
    // actor must swallow it, report it, and keep the loop running.
    SupervisorDeps deps;
    deps.clock = &clock;
    deps.probe = [](uint32_t) -> SmEnclaveApp::HeartbeatResult {
        throw SalusError("probe link down");
    };
    FleetSupervisor supervisor(deps);
    size_t reported = 0;
    SupervisorPollActor poll(supervisor, [&reported] { ++reported; });
    uint32_t pollId = poll.attach(engine, "poll");

    for (sim::Nanos t = 1000; t <= 5000; t += 1000)
        engine.post(t, sim::kPriorityControl, pumpId,
                    SchedulerPumpActor::kSweep);
    engine.post(2500, sim::kPriorityControl, pumpId, 99); // foreign kind
    engine.post(3000, sim::kPriorityControl, pollId,
                SupervisorPollActor::kPoll);
    ASSERT_TRUE(engine.runUntilIdle());

    EXPECT_EQ(pumped, 5u);
    EXPECT_EQ(pump.sweeps(), 5u);
    EXPECT_EQ(pump.opsCompleted(), 15u);
    EXPECT_EQ(poll.polls(), 1u);
    EXPECT_EQ(poll.errors(), 1u);
    EXPECT_EQ(reported, 1u);
    EXPECT_EQ(engine.now(), 5000);
}
