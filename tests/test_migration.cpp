/**
 * @file
 * Live-migration tests: the SM enclave's MAC'd migration ticket
 * (fuzz-hardened serde, tamper and replay rejection), the end-to-end
 * live move with the scheduler parked, rolling-upgrade drain (target
 * rule, idle-device drain, graceful no-target degradation), the
 * same-seed byte-identical trace contract, and a crash-injection
 * sweep over every journal write of a migrating session.
 */

#include <gtest/gtest.h>

#include "common/errors.hpp"
#include "common/serde.hpp"
#include "crash_sweep.hpp"
#include "fpga/health.hpp"
#include "obs/trace.hpp"
#include "salus/migration.hpp"
#include "salus/sm_logic.hpp"
#include "salus/supervisor.hpp"
#include "salus/testbed.hpp"

using namespace salus;
using namespace salus::core;

namespace {

netlist::Cell
loopbackAccel()
{
    netlist::Cell accel;
    accel.path = "engine";
    accel.kind = netlist::CellKind::Logic;
    accel.behaviorId = fpga::kIpLoopback;
    accel.resources = {100, 100, 0, 0};
    return accel;
}

fpga::HealthPolicy
fastHealth()
{
    fpga::HealthPolicy h;
    h.windowSize = 4;
    h.minSamples = 2;
    h.degradeThreshold = 0.3;
    h.quarantineThreshold = 0.6;
    h.probationAfter = 200 * sim::kMs;
    h.probationSuccesses = 2;
    return h;
}

} // namespace

// ---- Migration message serde ----------------------------------------

TEST(MigrationSerde, TicketRoundTripsAndRejectsGarbage)
{
    MigrationTicket t;
    t.fromDevice = 0;
    t.toDevice = 2;
    t.fromDna = 0x1111;
    t.toDna = 0x2222;
    t.nonce = 0xfeedbeef;
    t.sourceFingerprint = Bytes(32, 0xab);
    t.mac = 0xdeadd00d;

    MigrationTicket t2 = MigrationTicket::deserialize(t.serialize());
    EXPECT_EQ(t2.fromDevice, t.fromDevice);
    EXPECT_EQ(t2.toDevice, t.toDevice);
    EXPECT_EQ(t2.fromDna, t.fromDna);
    EXPECT_EQ(t2.toDna, t.toDna);
    EXPECT_EQ(t2.nonce, t.nonce);
    EXPECT_EQ(t2.sourceFingerprint, t.sourceFingerprint);
    EXPECT_EQ(t2.mac, t.mac);

    Bytes good = t.serialize();
    Bytes badMagic = good;
    badMagic[0] ^= 0xff;
    EXPECT_THROW(MigrationTicket::deserialize(badMagic), SerdeError);
    Bytes cut(good.begin(), good.begin() + 11);
    EXPECT_THROW(MigrationTicket::deserialize(cut), SerdeError);

    MigrationTicket absurd = t;
    absurd.toDevice = MigrationTicket::kMaxDevices;
    EXPECT_THROW(MigrationTicket::deserialize(absurd.serialize()),
                 SerdeError);
    MigrationTicket shortFp = t;
    shortFp.sourceFingerprint = Bytes(16, 0xab);
    EXPECT_THROW(MigrationTicket::deserialize(shortFp.serialize()),
                 SerdeError);
}

// ---- Ticket security at the SM enclave ------------------------------

TEST(MigrationTicketSecurity, TamperedTicketsAreRefused)
{
    TestbedConfig cfg;
    cfg.rngSeed = 21;
    cfg.deviceCount = 2;
    Testbed tb(cfg);
    tb.installCl(loopbackAccel());
    ASSERT_TRUE(tb.runDeployment().ok);

    // Every field is bound by the MAC (or checked against the SM's
    // own view): flipping any one of them kills the ticket. The
    // supervisor relays these, so refusal is a false, not a throw.
    auto tampered = [&](auto &&mutate) {
        MigrationTicket t = tb.smApp().issueMigrationTicket(1);
        mutate(t);
        return tb.smApp().commitMigration(t);
    };
    EXPECT_FALSE(tampered([](MigrationTicket &t) { t.toDna ^= 1; }));
    EXPECT_FALSE(tampered([](MigrationTicket &t) { t.fromDna ^= 1; }));
    EXPECT_FALSE(tampered([](MigrationTicket &t) { t.nonce ^= 1; }));
    EXPECT_FALSE(tampered([](MigrationTicket &t) { t.mac ^= 1; }));
    EXPECT_FALSE(tampered(
        [](MigrationTicket &t) { t.sourceFingerprint[0] ^= 1; }));
    // Redirecting the move to a different device than authorized.
    EXPECT_FALSE(tampered([](MigrationTicket &t) { t.fromDevice = 1; }));

    // The untampered ticket still commits: nothing above burned it.
    MigrationTicket good = tb.smApp().issueMigrationTicket(1);
    EXPECT_TRUE(tb.smApp().commitMigration(good));
    EXPECT_EQ(tb.smApp().activeDevice(), 1u);

    // Replay: the commit retired the epoch the ticket is bound to.
    EXPECT_FALSE(tb.smApp().commitMigration(good));
}

TEST(MigrationTicketSecurity, IssueRefusesMisuse)
{
    TestbedConfig cfg;
    cfg.rngSeed = 22;
    cfg.deviceCount = 2;
    Testbed tb(cfg);

    // No live attested session yet.
    EXPECT_THROW(tb.smApp().issueMigrationTicket(1), MigrationError);

    tb.installCl(loopbackAccel());
    ASSERT_TRUE(tb.runDeployment().ok);
    // Self-migration and out-of-pool targets are refused.
    EXPECT_THROW(tb.smApp().issueMigrationTicket(0), MigrationError);
    EXPECT_THROW(tb.smApp().issueMigrationTicket(9), MigrationError);
}

// ---- Live migration end to end --------------------------------------

TEST(LiveMigration, ActiveSessionMovesWithParkedQueueAndFreshKeys)
{
    fpga::ensureBuiltinIps();
    SmLogic::registerIp();
    TestbedConfig cfg;
    cfg.rngSeed = 23;
    cfg.deviceCount = 3;
    cfg.health = fastHealth();
    Testbed tb(cfg);
    tb.installCl(loopbackAccel());
    ASSERT_TRUE(tb.runDeployment().ok);
    ASSERT_TRUE(tb.userApp().secureWrite(0x00, 41));
    Bytes oldFp = tb.smApp().secretsFingerprint();

    // Ops queued (not yet pumped) ride through the move parked.
    BatchScheduler &sched = tb.scheduler();
    std::vector<uint8_t> statuses;
    uint64_t readBack = 0;
    for (int i = 0; i < 3; ++i)
        ASSERT_EQ(sched.submit(0, {true, 0x08, 70ull + uint64_t(i)},
                               [&](uint8_t st, uint64_t) {
                                   statuses.push_back(st);
                               }),
                  BatchScheduler::Submit::Accepted);
    ASSERT_EQ(sched.submit(0, {false, 0x08, 0},
                           [&](uint8_t st, uint64_t data) {
                               statuses.push_back(st);
                               readBack = data;
                           }),
              BatchScheduler::Submit::Accepted);

    MigrationRecord rec =
        tb.supervisor().migrateActiveTo(2, "load balancing");
    EXPECT_EQ(rec.fromDevice, 0u);
    EXPECT_EQ(rec.toDevice, 2u);
    EXPECT_EQ(rec.attested, 1);
    EXPECT_EQ(rec.parkedOps, 4u);
    EXPECT_EQ(rec.reason, "load balancing");
    EXPECT_EQ(tb.smApp().activeDevice(), 2u);
    ASSERT_EQ(tb.supervisor().migrations().size(), 1u);

    // Key freshness: the source epoch is tombstoned, the target runs
    // under secrets that never served anywhere else.
    ASSERT_FALSE(oldFp.empty());
    EXPECT_EQ(rec.oldFingerprint, oldFp);
    EXPECT_TRUE(tb.smApp().everRetiredFingerprint(oldFp));
    EXPECT_NE(rec.newFingerprint, oldFp);
    EXPECT_FALSE(
        tb.smApp().everRetiredFingerprint(rec.newFingerprint));

    // The parked ops were released and complete on the TARGET device.
    EXPECT_FALSE(sched.parked());
    EXPECT_EQ(sched.drain(), 4u);
    ASSERT_EQ(statuses.size(), 4u);
    for (uint8_t st : statuses)
        EXPECT_EQ(st, 0);
    EXPECT_EQ(readBack, 72u);
    EXPECT_EQ(tb.shell(2).registerRead(pcie::Window::SmSecure,
                                       kSmRegStatBatchOps),
              4u);
    EXPECT_EQ(tb.shell(0).registerRead(pcie::Window::SmSecure,
                                       kSmRegStatBatchOps),
              0u);

    // Plain channel traffic continues on the new device too.
    EXPECT_TRUE(tb.userApp().secureWrite(0x00, 77));
    EXPECT_EQ(tb.userApp().secureRead(0x00), 77u);
}

TEST(LiveMigration, SupervisorRefusesUnusableTargets)
{
    TestbedConfig cfg;
    cfg.rngSeed = 24;
    cfg.deviceCount = 2;
    cfg.health = fastHealth();
    Testbed tb(cfg);
    tb.installCl(loopbackAccel());
    ASSERT_TRUE(tb.runDeployment().ok);
    Bytes fp = tb.smApp().secretsFingerprint();

    EXPECT_THROW(tb.supervisor().migrateActiveTo(0, "self"),
                 MigrationError);
    EXPECT_THROW(tb.supervisor().migrateActiveTo(9, "ghost"),
                 MigrationError);

    // Refusals happen before anything is touched: same epoch, same
    // device, traffic uninterrupted.
    EXPECT_EQ(tb.smApp().activeDevice(), 0u);
    EXPECT_EQ(tb.smApp().secretsFingerprint(), fp);
    EXPECT_TRUE(tb.supervisor().migrations().empty());
    EXPECT_TRUE(tb.userApp().secureWrite(0x00, 5));
    EXPECT_EQ(tb.userApp().secureRead(0x00), 5u);
}

// ---- Rolling upgrades -----------------------------------------------

TEST(RollingUpgrade, DrainMovesEverythingAndMaintenanceHolds)
{
    TestbedConfig cfg;
    cfg.rngSeed = 25;
    cfg.deviceCount = 3;
    cfg.health = fastHealth();
    Testbed tb(cfg);
    tb.installCl(loopbackAccel());
    ASSERT_TRUE(tb.runDeployment().ok);

    // The session was serving on device 0, so it live-migrates to
    // the lowest-id device still in service.
    EXPECT_TRUE(tb.supervisor().drainForUpgrade(0, "shell update"));
    ASSERT_EQ(tb.supervisor().migrations().size(), 1u);
    EXPECT_EQ(tb.smApp().activeDevice(), 1u);
    EXPECT_EQ(tb.supervisor().migrations()[0].attested, 1);

    // Maintenance quarantine holds across the watchdog: no probation
    // while the operator is reflashing the shell.
    EXPECT_EQ(tb.supervisor().state(0),
              fpga::HealthState::Quarantined);
    EXPECT_TRUE(tb.supervisor().tracker(0).inMaintenance());
    tb.supervisor().runFor(3 * fastHealth().probationAfter);
    EXPECT_EQ(tb.supervisor().state(0),
              fpga::HealthState::Quarantined);

    // Upgrade done: the device earns its way back through probation.
    tb.supervisor().completeUpgrade(0);
    EXPECT_EQ(tb.supervisor().state(0), fpga::HealthState::Probation);
    // Each poll spends network RTT virtual time well past the
    // heartbeat period, so count polls instead of wall time: two
    // clean probes serve out probation (probationSuccesses = 2).
    tb.supervisor().pollOnce();
    tb.supervisor().pollOnce();
    EXPECT_EQ(tb.supervisor().state(0), fpga::HealthState::Healthy);

    // Traffic never stopped.
    EXPECT_TRUE(tb.userApp().secureWrite(0x00, 9));
    EXPECT_EQ(tb.userApp().secureRead(0x00), 9u);
}

TEST(RollingUpgrade, DrainSkipsDevicesInMaintenance)
{
    TestbedConfig cfg;
    cfg.rngSeed = 29;
    cfg.deviceCount = 3;
    cfg.health = fastHealth();
    Testbed tb(cfg);
    tb.installCl(loopbackAccel());
    ASSERT_TRUE(tb.runDeployment().ok);

    ASSERT_FALSE(tb.supervisor().drainForUpgrade(1, "reflash 1"));
    ASSERT_TRUE(tb.supervisor().tracker(1).inMaintenance());

    EXPECT_TRUE(tb.supervisor().drainForUpgrade(0, "reflash 0"));
    ASSERT_EQ(tb.supervisor().migrations().size(), 1u);
    EXPECT_EQ(tb.supervisor().migrations()[0].toDevice, 2u);
    EXPECT_EQ(tb.smApp().activeDevice(), 2u);
    EXPECT_TRUE(tb.userApp().secureWrite(0x00, 4));
    EXPECT_EQ(tb.userApp().secureRead(0x00), 4u);
}

TEST(RollingUpgrade, IdleDeviceDrainMovesNothing)
{
    TestbedConfig cfg;
    cfg.rngSeed = 30;
    cfg.deviceCount = 3;
    cfg.health = fastHealth();
    Testbed tb(cfg);
    tb.installCl(loopbackAccel());
    ASSERT_TRUE(tb.runDeployment().ok);
    Bytes fp = tb.smApp().secretsFingerprint();

    EXPECT_FALSE(tb.supervisor().drainForUpgrade(2, "reflash 2"));
    EXPECT_TRUE(tb.supervisor().migrations().empty());
    EXPECT_TRUE(tb.supervisor().tracker(2).inMaintenance());
    EXPECT_EQ(tb.supervisor().state(2),
              fpga::HealthState::Quarantined);
    EXPECT_EQ(tb.smApp().activeDevice(), 0u);
    EXPECT_EQ(tb.smApp().secretsFingerprint(), fp);
    EXPECT_TRUE(tb.userApp().secureWrite(0x00, 6));
    EXPECT_EQ(tb.userApp().secureRead(0x00), 6u);
}

TEST(RollingUpgrade, NoCapacityDegradesGracefully)
{
    TestbedConfig cfg;
    cfg.rngSeed = 26;
    cfg.deviceCount = 1;
    Testbed tb(cfg);
    tb.installCl(loopbackAccel());
    ASSERT_TRUE(tb.runDeployment().ok);

    // Draining the only device must refuse up front: nothing
    // migrated, no maintenance, the session keeps serving.
    EXPECT_THROW(tb.supervisor().drainForUpgrade(0, "no room"),
                 MigrationError);
    EXPECT_TRUE(tb.supervisor().migrations().empty());
    EXPECT_FALSE(tb.supervisor().tracker(0).inMaintenance());
    EXPECT_EQ(tb.supervisor().state(0), fpga::HealthState::Healthy);
    EXPECT_TRUE(tb.userApp().secureWrite(0x00, 3));
    EXPECT_EQ(tb.userApp().secureRead(0x00), 3u);
}

TEST(RollingUpgrade, EveryOtherDeviceQuarantinedRefusesUntouched)
{
    TestbedConfig cfg;
    cfg.rngSeed = 31;
    cfg.deviceCount = 3;
    cfg.health = fastHealth();
    Testbed tb(cfg);
    tb.installCl(loopbackAccel());
    ASSERT_TRUE(tb.runDeployment().ok);
    Bytes fp = tb.smApp().secretsFingerprint();

    ASSERT_FALSE(tb.supervisor().drainForUpgrade(1, "reflash 1"));
    ASSERT_FALSE(tb.supervisor().drainForUpgrade(2, "reflash 2"));

    EXPECT_THROW(tb.supervisor().drainForUpgrade(0, "reflash 0"),
                 MigrationError);
    EXPECT_TRUE(tb.supervisor().migrations().empty());
    EXPECT_FALSE(tb.supervisor().tracker(0).inMaintenance());
    EXPECT_EQ(tb.supervisor().state(0), fpga::HealthState::Healthy);
    EXPECT_EQ(tb.smApp().activeDevice(), 0u);
    EXPECT_EQ(tb.smApp().secretsFingerprint(), fp);
    EXPECT_TRUE(tb.userApp().secureWrite(0x00, 8));
    EXPECT_EQ(tb.userApp().secureRead(0x00), 8u);
}

// ---- Same-seed determinism (replay contract) ------------------------

namespace {

struct MigrationRun
{
    bool deployOk = false;
    uint64_t clockEnd = 0;
    Bytes oldFp;
    Bytes newFp;
    uint32_t activeAfter = 0;
    size_t migrations = 0;
    uint64_t postRead = 0;
    std::string traceJson;
    std::string metricsText;
};

/** The rolling-upgrade scenario the robustness-soak seed sweep runs:
 *  deploy, drain device 0 (live-migrating the active session), finish
 *  the upgrade, keep serving. Fully traced for byte comparison. */
MigrationRun
runUpgradeScenario(uint64_t seed)
{
    MigrationRun run;
    TestbedConfig cfg;
    cfg.rngSeed = seed;
    cfg.deviceCount = 3;
    cfg.health = fastHealth();
    Testbed tb(cfg);

    obs::TraceRecorder recorder(tb.clock());
    obs::MetricsRegistry metricsReg;
    {
        obs::ObsScope scope(&recorder, &metricsReg);
        tb.installCl(loopbackAccel());
        run.deployOk = tb.runDeployment().ok;
        if (run.deployOk) {
            EXPECT_TRUE(tb.userApp().secureWrite(0x00, 1));
            run.oldFp = tb.smApp().secretsFingerprint();

            tb.supervisor().drainForUpgrade(0, "rolling upgrade");
            tb.supervisor().runFor(50 * sim::kMs);
            tb.supervisor().completeUpgrade(0);

            run.migrations = tb.supervisor().migrations().size();
            run.activeAfter = tb.smApp().activeDevice();
            run.newFp = tb.smApp().secretsFingerprint();
            EXPECT_TRUE(tb.userApp().secureWrite(0x00, 2));
            run.postRead = tb.userApp().secureRead(0x00).value_or(0);
            run.clockEnd = tb.clock().now();
        }
    }
    run.traceJson = recorder.chromeTraceJson();
    run.metricsText = metricsReg.renderText();
    return run;
}

} // namespace

TEST(LiveMigration, SameSeedUpgradeRunsAreBitForBitIdentical)
{
    MigrationRun a = runUpgradeScenario(27);
    MigrationRun b = runUpgradeScenario(27);
    ASSERT_TRUE(a.deployOk);
    EXPECT_EQ(a.migrations, 1u);
    EXPECT_NE(a.activeAfter, 0u);
    EXPECT_EQ(a.postRead, 2u);
    EXPECT_NE(a.oldFp, a.newFp);

    EXPECT_EQ(a.clockEnd, b.clockEnd);
    EXPECT_EQ(a.activeAfter, b.activeAfter);
    EXPECT_EQ(a.oldFp, b.oldFp);
    EXPECT_EQ(a.newFp, b.newFp);
    ASSERT_GT(a.traceJson.size(), 1000u);
    EXPECT_EQ(a.traceJson, b.traceJson);
    EXPECT_EQ(a.metricsText, b.metricsText);

    // A different seed derives different key material.
    MigrationRun c = runUpgradeScenario(28);
    ASSERT_TRUE(c.deployOk);
    EXPECT_NE(c.newFp, a.newFp);
}

// ---- Crash-injection sweep over a migrating session -----------------

namespace {

/** The canonical migrating session the sweep enumerates journal
 *  writes of: deploy, traffic, live-migrate 0 -> 1, traffic.
 *  `preFp` reports the source epoch's fingerprint (captured right
 *  before the migration) even when a crash interrupts the move. */
void
runMigratingSession(Testbed &tb, Bytes &preFp)
{
    tb.installCl(loopbackAccel());
    UserClient::Outcome out = tb.runDeployment();
    if (!out.ok)
        throw SalusError("deployment failed: " + out.failure);
    if (!tb.userApp().secureWrite(0x00, 1))
        throw SalusError("write failed");
    preFp = tb.smApp().secretsFingerprint();
    tb.supervisor().migrateActiveTo(1, "sweep migration");
    if (!tb.userApp().secureWrite(0x00, 2))
        throw SalusError("write failed");
}

int
baselineMigrationJournalWrites()
{
    static int n = [] {
        TestbedConfig cfg;
        cfg.rngSeed = 31;
        cfg.deviceCount = 2;
        return sweep::countJournalWrites(cfg, [](Testbed &tb) {
            Bytes fp;
            runMigratingSession(tb, fp);
        });
    }();
    return n;
}

} // namespace

TEST(MigrationCrashRecovery, SweepSizeIsPinned)
{
    // Moving a journal commit must move this number with it.
    EXPECT_EQ(baselineMigrationJournalWrites(), 5);
}

class MigrationCrashSweep
    : public ::testing::TestWithParam<sweep::CrashPoint>
{
};

TEST_P(MigrationCrashSweep, EveryJournalStepFailsClosedOrCompletes)
{
    auto [step, afterPersist] = GetParam();

    TestbedConfig cfg;
    cfg.rngSeed = 31;
    cfg.deviceCount = 2;
    cfg.faultPlan.add(
        sim::FaultRule::smCrash(uint64_t(step), afterPersist));
    Testbed tb(cfg);

    Bytes preFp;
    bool crashed = false;
    try {
        runMigratingSession(tb, preFp);
    } catch (const SmCrashError &) {
        crashed = true;
    }
    ASSERT_TRUE(crashed) << "armed crash at step " << step
                         << " never fired";

    // Honest host: every crash point recovers consistent (or a fresh
    // start when the crash preceded the first persist) — never a
    // partially adopted migration.
    SmEnclaveApp::RecoveryReport rep = tb.crashAndRecoverSmApp();
    EXPECT_TRUE(rep.status == SmEnclaveApp::RecoveryStatus::Recovered ||
                rep.status == SmEnclaveApp::RecoveryStatus::NoJournal)
        << rep.detail;
    EXPECT_FALSE(tb.smApp().failedClosed());
    EXPECT_EQ(rep.reattestFailures, 0u);

    // The recovered table lands in exactly one of two states: the
    // migration committed (active = target, source epoch tombstoned)
    // or it failed closed on the source (active = source). Either
    // way the source epoch's keys are never live on two devices.
    uint32_t active = tb.smApp().activeDevice();
    EXPECT_TRUE(active == 0 || active == 1);
    if (!preFp.empty() && active == 1) {
        EXPECT_TRUE(tb.smApp().everRetiredFingerprint(preFp))
            << "migration adopted without tombstoning the source";
    }
    Bytes liveFp = tb.smApp().secretsFingerprint();
    if (!liveFp.empty()) {
        EXPECT_FALSE(tb.smApp().everRetiredFingerprint(liveFp));
    }

    // And the fleet serves attested traffic again end to end.
    UserClient::Outcome out = tb.runDeployment();
    ASSERT_TRUE(out.ok) << out.failure;
    EXPECT_TRUE(tb.userApp().secureWrite(0x10, 5));
    EXPECT_EQ(tb.userApp().secureRead(0x10), 5u);
    Bytes finalFp = tb.smApp().secretsFingerprint();
    ASSERT_FALSE(finalFp.empty());
    EXPECT_FALSE(tb.smApp().everRetiredFingerprint(finalFp));
}

INSTANTIATE_TEST_SUITE_P(
    AllMigrationJournalSteps, MigrationCrashSweep,
    ::testing::ValuesIn(sweep::crashPoints(baselineMigrationJournalWrites())),
    sweep::crashPointName);
