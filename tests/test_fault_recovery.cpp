/**
 * @file
 * Tests for the deterministic fault-injection fabric and the
 * self-healing deployment built on it: seeded fault plans replay
 * bit-for-bit, transport faults are retried with backoff charged to
 * the virtual clock, and security rejections (tampering) are never
 * retried into acceptance.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <tuple>

#include "bitstream/format.hpp"
#include "bitstream/logic_location.hpp"
#include "common/errors.hpp"
#include "fpga/ip.hpp"
#include "salus/sm_logic.hpp"
#include "salus/testbed.hpp"

using namespace salus;

namespace {

netlist::Cell
loopbackAccel()
{
    netlist::Cell accel;
    accel.path = "engine";
    accel.kind = netlist::CellKind::Logic;
    accel.behaviorId = fpga::kIpLoopback;
    accel.resources = {10, 10, 0, 0};
    return accel;
}

std::unique_ptr<core::Testbed>
makeTestbed(core::TestbedConfig cfg = {})
{
    fpga::ensureBuiltinIps();
    core::SmLogic::registerIp();
    auto tb = std::make_unique<core::Testbed>(std::move(cfg));
    tb->installCl(loopbackAccel());
    return tb;
}

/**
 * The acceptance-criterion plan: >= 10% message loss on every link,
 * 10% corruption on the manufacturer's key responses, one failed
 * bitstream load and one configuration upset. Corruption is scoped to
 * the key-response link because corrupting *authenticated* payloads
 * (quotes, MACed registers) is indistinguishable from tampering and
 * correctly fails closed — that property has its own tests below.
 */
sim::FaultPlan
acceptancePlan(uint64_t seed)
{
    sim::FaultPlan plan;
    plan.seed = seed;
    plan.add(sim::FaultRule::dropRpc(0.10));
    plan.add(sim::FaultRule::corruptRpc(0.10).on(
        core::endpoints::kManufacturer, core::endpoints::kCloudHost,
        "keyRequest"));
    plan.add(sim::FaultRule::bitstreamLoadFail(1));
    plan.add(sim::FaultRule::seu(0, 2 * 64 * 8 + 7));
    return plan;
}

} // namespace

// ------------------------------------------------- end-to-end healing

TEST(FaultRecovery, DeploymentHealsThroughAcceptancePlan)
{
    core::TestbedConfig cfg;
    cfg.faultPlan = acceptancePlan(7);
    auto tb = makeTestbed(std::move(cfg));

    auto out = tb->runDeployment();
    ASSERT_TRUE(out.ok) << out.failure;
    EXPECT_GE(out.attempts, 1);

    const sim::FaultStats &stats = tb->faultInjector().stats();
    EXPECT_EQ(stats.loadFailures, 1u);
    EXPECT_EQ(stats.seusInjected, 1u);
    EXPECT_GE(stats.rpcDropped, 1u);
    EXPECT_GE(stats.total(), 3u);

    // The healed platform is fully functional.
    EXPECT_TRUE(tb->userApp().secureWrite(0x00, 42));
    EXPECT_EQ(tb->userApp().secureRead(0x00), 42u);
}

TEST(FaultRecovery, SamePlanFailsClosedWithoutRetries)
{
    core::TestbedConfig cfg;
    cfg.faultPlan = acceptancePlan(7);
    cfg.retry = net::RetryPolicy::none();
    auto tb = makeTestbed(std::move(cfg));

    auto out = tb->runDeployment();
    EXPECT_FALSE(out.ok);
    EXPECT_EQ(out.attempts, 1);
    EXPECT_TRUE(out.dataKey.empty());
    EXPECT_NE(out.failureClass, net::FailureClass::None);
}

TEST(FaultRecovery, DeterministicReplay)
{
    auto run = [] {
        core::TestbedConfig cfg;
        cfg.faultPlan = acceptancePlan(7);
        auto tb = makeTestbed(std::move(cfg));
        auto out = tb->runDeployment();
        return std::tuple{out.ok, out.attempts, out.failure,
                          tb->faultInjector().journal(),
                          tb->faultInjector().stats().total(),
                          tb->clock().now()};
    };
    auto a = run();
    auto b = run();
    EXPECT_EQ(std::get<0>(a), std::get<0>(b));
    EXPECT_EQ(std::get<1>(a), std::get<1>(b));
    EXPECT_EQ(std::get<2>(a), std::get<2>(b));
    // Bit-for-bit identical fault sequence, virtual time included.
    EXPECT_EQ(std::get<3>(a), std::get<3>(b));
    EXPECT_EQ(std::get<4>(a), std::get<4>(b));
    EXPECT_EQ(std::get<5>(a), std::get<5>(b));

    ASSERT_FALSE(std::get<3>(a).empty());
    for (const std::string &entry : std::get<3>(a))
        EXPECT_EQ(entry.rfind("t=", 0), 0u) << entry;
}

// ----------------------------------------------- bitstream load / SEU

TEST(FaultRecovery, LoadFailureRetriedToSuccess)
{
    core::TestbedConfig cfg;
    cfg.faultPlan.add(sim::FaultRule::bitstreamLoadFail(1));
    auto tb = makeTestbed(std::move(cfg));

    auto out = tb->runDeployment();
    ASSERT_TRUE(out.ok) << out.failure;
    EXPECT_EQ(tb->faultInjector().stats().loadFailures, 1u);
    EXPECT_TRUE(tb->smApp().reattestCl());
}

TEST(FaultRecovery, LoadFailureFailsClosedWithoutRetries)
{
    core::TestbedConfig cfg;
    cfg.faultPlan.add(sim::FaultRule::bitstreamLoadFail(1));
    cfg.retry = net::RetryPolicy::none();
    auto tb = makeTestbed(std::move(cfg));

    auto out = tb->runDeployment();
    EXPECT_FALSE(out.ok);
    EXPECT_NE(out.failure.find("DecryptFailed"), std::string::npos)
        << out.failure;
}

TEST(FaultRecovery, InjectedSeuIsScrubbable)
{
    core::TestbedConfig cfg;
    cfg.faultPlan.add(sim::FaultRule::seu(0, 5 * 64 * 8 + 3));
    auto tb = makeTestbed(std::move(cfg));

    ASSERT_TRUE(tb->runDeployment().ok);
    EXPECT_EQ(tb->faultInjector().stats().seusInjected, 1u);

    // The upset landed in configuration memory; frame ECC finds and
    // fixes it, and the shell charges the scrub pass to the clock.
    sim::Nanos before = tb->clock().now();
    auto report = tb->shell().scrubPartition();
    EXPECT_EQ(report.corrected, 1u);
    EXPECT_EQ(report.uncorrectable, 0u);
    EXPECT_GT(tb->clock().now(), before);
}

TEST(FaultRecovery, KeyCellSeuDuringAuthenticationNeverDisturbsBoot)
{
    // A reference run of the same seed gives the boot timeline and
    // where Key_attest sits in the partition's configuration bits.
    auto ref = makeTestbed();
    ASSERT_TRUE(ref->runDeployment().ok);
    sim::Nanos deployEnd = 0;
    sim::Nanos authEnd = 0;
    for (const sim::PhaseRecord &r : ref->clock().trace()) {
        if (r.phase == core::phases::kClDeployment)
            deployEnd = std::max(deployEnd, r.start + r.duration);
        if (r.phase == core::phases::kClAuth)
            authEnd = std::max(authEnd, r.start + r.duration);
    }
    auto keyCell =
        bitstream::LogicLocationFile::deserialize(
            ref->metadata().logicLocations)
            .find(ref->layout().keyAttestPath);
    ASSERT_TRUE(keyCell);
    size_t body = bitstream::Bitstream::fromFile(ref->storedBitstream())
                      .bodyOffsetInFile();
    uint64_t bit = (keyCell->fileOffset - body) * 8 + 3;

    // A correctable upset in Key_attest's cell, timed to land after
    // the CL is configured and before its authentication completes.
    core::TestbedConfig cfg;
    cfg.faultPlan.add(sim::FaultRule::seu(0, bit, deployEnd));
    auto tb = makeTestbed(std::move(cfg));
    core::UserClient::Outcome out = tb->runDeployment();
    ASSERT_TRUE(out.ok) << out.failure;
    EXPECT_EQ(out.attempts, 1);
    const auto &journal = tb->faultInjector().journal();
    ASSERT_EQ(journal.size(), 1u);
    sim::Nanos landed = std::stoull(journal[0].substr(2));
    EXPECT_GE(landed, deployEnd);
    EXPECT_LE(landed, authEnd);

    // The SM logic latched its keys at configuration, so attestation
    // passed with the upset still in memory: the boot never scrubbed,
    // and the first scrub finds and corrects exactly that one bit.
    auto report = tb->device().scrub(0);
    EXPECT_EQ(report.corrected, 1u);
    EXPECT_EQ(report.uncorrectable, 0u);
    EXPECT_TRUE(tb->smApp().reattestCl());
}

TEST(FaultRecovery, UncorrectableSeuHealedByRedeployment)
{
    auto tb = makeTestbed();
    ASSERT_TRUE(tb->runDeployment().ok);

    // Two upsets in one frame defeat the ECC: the design is taken
    // down and re-attestation fails...
    tb->device().injectSeu(0, 100);
    tb->device().injectSeu(0, 200);
    EXPECT_EQ(tb->device().scrub(0).uncorrectable, 1u);
    EXPECT_FALSE(tb->smApp().reattestCl());

    // ...but the next deployment re-encrypts and reloads the
    // bitstream, restoring service with fresh session secrets.
    auto healed = tb->runDeployment();
    ASSERT_TRUE(healed.ok) << healed.failure;
    EXPECT_TRUE(tb->smApp().reattestCl());
    EXPECT_TRUE(tb->userApp().secureWrite(0x08, 9));
    EXPECT_EQ(tb->userApp().secureRead(0x08), 9u);
}

// ------------------------------------------- secure register channel

TEST(FaultRecovery, LostRekeyStatusConverges)
{
    auto tb = makeTestbed();
    ASSERT_TRUE(tb->runDeployment().ok);
    core::UserEnclaveApp &user = tb->userApp();

    // The fabric rolls its keys but the completion read is lost: the
    // host cannot know whether the roll happened.
    tb->faultInjector().arm(
        sim::FaultRule::regFault(1.0).match("read").times(1));
    EXPECT_FALSE(user.rekeySession());

    // The next secure op is rejected under the old keys; the channel
    // probes the pending rolled keys and converges on them.
    EXPECT_TRUE(user.secureWrite(0x10, 77));
    EXPECT_EQ(user.secureRead(0x10), 77u);

    // Subsequent re-keys start from the converged state.
    EXPECT_TRUE(user.rekeySession());
    EXPECT_TRUE(user.secureWrite(0x10, 78));
    EXPECT_EQ(user.secureRead(0x10), 78u);
}

TEST(FaultRecovery, LostRekeyConvergesWithRetriesDisabled)
{
    core::TestbedConfig cfg;
    cfg.retry = net::RetryPolicy::none();
    auto tb = makeTestbed(std::move(cfg));
    ASSERT_TRUE(tb->runDeployment().ok);
    core::UserEnclaveApp &user = tb->userApp();

    tb->faultInjector().arm(
        sim::FaultRule::regFault(1.0).match("read").times(1));
    EXPECT_FALSE(user.rekeySession());

    // A pending re-key record always earns one probe under the rolled
    // keys, even when the retry schedule allows a single attempt.
    EXPECT_TRUE(user.secureWrite(0x10, 77));
    EXPECT_EQ(user.secureRead(0x10), 77u);
}

/** (burst channel instead of single ops, re-key completion lost
 *  instead of the re-key request). */
using LostRekeyCase = std::tuple<bool, bool>;

class LostRekeyThenDroppedWrite
    : public ::testing::TestWithParam<LostRekeyCase>
{
};

TEST_P(LostRekeyThenDroppedWrite, BaseChannelConverges)
{
    auto [batch, completionLost] = GetParam();
    core::TestbedConfig cfg;
    if (!completionLost)
        cfg.retry.maxAttempts = 2;
    auto tb = makeTestbed(std::move(cfg));
    ASSERT_TRUE(tb->runDeployment().ok);
    core::UserEnclaveApp &user = tb->userApp();
    core::SmEnclaveApp &sm = tb->smApp();

    // One base-channel op, through CMD 2 or through a one-op burst.
    auto write = [&](uint64_t value) {
        if (!batch)
            return user.secureWrite(0x10, value);
        auto r = sm.secureRegBatch(0, {{true, 0x10, value}});
        return r.size() == 1 && r[0].status == 0;
    };
    auto read = [&]() -> std::optional<uint64_t> {
        if (!batch)
            return user.secureRead(0x10);
        auto r = sm.secureRegBatch(0, {{false, 0x10, 0}});
        if (r.size() != 1 || r[0].status != 0)
            return std::nullopt;
        return r[0].data;
    };
    // A burst has more writes to lose before the fabric notices.
    uint32_t drops = batch ? 3 : 1;

    if (completionLost) {
        // The fabric rolls its keys but the completion read is lost.
        // The next op's first attempt (old keys) is rejected before
        // the window opens; the probe under the rolled keys, after
        // the backoff, loses a write. That failure says nothing about
        // the rolled keys, so the loop must keep alternating.
        tb->faultInjector().arm(
            sim::FaultRule::regFault(1.0).match("read").times(1));
        EXPECT_FALSE(user.rekeySession());
        sim::Nanos now = tb->clock().now();
        tb->faultInjector().arm(sim::FaultRule::regFault(1.0)
                                    .match("write")
                                    .during(now + sim::kMs,
                                            now + 100 * sim::kSec)
                                    .times(drops));
    } else {
        // The re-key request is lost: the fabric never rolls and the
        // old keys keep working. The first authenticated response
        // under them must clear the stale record, or the next lost
        // write sends the retry to the rolled keys.
        tb->faultInjector().arm(
            sim::FaultRule::regFault(1.0).match("write").times(1));
        EXPECT_FALSE(user.rekeySession());
        ASSERT_TRUE(write(76));
        tb->faultInjector().arm(
            sim::FaultRule::regFault(1.0).match("write").times(drops));
    }

    EXPECT_TRUE(write(77));
    EXPECT_TRUE(write(78));
    EXPECT_EQ(read(), std::optional<uint64_t>(78));
}

INSTANTIATE_TEST_SUITE_P(
    AllCases, LostRekeyThenDroppedWrite,
    ::testing::Combine(::testing::Bool(), ::testing::Bool()),
    [](const ::testing::TestParamInfo<LostRekeyCase> &info) {
        return std::string(std::get<0>(info.param) ? "Batch" : "SingleOp") +
               (std::get<1>(info.param) ? "_CompletionLost"
                                        : "_RequestLost");
    });

class LostRekeyThenFailedCall : public ::testing::TestWithParam<bool>
{
};

TEST_P(LostRekeyThenFailedCall, RecordAndPreCallKeysSurvive)
{
    bool completionLost = GetParam();
    core::TestbedConfig cfg;
    if (!completionLost)
        cfg.retry.maxAttempts = 2;
    int attempts = cfg.retry.maxAttempts;
    auto tb = makeTestbed(std::move(cfg));
    ASSERT_TRUE(tb->runDeployment().ok);
    core::UserEnclaveApp &user = tb->userApp();

    tb->faultInjector().arm(sim::FaultRule::regFault(1.0)
                                .match(completionLost ? "read" : "write")
                                .times(1));
    EXPECT_FALSE(user.rekeySession());

    // Every write of the next op is lost (a single op writes IN0-IN3
    // and CMD on each attempt), under either key set. The call fails,
    // but it must hand back the keys it started with and keep the
    // pending record: the next call still has both candidates to try.
    tb->faultInjector().arm(sim::FaultRule::regFault(1.0)
                                .match("write")
                                .times(uint32_t(5 * attempts)));
    EXPECT_FALSE(user.secureWrite(0x10, 77));

    EXPECT_TRUE(user.secureWrite(0x10, 78));
    EXPECT_EQ(user.secureRead(0x10), 78u);
}

INSTANTIATE_TEST_SUITE_P(
    BothLosses, LostRekeyThenFailedCall, ::testing::Bool(),
    [](const ::testing::TestParamInfo<bool> &info) {
        return std::string(info.param ? "CompletionLost" : "RequestLost");
    });

TEST(FaultRecovery, PendingRekeySurvivesSmCrash)
{
    auto tb = makeTestbed();
    ASSERT_TRUE(tb->runDeployment().ok);

    // The fabric rolls its keys but the completion read is lost, and
    // the SM enclave crashes before any channel op settles which keys
    // the fabric holds.
    tb->faultInjector().arm(
        sim::FaultRule::regFault(1.0).match("read").times(1));
    EXPECT_FALSE(tb->userApp().rekeySession());

    core::SmEnclaveApp::RecoveryReport rep = tb->crashAndRecoverSmApp();
    ASSERT_EQ(rep.status, core::SmEnclaveApp::RecoveryStatus::Recovered)
        << rep.detail;
    EXPECT_EQ(rep.reattestFailures, 0u);

    // The journal's session keys are the pre-roll ones, so the first
    // attempt is rejected; only the pending record restored from the
    // journal lets the probe under the rolled keys through.
    core::SmEnclaveApp &sm = tb->smApp();
    auto &sh = tb->shell();
    uint64_t rejBefore = sh.registerRead(pcie::Window::SmSecure,
                                         core::kSmRegStatBatchRejected);
    auto write = sm.secureRegBatch(0, {{true, 0x10, 77}});
    ASSERT_EQ(write.size(), 1u);
    EXPECT_EQ(write[0].status, 0);
    EXPECT_EQ(sh.registerRead(pcie::Window::SmSecure,
                              core::kSmRegStatBatchRejected),
              rejBefore + 1);
    auto read = sm.secureRegBatch(0, {{false, 0x10, 0}});
    ASSERT_EQ(read.size(), 1u);
    EXPECT_EQ(read[0].status, 0);
    EXPECT_EQ(read[0].data, 77u);
}

TEST(FaultRecovery, LostRegisterWriteRetriedWithFreshCounter)
{
    auto tb = makeTestbed();
    ASSERT_TRUE(tb->runDeployment().ok);
    auto &sh = tb->shell();

    uint64_t rejBefore = sh.registerRead(pcie::Window::SmSecure,
                                         core::kSmRegStatRegOpRejected);

    // One posted write vanishes on the bus: the fabric sees a garbled
    // request and rejects it WITHOUT advancing its freshness counter,
    // so the resealed retry (fresh counter, fresh MAC) goes through.
    tb->faultInjector().arm(
        sim::FaultRule::regFault(1.0).match("write").times(1));
    EXPECT_TRUE(tb->userApp().secureWrite(0x18, 5));
    EXPECT_EQ(tb->userApp().secureRead(0x18), 5u);

    EXPECT_GE(tb->faultInjector().stats().regFaults, 1u);
    EXPECT_GT(sh.registerRead(pcie::Window::SmSecure,
                              core::kSmRegStatRegOpRejected),
              rejBefore);
}

TEST(FaultRecovery, TamperingIsNeverRetriedIntoAcceptance)
{
    core::TestbedConfig cfg;
    cfg.maliciousShell = true; // honest plan until we arm it
    auto tb = makeTestbed(std::move(cfg));
    ASSERT_TRUE(tb->runDeployment().ok);
    auto &sh = tb->shell();

    uint64_t rejBefore = sh.registerRead(pcie::Window::SmSecure,
                                         core::kSmRegStatRegOpRejected);

    // Persistent man-in-the-middle on the secure register window:
    // every bounded retry is rejected; tampering never becomes an
    // accepted operation no matter how often it is retried.
    tb->maliciousShell()->plan().smWindowDataTamperMask = 0xff;
    EXPECT_FALSE(tb->userApp().secureWrite(0x20, 13));
    EXPECT_GT(sh.registerRead(pcie::Window::SmSecure,
                              core::kSmRegStatRegOpRejected),
              rejBefore);

    // Once the interference stops, the same session recovers (the
    // rejected counters were never consumed by the fabric).
    tb->maliciousShell()->plan().smWindowDataTamperMask = 0;
    EXPECT_TRUE(tb->userApp().secureWrite(0x20, 13));
    EXPECT_EQ(tb->userApp().secureRead(0x20), 13u);
}

// ------------------------------------- one classifier, two callers

namespace {

enum class RaFault { DropAll, DelayPastDeadline, Refuse };

struct ClassifierCase
{
    const char *name;
    RaFault fault;
    bool retries;
    net::FailureClass expect;
};

void
PrintTo(const ClassifierCase &c, std::ostream *os)
{
    *os << c.name;
}

std::unique_ptr<core::Testbed>
raFaultTestbed(RaFault fault)
{
    core::TestbedConfig cfg;
    if (fault == RaFault::DropAll)
        cfg.faultPlan.add(sim::FaultRule::dropRpc(1.0).match("raRequest"));
    if (fault == RaFault::DelayPastDeadline)
        cfg.faultPlan.add(
            sim::FaultRule::delayRpc(1.0, 10 * sim::kSec).match("raRequest"));
    auto tb = makeTestbed(std::move(cfg));
    if (fault == RaFault::Refuse)
        tb->network().on(core::endpoints::kCloudHost, "raRequest",
                         [](ByteView) -> Bytes {
                             throw QuotaExceeded("deployment quota reached");
                         });
    return tb;
}

} // namespace

class OneClassifier : public ::testing::TestWithParam<ClassifierCase>
{};

TEST_P(OneClassifier, NetworkAndUserClientAgree)
{
    const ClassifierCase &c = GetParam();
    net::RetryPolicy policy = c.retries ? net::RetryPolicy::standard()
                                        : net::RetryPolicy::none();
    policy.deadline = 1 * sim::kSec;
    // A policy verdict stops the schedule at once; the other faults
    // spend it.
    int attempts = c.fault == RaFault::Refuse ? 1 : policy.maxAttempts;

    auto rpcTb = raFaultTestbed(c.fault);
    net::CallOutcome rpc = rpcTb->network().callWithRetry(
        core::endpoints::kUserClient, core::endpoints::kCloudHost,
        "raRequest", Bytes{}, policy, core::phases::kUserRa);
    EXPECT_EQ(rpc.failure, c.expect) << rpc.error;
    EXPECT_EQ(rpc.attempts, attempts);

    auto deployTb = raFaultTestbed(c.fault);
    core::UserClient::Outcome deploy = deployTb->runDeployment(
        [&](core::ClientConfig &cfg) { cfg.retry = policy; });
    EXPECT_FALSE(deploy.ok);
    EXPECT_EQ(deploy.failureClass, c.expect) << deploy.failure;
    EXPECT_EQ(deploy.attempts, attempts);
    if (c.fault == RaFault::Refuse) {
        EXPECT_NE(deploy.failure.find("refused by policy"),
                  std::string::npos);
    }
}

INSTANTIATE_TEST_SUITE_P(
    RaFaults, OneClassifier,
    ::testing::Values(
        ClassifierCase{"DropAll", RaFault::DropAll, false,
                       net::FailureClass::Transport},
        ClassifierCase{"DropAllRetried", RaFault::DropAll, true,
                       net::FailureClass::Persistent},
        ClassifierCase{"DelayPastDeadline", RaFault::DelayPastDeadline,
                       false, net::FailureClass::Timeout},
        ClassifierCase{"DelayPastDeadlineRetried",
                       RaFault::DelayPastDeadline, true,
                       net::FailureClass::Persistent},
        ClassifierCase{"Refuse", RaFault::Refuse, false,
                       net::FailureClass::Policy},
        ClassifierCase{"RefuseRetried", RaFault::Refuse, true,
                       net::FailureClass::Policy}),
    [](const ::testing::TestParamInfo<ClassifierCase> &info) {
        return std::string(info.param.name);
    });

// -------------------------------------------------- network substrate

namespace {

struct NetRig
{
    sim::VirtualClock clock;
    sim::CostModel cost;
    net::Network net{clock, cost};
    std::unique_ptr<sim::FaultInjector> inj;
    int handled = 0;
    Bytes lastSeen;

    explicit NetRig(sim::FaultPlan plan)
    {
        net.addEndpoint("a");
        net.addEndpoint("b");
        net.link("a", "b", sim::LinkKind::Wan);
        net.on("b", "ping", [this](ByteView req) {
            ++handled;
            lastSeen.assign(req.begin(), req.end());
            return Bytes(req.begin(), req.end());
        });
        inj = std::make_unique<sim::FaultInjector>(std::move(plan),
                                                   clock);
        net.setFaultInjector(inj.get());
    }
};

} // namespace

TEST(NetFaults, DropCarriesStructuredContext)
{
    sim::FaultPlan plan;
    plan.add(sim::FaultRule::dropRpc(1.0).times(1));
    NetRig rig(std::move(plan));

    Bytes req{1, 2, 3};
    try {
        rig.net.call("a", "b", "ping", req);
        FAIL() << "drop did not surface";
    } catch (const NetError &e) {
        EXPECT_EQ(e.context().from, "a");
        EXPECT_EQ(e.context().to, "b");
        EXPECT_EQ(e.context().method, "ping");
        EXPECT_NE(std::string(e.what()).find("a->b"),
                  std::string::npos);
    }
    EXPECT_EQ(rig.handled, 0);
    // The rule is exhausted; the link works again.
    EXPECT_EQ(rig.net.call("a", "b", "ping", req), req);
}

TEST(NetFaults, UnknownEndpointErrorNamesTheLink)
{
    NetRig rig(sim::FaultPlan{});
    try {
        rig.net.call("a", "nowhere", "ping", Bytes{});
        FAIL() << "missing endpoint accepted";
    } catch (const NetError &e) {
        EXPECT_EQ(e.context().to, "nowhere");
        EXPECT_EQ(e.context().method, "ping");
    }
}

TEST(NetFaults, CallWithRetryRecoversAndChargesBackoff)
{
    sim::FaultPlan plan;
    plan.add(sim::FaultRule::dropRpc(1.0).times(2));
    NetRig rig(std::move(plan));

    auto out = rig.net.callWithRetry("a", "b", "ping", Bytes{9},
                                     net::RetryPolicy::standard());
    ASSERT_TRUE(out.ok()) << out.error;
    EXPECT_EQ(out.attempts, 3);
    EXPECT_EQ(out.response, Bytes{9});
    EXPECT_GT(rig.clock.totalFor(net::kRetryBackoffPhase), 0u);
}

TEST(NetFaults, ExhaustedRetriesReportLastContext)
{
    sim::FaultPlan plan;
    plan.add(sim::FaultRule::dropRpc(1.0));
    NetRig rig(std::move(plan));

    net::RetryPolicy policy = net::RetryPolicy::standard();
    auto out = rig.net.callWithRetry("a", "b", "ping", Bytes{1},
                                     policy);
    EXPECT_FALSE(out.ok());
    // A bounded schedule exhausted by transport faults is PERSISTENT:
    // the caller must stop hammering and let the fleet supervisor
    // decide (failover, quarantine).
    EXPECT_EQ(out.failure, net::FailureClass::Persistent);
    EXPECT_EQ(out.attempts, policy.maxAttempts);
    EXPECT_EQ(out.context.attempt, policy.maxAttempts);
    EXPECT_NE(out.error.find("attempts"), std::string::npos);
}

TEST(NetFaults, DeadlineSurfacesAsTimeout)
{
    sim::FaultPlan plan;
    plan.add(sim::FaultRule::delayRpc(1.0, 10 * sim::kSec));
    NetRig rig(std::move(plan));

    EXPECT_THROW(rig.net.call("a", "b", "ping", Bytes{1}, "",
                              1 * sim::kSec),
                 TimeoutError);
    // TimeoutError is-a NetError so legacy catch sites keep working.
    // With retries enabled the exhausted schedule reclassifies to
    // Persistent; the timeout itself stays visible in the message.
    net::RetryPolicy policy = net::RetryPolicy::standard();
    policy.deadline = 1 * sim::kSec;
    auto out = rig.net.callWithRetry("a", "b", "ping", Bytes{1},
                                     policy);
    EXPECT_FALSE(out.ok());
    EXPECT_EQ(out.failure, net::FailureClass::Persistent);
    EXPECT_NE(out.error.find("exceeded deadline"), std::string::npos);

    // Without retries (single attempt) the class is untouched.
    net::RetryPolicy once = net::RetryPolicy::none();
    once.deadline = 1 * sim::kSec;
    auto single = rig.net.callWithRetry("a", "b", "ping", Bytes{1},
                                        once);
    EXPECT_FALSE(single.ok());
    EXPECT_EQ(single.failure, net::FailureClass::Timeout);
}

TEST(NetFaults, DuplicateDeliversPayloadTwice)
{
    sim::FaultPlan plan;
    plan.add(sim::FaultRule::duplicateRpc(1.0).times(1));
    NetRig rig(std::move(plan));

    EXPECT_EQ(rig.net.call("a", "b", "ping", Bytes{4}), Bytes{4});
    EXPECT_EQ(rig.handled, 2);
    EXPECT_EQ(rig.inj->stats().rpcDuplicated, 1u);
}

TEST(NetFaults, ReorderedMessageArrivesStaleBeforeTheNext)
{
    sim::FaultPlan plan;
    plan.add(sim::FaultRule::reorderRpc(1.0).times(1));
    NetRig rig(std::move(plan));

    // The held message looks like a loss to its sender...
    EXPECT_THROW(rig.net.call("a", "b", "ping", Bytes{1}), NetError);
    EXPECT_EQ(rig.handled, 0);

    // ...and is delivered stale ahead of the next call: the receiver
    // sees the old payload first, then the new one.
    EXPECT_EQ(rig.net.call("a", "b", "ping", Bytes{2}), Bytes{2});
    EXPECT_EQ(rig.handled, 2);
    EXPECT_EQ(rig.inj->stats().rpcReordered, 1u);
}

TEST(NetFaults, CorruptionFlipsExactlyTheConfiguredMask)
{
    sim::FaultPlan plan;
    plan.add(sim::FaultRule::corruptRpc(1.0, 0x20).match("ping").times(1));
    NetRig rig(std::move(plan));

    Bytes original{0, 0, 0, 0, 0, 0};
    rig.net.call("a", "b", "ping", original);
    ASSERT_EQ(rig.lastSeen.size(), original.size());
    uint8_t delta = 0;
    for (size_t i = 0; i < original.size(); ++i)
        delta ^= uint8_t(rig.lastSeen[i] ^ original[i]);
    EXPECT_EQ(delta, 0x20);
    EXPECT_EQ(rig.inj->stats().rpcCorrupted, 1u);
}

// ------------------------------------------------------ retry policy

TEST(RetryPolicy, BackoffDeterministicAndBounded)
{
    net::RetryPolicy p = net::RetryPolicy::standard();
    EXPECT_EQ(p.backoffBefore(1), 0u);
    for (int attempt = 2; attempt <= 10; ++attempt) {
        sim::Nanos a = p.backoffBefore(attempt);
        EXPECT_EQ(a, p.backoffBefore(attempt)) << attempt;
        // 50 ms initial backoff, 2 s cap, +/-25% jitter.
        EXPECT_GE(a, sim::Nanos(double(50 * sim::kMs) * 0.75));
        EXPECT_LE(a, sim::Nanos(double(2 * sim::kSec) * 1.25));
    }

    EXPECT_FALSE(net::RetryPolicy::none().enabled());
    EXPECT_TRUE(p.enabled());
}

TEST(RetryPolicy, StandardScheduleIsPinned)
{
    // The exact waits every retried call, boot and channel op charges:
    // the virtual-time results of every retried run depend on them.
    const sim::Nanos expect[] = {0,         53404217,  84039864,
                                 222874413, 452239275, 757101693};
    for (int attempt = 1; attempt <= 6; ++attempt)
        EXPECT_EQ(net::RetryPolicy::standard().backoffBefore(attempt),
                  expect[attempt - 1])
            << attempt;
}

TEST(RetryPolicy, RunChargesBackoffAndStopsWhenDone)
{
    sim::VirtualClock clock;
    net::RetryPolicy p = net::RetryPolicy::standard();

    // Never done: every attempt of the schedule runs, and the backoff
    // before attempts 2..4 lands on the retry phase.
    int calls = 0;
    int attempts = p.run(&clock, 1, [&](int n) {
        EXPECT_EQ(n, ++calls);
        return false;
    });
    EXPECT_EQ(attempts, 4);
    EXPECT_EQ(calls, 4);
    sim::Nanos waited = 0;
    for (int n = 2; n <= 4; ++n)
        waited += net::RetryPolicy::backoffBefore(n);
    EXPECT_EQ(clock.totalFor(net::kRetryBackoffPhase), waited);

    // Done at once: one attempt, no backoff.
    EXPECT_EQ(p.run(&clock, 1, [](int) { return true; }), 1);
    EXPECT_EQ(clock.totalFor(net::kRetryBackoffPhase), waited);

    // minAttempts lifts a retries-off schedule (clockless callers pass
    // nullptr), and a schedule below one attempt still runs once.
    EXPECT_EQ(net::RetryPolicy::none().run(nullptr, 2,
                                           [](int) { return false; }),
              2);
    net::RetryPolicy zero;
    zero.maxAttempts = 0;
    EXPECT_EQ(zero.run(&clock, 1, [](int) { return false; }), 1);
}

TEST(RetryPolicy, ErrorContextDescribesTheSite)
{
    ErrorContext ctx{"user", "cloud", "raRequest", 3};
    std::string d = ctx.describe();
    EXPECT_NE(d.find("user->cloud"), std::string::npos);
    EXPECT_NE(d.find("raRequest"), std::string::npos);
    EXPECT_TRUE(ErrorContext{}.empty());
    EXPECT_FALSE(ctx.empty());
}
