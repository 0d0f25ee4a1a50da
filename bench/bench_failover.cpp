/**
 * @file
 * Failover latency bench + invariant check: kills the active device in
 * a 3-device pool and measures, on the virtual clock, how long the
 * platform takes from the kill to the first post-failover secure
 * register write on the spare — broken down by phase (detection via
 * the heartbeat breaker, then each leg of the re-run cascaded
 * attestation).
 *
 * The run is executed TWICE with the same seed and must be
 * bit-for-bit identical, the failover must land on a spare with fresh
 * attested secrets (zero reuse of the dead device's key material),
 * and the post-failover session must serve traffic. Any violation
 * exits non-zero.
 *
 * Results are published as hand-rolled JSON (BENCH_failover.json, or
 * argv[1]) for the CI artifact.
 */

#include <cstdio>

#include "bench_util.hpp"
#include "fpga/ip.hpp"
#include "salus/sim_hooks.hpp"
#include "salus/sm_logic.hpp"
#include "salus/testbed.hpp"

using namespace salus;
using namespace salus::core;

namespace {

int violations = 0;

void
check(bool ok, uint64_t seed, const char *what)
{
    if (ok)
        return;
    ++violations;
    std::printf("  VIOLATION seed=%llu: %s\n",
                (unsigned long long)seed, what);
}

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

/** The phases the failover path can spend virtual time in. */
const char *const kPhases[] = {
    "Fleet Heartbeat",
    phases::kUserRa,
    phases::kLocalAttest,
    phases::kDeviceKeyDist,
    phases::kBitstreamVerifEnc,
    phases::kBitstreamManip,
    phases::kClDeployment,
    phases::kClAuth,
    net::kRetryBackoffPhase,
};
constexpr size_t kPhaseCount = sizeof(kPhases) / sizeof(kPhases[0]);

struct RunResult
{
    bool ok = false;
    uint64_t seed = 0;
    uint32_t toDevice = 0;
    sim::Nanos killAt = 0;      ///< device 0 dies
    sim::Nanos detectAt = 0;    ///< breaker quarantines, failover starts
    sim::Nanos recoveredAt = 0; ///< cascaded attestation done on spare
    sim::Nanos firstWriteAt = 0; ///< first secure write committed
    Bytes oldFp;
    Bytes newFp;
    sim::Nanos phase[kPhaseCount] = {};
};

RunResult
runOnce(uint64_t seed)
{
    RunResult r;
    r.seed = seed;
    TestbedConfig cfg;
    cfg.rngSeed = seed;
    cfg.deviceCount = 3;
    cfg.health.windowSize = 4;
    cfg.health.minSamples = 2;
    cfg.health.degradeThreshold = 0.3;
    cfg.health.quarantineThreshold = 0.6;

    Testbed tb(cfg);
    tb.installCl(loopbackAccel());
    if (!tb.runDeployment().ok)
        return r;
    if (!tb.userApp().secureWrite(0x00, seed))
        return r;
    r.oldFp = tb.smApp().secretsFingerprint();

    // Warm the watchdog so the kill lands on a healthy fleet.
    tb.supervisor().runFor(50 * sim::kMs);
    if (!tb.supervisor().failovers().empty())
        return r;

    sim::Nanos phaseBase[kPhaseCount];
    for (size_t i = 0; i < kPhaseCount; ++i)
        phaseBase[i] = tb.clock().totalFor(kPhases[i]);

    r.killAt = tb.clock().now();
    tb.faultInjector().arm(sim::FaultRule::deviceDead(0));

    // Watchdog polls until the breaker trips; pollOnce() performs the
    // attested failover synchronously when it does.
    for (int polls = 0;
         tb.supervisor().failovers().empty() && polls < 200; ++polls)
        tb.supervisor().pollOnce();
    if (tb.supervisor().failovers().size() != 1)
        return r;
    const FailoverRecord &rec = tb.supervisor().failovers().front();
    r.detectAt = rec.atNanos;
    r.recoveredAt = tb.clock().now();
    r.toDevice = rec.toDevice;
    r.newFp = tb.smApp().secretsFingerprint();

    // First post-failover secure register write on the fresh session.
    if (!tb.userApp().secureWrite(0x00, seed + 1))
        return r;
    auto readBack = tb.userApp().secureRead(0x00);
    if (!readBack || *readBack != seed + 1)
        return r;
    r.firstWriteAt = tb.clock().now();

    for (size_t i = 0; i < kPhaseCount; ++i)
        r.phase[i] = tb.clock().totalFor(kPhases[i]) - phaseBase[i];

    r.ok = rec.attested == 1 && r.toDevice != 0 &&
           r.oldFp != r.newFp &&
           tb.smApp().everRetiredFingerprint(r.oldFp) &&
           !tb.smApp().everRetiredFingerprint(r.newFp);
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::banner("Attested session failover: latency + invariants");
    fpga::ensureBuiltinIps();
    SmLogic::registerIp();

    const uint64_t kSeed = 4200;
    RunResult a = runOnce(kSeed);
    RunResult b = runOnce(kSeed);
    check(a.ok, kSeed, "failover invariants violated");
    check(a.killAt == b.killAt && a.detectAt == b.detectAt &&
              a.recoveredAt == b.recoveredAt &&
              a.firstWriteAt == b.firstWriteAt && a.newFp == b.newFp &&
              a.toDevice == b.toDevice,
          kSeed, "same-seed runs are not bit-for-bit identical");
    if (!a.ok) {
        std::printf("FAILOVER CHECK FAILED: %d violation(s)\n",
                    violations);
        return 1;
    }

    double detMs = bench::ms(a.detectAt - a.killAt);
    double redepMs = bench::ms(a.recoveredAt - a.detectAt);
    double totMs = bench::ms(a.firstWriteAt - a.killAt);
    std::printf("%-8s %-10s %-12s %-12s %-12s %s\n", "seed", "detect",
                "redeploy", "write", "total (ms)", "spare");
    std::printf("%-8llu %-10.2f %-12.2f %-12.2f %-12.2f %u\n",
                (unsigned long long)kSeed, detMs, redepMs,
                bench::ms(a.firstWriteAt - a.recoveredAt), totMs,
                a.toDevice);

    // ---- JSON artifact ----------------------------------------------
    const char *outPath =
        argc > 1 ? argv[1] : "BENCH_failover.json";
    FILE *f = std::fopen(outPath, "w");
    if (!f) {
        std::printf("cannot open %s\n", outPath);
        return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"failover\",\n");
    std::fprintf(f, "  \"seeds\": 1,\n  \"succeeded\": 1,\n");
    std::fprintf(f, "  \"violations\": %d,\n  \"unit\": \"ms\",\n",
                 violations);
    std::fprintf(f,
                 "  \"detection_ms\": {\"mean\": %.3f, \"min\": %.3f, "
                 "\"max\": %.3f},\n",
                 detMs, detMs, detMs);
    std::fprintf(f, "  \"redeploy_ms\": {\"mean\": %.3f},\n", redepMs);
    std::fprintf(f,
                 "  \"kill_to_first_write_ms\": {\"mean\": %.3f, "
                 "\"min\": %.3f, \"max\": %.3f},\n",
                 totMs, totMs, totMs);
    std::fprintf(f, "  \"phases_ms\": {\n");
    for (size_t i = 0; i < kPhaseCount; ++i)
        std::fprintf(f, "    \"%s\": %.3f%s\n", kPhases[i],
                     bench::ms(a.phase[i]),
                     i + 1 < kPhaseCount ? "," : "");
    std::fprintf(f, "  },\n  \"runs\": [\n");
    std::fprintf(f,
                 "    {\"seed\": %llu, \"detect_ms\": %.3f, "
                 "\"redeploy_ms\": %.3f, \"total_ms\": %.3f, "
                 "\"spare\": %u}\n",
                 (unsigned long long)kSeed, detMs, redepMs, totMs,
                 a.toDevice);
    std::fprintf(f, "  ],\n  \"gates\": {\n");
    std::fprintf(f,
                 "    \"detection_ms_mean\": {\"value\": %.3f, "
                 "\"direction\": \"lower\"},\n",
                 detMs);
    std::fprintf(f,
                 "    \"kill_to_first_write_ms_mean\": {\"value\": "
                 "%.3f, \"direction\": \"lower\"}\n",
                 totMs);
    std::fprintf(f, "  }\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", outPath);

    if (violations) {
        std::printf("FAILOVER CHECK FAILED: %d violation(s)\n",
                    violations);
        return 1;
    }
    std::printf("all invariants held across 2 same-seed runs\n");
    return 0;
}
