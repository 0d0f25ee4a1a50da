/**
 * @file
 * QoS isolation bench + gate: measures what a noisy neighbour costs a
 * light interactive tenant under the weighted scheduler, on the
 * virtual clock. The light tenant (8 ops/sweep) runs through the
 * broker solo, then sharing the device at EQUAL weight with a flooding
 * tenant, and we record the virtual time the secure channel spends
 * serving the light tenant's slice each sweep. Other seeds give the
 * same figures to the last digit, so one seed is the whole
 * configuration; each run is repeated for a same-seed compare.
 *
 * The isolation contract gated here: the light tenant's p99 slice
 * service time under contention stays within 1.5x of its solo p99
 * (weights 1:1 — no priority, just fair sweeps), the light tenant is
 * served EVERY sweep it is backlogged (DRR starvation bound), and
 * same-seed runs are bit-for-bit identical. Any violation exits
 * non-zero; the JSON artifact feeds the CI perf-regression gate
 * (bench/baselines/BENCH_qos_isolation.json).
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "fpga/ip.hpp"
#include "salus/broker.hpp"
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
    std::printf("  VIOLATION seed=%llu: %s\n", (unsigned long long)seed,
                what);
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

constexpr int kSweeps = 40;
constexpr int kLightOpsPerSweep = 8;
constexpr int kHeavyOpsPerSweep = 96;

struct RunResult
{
    bool ok = false;
    /** Light tenant's slice service nanos, one sample per sweep. */
    std::vector<sim::Nanos> lightSlice;
    uint64_t lightCompleted = 0;
    uint64_t heavyCompleted = 0;
    uint64_t heavyQuotaRejected = 0;
    uint64_t lightMaxSweepsWaited = 0;
    sim::Nanos clockEnd = 0;
};

RunResult
runOnce(uint64_t seed, bool contended)
{
    RunResult r;
    TestbedConfig cfg;
    cfg.rngSeed = seed;
    Testbed tb(cfg);
    tb.installCl(loopbackAccel());
    if (!tb.runDeployment().ok)
        return r;

    Broker broker(tb, {});
    TenantPolicy lightPolicy;
    lightPolicy.weight = 1;
    lightPolicy.maxQueuedOps = 128;
    uint32_t light = broker.registerTenant("light", lightPolicy);
    uint32_t lightSession = broker.openSession(light);

    uint32_t heavy = 0, heavySession = 0;
    if (contended) {
        TenantPolicy heavyPolicy;
        heavyPolicy.weight = 1; // EQUAL weight: isolation, not priority
        heavyPolicy.maxQueuedOps = 64;
        heavy = broker.registerTenant("heavy", heavyPolicy);
        heavySession = broker.openSession(heavy);
    }

    for (int sweep = 0; sweep < kSweeps; ++sweep) {
        if (contended) {
            for (int i = 0; i < kHeavyOpsPerSweep; ++i) {
                try {
                    broker.submit(heavy, heavySession,
                                  {true, 0x00, uint64_t(i)});
                } catch (const PolicyError &) {
                    break; // quota wall — the flooder's own problem
                }
            }
        }
        for (int i = 0; i < kLightOpsPerSweep; ++i)
            broker.submit(light, lightSession,
                          {true, 0x08, uint64_t(sweep) << 8 | i});
        broker.pump();

        const BatchScheduler::SessionStats &st =
            tb.scheduler().sessionStats(lightSession);
        r.lightSlice.push_back(st.sliceNanosLast);
        // Starvation bound: the light tenant's 8 ops were served THIS
        // sweep, never parked behind the flooder's backlog.
        if (st.dispatchedOps !=
            uint64_t(kLightOpsPerSweep) * uint64_t(sweep + 1))
            return r;
    }
    broker.drainAll();

    r.lightCompleted = broker.tenantStats(light).completed;
    r.lightMaxSweepsWaited =
        tb.scheduler().sessionStats(lightSession).maxSweepsWaited;
    if (contended) {
        r.heavyCompleted = broker.tenantStats(heavy).completed;
        r.heavyQuotaRejected = broker.tenantStats(heavy).quotaRejected;
    }
    r.clockEnd = tb.clock().now();
    r.ok = r.lightCompleted ==
               uint64_t(kLightOpsPerSweep) * uint64_t(kSweeps) &&
           r.lightMaxSweepsWaited <= 1;
    return r;
}

sim::Nanos
p99(std::vector<sim::Nanos> samples)
{
    std::sort(samples.begin(), samples.end());
    size_t idx = (samples.size() * 99 + 99) / 100;
    idx = idx == 0 ? 0 : idx - 1;
    return samples[std::min(idx, samples.size() - 1)];
}

} // namespace

int
main(int argc, char **argv)
{
    bench::banner(
        "QoS isolation: light tenant vs noisy neighbour (weights 1:1)");
    fpga::ensureBuiltinIps();
    SmLogic::registerIp();

    const uint64_t kSeed = 7700;
    RunResult solo = runOnce(kSeed, false);
    RunResult soloAgain = runOnce(kSeed, false);
    RunResult cont = runOnce(kSeed, true);
    RunResult contAgain = runOnce(kSeed, true);
    check(solo.ok, kSeed, "solo run violated the light-tenant SLO");
    check(cont.ok, kSeed,
          "contended run violated the light-tenant SLO");
    check(solo.lightSlice == soloAgain.lightSlice &&
              solo.clockEnd == soloAgain.clockEnd,
          kSeed, "solo same-seed runs are not bit-for-bit identical");
    check(cont.lightSlice == contAgain.lightSlice &&
              cont.clockEnd == contAgain.clockEnd,
          kSeed,
          "contended same-seed runs are not bit-for-bit identical");
    if (!solo.ok || !cont.ok) {
        std::printf("QOS CHECK FAILED: %d violation(s)\n", violations);
        return 1;
    }

    sim::Nanos soloP99 = p99(solo.lightSlice);
    sim::Nanos contendedP99 = p99(cont.lightSlice);
    double ratio = double(contendedP99) / double(soloP99);
    std::printf("light tenant slice p99: solo %.3f ms, contended "
                "%.3f ms, ratio %.3f (SLO <= 1.5)\n",
                bench::ms(soloP99), bench::ms(contendedP99), ratio);
    std::printf("noisy neighbour: %llu completed, %llu quota-rejected\n",
                (unsigned long long)cont.heavyCompleted,
                (unsigned long long)cont.heavyQuotaRejected);

    // The headline isolation SLO is enforced HERE, not just gated
    // against a baseline drift in CI.
    check(ratio <= 1.5, kSeed, "contended p99 exceeds 1.5x solo p99");

    const char *outPath =
        argc > 1 ? argv[1] : "BENCH_qos_isolation.json";
    FILE *f = std::fopen(outPath, "w");
    if (!f) {
        std::printf("cannot open %s\n", outPath);
        return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"qos_isolation\",\n");
    std::fprintf(f, "  \"seeds\": 1,\n  \"succeeded\": 1,\n");
    std::fprintf(f, "  \"violations\": %d,\n  \"unit\": \"ms\",\n",
                 violations);
    std::fprintf(f, "  \"sweeps_per_run\": %d,\n", kSweeps);
    std::fprintf(f, "  \"light_ops_per_sweep\": %d,\n",
                 kLightOpsPerSweep);
    std::fprintf(f, "  \"heavy_ops_per_sweep\": %d,\n",
                 kHeavyOpsPerSweep);
    std::fprintf(f, "  \"light_slice_p99_solo_ms\": %.6f,\n",
                 bench::ms(soloP99));
    std::fprintf(f, "  \"light_slice_p99_contended_ms\": %.6f,\n",
                 bench::ms(contendedP99));
    std::fprintf(f, "  \"p99_ratio\": %.6f,\n", ratio);
    std::fprintf(f, "  \"heavy_completed\": %llu,\n",
                 (unsigned long long)cont.heavyCompleted);
    std::fprintf(f, "  \"heavy_quota_rejected\": %llu,\n",
                 (unsigned long long)cont.heavyQuotaRejected);
    std::fprintf(f, "  \"gates\": {\n");
    std::fprintf(f,
                 "    \"light_slice_p99_contended_ms\": "
                 "{\"value\": %.6f, \"direction\": \"lower\"},\n",
                 bench::ms(contendedP99));
    std::fprintf(f,
                 "    \"p99_ratio\": {\"value\": %.6f, "
                 "\"direction\": \"lower\"}\n",
                 ratio);
    std::fprintf(f, "  }\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", outPath);

    return violations == 0 ? 0 : 1;
}
