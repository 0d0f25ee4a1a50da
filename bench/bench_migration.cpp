/**
 * @file
 * Live-migration bench + invariant check: one planned session move in
 * each of a 2-, 4- and 8-device pool, measuring on the virtual clock
 * the quiesce-to-first-write migration latency (p99 across the pools
 * is the CI gate) and the session's batched secure-channel throughput
 * right after the move (parked ops must flow again).
 *
 * Every move runs TWICE with the same seed and must be bit-for-bit
 * identical, must land attested on the target with the source epoch
 * tombstoned (zero key reuse), and must complete the parked queue on
 * the target. Any violation exits non-zero.
 *
 * Results are published as hand-rolled JSON (BENCH_migration.json, or
 * argv[1]) for the CI artifact.
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

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

constexpr size_t kPostOps = 64; ///< batched ops pushed after the move

struct RunResult
{
    bool ok = false;
    uint64_t seed = 0;
    uint32_t devices = 0;
    uint32_t toDevice = 0;
    sim::Nanos startAt = 0;      ///< migrateActiveTo entered
    sim::Nanos migratedAt = 0;   ///< record returned (re-attested)
    sim::Nanos firstWriteAt = 0; ///< first parked op committed
    uint64_t parkedOps = 0;
    double opsPerSec = 0; ///< batched throughput after the move
    Bytes oldFp;
    Bytes newFp;
};

RunResult
runOnce(uint64_t seed, uint32_t devices)
{
    RunResult r;
    r.seed = seed;
    r.devices = devices;
    TestbedConfig cfg;
    cfg.rngSeed = seed;
    cfg.deviceCount = devices;

    Testbed tb(cfg);
    tb.installCl(loopbackAccel());
    if (!tb.runDeployment().ok)
        return r;
    if (!tb.userApp().secureWrite(0x00, seed))
        return r;
    r.oldFp = tb.smApp().secretsFingerprint();

    // Park a few ops in the scheduler so the move carries real work.
    BatchScheduler &sched = tb.scheduler();
    size_t completed = 0;
    for (int i = 0; i < 8; ++i)
        if (sched.submit(0, {true, 0x08, seed + uint64_t(i)},
                         [&](uint8_t st, uint64_t) {
                             completed += st == 0 ? 1 : 0;
                         }) != BatchScheduler::Submit::Accepted)
            return r;

    // The planned move: device 0 -> the highest-id device (always a
    // real hop whatever the pool size).
    uint32_t target = devices - 1;
    r.startAt = tb.clock().now();
    MigrationRecord rec;
    try {
        rec = tb.supervisor().migrateActiveTo(target, "bench move");
    } catch (const SalusError &) {
        return r;
    }
    r.migratedAt = tb.clock().now();
    r.toDevice = rec.toDevice;
    r.parkedOps = rec.parkedOps;
    r.newFp = tb.smApp().secretsFingerprint();

    // The parked queue drains onto the target, then a throughput
    // burst: ops per virtual second over kPostOps batched ops.
    if (sched.drain() != 8 || completed != 8)
        return r;
    r.firstWriteAt = tb.clock().now();
    size_t burstDone = 0;
    for (size_t i = 0; i < kPostOps; ++i)
        if (sched.submit(0, {true, 0x10, i},
                         [&](uint8_t st, uint64_t) {
                             burstDone += st == 0 ? 1 : 0;
                         }) != BatchScheduler::Submit::Accepted)
            return r;
    sim::Nanos burstStart = tb.clock().now();
    if (sched.drain() != kPostOps || burstDone != kPostOps)
        return r;
    sim::Nanos burstNanos = tb.clock().now() - burstStart;
    if (burstNanos == 0)
        return r;
    r.opsPerSec = double(kPostOps) * 1e9 / double(burstNanos);

    r.ok = rec.attested == 1 && r.toDevice == target &&
           r.parkedOps == 8 && r.oldFp != r.newFp &&
           tb.smApp().everRetiredFingerprint(r.oldFp) &&
           !tb.smApp().everRetiredFingerprint(r.newFp);
    return r;
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    size_t idx = size_t(p * double(values.size() - 1) + 0.5);
    return values[std::min(idx, values.size() - 1)];
}

} // namespace

int
main(int argc, char **argv)
{
    bench::banner("Live migration: latency p99 + post-move throughput");
    fpga::ensureBuiltinIps();
    SmLogic::registerIp();

    const uint32_t kDeviceCounts[] = {2, 4, 8};
    const uint64_t kSeedBase = 6100;

    std::vector<RunResult> runs;
    std::vector<double> latenciesMs;
    double minOps = 0;
    std::printf("%-8s %-8s %-12s %-12s %-14s %s\n", "devices", "seed",
                "migrate", "to-write", "ops/s", "target");
    for (uint32_t devices : kDeviceCounts) {
        uint64_t seed = kSeedBase + uint64_t(devices) * 100;
        RunResult a = runOnce(seed, devices);
        RunResult b = runOnce(seed, devices);
        check(a.ok, seed, "migration invariants violated");
        check(a.startAt == b.startAt && a.migratedAt == b.migratedAt &&
                  a.firstWriteAt == b.firstWriteAt &&
                  a.newFp == b.newFp && a.toDevice == b.toDevice,
              seed, "same-seed runs are not bit-for-bit identical");
        if (!a.ok)
            continue;
        double mig = bench::ms(a.firstWriteAt - a.startAt);
        std::printf("%-8u %-8llu %-12.2f %-12.2f %-14.0f %u\n", devices,
                    (unsigned long long)seed,
                    bench::ms(a.migratedAt - a.startAt), mig,
                    a.opsPerSec, a.toDevice);
        latenciesMs.push_back(mig);
        minOps = runs.empty() ? a.opsPerSec
                              : std::min(minOps, a.opsPerSec);
        runs.push_back(a);
    }

    if (runs.empty()) {
        std::printf("no successful runs\n");
        return 1;
    }

    double p99 = percentile(latenciesMs, 0.99);
    std::printf("\nmigration p99 %.2f ms across %zu pools; lowest "
                "post-migration throughput %.0f ops/s\n",
                p99, runs.size(), minOps);

    // ---- JSON artifact ----------------------------------------------
    const char *outPath =
        argc > 1 ? argv[1] : "BENCH_migration.json";
    FILE *f = std::fopen(outPath, "w");
    if (!f) {
        std::printf("cannot open %s\n", outPath);
        return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"migration\",\n");
    std::fprintf(f, "  \"seeds_per_fleet\": 1,\n");
    std::fprintf(f, "  \"succeeded\": %zu,\n", runs.size());
    std::fprintf(f, "  \"violations\": %d,\n  \"unit\": \"ms\",\n",
                 violations);
    std::fprintf(f, "  \"migration_ms_p99\": %.3f,\n", p99);
    std::fprintf(f, "  \"fleets\": [\n");
    for (size_t i = 0; i < runs.size(); ++i) {
        const RunResult &r = runs[i];
        double mig = latenciesMs[i];
        std::fprintf(f,
                     "    {\"devices\": %u, \"migration_ms_mean\": "
                     "%.3f, \"migration_ms_p99\": %.3f, "
                     "\"ops_per_sec\": %.0f, \"succeeded\": 1}%s\n",
                     r.devices, mig, mig, r.opsPerSec,
                     i + 1 < runs.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"gates\": {\n");
    std::fprintf(f,
                 "    \"migration_ms_p99\": {\"value\": %.3f, "
                 "\"direction\": \"lower\"},\n",
                 p99);
    std::fprintf(f,
                 "    \"post_migration_ops_per_sec\": {\"value\": %.0f, "
                 "\"direction\": \"higher\"}\n",
                 minOps);
    std::fprintf(f, "  }\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", outPath);

    size_t expected = sizeof(kDeviceCounts) / sizeof(kDeviceCounts[0]);
    if (violations || runs.size() != expected) {
        std::printf("MIGRATION CHECK FAILED: %d violation(s), %zu/%zu "
                    "runs succeeded\n",
                    violations, runs.size(), expected);
        return 1;
    }
    std::printf("all invariants held across %zu runs x 2\n", expected);
    return 0;
}
