/**
 * @file
 * deploy_u200: back-to-back full secure deployments on the paper-scale
 * device (fpga::u200ScaledModel, 32 MiB partial bitstream). Every
 * deployment is a fresh Testbed; only runDeployment() is timed as the
 * deployment, the testbed build + installCl is its set-up. Never
 * touches the register channel, DMA or the scheduler.
 *
 * The deployments cycle through kInputs seeded designs, so every
 * design after the first round is a same-seed rerun whose Fig. 9
 * phases must match its first deployment exactly.
 *
 * Unit of work: one deployment. Bulk: the bitstream bytes deployed.
 */

#include "workloads.hpp"

#include <optional>

#include "probes.hpp"

namespace salus::perfbench {

namespace {

constexpr uint64_t kInputs = 2;

struct Deployment
{
    double setupS = 0;
    double hostS = 0;
    BootPhases phases;
    size_t bitstreamBytes = 0;
    uint64_t rpcs = 0;
    uint64_t retries = 0;
    uint64_t traceEvents = 0;
};

Deployment
deployOnce(uint64_t seed, uint64_t input, bool traced, Ledger &ledger)
{
    Deployment d;
    HostTimer setup;
    auto tb = makeTestbed(seed, input, true);
    d.setupS = setup.seconds();
    d.bitstreamBytes = tb->storedBitstream().size();

    std::optional<TraceTap> tap;
    if (traced)
        tap.emplace(*tb);
    BootPhases before = bootTotals(tb->clock());
    sim::Nanos v0 = tb->clock().now();
    HostTimer host;
    core::UserClient::Outcome out = tb->runDeployment();
    d.hostS = host.seconds();
    sim::Nanos elapsed = tb->clock().now() - v0;
    d.phases = bootDelta(bootTotals(tb->clock()), before);

    ledger.attempt();
    ledger.check(out.ok && tb->smApp().bootStatus().ok() &&
                     tb->userApp().hasDataKey(),
                 "paper-scale deployment failed: " + out.failure);
    ledger.check(d.phases.total == elapsed,
                 "deployment spent virtual time outside the Fig. 9 "
                 "phases");
    if (tap) {
        for (size_t i = 0; i < d.phases.names.size(); ++i)
            tap->checkPhase(d.phases.names[i], d.phases.nanos[i], ledger);
        d.rpcs = tap->rpcs();
        d.retries = tap->retries();
        d.traceEvents = tap->trace().events().size();
    }
    return d;
}

} // namespace

RunResult
runDeployU200(const RunConfig &cfg)
{
    RunResult out;
    EndToEnd e;
    std::vector<std::optional<BootPhases>> first(kInputs);
    std::vector<double> untracedHost, tracedHost;
    std::optional<Deployment> lastTraced;
    HostTimer window;
    // Traced runs alternate untraced and traced rounds of kInputs.
    for (uint64_t j = 0;; ++j) {
        uint64_t input = j % kInputs;
        bool traced = cfg.trace && (j / kInputs) % 2 == 1;
        Deployment d = deployOnce(cfg.seed, input, traced, out.ledger);
        if (!first[input])
            first[input] = d.phases;
        out.ledger.check(d.phases == *first[input],
                         "Fig. 9 phases differ on a same-seed rerun");

        (traced ? tracedHost : untracedHost).push_back(d.hostS);
        e.setupS.push_back(d.setupS);
        if (!traced) {
            e.deployHostS.push_back(d.hostS);
            e.units += 1;
            e.secondsPerUnit.push_back(d.hostS);
            e.secondsPerMb.push_back(d.hostS * 1e6 /
                                     double(d.bitstreamBytes));
        }
        if (j < kInputs) {
            e.bootVirtual.push_back(d.phases.total);
            e.latency.push_back(d.phases.total);
            e.refUnits += 1;
            e.refUnitsVirtual += d.phases.total;
            e.refBulkBytes += double(d.bitstreamBytes);
            e.refBulkVirtual += d.phases.total;
            if (j + 1 == kInputs)
                e.rssMb = peakRssMb();
        }
        if (traced)
            lastTraced = d;

        // At least one round of every input; traced runs also need
        // whole untraced + traced rounds for the overhead ratio.
        size_t done = j + 1;
        bool enough = cfg.trace ? done % kInputs == 0 &&
                                      done >= 2 * kInputs
                                : done >= kInputs;
        if (enough && window.seconds() >= cfg.seconds)
            break;
    }

    if (!cfg.trace) {
        renderEndToEnd(e, out);
        return out;
    }

    // Per-layer: the Fig. 9 phases of the median deployment must sum to
    // boot_virtual_s exactly; the probes run on this workload's own
    // 32 MiB artifact.
    sim::Nanos mid = nearestRank(e.bootVirtual, 0.5);
    for (const auto &p : first)
        if (p->total == mid) {
            putBootPhases(*p, out);
            break;
        }
    auto &m = out.metrics;
    m["net.rpcs"].value = double(lastTraced->rpcs);
    m["net.retries"].value = double(lastTraced->retries);
    m["obs.trace_events"].value = double(lastTraced->traceEvents);
    m["obs.trace_overhead_ratio"].value =
        median(tracedHost) / median(untracedHost);
    out.samples["traced_deployments"] = tracedHost.size();
    out.samples["untraced_deployments"] = untracedHost.size();
    runLayerProbes(cfg.seed, 0, true, out);
    return out;
}

} // namespace salus::perfbench
