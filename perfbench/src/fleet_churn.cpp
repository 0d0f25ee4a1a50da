/**
 * @file
 * fleet_churn: a 4-device test-scale pool serving 4 broker sessions of
 * light register traffic while a fixed cycle of control-plane events
 * runs through it: a live migration to the next device, a session
 * rekey, an SM crash with journal recovery, and an attested failover to
 * the next device. The bitstream is only ~64 KiB, so X25519/Ed25519,
 * quote verification, the attestation cascade and journal sealing
 * dominate host time rather than bulk CRC/GCM.
 *
 * Clients drain their windows before a device move (register contents
 * live on the device and do not migrate); rekeys and crash recoveries
 * happen with ops in flight.
 *
 * Unit of work: one control-plane event. Latency: the virtual time a
 * device move (migration or failover) blocks the session. Bulk: the
 * bitstream bytes redeployed by moves.
 */

#include "workloads.hpp"

#include <optional>
#include <set>

#include "traffic.hpp"

namespace salus::perfbench {

namespace {

/** Extra set-ups are timed every kSetupEvery host seconds of the
 *  measured window, so set-up samples see the same host conditions as
 *  the work. */
constexpr double kSetupEvery = 0.5;
constexpr uint32_t kDevices = 4;
/** Pumps of tenant traffic before each event. */
constexpr int kGap = 12;
/** Event cycles in the reference block. */
constexpr int kRefCycles = 6;

enum class Event { Migrate, Rekey, Crash, Failover };
constexpr Event kCycle[] = {Event::Migrate, Event::Rekey, Event::Crash,
                            Event::Failover};

/** Light traffic: the seed splits kWindow outstanding ops over the
 *  tenants in pairs (2..4 each, a pair summing to kWindow / 2), so
 *  every sweep moves the same number of ops and only the latency mix
 *  depends on the seed. */
constexpr uint32_t kWindow = 12;

std::vector<TrafficWorld::TenantSpec>
tenantSpecs(uint64_t seed)
{
    Rng rng(seed, 0xf1);
    uint32_t a = 2 + uint32_t(rng.below(3));
    uint32_t c = 2 + uint32_t(rng.below(3));
    return {{1, a}, {1, kWindow / 2 - a}, {1, c}, {1, kWindow / 2 - c}};
}

/** Control-plane figures, accumulated per event kind. */
struct ChurnLog
{
    uint64_t events = 0;
    sim::Nanos virtualNs = 0;
    std::vector<double> migrateHostS, failoverHostS;
    std::vector<sim::Nanos> migrateVirtual, failoverVirtual;
    double movedBytes = 0;   ///< bitstream bytes redeployed by moves
    /** Host s per event, by kind (kCycle order). */
    std::vector<double> eventHostS[4];
    std::vector<double> moveSecondsPerMb;
    sim::Nanos moveVirtual = 0;
    /** Every fingerprint retired so far: none may come back. */
    std::set<Bytes> retired;
};

void
runEvent(TrafficWorld &w, Event ev, ChurnLog &log, Ledger &ledger)
{
    core::Testbed &tb = w.tb();
    bool move = ev == Event::Migrate || ev == Event::Failover;
    if (move)
        w.drain();
    uint32_t from = tb.activeDevice();
    uint32_t to = (from + 1) % kDevices;
    Bytes fpOld = tb.smApp().secretsFingerprint();
    std::optional<core::MigrationRecord> mig;
    std::optional<core::FailoverRecord> fo;
    bool ok = true;

    sim::Nanos v0 = tb.clock().now();
    HostTimer host;
    try {
        switch (ev) {
        case Event::Migrate:
            mig = tb.supervisor().migrateActiveTo(to, "perfbench rebalance");
            break;
        case Event::Failover:
            fo = tb.performFailover(from, to, "perfbench drill");
            break;
        case Event::Rekey:
            ok = tb.userApp().rekeySession();
            break;
        case Event::Crash: {
            auto rep = tb.crashAndRecoverSmApp();
            ok = rep.status == core::SmEnclaveApp::RecoveryStatus::Recovered &&
                 rep.reattestFailures == 0;
            break;
        }
        }
    } catch (const SalusError &err) {
        ok = ledger.check(false, std::string("control-plane event threw: ") +
                                     err.what());
    }
    double hostS = host.seconds();
    sim::Nanos virt = tb.clock().now() - v0;

    ++log.events;
    log.eventHostS[size_t(ev)].push_back(hostS);
    log.virtualNs += virt;
    ledger.attempt();
    Bytes fpNew = tb.smApp().secretsFingerprint();
    if (!move) {
        ledger.check(ok, ev == Event::Rekey ? "session rekey failed"
                                            : "SM crash recovery failed");
        ledger.check(!log.retired.count(fpNew),
                     "a retired secrets fingerprint was re-adopted");
        return;
    }
    uint8_t attested = mig ? mig->attested : fo ? fo->attested : 0;
    uint32_t landed = mig ? mig->toDevice : fo ? fo->toDevice : from;
    ledger.check(ok && attested == 1 && landed == to &&
                     tb.activeDevice() == to,
                 "device move did not land attested on its target");
    ledger.check(tb.smApp().everRetiredFingerprint(fpOld) &&
                     !fpNew.empty() && fpNew != fpOld &&
                     !tb.smApp().everRetiredFingerprint(fpNew) &&
                     !log.retired.count(fpNew),
                 "device move did not retire the source secrets for good");
    log.retired.insert(fpOld);
    w.forgetRegisters();
    (mig ? log.migrateHostS : log.failoverHostS).push_back(hostS);
    (mig ? log.migrateVirtual : log.failoverVirtual).push_back(virt);
    log.movedBytes += double(tb.storedBitstream().size());
    log.moveSecondsPerMb.push_back(hostS * 1e6 /
                                   double(tb.storedBitstream().size()));
    log.moveVirtual += virt;
}

void
runCycles(TrafficWorld &w, ChurnLog &log, int cycles, bool record,
          Ledger &ledger)
{
    for (int c = 0; c < cycles; ++c)
        for (Event ev : kCycle) {
            for (int p = 0; p < kGap; ++p)
                w.step(record);
            runEvent(w, ev, log, ledger);
        }
}

/** Virtual figures of the reference block (identical per seed). */
std::vector<sim::Nanos>
signature(TrafficWorld &w, const ChurnLog &log)
{
    std::vector<sim::Nanos> s = {
        w.tb().clock().now(), log.virtualNs, log.moveVirtual,
        w.completed, nearestRank(w.latency, 0.5),
        nearestRank(w.latency, 0.99), w.setupBoot().total,
        w.tb().clock().totalFor(core::phases::kChanCrypto),
        w.tb().clock().totalFor(core::phases::kChanTransport)};
    s.insert(s.end(), log.migrateVirtual.begin(), log.migrateVirtual.end());
    s.insert(s.end(), log.failoverVirtual.begin(),
             log.failoverVirtual.end());
    return s;
}

} // namespace

RunResult
runFleetChurn(const RunConfig &cfg)
{
    RunResult out;
    EndToEnd e;
    const auto specs = tenantSpecs(cfg.seed);

    if (!cfg.trace) {
        // World 0 measures, world 1 reruns the seed's reference block.
        std::vector<std::unique_ptr<TrafficWorld>> worlds;
        for (int i = 0; i < 2; ++i)
            worlds.push_back(std::make_unique<TrafficWorld>(
                cfg.seed, kDevices, specs, false, out.ledger, e));

        TrafficWorld &w = *worlds[0];
        ChurnLog log;
        HostTimer window;
        runCycles(w, log, kRefCycles, true, out.ledger);
        auto ref = signature(w, log);
        ChurnLog refLog = log;
        e.rssMb = peakRssMb();
        double nextSetup = window.seconds();
        while (window.seconds() < cfg.seconds) {
            if (window.seconds() >= nextSetup) {
                TrafficWorld(cfg.seed, kDevices, specs, false, out.ledger, e);
                nextSetup += kSetupEvery;
            }
            runCycles(w, log, 1, false, out.ledger);
        }

        ChurnLog rerunLog;
        runCycles(*worlds[1], rerunLog, kRefCycles, true, out.ledger);
        out.ledger.check(signature(*worlds[1], rerunLog) == ref,
                         "virtual figures differ on a same-seed rerun");

        e.units = double(log.events);
        // A cycle of one event of each kind, each at its fast decile.
        double cycle = 0;
        for (const auto &kind : log.eventHostS)
            cycle += fastDecile(kind);
        e.secondsPerUnit.push_back(cycle / 4);
        e.secondsPerMb = log.moveSecondsPerMb;
        e.refUnits = double(refLog.events);
        e.refUnitsVirtual = refLog.virtualNs;
        e.latency = refLog.migrateVirtual;
        e.latency.insert(e.latency.end(), refLog.failoverVirtual.begin(),
                         refLog.failoverVirtual.end());
        e.refBulkBytes = refLog.movedBytes;
        e.refBulkVirtual = refLog.moveVirtual;
        renderEndToEnd(e, out);
        out.samples["register_ops"] = w.completed;
        return out;
    }

    std::vector<double> untraced, traced;
    std::optional<std::vector<sim::Nanos>> first;
    HostTimer window;
    for (int b = 0;; ++b) {
        bool tracedBlock = b % 2 == 1;
        TrafficWorld w(cfg.seed, kDevices, specs, tracedBlock, out.ledger,
                       e);
        ChurnLog log;
        HostTimer blockTime;
        runCycles(w, log, kRefCycles, true, out.ledger);
        (tracedBlock ? traced : untraced).push_back(blockTime.seconds());
        auto sig = signature(w, log);
        if (!first)
            first = sig;
        out.ledger.check(sig == *first,
                         "virtual figures differ between traced and "
                         "untraced runs of the seed");
        if (tracedBlock) {
            w.putLayerMetrics(out);
            auto &m = out.metrics;
            m["supervisor.migrate_ms"].value = 1e3 * median(log.migrateHostS);
            m["supervisor.failover_ms"].value =
                1e3 * median(log.failoverHostS);
            m["supervisor.migrations"].value = double(log.migrateHostS.size());
            m["supervisor.failovers"].value = double(log.failoverHostS.size());
            m["virtual.migration_ms"].value =
                double(nearestRank(log.migrateVirtual, 0.5)) / 1e6;
            m["virtual.failover_ms"].value =
                double(nearestRank(log.failoverVirtual, 0.5)) / 1e6;
            out.samples["traced_events"] = log.events;
            out.samples["traced_register_ops"] = w.completed;
        }
        if (tracedBlock && window.seconds() >= cfg.seconds)
            break;
    }
    out.metrics["obs.trace_overhead_ratio"].value =
        median(traced) / median(untraced);
    out.samples["traced_blocks"] = traced.size();
    out.samples["untraced_blocks"] = untraced.size();
    runLayerProbes(cfg.seed, 0, false, out);
    return out;
}

} // namespace salus::perfbench
