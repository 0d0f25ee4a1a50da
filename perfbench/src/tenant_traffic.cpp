/**
 * @file
 * tenant_traffic: the steady-state data path. One test-scale
 * deployment at set-up, then four broker tenants (DRR weights 1/1/2/4,
 * quotas that never bind) each keep a fixed window of secure register
 * ops outstanding, and tenant 0 interleaves secure DMA (dmaWrite, then
 * dmaRead of the same bytes) at 4 KiB, 64 KiB and 1 MiB. No bitstream
 * or attestation work happens after set-up.
 *
 * Unit of work: one secure register op. Bulk: DMA bytes (read+write).
 */

#include "workloads.hpp"

#include <optional>

#include "traffic.hpp"

namespace salus::perfbench {

namespace {

/** Extra set-ups are timed every kSetupEvery host seconds of the
 *  measured window, so set-up samples see the same host conditions as
 *  the work. */
constexpr double kSetupEvery = 0.5;
constexpr uint32_t kWeights[4] = {1, 1, 2, 4};
/** Pumps in the fixed reference block the virtual metrics come from. */
constexpr int kRefPumps = 1200;
/** Pumps between two looks at the clock in the measured window. */
constexpr int kStepPumps = 24;
/** Tenant 0 moves one DMA pair after a seeded gap of
 *  kDmaGapMin..kDmaGapMax pumps. */
constexpr int kDmaGapMin = 16;
constexpr int kDmaGapMax = 32;
/** DMA size classes; each transfer's length is drawn from the top
 *  eighth of its class, in 64-byte steps. */
constexpr size_t kDmaSizes[3] = {4u << 10, 64u << 10, 1u << 20};
/** Device DRAM below the SM's DMA staging rings (0x200000 up). */
constexpr uint64_t kDmaRegion = 2u << 20;

/** The seed draws each tenant's fixed window. The weight-1 tenants'
 *  windows (40..56) exceed their 32-op quantum, so the DRR weights
 *  bind and those ops wait an extra sweep; the weight-2 and weight-4
 *  tenants' windows (52..60) fit their quanta and are served whole
 *  every sweep. */
std::vector<TrafficWorld::TenantSpec>
tenantSpecs(uint64_t seed)
{
    Rng rng(seed, 0x71);
    std::vector<TrafficWorld::TenantSpec> specs;
    for (uint32_t i = 0; i < 4; ++i) {
        uint32_t lo = kWeights[i] == 1 ? 40 : 52;
        uint32_t hi = kWeights[i] == 1 ? 56 : 60;
        specs.push_back({kWeights[i], lo + uint32_t(rng.below(hi - lo + 1))});
    }
    return specs;
}

/** Tenant 0's bulk transfers, straight through the SM enclave's
 *  public DMA entry points on the tenant's fabric slot. Every three
 *  consecutive pairs cover the three size classes once, in seeded
 *  order, so the mix is nearly the same on every seed. */
struct DmaLane
{
    DmaLane(uint64_t seed, uint32_t slot) : rng(seed, 0xd3a), slot(slot)
    {
        untilNext = gap();
    }

    /** Pumps to run before the next pair. */
    int gap()
    {
        return kDmaGapMin + int(rng.below(kDmaGapMax - kDmaGapMin + 1));
    }

    void pair(core::Testbed &tb, Ledger &ledger)
    {
        if (transfers % 6 == 0)
            for (size_t i = 2; i > 0; --i)
                std::swap(order[i], order[rng.below(i + 1)]);
        size_t cls = order[(transfers / 2) % 3];
        size_t size = kDmaSizes[cls] -
                      64 * rng.below(kDmaSizes[cls] / 8 / 64 + 1);
        uint64_t addr = rng.below((kDmaRegion - size) / 4096 + 1) * 4096;
        Bytes payload(size);
        rng.fill(payload.data(), size);
        Bytes back;
        sim::Nanos v0 = tb.clock().now();
        HostTimer hw;
        auto w = tb.smApp().dmaWrite(slot, addr, payload);
        double ws = hw.seconds();
        HostTimer hr;
        auto r = tb.smApp().dmaRead(slot, addr, size, back);
        double rs = hr.seconds();
        writeHostS += ws;
        readHostS += rs;
        pairSecondsPerMb[cls].push_back((ws + rs) * 1e6 /
                                        (2.0 * double(size)));
        virtualNs += tb.clock().now() - v0;
        ledger.attempt(2);
        ledger.check(w.status == 0 && w.bytes == size,
                     "dmaWrite failed with status " +
                         std::to_string(w.status));
        ledger.check(r.status == 0 && back == payload,
                     "dmaRead did not return the written payload");
        bytes += 2.0 * double(size);
        transfers += 2;
        retransmits += w.retransmits + r.retransmits;
        hidden += w.hiddenCryptoNanos + r.hiddenCryptoNanos;
        exposed += w.cryptoNanos + r.cryptoNanos;
    }

    Rng rng;
    uint32_t slot;
    size_t order[3] = {0, 1, 2};
    int untilNext = 0;
    /** Host s per MB of each pair, by size class. */
    std::vector<double> pairSecondsPerMb[3];
    double bytes = 0;
    double writeHostS = 0;
    double readHostS = 0;
    sim::Nanos virtualNs = 0;
    uint64_t transfers = 0;
    uint64_t retransmits = 0;
    sim::Nanos hidden = 0;
    sim::Nanos exposed = 0;
};

const char *const kBlockPhases[] = {
    core::phases::kChanCrypto,
    core::phases::kChanTransport,
    core::phases::kDmaCrypto,
    core::phases::kDmaTransport,
};

/** Runs `pumps` pumps, with a DMA pair whenever its gap ran out. */
void
runPumps(TrafficWorld &w, DmaLane &lane, int pumps, bool record,
         Ledger &ledger)
{
    for (int p = 0; p < pumps; ++p) {
        w.step(record);
        if (--lane.untilNext == 0) {
            lane.pair(w.tb(), ledger);
            lane.untilNext = lane.gap();
        }
    }
}

struct Block
{
    /** Virtual figures: identical on every world built from the seed,
     *  traced or not. */
    std::vector<sim::Nanos> sig;
    double hostS = 0;
    uint64_t ops = 0;
    sim::Nanos regVirtual = 0;
    double dmaBytes = 0;
    sim::Nanos dmaVirtual = 0;
    std::vector<sim::Nanos> phase; ///< kBlockPhases deltas
};

Block
referenceBlock(TrafficWorld &w, DmaLane &lane, Ledger &ledger)
{
    Block b;
    sim::VirtualClock &clock = w.tb().clock();
    std::vector<sim::Nanos> before;
    for (const char *p : kBlockPhases)
        before.push_back(clock.totalFor(p));
    sim::Nanos start = clock.now();
    HostTimer t;
    runPumps(w, lane, kRefPumps, true, ledger);
    b.hostS = t.seconds();
    b.ops = w.completed;
    b.regVirtual = w.pumpVirtual;
    b.dmaBytes = lane.bytes;
    b.dmaVirtual = lane.virtualNs;
    for (size_t i = 0; i < before.size(); ++i)
        b.phase.push_back(clock.totalFor(kBlockPhases[i]) - before[i]);
    b.sig = {clock.now() - start, b.ops, b.regVirtual, b.dmaVirtual,
             sim::Nanos(b.dmaBytes), nearestRank(w.latency, 0.5),
             nearestRank(w.latency, 0.99), w.setupBoot().total};
    b.sig.insert(b.sig.end(), b.phase.begin(), b.phase.end());
    return b;
}

} // namespace

RunResult
runTenantTraffic(const RunConfig &cfg)
{
    RunResult out;
    EndToEnd e;
    const auto specs = tenantSpecs(cfg.seed);

    if (!cfg.trace) {
        // World 0 measures, world 1 reruns the seed's reference block.
        std::vector<std::unique_ptr<TrafficWorld>> worlds;
        for (int i = 0; i < 2; ++i)
            worlds.push_back(std::make_unique<TrafficWorld>(
                cfg.seed, 1, specs, false, out.ledger, e));

        TrafficWorld &w = *worlds[0];
        DmaLane lane(cfg.seed, w.session(0));
        HostTimer window;
        Block ref = referenceBlock(w, lane, out.ledger);
        e.rssMb = peakRssMb();
        double nextSetup = window.seconds();
        while (window.seconds() < cfg.seconds) {
            if (window.seconds() >= nextSetup) {
                TrafficWorld(cfg.seed, 1, specs, false, out.ledger, e);
                nextSetup += kSetupEvery;
            }
            runPumps(w, lane, kStepPumps, false, out.ledger);
        }

        DmaLane rerunLane(cfg.seed, worlds[1]->session(0));
        Block rerun = referenceBlock(*worlds[1], rerunLane, out.ledger);
        out.ledger.check(rerun.sig == ref.sig,
                         "virtual figures differ on a same-seed rerun");

        e.units = double(w.completed);
        e.secondsPerUnit = w.stepSecondsPerOp;
        // One pair of each size class, each at its own fast decile.
        double s = 0, mb = 0;
        for (size_t c = 0; c < 3; ++c) {
            s += fastDecile(lane.pairSecondsPerMb[c]) * double(kDmaSizes[c]);
            mb += double(kDmaSizes[c]);
        }
        e.secondsPerMb.push_back(s / mb);
        e.refUnits = double(ref.ops);
        e.refUnitsVirtual = ref.regVirtual;
        e.latency = w.latency;
        e.refBulkBytes = ref.dmaBytes;
        e.refBulkVirtual = ref.dmaVirtual;
        renderEndToEnd(e, out);
        out.samples["dma_transfers"] = lane.transfers;
        return out;
    }

    // Traced run: alternate untraced and traced worlds running the
    // reference block; per-layer figures come from the last traced one.
    std::vector<double> untraced, traced;
    std::optional<std::vector<sim::Nanos>> first;
    HostTimer window;
    for (int b = 0;; ++b) {
        bool tracedBlock = b % 2 == 1;
        TrafficWorld w(cfg.seed, 1, specs, tracedBlock, out.ledger, e);
        DmaLane lane(cfg.seed, w.session(0));
        Block blk = referenceBlock(w, lane, out.ledger);
        if (!first)
            first = blk.sig;
        out.ledger.check(blk.sig == *first,
                         "virtual figures differ between traced and "
                         "untraced runs of the seed");
        (tracedBlock ? traced : untraced).push_back(blk.hostS);
        if (tracedBlock) {
            w.putLayerMetrics(out);
            for (const char *p : {core::phases::kDmaCrypto,
                                  core::phases::kDmaTransport})
                w.tap()->checkPhase(p, w.tb().clock().totalFor(p),
                                    out.ledger);
            auto &m = out.metrics;
            double mib = lane.bytes / 2 / double(1u << 20);
            m["dma.write_ms_per_mib"].value = 1e3 * lane.writeHostS / mib;
            m["dma.read_ms_per_mib"].value = 1e3 * lane.readHostS / mib;
            m["dma.retransmits"].value = double(lane.retransmits);
            m["dma.crypto_hidden_ratio"].value =
                double(lane.hidden) / double(lane.hidden + lane.exposed);
            m["virtual.dma_crypto_ms"].value = double(blk.phase[2]) / 1e6;
            m["virtual.dma_transport_ms"].value = double(blk.phase[3]) / 1e6;
            out.samples["traced_register_ops"] = blk.ops;
            out.samples["traced_dma_transfers"] = lane.transfers;
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
