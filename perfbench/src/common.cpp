#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "fpga/ip.hpp"
#include "salus/boot_report.hpp"

namespace salus::perfbench {

uint64_t
Rng::next()
{
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

void
Rng::fill(uint8_t *out, size_t len)
{
    size_t i = 0;
    for (; i + 8 <= len; i += 8) {
        uint64_t w = next();
        std::memcpy(out + i, &w, 8);
    }
    if (i < len) {
        uint64_t w = next();
        std::memcpy(out + i, &w, len - i);
    }
}

uint64_t
subSeed(uint64_t seed, uint64_t index)
{
    return Rng(seed, 0x5eed0000 + index).next() | 1;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double
fastDecile(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    double pos = 0.1 * double(v.size() - 1);
    size_t lo = size_t(pos);
    size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

sim::Nanos
nearestRank(std::vector<sim::Nanos> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t rank = size_t(q * double(v.size()) + 0.999999);
    rank = std::clamp<size_t>(rank, 1, v.size());
    return v[rank - 1];
}

DesignInput
makeDesign(Rng &rng, bool paperScale)
{
    DesignInput d;
    d.accel.path = "engine";
    d.accel.kind = netlist::CellKind::Logic;
    d.accel.behaviorId = fpga::kIpLoopback;
    if (paperScale) {
        // Conv-like footprint (Table 5), jittered by up to 1/8.
        auto jitter = [&](uint32_t base) {
            return uint32_t(base - base / 16 + rng.below(base / 8 + 1));
        };
        d.accel.resources = {jitter(19735), jitter(20169), jitter(326),
                             jitter(512)};
    } else {
        d.accel.resources = {uint32_t(10 + rng.below(90)),
                             uint32_t(10 + rng.below(90)), 0, 0};
    }
    size_t extra = 1 + rng.below(6);
    for (size_t i = 0; i < extra; ++i) {
        netlist::Cell c;
        c.kind = netlist::CellKind::Bram;
        c.path = "aux" + std::to_string(i) + "_";
        size_t tag = 2 + rng.below(12);
        for (size_t k = 0; k < tag; ++k)
            c.path += char('a' + rng.below(26));
        c.resources = {0, 0, 1, 0};
        c.init.resize(16 * (1 + rng.below(8)));
        rng.fill(c.init.data(), c.init.size());
        d.extra.push_back(std::move(c));
    }
    return d;
}

BootPhases
bootTotals(const sim::VirtualClock &clock)
{
    core::BootReport report = core::buildBootReport(clock);
    BootPhases p;
    for (const core::BootPhaseRow &row : report.rows) {
        p.names.push_back(row.phase);
        p.nanos.push_back(row.modelTime);
    }
    p.total = report.modelTotal;
    return p;
}

BootPhases
bootDelta(const BootPhases &after, const BootPhases &before)
{
    BootPhases d = after;
    for (size_t i = 0; i < d.nanos.size(); ++i)
        d.nanos[i] -= before.nanos.at(i);
    d.total -= before.total;
    return d;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return double(usage.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

bool
Ledger::check(bool ok, const std::string &what)
{
    if (ok)
        return true;
    if (++failed_ <= 20)
        std::printf("CHECK FAILED: %s\n", what.c_str());
    return false;
}

void
renderEndToEnd(const EndToEnd &e, RunResult &out)
{
    auto put = [&](const char *name, double value, const char *unit) {
        out.ledger.check(value > 0, std::string("metric ") + name +
                                        " came out zero");
        out.metrics[name] = Metric{value, unit};
    };
    put("setup_s", median(e.setupS), "s");
    put("deploy_host_s", fastDecile(e.deployHostS), "s");
    put("boot_virtual_s",
        double(nearestRank(e.bootVirtual, 0.5)) / 1e9, "s");
    double perUnit = fastDecile(e.secondsPerUnit);
    put("work_per_host_s", perUnit > 0 ? 1 / perUnit : 0, "1/s");
    put("work_per_virtual_s",
        e.refUnitsVirtual ? e.refUnits * 1e9 / double(e.refUnitsVirtual)
                          : 0,
        "1/s");
    put("latency_virtual_ms_p50",
        double(nearestRank(e.latency, 0.50)) / 1e6, "ms");
    put("latency_virtual_ms_p99",
        double(nearestRank(e.latency, 0.99)) / 1e6, "ms");
    double perMb = fastDecile(e.secondsPerMb);
    put("bulk_mb_per_host_s", perMb > 0 ? 1 / perMb : 0, "MB/s");
    put("bulk_mb_per_virtual_s",
        e.refBulkVirtual ? e.refBulkBytes * 1e3 / double(e.refBulkVirtual)
                         : 0,
        "MB/s");
    put("peak_rss_mb", e.rssMb, "MB");
    out.samples["setups"] = e.setupS.size();
    out.samples["deployments"] = e.deployHostS.size();
    out.samples["work_units"] = uint64_t(e.units);
    out.samples["work_samples"] = e.secondsPerUnit.size();
    out.samples["bulk_samples"] = e.secondsPerMb.size();
}

const std::vector<LayerSpec> &
layerSpecs()
{
    static const std::vector<LayerSpec> specs = {
        {"crypto.aes_gcm_mb_per_s", "MB/s"},
        {"crypto.sha256_mb_per_s", "MB/s"},
        {"crypto.aes_ctr_256b_mb_per_s", "MB/s"},
        {"crypto.aes_ctr_1mib_mb_per_s", "MB/s"},
        {"crypto.x25519_us", "us"},
        {"crypto.ed25519_verify_us", "us"},
        {"bitstream.crc32_mb_per_s", "MB/s"},
        {"bitstream.parse_ms", "ms"},
        {"bitstream.serialize_ms", "ms"},
        {"bitstream.patch_cell_ms", "ms"},
        {"bitstream.encrypt_ms", "ms"},
        {"bitstream.compile_ms", "ms"},
        {"fpga.load_encrypted_ms", "ms"},
        {"fpga.scrub_ms", "ms"},
        {"tee.quote_verify_us", "us"},
        {"sm_enclave.deploy_ms", "ms"},
        {"sm_enclave.crash_recover_us", "us"},
        {"user_enclave.rekey_us", "us"},
        {"broker.submit_us", "us"},
        {"broker.admitted_ratio", "ratio"},
        {"scheduler.sweep_us", "us"},
        {"scheduler.ops_per_sweep", "count"},
        {"scheduler.backpressure_ratio", "ratio"},
        {"dma.write_ms_per_mib", "ms"},
        {"dma.read_ms_per_mib", "ms"},
        {"dma.retransmits", "count"},
        {"dma.crypto_hidden_ratio", "ratio"},
        {"supervisor.migrate_ms", "ms"},
        {"supervisor.failover_ms", "ms"},
        {"supervisor.migrations", "count"},
        {"supervisor.failovers", "count"},
        {"virtual.user_ra_ms", "ms"},
        {"virtual.local_attest_ms", "ms"},
        {"virtual.device_key_dist_ms", "ms"},
        {"virtual.bitstream_verif_enc_ms", "ms"},
        {"virtual.bitstream_manip_ms", "ms"},
        {"virtual.cl_deployment_ms", "ms"},
        {"virtual.cl_auth_ms", "ms"},
        {"virtual.channel_crypto_ms", "ms"},
        {"virtual.channel_transport_ms", "ms"},
        {"virtual.dma_crypto_ms", "ms"},
        {"virtual.dma_transport_ms", "ms"},
        {"virtual.migration_ms", "ms"},
        {"virtual.failover_ms", "ms"},
        {"net.rpcs", "count"},
        {"net.retries", "count"},
        {"obs.trace_overhead_ratio", "ratio"},
        {"obs.trace_events", "count"},
    };
    return specs;
}

void
completeLayers(RunResult &out)
{
    for (const auto &[name, metric] : out.metrics) {
        bool known = std::any_of(
            layerSpecs().begin(), layerSpecs().end(),
            [&](const LayerSpec &s) { return name == s.name; });
        out.ledger.check(known, "unlisted per-layer metric " + name);
    }
    for (const LayerSpec &s : layerSpecs()) {
        auto it = out.metrics.find(s.name);
        if (it == out.metrics.end())
            out.metrics[s.name] = Metric{0, s.unit};
        else
            it->second.unit = s.unit;
    }
}

} // namespace salus::perfbench
