#include "traffic.hpp"

namespace salus::perfbench {

TrafficWorld::TrafficWorld(uint64_t seed, uint32_t devices,
                           const std::vector<TenantSpec> &tenants,
                           bool traced, Ledger &ledger, EndToEnd &e)
    : ledger_(ledger)
{
    HostTimer setup;
    tb_ = makeTestbed(seed, 0, false, devices);
    if (traced)
        tap_ = std::make_unique<TraceTap>(*tb_);
    BootPhases before = bootTotals(tb_->clock());
    HostTimer deploy;
    core::UserClient::Outcome out = tb_->runDeployment();
    e.deployHostS.push_back(deploy.seconds());
    setupBoot_ = bootDelta(bootTotals(tb_->clock()), before);
    e.bootVirtual.push_back(setupBoot_.total);
    ledger_.attempt();
    ledger_.check(out.ok && tb_->smApp().bootStatus().ok(),
                  "set-up deployment failed: " + out.failure);
    if (tap_)
        for (size_t i = 0; i < setupBoot_.names.size(); ++i)
            tap_->checkPhase(setupBoot_.names[i], setupBoot_.nanos[i],
                             ledger_);

    // Quotas sized so that no policy wall ever binds: the workload
    // measures the data path, not admission refusals.
    core::Broker::Config bc;
    bc.maxTotalQueuedOps = 4096;
    bc.shedLowWater = 2048;
    broker_ = std::make_unique<core::Broker>(*tb_, bc);
    for (size_t i = 0; i < tenants.size(); ++i) {
        core::TenantPolicy policy;
        policy.weight = tenants[i].weight;
        policy.maxQueuedOps = 2 * tenants[i].window;
        Tenant t;
        t.id = broker_->registerTenant("tenant" + std::to_string(i),
                                       policy);
        t.session = broker_->openSession(t.id);
        t.window = tenants[i].window;
        t.regBase = uint32_t(32 * i);
        t.rng = std::make_unique<Rng>(seed, 0x7e0 + i);
        tenants_.push_back(std::move(t));
    }
    e.setupS.push_back(setup.seconds());
}

void
TrafficWorld::submitOne(Tenant &t)
{
    size_t k = t.rng->below(4);
    bool write = !t.known[k] || (t.rng->next() & 1);
    core::regchan::RegOp op{write, t.regBase + uint32_t(8 * k),
                            write ? t.rng->next() : 0};
    if (write) {
        t.last[k] = op.data;
        t.known[k] = true;
    }
    uint64_t expected = t.last[k];
    sim::Nanos at = tb_->clock().now();
    ++t.outstanding;
    ++submits;
    ledger_.attempt();
    HostTimer h;
    try {
        broker_->submit(
            t.id, t.session, op,
            [this, &t, write, expected, at](uint8_t st, uint64_t data) {
                --t.outstanding;
                ++completed;
                if (record_)
                    latency.push_back(tb_->clock().now() - at);
                if (st != 0)
                    ledger_.check(false, "register op completed with "
                                         "status " + std::to_string(st));
                else if (!write)
                    ledger_.check(data == expected,
                                  "register read did not return the "
                                  "tenant's last write");
            });
    } catch (const SalusError &err) {
        --t.outstanding;
        ledger_.check(false, std::string("broker refused an op: ") +
                                 err.what());
    }
    submitHostS += h.seconds();
}

void
TrafficWorld::step(bool record)
{
    record_ = record;
    double submitted = submitHostS;
    uint64_t done = completed;
    for (Tenant &t : tenants_)
        while (t.outstanding < t.window)
            submitOne(t);
    sim::Nanos v0 = tb_->clock().now();
    HostTimer h;
    broker_->pump();
    double pumpS = h.seconds();
    pumpHostS += pumpS;
    if (completed > done)
        stepSecondsPerOp.push_back((submitHostS - submitted + pumpS) /
                                   double(completed - done));
    pumpVirtual += tb_->clock().now() - v0;
    ++pumps;
}

void
TrafficWorld::drain()
{
    sim::Nanos v0 = tb_->clock().now();
    HostTimer h;
    broker_->drainAll();
    pumpHostS += h.seconds();
    pumpVirtual += tb_->clock().now() - v0;
    for (const Tenant &t : tenants_)
        ledger_.check(t.outstanding == 0, "drain left ops outstanding");
}

void
TrafficWorld::forgetRegisters()
{
    for (Tenant &t : tenants_)
        for (bool &k : t.known)
            k = false;
}

void
TrafficWorld::putLayerMetrics(RunResult &out)
{
    TraceTap &tap = *tap_;
    auto &m = out.metrics;
    m["broker.submit_us"].value = 1e6 * submitHostS / double(submits);
    uint64_t admitted = 0;
    for (uint32_t t = 1; t <= broker_->tenantCount(); ++t)
        admitted += broker_->tenantStats(t).admitted;
    m["broker.admitted_ratio"].value = double(admitted) / double(submits);
    const auto &st = tb_->scheduler().stats();
    m["scheduler.sweep_us"].value = 1e6 * pumpHostS / double(pumps);
    m["scheduler.ops_per_sweep"].value =
        double(st.dispatchedOps) / double(pumps);
    m["scheduler.backpressure_ratio"].value =
        double(st.rejectedBackpressure) / double(st.submitted);
    const sim::VirtualClock &clock = tb_->clock();
    for (const char *p :
         {core::phases::kChanCrypto, core::phases::kChanTransport})
        tap.checkPhase(p, clock.totalFor(p), ledger_);
    m["virtual.channel_crypto_ms"].value =
        double(clock.totalFor(core::phases::kChanCrypto)) / 1e6;
    m["virtual.channel_transport_ms"].value =
        double(clock.totalFor(core::phases::kChanTransport)) / 1e6;
    putBootPhases(setupBoot_, out);
    m["net.rpcs"].value = double(tap.rpcs());
    m["net.retries"].value = double(tap.retries());
    m["obs.trace_events"].value = double(tap.trace().events().size());
}

} // namespace salus::perfbench
