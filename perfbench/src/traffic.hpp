/**
 * @file
 * Closed-loop tenant traffic through the Broker, shared by the
 * tenant_traffic and fleet_churn workloads. Each tenant owns one broker
 * session and four of the loopback CL's sixteen scratch registers, and
 * keeps a fixed window of secure register ops outstanding: after every
 * pump the client tops each window back up, so it sends a request only
 * once an earlier one has completed. Ops are 50/50 reads and writes;
 * every read must return the tenant's last write to that register.
 */

#ifndef SALUS_PERFBENCH_TRAFFIC_HPP
#define SALUS_PERFBENCH_TRAFFIC_HPP

#include <memory>

#include "common.hpp"
#include "probes.hpp"
#include "salus/broker.hpp"

namespace salus::perfbench {

/** One set-up of a traffic workload: a deployed testbed, its broker
 *  and the tenant sessions. */
class TrafficWorld
{
  public:
    struct TenantSpec
    {
        uint32_t weight = 1;
        uint32_t window = 1; ///< outstanding register ops
    };

    /** Builds and deploys the testbed and opens one broker session
     *  per tenant; the set-up is timed into `e` and checked into
     *  `ledger`. With `traced`, a TraceTap is attached before the
     *  deployment and stays attached for the world's lifetime. */
    TrafficWorld(uint64_t seed, uint32_t devices,
                 const std::vector<TenantSpec> &tenants, bool traced,
                 Ledger &ledger, EndToEnd &e);
    // Broker completions capture `this` and the tenant records.
    TrafficWorld(const TrafficWorld &) = delete;
    TrafficWorld &operator=(const TrafficWorld &) = delete;

    core::Testbed &tb() { return *tb_; }
    /** Null unless the world was built traced. */
    TraceTap *tap() { return tap_.get(); }
    core::Broker &broker() { return *broker_; }
    /** Broker session (fabric slot) of tenant i. */
    uint32_t session(size_t i) const { return tenants_.at(i).session; }
    /** Fig. 9 phases of the set-up deployment. */
    const BootPhases &setupBoot() const { return setupBoot_; }

    /** Tops every window up, then runs one broker pump (one weighted
     *  scheduler sweep). Latencies are recorded while `record`. */
    void step(bool record);
    /** Stops sending and pumps until every outstanding op completed. */
    void drain();
    /** Forget expected register contents (the CL moved to a fresh
     *  device); the next op on each register is a write. */
    void forgetRegisters();

    /** Traced worlds only: adds the broker.*, scheduler.*,
     *  virtual.channel_*, Fig. 9 phase, net.* and obs.trace_events
     *  metrics, after checking the channel phases' span sums. */
    void putLayerMetrics(RunResult &out);

    // ---- Accumulated figures ------------------------------------------
    uint64_t completed = 0;   ///< register ops completed
    uint64_t submits = 0;     ///< broker.submit calls
    uint64_t pumps = 0;
    double submitHostS = 0;
    double pumpHostS = 0;
    /** Host s per completed op of each step (top-up + pump), a sample
     *  short enough to resolve contention bursts. */
    std::vector<double> stepSecondsPerOp;
    sim::Nanos pumpVirtual = 0; ///< virtual time inside pumps
    std::vector<sim::Nanos> latency;

  private:
    struct Tenant
    {
        uint32_t id = 0;
        uint32_t session = 0;
        uint32_t window = 1;
        uint32_t outstanding = 0;
        uint32_t regBase = 0;
        uint64_t last[4] = {};
        bool known[4] = {};
        std::unique_ptr<Rng> rng;
    };

    void submitOne(Tenant &t);

    Ledger &ledger_;
    std::unique_ptr<core::Testbed> tb_;
    std::unique_ptr<TraceTap> tap_;
    std::unique_ptr<core::Broker> broker_;
    std::vector<Tenant> tenants_;
    BootPhases setupBoot_;
    bool record_ = false;
};

} // namespace salus::perfbench

#endif // SALUS_PERFBENCH_TRAFFIC_HPP
