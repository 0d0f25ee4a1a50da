/**
 * @file
 * Tenant-isolating session broker: the long-running front end a CSP
 * would run over the Salus platform. The broker owns session
 * lifecycle and tenant policy — everything between "a tenant exists"
 * and "an op reaches the weighted scheduler":
 *
 *  - per-tenant quotas (max concurrent sessions, max queued ops),
 *  - token-bucket rate limits on the VIRTUAL clock (deterministic:
 *    same seed, same admission decisions),
 *  - typed policy rejections (QuotaExceeded / RateLimited /
 *    Overloaded) that carry ErrorContext and are never retried by
 *    the transport layer (net::FailureClass::Policy),
 *  - overload shedding: when the total backlog crosses the high
 *    water mark, whole tenants are shed lowest-weight-first until
 *    the backlog drains under the low water mark. Shedding refuses
 *    NEW submissions only — in-flight secure ops are never dropped
 *    (dropping one would desynchronise the channel counters, which
 *    the threat model treats as an attack).
 */

#ifndef SALUS_SALUS_BROKER_HPP
#define SALUS_SALUS_BROKER_HPP

#include <map>
#include <string>
#include <vector>

#include "salus/scheduler.hpp"
#include "salus/testbed.hpp"

namespace salus::core {

/** Admission policy for one tenant. */
struct TenantPolicy
{
    /** DRR weight of every session this tenant opens. */
    uint32_t weight = 1;
    /** Max concurrently open sessions (quota). */
    uint32_t maxSessions = 1;
    /** Max ops queued across the tenant's sessions (quota). */
    size_t maxQueuedOps = 128;
    /** Sustained submit rate in ops per virtual second; 0 = unlimited. */
    uint64_t ratePerSec = 0;
    /** Token-bucket burst size; 0 defaults to ratePerSec (min 1). */
    uint64_t burst = 0;
};

/** Per-tenant admission/completion counters. */
struct TenantStats
{
    uint64_t admitted = 0;      ///< ops accepted into the scheduler
    uint64_t completed = 0;     ///< ops whose completion fired
    uint64_t quotaRejected = 0; ///< QuotaExceeded verdicts
    uint64_t rateRejected = 0;  ///< RateLimited verdicts
    uint64_t shedRejected = 0;  ///< Overloaded (shed) verdicts
    uint64_t sessionsOpened = 0;
};

/** Session broker over a Testbed (see file comment). */
class Broker
{
  public:
    struct Config
    {
        /** Total queued ops (all tenants) that trips shedding. */
        size_t maxTotalQueuedOps = 1024;
        /** Backlog at/below which one shed tenant is readmitted. */
        size_t shedLowWater = 512;
        /** Global cap on concurrently open broker sessions. */
        uint32_t maxTotalSessions = 8;
    };

    using Completion = BatchScheduler::Completion;

    Broker(Testbed &tb, Config config);

    /** Registers a tenant; @return its id (dense, starting at 1). */
    uint32_t registerTenant(const std::string &name, TenantPolicy policy);

    /**
     * Opens a session for the tenant: a fresh user enclave attached
     * to the platform, a scheduler slot at the tenant's weight.
     * @return the session (peer/slot) id.
     * @throws QuotaExceeded when the tenant is at maxSessions,
     *         Overloaded when the global session table is full.
     */
    uint32_t openSession(uint32_t tenant);

    /** Closes a broker session: further submits are refused and the
     *  tenant's session quota slot frees immediately. Ops already
     *  queued still complete (never dropped). */
    void closeSession(uint32_t tenant, uint32_t session);

    /**
     * Admission-controlled submit. Check order (first wall wins):
     * shed membership (Overloaded) → token bucket (RateLimited) →
     * tenant queued-op quota and scheduler queue (QuotaExceeded).
     * `done` fires when the op's burst completes.
     */
    void submit(uint32_t tenant, uint32_t session,
                const regchan::RegOp &op, Completion done = nullptr);

    /**
     * One broker tick: recomputes the shed set from the current
     * backlog (deterministic — shedding changes ONLY here, never
     * mid-submit), then runs one weighted scheduler sweep.
     * @return ops completed.
     */
    size_t pump();

    /** Pumps until the backlog is empty or no progress is made. */
    size_t drainAll();

    // ---- Introspection ---------------------------------------------
    const TenantStats &tenantStats(uint32_t tenant) const;
    /** True while the tenant is in the shed set. */
    bool tenantShed(uint32_t tenant) const;
    /** Ops currently queued for the tenant (across its sessions). */
    size_t queuedFor(uint32_t tenant) const;
    size_t totalQueued() const;
    size_t openSessions() const;
    /** Number of tenants currently shed (0 = fully recovered). */
    size_t shedLevel() const { return shedLevel_; }
    uint32_t tenantCount() const { return uint32_t(tenants_.size()); }

  private:
    struct Tenant
    {
        std::string name;
        TenantPolicy policy;
        TenantStats stats;
        std::vector<uint32_t> sessions; ///< open session ids
        size_t queued = 0;              ///< ops in the scheduler
        // Token bucket (virtual-clock, integer arithmetic only).
        uint64_t tokens = 0;
        sim::Nanos refillAt = 0; ///< clock position of last refill
        bool bucketPrimed = false;
        bool shed = false;
    };

    Tenant &tenantRef(uint32_t tenant);
    const Tenant &tenantRef(uint32_t tenant) const;
    /** Refills and spends one token. @throws RateLimited when dry. */
    void takeToken(uint32_t tenantId, Tenant &t);
    /** Recomputes the shed set from the backlog (pump()-only). */
    void updateShedding();
    ErrorContext policyContext(uint32_t tenant, const char *method) const;

    Testbed &tb_;
    Config config_;
    /** Tenant id -> state; ids are dense from 1. */
    std::map<uint32_t, Tenant> tenants_;
    /** Session id -> owning tenant id. */
    std::map<uint32_t, uint32_t> sessionTenant_;
    /** Sessions closed by the tenant (refuse new submits). */
    std::map<uint32_t, bool> sessionClosed_;
    /** Number of tenants currently shed (prefix of the shed order). */
    size_t shedLevel_ = 0;
};

} // namespace salus::core

#endif // SALUS_SALUS_BROKER_HPP
