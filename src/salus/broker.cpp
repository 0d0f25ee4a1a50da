#include "salus/broker.hpp"

#include <algorithm>

#include "obs/trace.hpp"

namespace salus::core {

namespace {

void
countTenant(uint32_t id, const char *counter, uint64_t delta = 1)
{
    if (auto *m = obs::metrics())
        m->add("broker.tenant" + std::to_string(id) + "." + counter,
               delta);
}

} // namespace

Broker::Broker(Testbed &tb, Config config)
    : tb_(tb), config_(config)
{
    config_.maxTotalQueuedOps =
        std::max<size_t>(1, config_.maxTotalQueuedOps);
    config_.shedLowWater =
        std::min(config_.shedLowWater, config_.maxTotalQueuedOps - 1);
    config_.maxTotalSessions =
        std::max<uint32_t>(1, config_.maxTotalSessions);
}

uint32_t
Broker::registerTenant(const std::string &name, TenantPolicy policy)
{
    policy.weight = std::clamp<uint32_t>(policy.weight, 1,
                                         kMaxSessionWeight);
    policy.maxSessions = std::max<uint32_t>(1, policy.maxSessions);
    policy.maxQueuedOps = std::max<size_t>(1, policy.maxQueuedOps);
    uint32_t id = uint32_t(tenants_.size()) + 1;
    Tenant t;
    t.name = name;
    t.policy = policy;
    tenants_.emplace(id, std::move(t));
    obs::count("broker.tenants_registered");
    return id;
}

Broker::Tenant &
Broker::tenantRef(uint32_t tenant)
{
    auto it = tenants_.find(tenant);
    if (it == tenants_.end())
        throw SalusError("broker: unknown tenant " +
                         std::to_string(tenant));
    return it->second;
}

const Broker::Tenant &
Broker::tenantRef(uint32_t tenant) const
{
    auto it = tenants_.find(tenant);
    if (it == tenants_.end())
        throw SalusError("broker: unknown tenant " +
                         std::to_string(tenant));
    return it->second;
}

ErrorContext
Broker::policyContext(uint32_t tenant, const char *method) const
{
    return ErrorContext{"tenant-" + std::to_string(tenant), "broker",
                        method, 0};
}

uint32_t
Broker::openSession(uint32_t tenant)
{
    Tenant &t = tenantRef(tenant);
    obs::Span span(obs::Category::Scheduler, "broker_open_session",
                   uint64_t(tenant));
    if (t.sessions.size() >= t.policy.maxSessions) {
        ++t.stats.quotaRejected;
        obs::count("broker.quota_rejected");
        countTenant(tenant, "quota_rejected");
        throw QuotaExceeded("tenant '" + t.name + "' at max sessions (" +
                                std::to_string(t.policy.maxSessions) +
                                ")",
                            policyContext(tenant, "open-session"));
    }
    if (openSessions() >= config_.maxTotalSessions) {
        ++t.stats.shedRejected;
        obs::count("broker.overloaded_rejected");
        countTenant(tenant, "shed_rejected");
        throw Overloaded("session table full (" +
                             std::to_string(config_.maxTotalSessions) +
                             " open)",
                         policyContext(tenant, "open-session"));
    }
    uint32_t peer = tb_.addUserSession();
    if (!tb_.userApp(peer).attachToPlatform())
        throw SalusError("broker: session " + std::to_string(peer) +
                         " failed to attach to the platform");
    tb_.scheduler().setWeight(peer, t.policy.weight);
    t.sessions.push_back(peer);
    ++t.stats.sessionsOpened;
    sessionTenant_[peer] = tenant;
    sessionClosed_[peer] = false;
    obs::count("broker.sessions_opened");
    countTenant(tenant, "sessions_opened");
    return peer;
}

void
Broker::closeSession(uint32_t tenant, uint32_t session)
{
    Tenant &t = tenantRef(tenant);
    auto owner = sessionTenant_.find(session);
    if (owner == sessionTenant_.end() || owner->second != tenant)
        throw SalusError("broker: session " + std::to_string(session) +
                         " is not open for tenant " +
                         std::to_string(tenant));
    auto it = std::find(t.sessions.begin(), t.sessions.end(), session);
    if (it == t.sessions.end())
        throw SalusError("broker: session " + std::to_string(session) +
                         " already closed");
    t.sessions.erase(it);
    sessionClosed_[session] = true;
    obs::count("broker.sessions_closed");
}

void
Broker::takeToken(uint32_t tenantId, Tenant &t)
{
    if (t.policy.ratePerSec == 0)
        return; // unlimited
    uint64_t burst = t.policy.burst ? t.policy.burst
                                    : std::max<uint64_t>(
                                          1, t.policy.ratePerSec);
    // Integer-only refill: one token every tokenCostNs of virtual
    // time, with the refill origin advanced in whole-token steps so
    // no fractional time is ever lost or double counted.
    uint64_t tokenCostNs =
        std::max<uint64_t>(1, uint64_t(sim::kSec) / t.policy.ratePerSec);
    sim::Nanos now = tb_.clock().now();
    if (!t.bucketPrimed) {
        t.tokens = burst;
        t.refillAt = now;
        t.bucketPrimed = true;
    } else if (now > t.refillAt) {
        uint64_t earned = (now - t.refillAt) / tokenCostNs;
        if (earned > 0) {
            t.tokens = std::min(burst, t.tokens + earned);
            t.refillAt += earned * tokenCostNs;
        }
    }
    if (t.tokens == 0) {
        ++t.stats.rateRejected;
        obs::count("broker.rate_rejected");
        countTenant(tenantId, "rate_rejected");
        throw RateLimited("tenant '" + t.name + "' exceeded " +
                              std::to_string(t.policy.ratePerSec) +
                              " ops/s",
                          policyContext(tenantId, "submit"));
    }
    --t.tokens;
}

void
Broker::submit(uint32_t tenant, uint32_t session,
               const regchan::RegOp &op, Completion done)
{
    Tenant &t = tenantRef(tenant);
    auto owner = sessionTenant_.find(session);
    if (owner == sessionTenant_.end() || owner->second != tenant ||
        sessionClosed_.at(session))
        throw SalusError("broker: session " + std::to_string(session) +
                         " is not open for tenant " +
                         std::to_string(tenant));

    // Check order matters: a shed tenant must not burn rate tokens on
    // requests that were never admissible, and a rate-limited tenant
    // must not learn quota state it cannot use.
    if (t.shed) {
        ++t.stats.shedRejected;
        obs::count("broker.overloaded_rejected");
        countTenant(tenant, "shed_rejected");
        throw Overloaded("tenant '" + t.name +
                             "' shed under overload (backlog " +
                             std::to_string(totalQueued()) + ")",
                         policyContext(tenant, "submit"));
    }
    takeToken(tenant, t);
    if (t.queued >= t.policy.maxQueuedOps) {
        ++t.stats.quotaRejected;
        obs::count("broker.quota_rejected");
        countTenant(tenant, "quota_rejected");
        throw QuotaExceeded(
            "tenant '" + t.name + "' at max queued ops (" +
                std::to_string(t.policy.maxQueuedOps) + ")",
            policyContext(tenant, "submit"));
    }

    // Wrap the completion so tenant accounting tracks the op across
    // the scheduler (the broker never drops an admitted op: even a
    // failed-over completion flows back through here).
    Completion wrapped = [this, tenant,
                          done = std::move(done)](uint8_t status,
                                                  uint64_t data) {
        auto it = tenants_.find(tenant);
        if (it != tenants_.end()) {
            if (it->second.queued > 0)
                --it->second.queued;
            ++it->second.stats.completed;
        }
        if (done)
            done(status, data);
    };

    BatchScheduler::Submit verdict =
        tb_.scheduler().submit(session, op, std::move(wrapped));
    switch (verdict) {
      case BatchScheduler::Submit::Accepted:
        ++t.queued;
        ++t.stats.admitted;
        obs::count("broker.admitted");
        countTenant(tenant, "admitted");
        return;
      case BatchScheduler::Submit::Backpressure:
        ++t.stats.quotaRejected;
        obs::count("broker.quota_rejected");
        countTenant(tenant, "quota_rejected");
        throw QuotaExceeded("session " + std::to_string(session) +
                                " queue full",
                            policyContext(tenant, "submit"));
      case BatchScheduler::Submit::UnknownSession:
        break;
    }
    throw SalusError("broker: scheduler lost session " +
                     std::to_string(session));
}

void
Broker::updateShedding()
{
    size_t backlog = totalQueued();
    size_t before = shedLevel_;
    if (backlog >= config_.maxTotalQueuedOps &&
        shedLevel_ < tenants_.size()) {
        ++shedLevel_;
        obs::count("broker.shed_level_up");
    } else if (backlog <= config_.shedLowWater && shedLevel_ > 0) {
        --shedLevel_;
        obs::count("broker.shed_level_down");
    }
    if (shedLevel_ == before && backlog < config_.maxTotalQueuedOps)
        return;

    // Shed order: lowest weight first (the cheapest QoS promise is
    // broken first), newest tenant first on ties — deterministic by
    // construction, no wall-clock or hash order anywhere.
    std::vector<std::pair<uint32_t, Tenant *>> order;
    order.reserve(tenants_.size());
    for (auto &[id, t] : tenants_)
        order.push_back({id, &t});
    std::sort(order.begin(), order.end(),
              [](const auto &a, const auto &b) {
                  if (a.second->policy.weight != b.second->policy.weight)
                      return a.second->policy.weight <
                             b.second->policy.weight;
                  return a.first > b.first;
              });
    for (size_t i = 0; i < order.size(); ++i)
        order[i].second->shed = i < shedLevel_;
}

size_t
Broker::pump()
{
    obs::Span span(obs::Category::Scheduler, "broker_pump");
    updateShedding();
    return tb_.scheduler().pumpOnce();
}

size_t
Broker::drainAll()
{
    size_t completed = 0;
    while (totalQueued() > 0) {
        size_t n = pump();
        completed += n;
        if (n == 0)
            break; // quiesced or fully backpressured — never spin
    }
    // A drained backlog readmits everyone on the next ticks; finish
    // the recovery here so callers observe a clean steady state.
    while (shedLevel_ > 0 && totalQueued() <= config_.shedLowWater)
        updateShedding();
    return completed;
}

const TenantStats &
Broker::tenantStats(uint32_t tenant) const
{
    return tenantRef(tenant).stats;
}

bool
Broker::tenantShed(uint32_t tenant) const
{
    return tenantRef(tenant).shed;
}

size_t
Broker::queuedFor(uint32_t tenant) const
{
    return tenantRef(tenant).queued;
}

size_t
Broker::totalQueued() const
{
    size_t total = 0;
    for (const auto &[id, t] : tenants_)
        total += t.queued;
    return total;
}

size_t
Broker::openSessions() const
{
    size_t total = 0;
    for (const auto &[id, t] : tenants_)
        total += t.sessions.size();
    return total;
}

} // namespace salus::core
