#include "salus/supervisor.hpp"

#include "common/log.hpp"
#include "common/serde.hpp"
#include "obs/trace.hpp"

namespace salus::core {

// ---- Fleet wire messages --------------------------------------------

Bytes
HeartbeatRequest::serialize() const
{
    BinaryWriter w;
    w.writeU32(deviceId);
    w.writeU64(nonce);
    return w.take();
}

HeartbeatRequest
HeartbeatRequest::deserialize(ByteView data)
{
    BinaryReader r(data);
    HeartbeatRequest m;
    m.deviceId = r.readU32();
    m.nonce = r.readU64();
    return m;
}

Bytes
HeartbeatResponse::serialize() const
{
    BinaryWriter w;
    w.writeU8(reachable);
    w.writeU8(authentic);
    w.writeU64(count);
    w.writeU64(nonceEcho);
    w.writeString(failure);
    return w.take();
}

HeartbeatResponse
HeartbeatResponse::deserialize(ByteView data)
{
    BinaryReader r(data);
    HeartbeatResponse m;
    m.reachable = r.readU8();
    m.authentic = r.readU8();
    if (m.reachable > 1 || m.authentic > 1)
        throw SerdeError("bad heartbeat flag");
    m.count = r.readU64();
    m.nonceEcho = r.readU64();
    m.failure = r.readString();
    return m;
}

// ---- FleetSupervisor ------------------------------------------------

namespace {

/** Virtual time between two watchdog polls in runFor(). */
constexpr sim::Nanos kProbePeriod = 10 * sim::kMs;

} // namespace

FleetSupervisor::FleetSupervisor(SupervisorDeps deps)
    : deps_(std::move(deps))
{
    trackers_.assign(deps_.deviceCount,
                     fpga::HealthTracker(deps_.health));
    beatFloor_.assign(deps_.deviceCount, 0);
}

void
FleetSupervisor::pollOnce()
{
    obs::Span span(obs::Category::Supervisor, "poll");
    obs::count("supervisor.polls");
    ++polls_;
    sim::Nanos now = deps_.clock.now();
    for (uint32_t d = 0; d < deps_.deviceCount; ++d) {
        fpga::HealthTracker &t = trackers_[d];
        t.tick(now);
        if (t.state() == fpga::HealthState::Quarantined)
            continue; // pulled from service; probation handles return
        if (deps_.injector && deps_.injector->onHeartbeat(d)) {
            t.recordFailure(now, "heartbeat lost in flight");
            continue;
        }
        SmEnclaveApp::HeartbeatResult r = deps_.probe
                                              ? deps_.probe(d)
                                              : SmEnclaveApp::HeartbeatResult{};
        if (r.ok()) {
            // Expected-monotone beat check (active device only —
            // spares answer with count 0 until deployed). The floor
            // survives quarantine and probation reinstatement, so a
            // stale MAC'd heartbeat captured before the quarantine
            // and replayed after reinstatement is still rejected;
            // only a deployment-epoch change (failover/migration)
            // resets it, because redeployment restarts the fabric's
            // counter at 1.
            bool isActive =
                deps_.activeDevice && deps_.activeDevice() == d;
            if (isActive && beatFloor_[d] > 0 &&
                r.count <= beatFloor_[d]) {
                t.recordForgery(now,
                                "stale heartbeat replayed (count " +
                                    std::to_string(r.count) +
                                    " <= floor " +
                                    std::to_string(beatFloor_[d]) +
                                    ")");
                continue;
            }
            if (isActive && r.count > beatFloor_[d])
                beatFloor_[d] = r.count;
            t.recordSuccess(now);
        } else if (r.reachable && !r.authentic) {
            // The device answered but the MAC under Key_attest does
            // not verify: someone between us and the fabric is
            // fabricating liveness. Permanent quarantine.
            t.recordForgery(now, r.failure);
        } else {
            t.recordFailure(now, r.failure);
        }
    }
    maybeFailover();
}

void
FleetSupervisor::runFor(sim::Nanos duration)
{
    sim::Nanos deadline = deps_.clock.now() + duration;
    while (deps_.clock.now() < deadline) {
        deps_.clock.spend("Fleet Heartbeat", kProbePeriod);
        pollOnce();
    }
}

void
FleetSupervisor::noteDeviceFailure(uint32_t deviceId,
                                   const ErrorContext &ctx)
{
    if (deviceId >= trackers_.size())
        return;
    obs::mark(obs::Category::Supervisor, "device_failure",
              uint64_t(deviceId));
    obs::count("supervisor.device_failures");
    sim::Nanos now = deps_.clock.now();
    // Record-only: this is called from inside the SM enclave's
    // request path, where a synchronous failover (which re-runs the
    // whole deployment) would re-enter the channel. The next
    // pollOnce()/guardedOp() acts on the evidence at top level.
    trackers_[deviceId].recordFailure(
        now, ctx.method.empty() ? "retry schedule exhausted"
                                : ctx.method + ": retry schedule "
                                               "exhausted");
}

bool
FleetSupervisor::guardedOp(const std::function<bool()> &op,
                           const std::string &what)
{
    size_t failoversBefore = failovers_.size();
    bool ok = op();
    if (ok)
        return true;
    // The op is evidence of trouble; the SM's onDeviceFailure hook
    // has usually fed the tracker already. Decide failover now.
    maybeFailover();
    if (failovers_.size() > failoversBefore) {
        ErrorContext ctx;
        ctx.method = what;
        ctx.to = "device-" +
                 std::to_string(failovers_.back().fromDevice);
        throw FailoverError(
            "'" + what + "' did not commit: session failed over to "
            "device " + std::to_string(failovers_.back().toDevice) +
            "; the operation is not auto-replayed",
            ctx);
    }
    return false;
}

std::optional<uint32_t>
FleetSupervisor::pickSpare() const
{
    uint32_t active = deps_.activeDevice ? deps_.activeDevice() : 0;
    std::optional<uint32_t> degraded;
    for (uint32_t d = 0; d < deps_.deviceCount; ++d) {
        if (d == active)
            continue;
        switch (trackers_[d].state()) {
          case fpga::HealthState::Healthy:
            return d;
          case fpga::HealthState::Degraded:
          case fpga::HealthState::Probation:
            if (!degraded)
                degraded = d;
            break;
          default:
            break;
        }
    }
    return degraded;
}

void
FleetSupervisor::maybeFailover()
{
    if (failingOver_ || !deps_.activeDevice || !deps_.failover)
        return;
    uint32_t active = deps_.activeDevice();
    if (active >= trackers_.size() ||
        trackers_[active].state() != fpga::HealthState::Quarantined)
        return;

    std::optional<uint32_t> spare = pickSpare();
    if (!spare) {
        logf(LogLevel::Warn, "supervisor",
             "active device ", active,
             " quarantined but no spare remains");
        return;
    }
    std::string reason = trackers_[active].lastReason();
    logf(LogLevel::Info, "supervisor", "failing over ", active, " -> ",
         *spare, ": ", reason);
    obs::Span span(obs::Category::Supervisor, "failover",
                   uint64_t(*spare));
    obs::count("supervisor.failovers");
    sim::Nanos startedAt = deps_.clock.now();
    failingOver_ = true;
    FailoverRecord rec;
    try {
        rec = deps_.failover(active, *spare, reason);
    } catch (...) {
        failingOver_ = false;
        throw;
    }
    failingOver_ = false;
    rec.fromDevice = active;
    rec.toDevice = *spare;
    rec.atNanos = startedAt;
    if (rec.reason.empty())
        rec.reason = reason;
    failovers_.push_back(std::move(rec));
    // The spare was redeployed from scratch: its fabric beat counter
    // restarted, so the old floor would misread beat 1 as a replay.
    resetBeatExpectation(*spare);
}

// ---- Live migration & rolling upgrades ------------------------------

void
FleetSupervisor::resetBeatExpectation(uint32_t deviceId)
{
    if (deviceId < beatFloor_.size())
        beatFloor_[deviceId] = 0;
}

MigrationRecord
FleetSupervisor::migrateActiveTo(uint32_t to, const std::string &reason)
{
    // Every refusal below happens BEFORE the migration machinery
    // touches the scheduler or the enclave: the session keeps serving
    // on the source untouched.
    if (!deps_.activeDevice || !deps_.migrate)
        throw MigrationError("supervisor has no migration wiring");
    if (failingOver_)
        throw MigrationError("failover in progress");
    uint32_t from = deps_.activeDevice();
    if (to == from)
        throw MigrationError("target " + std::to_string(to) +
                             " is already the active device");
    if (to >= trackers_.size())
        throw MigrationError("no such device " + std::to_string(to));
    if (trackers_[to].state() == fpga::HealthState::Quarantined)
        throw MigrationError("target device " + std::to_string(to) +
                             " is quarantined");

    logf(LogLevel::Info, "supervisor", "migrating ", from, " -> ", to,
         ": ", reason);
    obs::Span span(obs::Category::Supervisor, "migration",
                   uint64_t(to));
    obs::count("supervisor.migrations");
    sim::Nanos startedAt = deps_.clock.now();
    failingOver_ = true;
    MigrationRecord rec;
    try {
        rec = deps_.migrate(from, to, reason);
    } catch (...) {
        failingOver_ = false;
        throw;
    }
    failingOver_ = false;
    rec.fromDevice = from;
    rec.toDevice = to;
    rec.atNanos = startedAt;
    if (rec.reason.empty())
        rec.reason = reason;
    // Fresh deployment epoch on the target: its beat counter
    // restarted at 1.
    resetBeatExpectation(to);
    migrations_.push_back(rec);
    return migrations_.back();
}

bool
FleetSupervisor::drainForUpgrade(uint32_t device,
                                 const std::string &reason)
{
    if (device >= trackers_.size())
        throw MigrationError("no such device " +
                             std::to_string(device));

    // Target check FIRST: at least one other in-service device must
    // remain, or nothing is touched.
    std::optional<uint32_t> target;
    for (uint32_t d = 0; d < trackers_.size() && !target; ++d)
        if (d != device &&
            trackers_[d].state() != fpga::HealthState::Quarantined)
            target = d;
    if (!target)
        throw MigrationError("no device left to take over from device " +
                             std::to_string(device) +
                             "; it stays in service");

    obs::Span span(obs::Category::Supervisor, "upgrade_drain",
                   uint64_t(device));
    obs::count("supervisor.upgrade_drains");

    // The active session moves first (the expensive, fallible part);
    // a failure rethrows with the session still serving on the source.
    bool moved = deps_.activeDevice && deps_.activeDevice() == device;
    if (moved)
        migrateActiveTo(*target, reason);

    // Hold the device out of service until the operator finishes the
    // upgrade; tick() will not offer probation during maintenance.
    sim::Nanos now = deps_.clock.now();
    trackers_[device].beginMaintenance(now, reason);
    return moved;
}

void
FleetSupervisor::completeUpgrade(uint32_t device)
{
    if (device >= trackers_.size())
        return;
    sim::Nanos now = deps_.clock.now();
    trackers_[device].endMaintenance(now);
}

} // namespace salus::core
