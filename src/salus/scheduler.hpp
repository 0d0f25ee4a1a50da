/**
 * @file
 * Multi-session batch scheduler (extension): multiplexes many user
 * sessions over the SM enclave's batched secure register channel.
 *
 * Each session owns a bounded submission queue (per-session
 * backpressure: a full queue refuses new ops instead of letting one
 * tenant starve the pool) and a WEIGHT. A pump sweep drains every
 * backlogged session in weighted deficit-round-robin order: per
 * sweep, session i earns a quantum of `weight_i * maxBatchOps` op
 * credits, spends them on one burst (capped by the wire-format burst
 * limit), and carries unspent credit over ONLY while the burst cap —
 * not a short queue — cut its service. With every weight at 1 the
 * sweep is bit-for-bit the original rotating round-robin (the
 * regression tests pin this), and the starvation bound holds by
 * construction: any backlogged session is served every sweep, far
 * inside the contractual W_total/w_i sweeps the tests assert.
 *
 * Failover semantics are inherited from the supervisor's guarded
 * dispatch: when the dispatch function throws FailoverError, the ops
 * that were in flight complete with kBatchStatusFailedOver (a typed
 * error — never silently retried, so an op is executed at most once),
 * the remaining queued ops survive for the next sweep against the
 * failed-over device, and the error propagates to the caller.
 */

#ifndef SALUS_SALUS_SCHEDULER_HPP
#define SALUS_SALUS_SCHEDULER_HPP

#include <deque>
#include <functional>
#include <map>
#include <vector>

#include "common/errors.hpp"
#include "salus/dma_channel.hpp"
#include "salus/reg_channel.hpp"
#include "sim/clock.hpp"

namespace salus::core {

/** Per-op status reported when a failover interrupted the burst the
 *  op was dispatched in. The op may or may not have executed on the
 *  dead device; the caller decides whether to resubmit. */
constexpr uint8_t kBatchStatusFailedOver = 0xfa;

/** Largest weight a session may carry (keeps one tenant's quantum
 *  from dwarfing the sweep and the deficit arithmetic bounded). */
constexpr uint32_t kMaxSessionWeight = 64;

/**
 * Thrown by a Dispatch function that temporarily cannot take the
 * burst (downstream buffer full, device saturated). The burst was NOT
 * executed: the scheduler leaves the session's queue intact and
 * retries the slice once after the other sessions' slices of the same
 * sweep complete, so a hot session's own later ops are not starved
 * for a whole sweep by one transient refusal.
 */
class DispatchBackpressure : public SalusError
{
  public:
    explicit DispatchBackpressure(const std::string &what)
        : SalusError("dispatch backpressure: " + what)
    {}
};

/** Weighted deficit-round-robin dispatcher over per-session queues. */
class BatchScheduler
{
  public:
    struct Config
    {
        /** Ops a session may hold queued before submit() refuses. */
        size_t queueCapacity = 256;
        /** Op credits one WEIGHT UNIT earns per sweep (so a session's
         *  per-sweep quantum is weight * maxBatchOps). */
        size_t maxBatchOps = 32;
        /** Optional virtual clock; when set, per-session slice
         *  latency is stamped into SessionStats (QoS benches). */
        sim::VirtualClock *clock = nullptr;
    };

    enum class Submit {
        Accepted,
        Backpressure,   ///< session queue full — try again after a pump
        UnknownSession, ///< session id never added
    };

    /** Completion callback: (status, read data). */
    using Completion = std::function<void(uint8_t, uint64_t)>;
    /** Burst dispatch: (session slot, ops) -> one result per op. May
     *  throw FailoverError (supervisor-guarded path). */
    using Dispatch = std::function<std::vector<regchan::BatchResult>(
        uint32_t, const std::vector<regchan::RegOp> &)>;

    /** One bulk transfer through the secure DMA plane. */
    struct DmaJob
    {
        uint64_t addr = 0; ///< device-DRAM destination
        Bytes data;        ///< payload to move
        size_t windowSize = 8;
        std::function<void(const dmachan::DmaTransferReport &)> done;
    };
    /** DMA dispatch: (session slot, job) -> transfer report. May throw
     *  FailoverError (supervisor-guarded path). */
    using DmaDispatch =
        std::function<dmachan::DmaTransferReport(uint32_t,
                                                 const DmaJob &)>;

    struct Stats
    {
        uint64_t submitted = 0;
        uint64_t rejectedBackpressure = 0;
        uint64_t dispatchedBatches = 0;
        uint64_t dispatchedOps = 0;
        uint64_t failedOverOps = 0;
        uint64_t dispatchBackpressure = 0; ///< slices refused downstream
        uint64_t retriedSlices = 0; ///< end-of-sweep retries attempted
        size_t maxDepth = 0; ///< deepest any session queue ever got
        uint64_t dmaJobs = 0;  ///< DMA transfers dispatched
        uint64_t dmaBytes = 0; ///< payload bytes moved over DMA
    };

    /** Per-session counters (noisy-neighbour visibility: which tenant
     *  is eating the pressure, not just that someone is). Mirrored
     *  into MetricsRegistry as `scheduler.session<id>.<counter>`. */
    struct SessionStats
    {
        uint64_t submitted = 0;
        uint64_t rejectedBackpressure = 0; ///< submit() refusals
        uint64_t dispatchedOps = 0;
        uint64_t dispatchedBatches = 0;
        uint64_t failedOverOps = 0;
        uint64_t dispatchBackpressure = 0; ///< slices refused downstream
        uint64_t retriedSlices = 0; ///< end-of-sweep retries attempted
        size_t maxDepth = 0;
        /** Consecutive sweeps this session has sat backlogged without
         *  receiving service (live value; reset on service). */
        uint64_t sweepsWaiting = 0;
        /** Worst backlogged-sweeps-before-service ever observed; 1 =
         *  always served in the same sweep it waited in. This is the
         *  starvation-bound witness: contractually bounded by
         *  ceil(W_total / w_i) under any submit pattern. */
        uint64_t maxSweepsWaited = 0;
        /** Virtual duration of the last dispatched slice (needs
         *  Config::clock; 0 otherwise). */
        uint64_t sliceNanosLast = 0;
        uint64_t dmaJobs = 0;  ///< DMA transfers dispatched
        uint64_t dmaBytes = 0; ///< payload bytes moved over DMA
    };

    explicit BatchScheduler(Dispatch dispatch);
    BatchScheduler(Dispatch dispatch, Config config);

    /** Registers a session (fabric slot) with a DRR weight. Idempotent
     *  on the session id; re-adding never resets queue or stats. */
    void addSession(uint32_t session, uint32_t weight = 1);

    /** Adjusts a session's weight (clamped to [1, kMaxSessionWeight]);
     *  takes effect at the next sweep's credit grant. */
    void setWeight(uint32_t session, uint32_t weight);
    uint32_t weightOf(uint32_t session) const;
    /** Sum of all registered sessions' weights (W_total). */
    uint32_t totalWeight() const;

    /** Enqueues one op; `done` fires when its burst completes. */
    Submit submit(uint32_t session, const regchan::RegOp &op,
                  Completion done);

    /** Installs the DMA dispatch path; submitDma() refuses with
     *  Backpressure until one is set. */
    void setDmaDispatch(DmaDispatch dispatch);
    /** Enqueues one bulk DMA job; `job.done` fires with the transfer
     *  report when its sweep dispatches it. */
    Submit submitDma(uint32_t session, DmaJob job);

    /**
     * One weighted sweep: every backlogged session earns its quantum
     * (weight * maxBatchOps op credits, plus any burst-cap carry) and
     * gets one burst spending them. The starting session rotates
     * between sweeps so no session wins every tie. A slice refused
     * with DispatchBackpressure keeps its queue intact and is retried
     * exactly once after every other session's slice completes.
     *
     * After the register slices, every backlogged session dispatches
     * at most ONE queued DMA job — bulk transfers ride the same sweep
     * without starving register traffic (which always goes first) and
     * without being starved (every sweep services one job per
     * session).
     * Returns 0 immediately while the scheduler is quiesced.
     * @return ops completed (including failed-over ones).
     * @throws FailoverError after completing in-flight ops with
     *         kBatchStatusFailedOver; queued ops survive.
     */
    size_t pumpOnce();

    /** Pumps until every queue is empty, or until a full sweep makes
     *  no progress (quiesced, or every session backpressured) — never
     *  spins. @return ops completed. */
    size_t drain();

    // ---- Migration quiesce (fleet extension) ------------------------
    /**
     * Parks the scheduler for a live migration: pumpOnce/drain stop
     * dispatching (no new bursts reach the old device) while submit()
     * keeps accepting into the bounded queues, so callers just see
     * ordinary backpressure once the queues fill.
     * @return ops left parked in the queues.
     */
    size_t quiesce();
    /** Releases a quiesced scheduler; parked ops flow on the next
     *  pump (against the migrated-to device). */
    void release();
    bool parked() const { return parked_; }

    size_t totalQueued() const;
    const Stats &stats() const { return stats_; }
    /** Per-session counters (empty defaults for unknown sessions). */
    const SessionStats &sessionStats(uint32_t session) const;
    /** Ops dispatched for one session (fairness assertions). */
    uint64_t dispatchedFor(uint32_t session) const;

  private:
    struct Pending
    {
        regchan::RegOp op;
        Completion done;
    };
    struct Session
    {
        std::deque<Pending> queue;
        std::deque<DmaJob> dmaQueue;
        uint32_t weight = 1;
        /** DRR op credits left from earlier sweeps (nonzero only when
         *  the burst cap — not queue shortage — cut a slice short). */
        uint64_t deficit = 0;
        SessionStats stats;
    };

    /** Dispatches one slice for `id`. @return ops completed.
     *  FailoverError completes in-flight ops and propagates;
     *  DispatchBackpressure leaves the queue intact and propagates. */
    size_t dispatchSlice(uint32_t id, Session &s);
    /** Dispatches one queued DMA job for `id`. @return jobs (0/1).
     *  FailoverError completes the job with a failed-over report and
     *  propagates. */
    size_t dispatchDmaJob(uint32_t id, Session &s);

    /** Mirrors a per-session counter into the metrics registry. */
    static void countSession(uint32_t id, const char *counter,
                             uint64_t delta = 1);

    Dispatch dispatch_;
    DmaDispatch dmaDispatch_;
    Config config_;
    /** Ordered by session id; the sweep rotates over this map. */
    std::map<uint32_t, Session> sessions_;
    /** Session id the next sweep starts at (fair tie-breaking). */
    uint32_t cursor_ = 0;
    bool parked_ = false; ///< quiesced for a live migration
    Stats stats_;
};

} // namespace salus::core

#endif // SALUS_SALUS_SCHEDULER_HPP
