#include "salus/scheduler.hpp"

#include <algorithm>

#include "common/errors.hpp"
#include "obs/trace.hpp"

namespace salus::core {

namespace {

/** Bulk DMA jobs a session may hold queued before submitDma()
 *  refuses (each job can be megabytes, so the bound is much tighter
 *  than the register-op queue's). */
constexpr size_t kDmaQueueCapacity = 8;

} // namespace

BatchScheduler::BatchScheduler(Dispatch dispatch)
    : BatchScheduler(std::move(dispatch), Config())
{
}

BatchScheduler::BatchScheduler(Dispatch dispatch, Config config)
    : dispatch_(std::move(dispatch)), config_(config)
{
    config_.queueCapacity = std::max<size_t>(1, config_.queueCapacity);
    config_.maxBatchOps = std::max<size_t>(1, config_.maxBatchOps);
}

void
BatchScheduler::addSession(uint32_t session, uint32_t weight)
{
    auto [it, inserted] = sessions_.try_emplace(session);
    if (inserted)
        it->second.weight =
            std::clamp<uint32_t>(weight, 1, kMaxSessionWeight);
}

void
BatchScheduler::setWeight(uint32_t session, uint32_t weight)
{
    auto it = sessions_.find(session);
    if (it == sessions_.end())
        return;
    it->second.weight =
        std::clamp<uint32_t>(weight, 1, kMaxSessionWeight);
}

uint32_t
BatchScheduler::weightOf(uint32_t session) const
{
    auto it = sessions_.find(session);
    return it == sessions_.end() ? 0 : it->second.weight;
}

uint32_t
BatchScheduler::totalWeight() const
{
    uint32_t total = 0;
    for (const auto &[id, s] : sessions_)
        total += s.weight;
    return total;
}

void
BatchScheduler::countSession(uint32_t id, const char *counter,
                             uint64_t delta)
{
    if (auto *m = obs::metrics())
        m->add("scheduler.session" + std::to_string(id) + "." + counter,
               delta);
}

BatchScheduler::Submit
BatchScheduler::submit(uint32_t session, const regchan::RegOp &op,
                       Completion done)
{
    auto it = sessions_.find(session);
    if (it == sessions_.end())
        return Submit::UnknownSession;
    Session &s = it->second;
    if (s.queue.size() >= config_.queueCapacity) {
        ++stats_.rejectedBackpressure;
        ++s.stats.rejectedBackpressure;
        obs::count("scheduler.backpressure");
        countSession(session, "backpressure");
        return Submit::Backpressure;
    }
    s.queue.push_back({op, std::move(done)});
    ++stats_.submitted;
    ++s.stats.submitted;
    stats_.maxDepth = std::max(stats_.maxDepth, s.queue.size());
    s.stats.maxDepth = std::max(s.stats.maxDepth, s.queue.size());
    return Submit::Accepted;
}

void
BatchScheduler::setDmaDispatch(DmaDispatch dispatch)
{
    dmaDispatch_ = std::move(dispatch);
}

BatchScheduler::Submit
BatchScheduler::submitDma(uint32_t session, DmaJob job)
{
    auto it = sessions_.find(session);
    if (it == sessions_.end())
        return Submit::UnknownSession;
    Session &s = it->second;
    if (!dmaDispatch_ || s.dmaQueue.size() >= kDmaQueueCapacity) {
        ++stats_.rejectedBackpressure;
        ++s.stats.rejectedBackpressure;
        obs::count("scheduler.dma_backpressure");
        countSession(session, "dma_backpressure");
        return Submit::Backpressure;
    }
    s.dmaQueue.push_back(std::move(job));
    ++stats_.submitted;
    ++s.stats.submitted;
    return Submit::Accepted;
}

size_t
BatchScheduler::dispatchDmaJob(uint32_t id, Session &s)
{
    if (s.dmaQueue.empty() || !dmaDispatch_)
        return 0;
    obs::Span slice(obs::Category::Scheduler, "dma_slice",
                    uint64_t(id));
    dmachan::DmaTransferReport report;
    try {
        report = dmaDispatch_(id, s.dmaQueue.front());
    } catch (const FailoverError &) {
        // Same contract as a failed-over burst: the in-flight job
        // gets the typed status (never blind-retried), queued jobs
        // survive for the next sweep against the new device.
        DmaJob job = std::move(s.dmaQueue.front());
        s.dmaQueue.pop_front();
        report.status = kBatchStatusFailedOver;
        if (job.done)
            job.done(report);
        ++stats_.dmaJobs;
        ++s.stats.dmaJobs;
        throw;
    }
    DmaJob job = std::move(s.dmaQueue.front());
    s.dmaQueue.pop_front();
    ++stats_.dmaJobs;
    ++s.stats.dmaJobs;
    stats_.dmaBytes += report.bytes;
    s.stats.dmaBytes += report.bytes;
    obs::count("scheduler.dma_jobs");
    countSession(id, "dma_jobs");
    if (job.done)
        job.done(report);
    return 1;
}

size_t
BatchScheduler::dispatchSlice(uint32_t id, Session &s)
{
    // The slice spends this session's DRR credit, capped by what is
    // queued and by the wire format's burst limit. With weight 1 the
    // credit is exactly maxBatchOps and never carries, reproducing
    // the original round-robin slice sizes bit for bit.
    size_t n = std::min(
        std::min(s.queue.size(), size_t(s.deficit)),
        size_t(regchan::kMaxBatchOps));
    obs::Span slice(obs::Category::Scheduler, "session_slice",
                    uint64_t(id));
    obs::observe("scheduler.slice_ops", n);
    std::vector<regchan::RegOp> ops;
    ops.reserve(n);
    for (size_t i = 0; i < n; ++i)
        ops.push_back(s.queue[i].op);

    sim::Nanos sliceStart =
        config_.clock ? config_.clock->now() : sim::Nanos(0);
    std::vector<regchan::BatchResult> results;
    try {
        results = dispatch_(id, ops);
    } catch (const FailoverError &) {
        // The supervisor failed the pool over mid-burst. The ops
        // in flight get the typed failed-over status (exactly-once
        // -or-typed-error: we never blind-retry them); everything
        // still queued survives for the next sweep.
        for (size_t i = 0; i < n; ++i) {
            Pending p = std::move(s.queue.front());
            s.queue.pop_front();
            if (p.done)
                p.done(kBatchStatusFailedOver, 0);
        }
        stats_.failedOverOps += n;
        s.stats.failedOverOps += n;
        s.deficit = s.queue.empty() ? 0 : s.deficit - n;
        s.stats.maxSweepsWaited =
            std::max(s.stats.maxSweepsWaited, s.stats.sweepsWaiting);
        s.stats.sweepsWaiting = 0;
        throw;
    }
    // DispatchBackpressure propagates with the queue AND the granted
    // deficit untouched: the burst never executed, so the same ops
    // retry later verbatim with the same credit.

    for (size_t i = 0; i < n; ++i) {
        Pending p = std::move(s.queue.front());
        s.queue.pop_front();
        uint8_t st = i < results.size() ? results[i].status : 0xfc;
        uint64_t data = i < results.size() ? results[i].data : 0;
        if (p.done)
            p.done(st, data);
    }
    ++stats_.dispatchedBatches;
    stats_.dispatchedOps += n;
    ++s.stats.dispatchedBatches;
    s.stats.dispatchedOps += n;
    // Carry credit only while the burst cap cut the slice short; a
    // drained queue forfeits it (classic DRR anti-hoarding rule).
    s.deficit = s.queue.empty() ? 0 : s.deficit - n;
    if (config_.clock)
        s.stats.sliceNanosLast = config_.clock->now() - sliceStart;
    // Service received: close out the starvation-bound accounting.
    s.stats.maxSweepsWaited =
        std::max(s.stats.maxSweepsWaited, s.stats.sweepsWaiting);
    s.stats.sweepsWaiting = 0;
    return n;
}

size_t
BatchScheduler::pumpOnce()
{
    if (parked_)
        return 0; // quiesced for a live migration
    obs::Span span(obs::Category::Scheduler, "sweep");
    // Snapshot the sweep order starting at the cursor: every session
    // gets one slice per sweep, and the cursor rotates so ties (who
    // goes first) are shared round-robin.
    std::vector<uint32_t> order;
    order.reserve(sessions_.size());
    for (auto it = sessions_.lower_bound(cursor_); it != sessions_.end();
         ++it)
        order.push_back(it->first);
    for (auto it = sessions_.begin();
         it != sessions_.end() && it->first < cursor_; ++it)
        order.push_back(it->first);
    if (!order.empty())
        cursor_ = order.front() + 1;

    size_t completed = 0;
    std::vector<uint32_t> backpressured;
    for (uint32_t id : order) {
        Session &s = sessions_.at(id);
        if (s.queue.empty()) {
            // An idle visit forfeits any carried credit and clears
            // the waiting counter — only BACKLOGGED sweeps count
            // toward the starvation bound.
            s.deficit = 0;
            s.stats.sweepsWaiting = 0;
            continue;
        }
        // Grant this sweep's quantum: weight * maxBatchOps op
        // credits, with carry-over bounded to one extra quantum so a
        // long-idle heavy session cannot hoard a mega-burst.
        ++s.stats.sweepsWaiting;
        uint64_t quantum = uint64_t(s.weight) * config_.maxBatchOps;
        s.deficit = std::min(s.deficit + quantum, 2 * quantum);
        try {
            completed += dispatchSlice(id, s);
        } catch (const DispatchBackpressure &) {
            ++stats_.dispatchBackpressure;
            ++s.stats.dispatchBackpressure;
            obs::count("scheduler.dispatch_backpressure");
            countSession(id, "dispatch_backpressure");
            backpressured.push_back(id);
        }
    }

    // Retry each refused slice exactly once, after the rest of the
    // sweep drained: a transient refusal costs a session its place in
    // line, not the whole sweep — its own later ops aren't starved by
    // its earlier burst.
    for (uint32_t id : backpressured) {
        Session &s = sessions_.at(id);
        if (s.queue.empty())
            continue;
        ++stats_.retriedSlices;
        ++s.stats.retriedSlices;
        obs::count("scheduler.retried_slices");
        countSession(id, "retried_slices");
        try {
            completed += dispatchSlice(id, s);
        } catch (const DispatchBackpressure &) {
            ++stats_.dispatchBackpressure;
            ++s.stats.dispatchBackpressure;
            countSession(id, "dispatch_backpressure");
            // Still refused: the ops stay queued for the next sweep.
        }
    }

    // Bulk lane: one DMA job per backlogged session per sweep, after
    // every register slice — register traffic is never stuck behind a
    // megabyte transfer, and a session's bulk queue still advances
    // every sweep.
    for (uint32_t id : order)
        completed += dispatchDmaJob(id, sessions_.at(id));
    return completed;
}

size_t
BatchScheduler::drain()
{
    size_t completed = 0;
    while (totalQueued() > 0) {
        size_t n = pumpOnce();
        completed += n;
        if (n == 0)
            break; // quiesced or fully backpressured — never spin
    }
    return completed;
}

size_t
BatchScheduler::quiesce()
{
    parked_ = true;
    obs::count("scheduler.quiesce");
    return totalQueued();
}

void
BatchScheduler::release()
{
    parked_ = false;
    obs::count("scheduler.release");
}

size_t
BatchScheduler::totalQueued() const
{
    size_t total = 0;
    for (const auto &[id, s] : sessions_)
        total += s.queue.size() + s.dmaQueue.size();
    return total;
}

const BatchScheduler::SessionStats &
BatchScheduler::sessionStats(uint32_t session) const
{
    static const SessionStats kEmpty;
    auto it = sessions_.find(session);
    return it == sessions_.end() ? kEmpty : it->second.stats;
}

uint64_t
BatchScheduler::dispatchedFor(uint32_t session) const
{
    auto it = sessions_.find(session);
    return it == sessions_.end() ? 0 : it->second.stats.dispatchedOps;
}

} // namespace salus::core
