/**
 * @file
 * Implementation of the verbs layer.
 */

#include "verbs/verbs.hpp"

#include <algorithm>

namespace smart::verbs {

namespace {

/** Doorbells reserved as dedicated low-latency UARs (mlx5 default). */
constexpr std::uint32_t kNumLow = rnic::kNumLowLatencyUars;

} // namespace

Task
Cq::pollUntil(SimThread &thr, const bool &done)
{
    std::uint64_t delivered_at_entry = delivered_;
    while (!done)
        co_await parkForEntry();
    std::uint64_t consumed = delivered_ - delivered_at_entry;
    co_await chargePoll(
        thr, static_cast<std::uint32_t>(std::min<std::uint64_t>(consumed,
                                                                256)));
}

void
Cq::PollCharge::await_suspend(std::coroutine_handle<> h)
{
    h_ = h;
    if (thr_.cpu().tryAcquire())
        cpuHeld();
    else
        thr_.cpu().enqueue([this] { cpuHeld(); });
}

void
Cq::PollCharge::cpuHeld()
{
    if (cq_.lock_.tryAcquire())
        lockHeld();
    else
        cq_.lock_.enqueue([this] { lockHeld(); });
}

void
Cq::PollCharge::lockHeld()
{
    Time penalty = rnic::kLockBaseNs + lockHoldPenalty(cq_.cfg_, cq_.lock_);
    cq_.sim_.schedule(penalty + rnic::kCqePollNs * ncqes_, [this] {
        cq_.lock_.release();
        thr_.cpu().release();
        h_.resume();
    });
}

Qp::Qp(Context &ctx, Cq &cq, Rnic *target, Uar *uar)
    : ctx_(ctx), cq_(&cq), target_(target), uar_(uar),
      qpLock_(ctx.sim(), 1, "qp"), boundEpoch_(ctx.rnic().epoch()),
      reconnectWaiters_(ctx.sim())
{
    uar_->boundQps++;
}

bool
Qp::stale() const
{
    return boundEpoch_ != ctx_.rnic().epoch();
}

Task
Qp::reconnect(SimThread &thr)
{
    if (!needsReconnect())
        co_return;
    if (reconnecting_) {
        // Another coroutine is already mid-handshake; ride on it.
        co_await reconnectWaiters_.wait();
        co_return;
    }
    reconnecting_ = true;
    co_await thr.cpu().acquire();
    state_ = QpState::Reset;
    co_await ctx_.sim().delay(rnic::kQpModifyNs);
    state_ = QpState::Init;
    co_await ctx_.sim().delay(rnic::kQpModifyNs);
    state_ = QpState::Rtr;
    co_await ctx_.sim().delay(rnic::kQpModifyNs);
    thr.cpu().release();
    boundEpoch_ = ctx_.rnic().epoch();
    state_ = QpState::Rts;
    reconnecting_ = false;
    reconnectWaiters_.wakeAll();
}

bool
Qp::PostSend::await_ready()
{
    for (WorkReq &wr : wrs_) {
        wr.sink = qp_.cq_;
        wr.icmBase = qp_.ctx_.icmBase();
    }
    if (!qp_.needsReconnect())
        return false;
    // The QP left RTS (explicit Error move or device reset): posted WRs
    // never reach the hardware and flush in error. Parked pollers are
    // resumed by the CQ's deferred drain event, so delivering from here
    // cannot reenter the caller.
    if (qp_.state_ == QpState::Rts)
        qp_.state_ = QpState::Error;
    for (const WorkReq &wr : wrs_)
        qp_.cq_->complete(wr, 0, WcStatus::FlushedInError);
    qp_.ctx_.rnic().recycleBatchBuffer(std::move(wrs_));
    return true;
}

void
Qp::PostSend::await_suspend(std::coroutine_handle<> h)
{
    h_ = h;
    // The whole post path runs on (and burns) the caller's CPU: building
    // WQEs, spinning on the QP lock, spinning on the doorbell lock.
    if (thr_.cpu().tryAcquire())
        cpuHeld();
    else
        thr_.cpu().enqueue([this] { cpuHeld(); });
}

void
Qp::PostSend::cpuHeld()
{
    if (qp_.qpLock_.tryAcquire())
        qpLockHeld();
    else
        qp_.qpLock_.enqueue([this] { qpLockHeld(); });
}

void
Qp::PostSend::qpLockHeld()
{
    Simulator &sim = qp_.ctx_.sim();
    // QP-lock bouncing: threads that share this QP (multiplexing, shared
    // QP) keep pulling the lock line between their caches.
    std::uint32_t qp_sharers = std::max(
        qp_.qpLock_.waiters(),
        qp_.qpSharers_.noteUse(&thr_, sim.now(), rnic::kBounceWindowNs));
    qp_sharers = std::min(qp_sharers, rnic::kLockBounceWaiterCap);
    Time qp_cost = rnic::kLockBaseNs +
                   qp_.ctx_.config().lockBouncePerWaiterNs * qp_sharers +
                   rnic::kWqeBuildNs * static_cast<Time>(wrs_.size());
    sim.schedule(qp_cost, [this] { qpCostPaid(); });
}

void
Qp::PostSend::qpCostPaid()
{
    // Doorbell arbitration attributes to the first traced WR's op (the
    // ring serves the whole batch). Scanned only with a tracer installed.
    if (qp_.ctx_.sim().spans() != nullptr) {
        for (const WorkReq &wr : wrs_) {
            if (wr.traceSpan != 0) {
                traced_ = wr.traceSpan;
                break;
            }
        }
    }
    // Ring the doorbell: MMIO write under the UAR spinlock. When several
    // threads' QPs share this UAR the handoff serializes them — the
    // paper's "implicit doorbell contention".
    waitStart_ = qp_.ctx_.sim().now();
    Resource &lock = qp_.uar_->lock;
    if (lock.tryAcquire())
        uarHeld();
    else
        lock.enqueue([this] { uarHeld(); });
}

void
Qp::PostSend::uarHeld()
{
    Simulator &sim = qp_.ctx_.sim();
    Uar &uar = *qp_.uar_;
    Time waited = sim.now() - waitStart_;
    if (traced_ != 0) {
        sim::SpanTracer *sp = sim.spans();
        sp->record(sp->trackOf(traced_), sim::Stage::DoorbellWait, traced_,
                   waitStart_, sim.now());
    }
    rnic::PerfCounters &perf = qp_.ctx_.rnic().perf();
    perf.doorbellWaitNs.add(waited);
    perf.doorbellRings.add();
    if (qp_.dbWaitSink_)
        qp_.dbWaitSink_->add(waited);
    if (qp_.dbRingSink_)
        qp_.dbRingSink_->add();
    // Bounce cost scales with the number of other QPs actively ringing
    // this doorbell (their cores' caches hold the lock line), or with
    // queued spinners if that is momentarily larger.
    std::uint32_t sharers = std::max(
        uar.lock.waiters(),
        uar.sharers.noteUse(&qp_, sim.now(), rnic::kBounceWindowNs));
    sharers = std::min(sharers, rnic::kLockBounceWaiterCap);
    Time ring_cost = rnic::kDoorbellRingNs +
                     qp_.ctx_.config().lockBouncePerWaiterNs * sharers;
    sim.schedule(ring_cost, [this] { rung(); });
}

void
Qp::PostSend::rung()
{
    qp_.uar_->lock.release();
    qp_.qpLock_.release();
    thr_.cpu().release();
    qp_.ctx_.rnic().postBatch(qp_.target_, std::move(wrs_));
    h_.resume();
}

Context::Context(Simulator &sim, Rnic &rnic, std::uint32_t total_uars)
    : sim_(sim), rnic_(rnic)
{
    icmBase_ = rnic_.allocContextIcm();
    numMedium_ = total_uars == 0 ? rnic::kNumMediumUars : total_uars;
    numMedium_ = std::min(numMedium_, rnic::kMaxUars - kNumLow);
    std::uint32_t id = 0;
    for (std::uint32_t i = 0; i < kNumLow; ++i)
        uars_.push_back(std::make_unique<Uar>(sim_, id++, true));
    for (std::uint32_t i = 0; i < numMedium_; ++i)
        uars_.push_back(std::make_unique<Uar>(sim_, id++, false));
}

const rnic::MrRecord &
Context::regMr(std::uint8_t *base, std::uint64_t length)
{
    return rnic_.registerMemory(base, length);
}

Uar *
Context::predictNextUar()
{
    if (rnic_.config().reserveLowLatencyUars) {
        // App QPs only ever see the medium-latency pool.
        return uars_[kNumLow + qpsCreated_ % numMedium_].get();
    }
    if (qpsCreated_ < kNumLow)
        return uars_[qpsCreated_].get();
    std::uint32_t medium = (qpsCreated_ - kNumLow) % numMedium_;
    return uars_[kNumLow + medium].get();
}

std::unique_ptr<Qp>
Context::createQp(Cq &cq, Rnic *target)
{
    Uar *uar = predictNextUar();
    ++qpsCreated_;
    return std::make_unique<Qp>(*this, cq, target, uar);
}

} // namespace smart::verbs
