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

Task
Cq::chargePoll(SimThread &thr, std::uint32_t ncqes)
{
    co_await thr.cpu().acquire();
    co_await lock_.acquire();
    Time penalty = rnic::kLockBaseNs + lockHoldPenalty(cfg_, lock_);
    co_await sim_.delay(penalty + rnic::kCqePollNs * ncqes);
    lock_.release();
    thr.cpu().release();
}

Qp::Qp(Context &ctx, Cq &cq, Rnic *target, Uar *uar)
    : ctx_(ctx), cq_(&cq), target_(target), uar_(uar),
      qpLock_(ctx.sim(), 1, "qp"), boundEpoch_(ctx.rnic().epoch())
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
        struct Awaiter
        {
            Qp &qp;
            bool await_ready() const noexcept { return false; }
            void
            await_suspend(std::coroutine_handle<> h)
            {
                qp.reconnectWaiters_.push_back(h);
            }
            void await_resume() const noexcept {}
        };
        co_await Awaiter{*this};
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
    wakeReconnectWaiters();
}

Task
Qp::postSend(SimThread &thr, std::vector<WorkReq> wrs)
{
    const RnicConfig &cfg = ctx_.config();
    Simulator &sim = ctx_.sim();

    for (WorkReq &wr : wrs) {
        wr.sink = cq_;
        wr.icmBase = ctx_.icmBase();
    }

    if (needsReconnect()) {
        // The QP left RTS (explicit Error move or device reset): posted
        // WRs never reach the hardware and flush in error. Parked pollers
        // are resumed by the CQ's deferred drain event, so delivering
        // from here cannot reenter the caller.
        if (state_ == QpState::Rts)
            state_ = QpState::Error;
        for (const WorkReq &wr : wrs)
            cq_->complete(wr, 0, WcStatus::FlushedInError);
        ctx_.rnic().recycleBatchBuffer(std::move(wrs));
        co_return;
    }

    // The whole post path runs on (and burns) the caller's CPU: building
    // WQEs, spinning on the QP lock, spinning on the doorbell lock.
    co_await thr.cpu().acquire();

    co_await qpLock_.acquire();
    // QP-lock bouncing: threads that share this QP (multiplexing, shared
    // QP) keep pulling the lock line between their caches.
    std::uint32_t qp_sharers = std::max(
        qpLock_.waiters(),
        qpSharers_.activeSharers(&thr, sim.now(), rnic::kBounceWindowNs));
    qp_sharers = std::min(qp_sharers, rnic::kLockBounceWaiterCap);
    qpSharers_.noteUse(&thr, sim.now());
    Time qp_cost = rnic::kLockBaseNs +
                   cfg.lockBouncePerWaiterNs * qp_sharers +
                   rnic::kWqeBuildNs * static_cast<Time>(wrs.size());
    co_await sim.delay(qp_cost);

    // Doorbell arbitration attributes to the first traced WR's op (the
    // ring serves the whole batch). Scanned only with a tracer installed.
    sim::SpanId traced = 0;
    sim::SpanTracer *sp = sim.spans();
    if (sp != nullptr) {
        for (const WorkReq &wr : wrs) {
            if (wr.traceSpan != 0) {
                traced = wr.traceSpan;
                break;
            }
        }
    }

    // Ring the doorbell: MMIO write under the UAR spinlock. When several
    // threads' QPs share this UAR the handoff serializes them — the
    // paper's "implicit doorbell contention".
    Time wait_start = sim.now();
    co_await uar_->lock.acquire();
    Time waited = sim.now() - wait_start;
    if (traced != 0)
        sp->record(sp->trackOf(traced), sim::Stage::DoorbellWait, traced,
                   wait_start, sim.now());
    ctx_.rnic().perf().doorbellWaitNs.add(waited);
    ctx_.rnic().perf().doorbellRings.add();
    if (dbWaitSink_)
        dbWaitSink_->add(waited);
    if (dbRingSink_)
        dbRingSink_->add();
    // Bounce cost scales with the number of other QPs actively ringing
    // this doorbell (their cores' caches hold the lock line), or with
    // queued spinners if that is momentarily larger.
    std::uint32_t sharers = std::max(
        uar_->lock.waiters(),
        uar_->sharers.activeSharers(this, sim.now(),
                                    rnic::kBounceWindowNs));
    sharers = std::min(sharers, rnic::kLockBounceWaiterCap);
    uar_->sharers.noteUse(this, sim.now());
    Time ring_cost =
        rnic::kDoorbellRingNs + cfg.lockBouncePerWaiterNs * sharers;
    co_await sim.delay(ring_cost);
    uar_->lock.release();

    qpLock_.release();
    thr.cpu().release();

    ctx_.rnic().postBatch(target_, std::move(wrs));
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
