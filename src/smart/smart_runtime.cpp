/**
 * @file
 * SmartRuntime / SmartThread implementation.
 */

#include "smart/smart_runtime.hpp"

#include <cassert>

#include "sim/timeline.hpp"
#include "smart/cache/buffer_manager.hpp"
#include "smart/smart_ctx.hpp"

namespace smart {

using sim::Task;
using sim::Time;

// ---------------------------------------------------------------- thread

SmartThread::SmartThread(SmartRuntime &rt, std::uint32_t id)
    : rt_(rt), id_(id), simThread_(rt.sim(), id),
      rng_(0x5eed0000ull + id, 0x9e3779b9ull + id),
      coroGate_(rt.sim(), rt.config().corosPerThread),
      ctrl_(kBackoffUnitCycles, kBackoffMaxFactor,
            rt.config().corosPerThread, kGammaHigh, kGammaLow),
      credit_(kInitialCmax), cmax_(kInitialCmax),
      creditWaiters_(rt.sim())
{
    sim::Labels labels{{"blade", rt.name()},
                       {"thread", std::to_string(id)},
                       {"policy", qpPolicyName(rt.config().qpPolicy)}};
    sim::MetricsRegistry &m = rt.sim().metrics();
    m.registerCounter(this, "smart.thread.wrs_completed", labels,
                      &completedWrs);
    m.registerCounter(this, "smart.thread.cas_attempts", labels,
                      &casAttempts);
    m.registerCounter(this, "smart.thread.cas_fails", labels, &casFails);
    m.registerCounter(this, "smart.thread.doorbell_wait_ns", labels,
                      &doorbellWaitNs);
    m.registerCounter(this, "smart.thread.doorbell_rings", labels,
                      &doorbellRings);
    m.registerCounter(this, "smart.thread.wqe_refetches", labels,
                      &wqeRefetches);
    m.registerCounter(this, "smart.fault.wr_errors", labels, &wrErrors);
    m.registerCounter(this, "smart.retry.attempts", labels, &verbRetries);
    m.registerCounter(this, "smart.retry.timeouts", labels, &verbTimeouts);
    m.registerCounter(this, "smart.retry.exhausted", labels,
                      &verbExhausted);
    m.registerCounter(this, "smart.retry.qp_reconnects", labels,
                      &qpReconnects);
    m.registerGauge(this, "smart.ctrl.credit_cmax", labels,
                    [this] { return static_cast<double>(cmax_); });
    m.registerGauge(this, "smart.ctrl.credit_avail", labels,
                    [this] { return static_cast<double>(credit_); });
    m.registerGauge(this, "smart.ctrl.coro_cmax", labels, [this] {
        return static_cast<double>(coroGate_.capacity());
    });
    m.registerGauge(this, "smart.ctrl.tmax_cycles", labels, [this] {
        return static_cast<double>(ctrl_.tmaxCycles());
    });
    m.registerGauge(this, "smart.ctrl.gamma", labels,
                    [this] { return ctrl_.lastGamma(); });
}

SmartThread::~SmartThread()
{
    rt_.sim().metrics().unregisterOwner(this);
}

void
SmartThread::replenish(std::uint32_t n)
{
    credit_ += n;
    if (credit_ > 0)
        creditWaiters_.wakeAll();
}

void
SmartThread::updateCmax(std::uint32_t target)
{
    credit_ += static_cast<std::int64_t>(target) - cmax_;
    cmax_ = target;
    if (credit_ > 0)
        creditWaiters_.wakeAll();
}

void
SmartThread::stageWr(std::uint32_t blade_idx, const rnic::WorkReq &wr)
{
    if (staged_.size() <= blade_idx)
        staged_.resize(blade_idx + 1);
    // Outstanding accounting feeds the degradation ladder: +1 here,
    // -1 when the CQE dispatches (every staged WR gets exactly one).
    if (rt_.bladeOutstanding_.size() > blade_idx) {
        ++rt_.bladeOutstanding_[blade_idx];
        rt_.noteOverloadTransition(blade_idx);
    }
    StagedQueue &q = staged_[blade_idx];
    if (q.wrs.size() == q.wrs.capacity())
        ++stageBufGrowths_; // warm-up only; steady state must not grow
    rnic::WorkReq &staged = q.wrs.emplace_back(wr);
    staged.wqeMissCounter = &wqeRefetches;
    staged.bladeIdx = blade_idx;
}

void
SmartThread::kickFlush(std::uint32_t blade_idx)
{
    if (staged_.size() <= blade_idx)
        staged_.resize(blade_idx + 1);
    StagedQueue &q = staged_[blade_idx];
    if (q.flushing || q.wrs.empty())
        return;
    q.flushing = true;
    rt_.sim().spawnDetached(flushLoop(blade_idx));
}

sim::Task
SmartThread::flushLoop(std::uint32_t blade_idx)
{
    // staged_ is a deque (grown at the end on live blade joins, existing
    // elements never move), so this reference is stable across
    // suspension points.
    StagedQueue &q = staged_[blade_idx];
    verbs::Qp &qp = rt_.qpFor(id_, blade_idx);
    rnic::Rnic &nic = rt_.rnic();
    while (!q.wrs.empty()) {
        // Swap the staged WRs into a pooled buffer: q.wrs keeps its warm
        // capacity for the next stage() burst, and the batch vector comes
        // back through the RNIC's pool after the hardware distributes it.
        std::vector<rnic::WorkReq> batch = nic.takeBatchBuffer();
        batch.swap(q.wrs);
        // Degradation level 2: shed doorbell coalescing to an overloaded
        // blade by posting in small paced chunks (0 = no cap).
        std::uint32_t cap = rt_.overloadPostCap(blade_idx);
        if (!rt_.config().workReqThrottle) {
            if (cap == 0 || batch.size() <= cap) {
                co_await qp.postSend(simThread_, std::move(batch));
                continue;
            }
            rt_.noteChunkedPost();
            std::size_t i = 0;
            while (i < batch.size()) {
                std::size_t n =
                    std::min<std::size_t>(cap, batch.size() - i);
                std::vector<rnic::WorkReq> chunk = nic.takeBatchBuffer();
                chunk.assign(std::make_move_iterator(batch.begin() + i),
                             std::make_move_iterator(batch.begin() + i +
                                                     n));
                co_await qp.postSend(simThread_, std::move(chunk));
                i += n;
            }
            nic.recycleBatchBuffer(std::move(batch));
            continue;
        }
        // Credit stalls attribute to the first traced WR's op (the grant
        // unblocks the whole batch). Scanned only with a tracer installed.
        sim::SpanTracer *sp = rt_.sim().spans();
        sim::SpanId traced = 0;
        if (sp != nullptr) {
            for (const rnic::WorkReq &wr : batch) {
                if (wr.traceSpan != 0) {
                    traced = wr.traceSpan;
                    break;
                }
            }
        }
        // SMARTPOSTSEND (Algorithm 1): credits gate how much of the
        // buffer may be outstanding; oversized buffers go out in
        // credit-sized chunks (more WRs may accumulate meanwhile and
        // ride along in later chunks).
        if (cap != 0 && batch.size() > cap)
            rt_.noteChunkedPost();
        std::size_t i = 0;
        while (i < batch.size()) {
            std::uint32_t granted = 0;
            Time credit_t0 = rt_.sim().now();
            std::uint32_t want =
                static_cast<std::uint32_t>(batch.size() - i);
            if (cap != 0)
                want = std::min(want, cap);
            co_await acquireCredit(want, granted);
            if (traced != 0)
                sp->record(sp->trackOf(traced), sim::Stage::CreditWait,
                           traced, credit_t0, rt_.sim().now());
            if (i == 0 && granted == batch.size()) {
                // Full grant: post the whole batch without a chunk copy.
                co_await qp.postSend(simThread_, std::move(batch));
                batch = std::vector<rnic::WorkReq>();
                break;
            }
            std::vector<rnic::WorkReq> chunk = nic.takeBatchBuffer();
            chunk.assign(std::make_move_iterator(batch.begin() + i),
                         std::make_move_iterator(batch.begin() + i +
                                                 granted));
            co_await qp.postSend(simThread_, std::move(chunk));
            i += granted;
        }
        nic.recycleBatchBuffer(std::move(batch));
    }
    q.flushing = false;
    // A stage() racing with the tail of the drain re-kicks the flusher
    // itself (kickFlush sees flushing == false).
    if (!q.wrs.empty())
        kickFlush(blade_idx);
}

// --------------------------------------------------------------- runtime

SmartRuntime::SmartRuntime(sim::Simulator &sim,
                           const rnic::RnicConfig &hw_cfg,
                           const SmartConfig &cfg, std::uint32_t num_threads,
                           std::string name)
    : sim_(sim), cfg_(cfg), rnic_(sim, hw_cfg, name), name_(std::move(name)),
      localBuf_(static_cast<std::size_t>(num_threads) *
                    cfg.corosPerThread * kScratchBytesPerCoro,
                0)
{
    // Device context(s) and local MR registration, per policy.
    if (cfg_.qpPolicy == QpPolicy::PerThreadDb) {
        // SMART tunes the MLX5_TOTAL_UUARS-style knob so that every
        // thread can own a private medium-latency doorbell.
        sharedContext_ =
            std::make_unique<verbs::Context>(sim_, rnic_, num_threads);
    } else if (cfg_.qpPolicy != QpPolicy::PerThreadContext) {
        sharedContext_ = std::make_unique<verbs::Context>(sim_, rnic_);
    }
    if (sharedContext_) {
        sharedLocalMrId_ =
            sharedContext_->regMr(localBuf_.data(), localBuf_.size()).id;
    }

    for (std::uint32_t t = 0; t < num_threads; ++t) {
        threads_.push_back(std::make_unique<SmartThread>(*this, t));
        SmartThread &thr = *threads_.back();
        switch (cfg_.qpPolicy) {
          case QpPolicy::PerThreadContext:
            thr.ownContext_ = std::make_unique<verbs::Context>(sim_, rnic_);
            thr.localMrId_ =
                thr.ownContext_->regMr(localBuf_.data(), localBuf_.size())
                    .id;
            thr.cq_ = thr.ownContext_->createCq();
            installDispatch(*thr.cq_);
            break;
          case QpPolicy::PerThreadQp:
          case QpPolicy::PerThreadDb:
            thr.localMrId_ = sharedLocalMrId_;
            thr.cq_ = sharedContext_->createCq();
            installDispatch(*thr.cq_);
            break;
          case QpPolicy::SharedQp:
          case QpPolicy::MultiplexedQp:
            thr.localMrId_ = sharedLocalMrId_;
            break;
        }
    }

    if (cfg_.qpPolicy == QpPolicy::SharedQp) {
        sharedCq_ = sharedContext_->createCq();
        installDispatch(*sharedCq_);
    } else if (cfg_.qpPolicy == QpPolicy::MultiplexedQp) {
        std::uint32_t groups =
            (num_threads + kMultiplexFactor - 1) / kMultiplexFactor;
        for (std::uint32_t g = 0; g < groups; ++g) {
            groupCqs_.push_back(sharedContext_->createCq());
            installDispatch(*groupCqs_.back());
            groupQps_.emplace_back();
        }
    }

    // Compute-side cache tier: the frame pool is ordinary local memory
    // that RDMA reads land in directly, so it needs an MR per device
    // context (one shared, or one per thread under PerThreadContext).
    if (cfg_.cacheBytes != 0) {
        cache_ = std::make_unique<cache::BufferManager>(*this, cfg_.cacheBytes);
        MemSpan pool = cache_->pool();
        if (sharedContext_)
            sharedCacheMrId_ = sharedContext_->regMr(pool).id;
        for (auto &thr : threads_) {
            thr->cacheMrId_ = cfg_.qpPolicy == QpPolicy::PerThreadContext
                                  ? thr->ownContext_->regMr(pool).id
                                  : sharedCacheMrId_;
        }
    }

    sim::Labels labels{{"blade", name_},
                       {"policy", qpPolicyName(cfg_.qpPolicy)}};
    sim::MetricsRegistry &m = sim_.metrics();
    m.registerCounter(this, "app.ops", labels, &appOps);
    m.registerCounter(this, "app.retries", labels, &totalRetries);
    m.registerHistogram(this, "app.op_latency_ns", labels, &opLatency);
    m.registerCounter(this, "smart.overload.chunked_posts", labels,
                      &chunkedPosts_);
    m.registerCounter(this, "smart.overload.op_delays", labels,
                      &opDelays_);
}

SmartRuntime::~SmartRuntime()
{
    sim_.metrics().unregisterOwner(this);
}

void
SmartRuntime::installDispatch(verbs::Cq &cq)
{
    cq.setDispatch(&SmartRuntime::dispatchCqe);
}

void
SmartRuntime::dispatchCqe(const verbs::Wc &wc, const rnic::WorkReq &wr)
{
    auto *state = reinterpret_cast<SyncState *>(wc.wrId);
    assert(state != nullptr);
    SmartThread *thr = state->thread;
    SmartRuntime &rt = thr->runtime();
    if (wr.bladeIdx < rt.bladeOutstanding_.size()) {
        --rt.bladeOutstanding_[wr.bladeIdx];
        rt.noteOverloadTransition(wr.bladeIdx);
    }
    if (wc.status == rnic::WcStatus::Success)
        thr->completedWrs.add();
    if (thr->runtime().config().workReqThrottle)
        thr->replenish(1);
    if (wr.cacheCookie != 0) {
        // Cache fills / write-backs / atomic invalidations route to the
        // BufferManager even when the verb timeout already abandoned the
        // round (the frame-generation check inside onCqe self-guards), so
        // a straggler landing into a quarantined frame is still observed.
        if (cache::BufferManager *bm = thr->runtime().cache())
            bm->onCqe(wr, wc.status);
    }
    if (wr.syncEpoch != state->epoch) {
        // CQE from a round the verb timeout already abandoned: the
        // credit above is returned, but the round's bookkeeping is gone.
        return;
    }
    if (state->ctx != nullptr)
        state->ctx->noteWrCompletion(wr, wc.status);
    assert(state->pending > 0);
    --state->pending;
    ++state->sinceCharge;
    if (state->pending == 0) {
        state->done = true;
        if (state->ctx != nullptr)
            state->ctx->wakeSyncWaiter();
    }
}

void
SmartRuntime::noteOverloadTransition(std::uint32_t blade_idx)
{
    // Two loads + a compare on the accounting fast path; the string work
    // only happens on an actual level crossing with a timeline installed.
    sim::Timeline *tl = sim_.timeline();
    if (tl == nullptr || !cfg_.overloadLadder ||
        blade_idx >= lastOverloadLevel_.size())
        return;
    std::uint32_t lv = overloadLevel(blade_idx);
    std::uint32_t &prev = lastOverloadLevel_[blade_idx];
    if (lv == prev)
        return;
    tl->annotate(sim_, "degradation", bladeRnics_[blade_idx]->name(),
                 name_ + " level " + std::to_string(prev) + "->" +
                     std::to_string(lv));
    prev = lv;
}

std::uint32_t
SmartRuntime::connect(memblade::MemoryBlade &blade)
{
    blades_.push_back(&blade);
    bladeRnics_.push_back(&blade.rnic());
    for (auto &thr : threads_)
        thr->staged_.resize(blades_.size());
    std::uint32_t idx = blades_.size() - 1;
    bladeOutstanding_.resize(blades_.size(), 0);
    lastOverloadLevel_.resize(blades_.size(), 0);
    sim_.metrics().registerGauge(
        this, "smart.overload.outstanding",
        {{"blade", name_}, {"target", blade.rnic().name()}},
        [this, idx] { return static_cast<double>(bladeOutstanding(idx)); });
    rnic::Rnic *target = &blade.rnic();
    std::uint32_t num_threads = threads_.size();

    switch (cfg_.qpPolicy) {
      case QpPolicy::SharedQp:
        sharedQps_.push_back(sharedContext_->createQp(*sharedCq_, target));
        break;
      case QpPolicy::MultiplexedQp:
        for (std::uint32_t g = 0; g < groupQps_.size(); ++g) {
            groupQps_[g].push_back(
                sharedContext_->createQp(*groupCqs_[g], target));
        }
        break;
      case QpPolicy::PerThreadQp:
        // Default driver mapping: creation order decides the doorbell;
        // threads silently end up sharing medium-latency doorbells.
        for (std::uint32_t t = 0; t < num_threads; ++t) {
            SmartThread &thr = *threads_[t];
            thr.qps_.push_back(
                sharedContext_->createQp(*thr.cq_, target));
            thr.qps_.back()->setDoorbellStats(&thr.doorbellWaitNs,
                                              &thr.doorbellRings);
        }
        break;
      case QpPolicy::PerThreadDb:
        // Thread-aware allocation (§4.1): the context was opened with
        // one medium-latency doorbell per thread; the deterministic
        // round-robin then puts thread t's QPs on doorbell t. If the
        // driver hands low-latency UARs to app QPs, burn those on dummy
        // QPs first so the alignment still holds.
        if (!rnic_.config().reserveLowLatencyUars && dummyQps_.empty()) {
            for (std::uint32_t i = 0; i < rnic::kNumLowLatencyUars; ++i) {
                dummyQps_.push_back(
                    sharedContext_->createQp(*threads_[0]->cq_, nullptr));
            }
        }
        for (std::uint32_t t = 0; t < num_threads; ++t) {
            SmartThread &thr = *threads_[t];
            verbs::Uar *predicted = sharedContext_->predictNextUar();
            thr.qps_.push_back(
                sharedContext_->createQp(*thr.cq_, target));
            thr.qps_.back()->setDoorbellStats(&thr.doorbellWaitNs,
                                              &thr.doorbellRings);
            assert(thr.qps_.back()->uar() == predicted);
            // Every QP of thread t shares the same private doorbell.
            assert(thr.qps_.size() == 1 ||
                   thr.qps_.back()->uar() == thr.qps_.front()->uar());
            (void)predicted;
        }
        break;
      case QpPolicy::PerThreadContext:
        for (std::uint32_t t = 0; t < num_threads; ++t) {
            SmartThread &thr = *threads_[t];
            thr.qps_.push_back(thr.ownContext_->createQp(*thr.cq_, target));
            thr.qps_.back()->setDoorbellStats(&thr.doorbellWaitNs,
                                              &thr.doorbellRings);
        }
        break;
    }
    return blades_.size() - 1;
}

verbs::Qp &
SmartRuntime::qpFor(std::uint32_t tid, std::uint32_t blade_idx)
{
    switch (cfg_.qpPolicy) {
      case QpPolicy::SharedQp:
        return *sharedQps_[blade_idx];
      case QpPolicy::MultiplexedQp:
        return *groupQps_[tid / kMultiplexFactor][blade_idx];
      default:
        return *threads_[tid]->qps_[blade_idx];
    }
}

verbs::Cq &
SmartRuntime::cqFor(std::uint32_t tid)
{
    switch (cfg_.qpPolicy) {
      case QpPolicy::SharedQp:
        return *sharedCq_;
      case QpPolicy::MultiplexedQp:
        return *groupCqs_[tid / kMultiplexFactor];
      default:
        return *threads_[tid]->cq_;
    }
}

std::uint8_t *
SmartRuntime::scratchFor(std::uint32_t tid, std::uint32_t coro_idx,
                         std::uint64_t &trans_key)
{
    assert(coro_idx < cfg_.corosPerThread);
    std::uint64_t off =
        (static_cast<std::uint64_t>(tid) * cfg_.corosPerThread + coro_idx) *
        kScratchBytesPerCoro;
    trans_key = rnic::Rnic::transKey(threads_[tid]->localMrId_, off);
    return localBuf_.data() + off;
}

std::uint64_t
SmartRuntime::cacheTransKey(std::uint32_t tid, const std::uint8_t *p) const
{
    assert(cache_ != nullptr);
    MemSpan pool = cache_->pool();
    std::uint64_t off =
        static_cast<std::uint64_t>(p - static_cast<std::uint8_t *>(pool.data));
    assert(off < pool.len);
    return rnic::Rnic::transKey(threads_[tid]->cacheMrId_, off);
}

void
SmartRuntime::start()
{
    if (started_)
        return;
    started_ = true;
    for (auto &thr : threads_) {
        if (cfg_.workReqThrottle)
            sim_.spawn(creditEpochLoop(*thr));
        if ((cfg_.backoff && cfg_.dynBackoffLimit) || cfg_.coroThrottle)
            sim_.spawn(conflictLoop(*thr));
    }
}

void
SmartRuntime::spawnWorker(std::uint32_t tid,
                          std::function<Task(SmartCtx &)> body)
{
    start();
    std::uint32_t coro_idx = 0;
    for (const auto &w : workers_) {
        if (&w->thread() == threads_[tid].get())
            ++coro_idx;
    }
    workers_.push_back(std::make_unique<SmartCtx>(*this, tid, coro_idx));
    SmartCtx *ctx = workers_.back().get();

    // The wrapper keeps the app task alive inside a spawned root frame.
    struct Spawner
    {
        static Task
        run(std::function<Task(SmartCtx &)> body, SmartCtx *ctx)
        {
            co_await body(*ctx);
        }
    };
    sim_.spawn(Spawner::run(std::move(body), ctx));
}

Task
SmartRuntime::creditEpochLoop(SmartThread &t)
{
    // Algorithm 1, UPDATE: probe each candidate C_max for Δ, keep the
    // best, hold it for the stable phase, repeat.
    for (;;) {
        std::uint64_t best = 0;
        std::uint32_t best_target = kCmaxCandidates.front();
        for (std::uint32_t target : kCmaxCandidates) {
            t.updateCmax(target);
            std::uint64_t before = t.completedWrs.value();
            co_await sim_.delay(cfg_.probeIntervalNs);
            std::uint64_t completed = t.completedWrs.value() - before;
            if (completed > best) {
                best = completed;
                best_target = target;
            }
        }
        t.updateCmax(best_target);
        co_await sim_.delay(cfg_.stableIntervalNs);
    }
}

Task
SmartRuntime::conflictLoop(SmartThread &t)
{
    // §4.3: sample the retry rate γ every window and move c_max / t_max
    // across the water marks. The counters only grow (nothing resets
    // them), so the window's share is the growth since the last sample.
    std::uint64_t prev_attempts = 0;
    std::uint64_t prev_fails = 0;
    for (;;) {
        co_await sim_.delay(kRetryWindowNs);
        std::uint64_t attempts = t.casAttempts.value() - prev_attempts;
        std::uint64_t fails = t.casFails.value() - prev_fails;
        prev_attempts += attempts;
        prev_fails += fails;
        if (attempts == 0)
            continue;
        double gamma =
            static_cast<double>(fails) / static_cast<double>(attempts);
        t.conflictCtrl().update(gamma, cfg_.coroThrottle,
                                cfg_.backoff && cfg_.dynBackoffLimit);
        if (cfg_.coroThrottle)
            t.coroGate().setCapacity(t.conflictCtrl().cmax());
    }
}

} // namespace smart
