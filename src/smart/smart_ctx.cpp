/**
 * @file
 * SmartCtx implementation: the coroutine-facing verbs-like API.
 */

#include "smart/smart_ctx.hpp"

#include <cassert>
#include <cstring>
#include <string>
#include <utility>

#include "smart/cache/buffer_manager.hpp"

namespace smart {

using sim::Task;
using sim::Time;

SmartCtx::SmartCtx(SmartRuntime &rt, std::uint32_t tid,
                   std::uint32_t coro_idx)
    : rt_(rt), thr_(rt.thread(tid)), coroIdx_(coro_idx)
{
    syncState_.thread = &thr_;
    syncState_.ctx = this;
    scratchBase_ = rt_.scratchFor(tid, coro_idx, scratchTransKey_);
}

std::uint32_t
SmartCtx::bladeIndex(const RemotePtr &p) const
{
    for (std::uint32_t i = 0; i < rt_.bladeRnics_.size(); ++i) {
        if (rt_.bladeRnics_[i] == p.blade)
            return i;
    }
    assert(false && "RemotePtr does not address a connected blade");
    return 0;
}

std::uint8_t *
SmartCtx::scratch(std::uint32_t bytes)
{
    assert(bytes <= kScratchBytesPerCoro);
    if (scratchPos_ + bytes > kScratchBytesPerCoro)
        scratchPos_ = 0;
    std::uint8_t *p = scratchBase_ + scratchPos_;
    scratchPos_ += bytes;
    return p;
}

void
SmartCtx::stage(const RemotePtr &p, rnic::WorkReq &wr)
{
    stageKeyed(p, wr, scratchTransKey_);
}

void
SmartCtx::stageKeyed(const RemotePtr &p, rnic::WorkReq &wr,
                     std::uint64_t trans_key)
{
    std::uint32_t idx = bladeIndex(p);
    wr.rkey = p.rkey;
    wr.remoteOffset = p.offset;
    wr.localTransKey = trans_key;
    wr.wrId = reinterpret_cast<std::uint64_t>(&syncState_);
    if (opSpan_ != 0) {
        // Sampled op: open the verb span lazily (first staged WR) and tag
        // the WR so device-side stages attribute back to this coroutine.
        if (verbSpan_ == 0)
            verbSpan_ =
                rt_.sim().spans()->begin(track_, sim::Stage::Verb, opSpan_);
        wr.traceSpan = retrySpan_ != 0 ? retrySpan_ : verbSpan_;
    }
    if (rt_.sim().faultPlane() != nullptr) {
        // Track the WR so an error completion can re-stage it. Off the
        // fault path this costs nothing (appTag stays 0, no copies).
        wr.appTag = nextAppTag_++;
        wr.syncEpoch = syncState_.epoch;
        if (inflight_.size() == inflight_.capacity())
            ++trackBufGrowths_;
        inflight_.push_back({idx, wr});
    }
    // Ops stage into the *thread-local* WR buffer (§5.1): a later flush
    // posts sibling coroutines' requests together under one doorbell.
    ++syncState_.pending;
    syncState_.done = false;
    thr_.stageWr(idx, wr);
    if (stagedBlades_.size() <= idx)
        stagedBlades_.resize(idx + 1, false);
    stagedBlades_[idx] = true;
}

void
SmartCtx::read(RemotePtr src, MemSpan dst)
{
    rnic::WorkReq wr;
    wr.op = rnic::Op::Read;
    wr.length = dst.len;
    wr.localBuf = dst.bytes();
    stage(src, wr);
}

void
SmartCtx::write(RemotePtr dst, ConstMemSpan src)
{
    // Keep resident cache lines at least as fresh as the wire: patch
    // them (or schedule a patch on lines mid-fill) before staging.
    if (cache::BufferManager *bm = rt_.cache())
        bm->noteBypassWrite(bladeIndex(dst), dst.offset, src);
    rnic::WorkReq wr;
    wr.op = rnic::Op::Write;
    wr.length = src.len;
    // Copy-on-stage: RDMA requires source buffers to stay stable until
    // completion; staging into coroutine scratch frees the caller from
    // that obligation.
    std::uint8_t *copy = scratch(src.len);
    std::memcpy(copy, src.data, src.len);
    wr.localBuf = copy;
    stage(dst, wr);
}

void
SmartCtx::cas(RemotePtr dst, std::uint64_t expect, std::uint64_t desired,
              std::uint64_t *result)
{
    rnic::WorkReq wr;
    wr.op = rnic::Op::Cas;
    wr.length = 8;
    wr.compare = expect;
    wr.swap = desired;
    wr.localBuf = result ? reinterpret_cast<std::uint8_t *>(result)
                         : scratch(8);
    if (cache::BufferManager *bm = rt_.cache())
        wr.cacheCookie = bm->atomicCookie(bladeIndex(dst), dst.offset);
    stage(dst, wr);
}

void
SmartCtx::faa(RemotePtr dst, std::uint64_t add, std::uint64_t *result)
{
    rnic::WorkReq wr;
    wr.op = rnic::Op::Faa;
    wr.length = 8;
    wr.compare = add;
    wr.localBuf = result ? reinterpret_cast<std::uint8_t *>(result)
                         : scratch(8);
    if (cache::BufferManager *bm = rt_.cache())
        wr.cacheCookie = bm->atomicCookie(bladeIndex(dst), dst.offset);
    stage(dst, wr);
}

void
SmartCtx::stageCacheFill(const RemotePtr &line_src, MemSpan frame,
                         std::uint64_t cookie)
{
    rnic::WorkReq wr;
    wr.op = rnic::Op::Read;
    wr.length = frame.len;
    wr.localBuf = frame.bytes();
    wr.cacheCookie = cookie;
    stageKeyed(line_src, wr, rt_.cacheTransKey(thr_.id(), frame.bytes()));
}

void
SmartCtx::stageCacheWrite(const RemotePtr &line_dst, ConstMemSpan frame,
                          std::uint64_t cookie)
{
    rnic::WorkReq wr;
    wr.op = rnic::Op::Write;
    wr.length = frame.len;
    // No copy-on-stage: the BufferManager keeps the frame bytes stable
    // (dirty frames are not evicted) until the write-back CQE lands.
    wr.localBuf = const_cast<std::uint8_t *>(frame.bytes());
    wr.cacheCookie = cookie;
    stageKeyed(line_dst, wr, rt_.cacheTransKey(thr_.id(), frame.bytes()));
}

std::suspend_never
SmartCtx::postSend()
{
    // Kick the thread's flusher for every blade this coroutine staged
    // to; the flusher drains the whole thread buffer (including sibling
    // coroutines' requests) under single doorbell rings.
    for (std::uint32_t blade = 0; blade < stagedBlades_.size(); ++blade) {
        if (stagedBlades_[blade]) {
            stagedBlades_[blade] = false;
            thr_.kickFlush(blade);
        }
    }
    return {};
}

void
SmartCtx::onSyncTimeout(std::uint64_t arm_id)
{
    if (arm_id != armId_ || syncState_.done)
        return;
    // The round's completions never arrived (e.g. the CQE path itself is
    // wedged). Abandon the round: bump the epoch so stragglers are
    // ignored, and hand every still-in-flight WR to the retry set.
    timedOut_ = true;
    thr_.verbTimeouts.add();
    ++syncState_.epoch;
    for (TrackedWr &t : inflight_)
        failed_.push_back(std::move(t));
    inflight_.clear();
    syncState_.pending = 0;
    syncState_.done = true;
    wakeSyncWaiter();
}

void
SmartCtx::wakeSyncWaiter()
{
    if (syncWaiter_ != nullptr) {
        Sync *w = std::exchange(syncWaiter_, nullptr);
        // The wake runs on the awaiter, in its coroutine's frame: start
        // pulling that line in now.
        __builtin_prefetch(w);
        rt_.sim().schedule(0, [w] {
            ++w->ctx_.armId_;
            w->roundDone().resume();
        });
    }
}

void
SmartCtx::noteWrCompletion(const rnic::WorkReq &wr, rnic::WcStatus status)
{
    if (status == rnic::WcStatus::Success) {
        if (!inflight_.empty()) {
            for (std::size_t i = 0; i < inflight_.size(); ++i) {
                if (inflight_[i].wr.appTag == wr.appTag) {
                    inflight_[i] = std::move(inflight_.back());
                    inflight_.pop_back();
                    break;
                }
            }
        }
        return;
    }
    thr_.wrErrors.add();
    lastFailStatus_ = status;
    for (std::size_t i = 0; i < inflight_.size(); ++i) {
        if (inflight_[i].wr.appTag == wr.appTag) {
            if (failed_.size() == failed_.capacity())
                ++trackBufGrowths_;
            failed_.push_back(std::move(inflight_[i]));
            inflight_[i] = std::move(inflight_.back());
            inflight_.pop_back();
            return;
        }
    }
    // Failure with no tracked record (plane installed mid-flight):
    // cannot re-stage, so sync() surfaces the error without retrying.
    ++failedUntracked_;
}

void
SmartCtx::restage(TrackedWr t)
{
    // The blade may have restarted since the WR was built: re-resolve
    // the region key so the retry addresses the *current* registration.
    t.wr.rkey = rt_.bladeRkey(t.blade);
    t.wr.syncEpoch = syncState_.epoch;
    if (t.wr.traceSpan != 0 && retrySpan_ != 0)
        t.wr.traceSpan = retrySpan_; // device stages land under the round
    ++syncState_.pending;
    syncState_.done = false;
    if (inflight_.size() == inflight_.capacity())
        ++trackBufGrowths_;
    inflight_.push_back(t);
    thr_.stageWr(t.blade, t.wr);
    if (stagedBlades_.size() <= t.blade)
        stagedBlades_.resize(t.blade + 1, false);
    stagedBlades_[t.blade] = true;
}

std::coroutine_handle<>
SmartCtx::Sync::await_suspend(std::coroutine_handle<> h)
{
    caller_ = h;
    SmartCtx &c = ctx_;
    if (c.syncState_.pending > 0) {
        assert(!c.syncState_.done);
        if (c.rt_.sim().faultPlane() != nullptr) {
            // Arm the verb timeout for this round. armId_ is bumped on
            // normal completion, so a late firing is a no-op.
            std::uint64_t arm = ++c.armId_;
            c.rt_.sim().schedule(kVerbTimeoutNs,
                                 [&c, arm] { c.onSyncTimeout(arm); });
        }
        // Park until the dispatch path counts this coroutine's last CQE
        // (wakeSyncWaiter).
        c.syncWaiter_ = this;
        return std::noop_coroutine();
    }
    return roundDone();
}

std::coroutine_handle<>
SmartCtx::Sync::roundDone()
{
    SmartCtx &c = ctx_;
    // Deciding before the poll charge is exact: the round's CQEs are all
    // in and its verb timeout is disarmed, so nothing can fail it now.
    if (!retryRound_ && (!c.failed_.empty() || c.failedUntracked_ > 0)) {
        // Retry rounds run in a coroutine that resumes the caller when
        // it finishes.
        handedOver_ = true;
        sim::Task::Handle retry = c.syncRetry().detach();
        retry.promise().continuation = caller_;
        return retry;
    }
    // Pay the polling costs for the CQEs consumed on our behalf.
    SyncState &st = c.syncState_;
    if (st.sinceCharge > 0) {
        std::uint32_t n = st.sinceCharge;
        st.sinceCharge = 0;
        chargeT0_ = c.sim().now();
        charge_.emplace(
            c.rt_.cqFor(c.thr_.id()).chargePoll(c.thr_.simThread(), n));
        charge_->await_suspend(caller_);
        return std::noop_coroutine();
    }
    return caller_;
}

void
SmartCtx::Sync::await_resume()
{
    if (handedOver_)
        return;
    SmartCtx &c = ctx_;
    if (charge_ && c.opSpan_ != 0)
        c.rt_.sim().spans()->record(c.track_, sim::Stage::CqePoll,
                                    c.currentSpan(), chargeT0_,
                                    c.sim().now());
    if (c.retrySpan_ != 0) {
        c.rt_.sim().spans()->end(c.retrySpan_);
        c.retrySpan_ = 0;
    }
    if (!retryRound_) {
        // A first round without failures ends the sync() call.
        c.timedOut_ = false;
        c.endVerbSpan();
    }
}

Task
SmartCtx::syncRetry()
{
    // Round 0 is the first round, its CQEs already in; every later round
    // is a retry round.
    bool timed_out = false;
    for (std::uint32_t attempt = 0;; ++attempt) {
        co_await Sync(*this, true);
        timed_out = timed_out || timedOut_;
        timedOut_ = false;
        if (failed_.empty() && (attempt > 0 || failedUntracked_ == 0)) {
            endVerbSpan();
            co_return;
        }

        // Failure policy: re-post failed WRs with truncated-exponential
        // spacing (reusing the §4.3 backoff machinery), transparently
        // reconnecting QPs the device reset under. Only after the retry
        // budget is spent does the application see a typed VerbError.
        if (attempt == 0 && failedUntracked_ > 0) {
            failedUntracked_ = 0;
            failed_.clear();
            thr_.verbExhausted.add();
            error_ = {timed_out ? VerbError::Kind::Timeout
                                : VerbError::Kind::RetriesExhausted,
                      lastFailStatus_};
            endVerbSpan();
            co_return;
        }
        // Epoch fence inside the retry loop: WRs whose target blade the
        // cluster view declared Dead will never succeed — surface
        // StaleView immediately instead of spending the whole budget
        // (this is what abandons in-flight doorbell batches to a fenced
        // blade).
        if (ClusterView *cv = rt_.clusterView()) {
            bool fenced = false;
            for (const TrackedWr &t : failed_) {
                if (cv->fenced(t.blade)) {
                    fenced = true;
                    break;
                }
            }
            if (fenced) {
                cv->noteFenced();
                failed_.clear();
                thr_.verbExhausted.add();
                error_ = {VerbError::Kind::StaleView, lastFailStatus_};
                endVerbSpan();
                co_return;
            }
        }
        if (attempt >= kMaxVerbRetries) {
            failed_.clear();
            thr_.verbExhausted.add();
            error_ = {timed_out ? VerbError::Kind::Timeout
                                : VerbError::Kind::RetriesExhausted,
                      lastFailStatus_};
            endVerbSpan();
            co_return;
        }
        thr_.verbRetries.add();
        sim::SpanTracer *sp = opSpan_ != 0 ? rt_.sim().spans() : nullptr;
        if (sp != nullptr)
            retrySpan_ = sp->begin(track_, sim::Stage::RetryRound,
                                   verbSpan_ != 0 ? verbSpan_ : opSpan_);
        std::uint64_t cycles = backoffCycles(
            kBackoffUnitCycles, kBackoffUnitCycles * kBackoffMaxFactor,
            attempt, thr_.rng());
        Time backoff_t0 = sim().now();
        co_await sim().delay(sim::cyclesToNs(cycles));
        if (sp != nullptr)
            sp->record(track_, sim::Stage::BackoffSleep, currentSpan(),
                       backoff_t0, sim().now());

        // New round: stragglers of the old one only return credits.
        // retryBuf_ swaps with failed_ instead of replacing it, so both
        // vectors keep their warm capacity across retry rounds.
        ++syncState_.epoch;
        retryBuf_.clear();
        retryBuf_.swap(failed_);
        for (TrackedWr &t : retryBuf_) {
            verbs::Qp &qp = rt_.qpFor(thr_.id(), t.blade);
            if (qp.needsReconnect()) {
                thr_.qpReconnects.add();
                co_await qp.reconnect(thr_.simThread());
            }
            restage(std::move(t));
        }
        co_await postSend();
    }
}

Task
SmartCtx::casAccess(RemotePtr dst, std::uint64_t expect,
                    std::uint64_t desired, std::uint64_t &old_value,
                    bool &success)
{
    // Write-back ordering: an atomic must not overtake buffered cached
    // writes on its line (FORD commit points CAS a version the execute
    // phase may have cached around).
    if (cache::BufferManager *bm = rt_.cache()) {
        std::uint32_t blade = bladeIndex(dst);
        if (bm->lineDirty(blade, dst.offset))
            co_await bm->flushLine(*this, blade, dst.offset);
    }
    thr_.casAttempts.add();
    // The old value lands in a SmartCtx member, not a frame local: a WR
    // orphaned by the verb timeout may complete after this frame died,
    // and its landing buffer must outlive the round.
    casLanding_ = 0;
    cas(dst, expect, desired, &casLanding_);
    co_await postSend();
    co_await sync();
    old_value = casLanding_;
    success = !failed() && (casLanding_ == expect);
    if (!success)
        thr_.casFails.add();
}

Task
SmartCtx::admitAccess(std::uint32_t blade_idx)
{
    // Degradation level 3: shed user ops last — one jittered admission
    // delay per access while the blade is saturated.
    if (rt_.overloadLevel(blade_idx) >= 3) {
        rt_.noteOpDelay();
        std::uint64_t cycles = decorrelatedJitterCycles(
            kViewJitterUnitCycles, kViewJitterMaxCycles,
            viewJitterPrev_, thr_.rng());
        Time t0 = sim().now();
        co_await sim().delay(sim::cyclesToNs(cycles));
        if (opSpan_ != 0)
            rt_.sim().spans()->record(track_, sim::Stage::BackoffSleep,
                                      currentSpan(), t0, sim().now());
    }
    ClusterView *cv = rt_.clusterView();
    if (cv == nullptr || !cv->fenced(blade_idx))
        co_return;
    // Epoch fence: the target blade is Dead in the current view. Poll a
    // bounded number of times (membership redirection may still be in
    // flight), then surface a typed StaleView so the application
    // re-resolves placement instead of touching the dead blade.
    for (std::uint32_t attempt = 0;; ++attempt) {
        cv->noteFenced();
        if (attempt >= kMaxViewWaits) {
            error_ = {VerbError::Kind::StaleView, lastFailStatus_};
            co_return;
        }
        std::uint64_t cycles = decorrelatedJitterCycles(
            kViewJitterUnitCycles, kViewJitterMaxCycles,
            viewJitterPrev_, thr_.rng());
        Time t0 = sim().now();
        co_await sim().delay(sim::cyclesToNs(cycles));
        if (opSpan_ != 0)
            rt_.sim().spans()->record(track_, sim::Stage::BackoffSleep,
                                      currentSpan(), t0, sim().now());
        if (!cv->fenced(blade_idx)) {
            viewJitterPrev_ = 0;
            co_return;
        }
    }
}

bool
SmartCtx::admitting() const
{
    return rt_.clusterView() != nullptr || rt_.config().overloadLadder;
}

cache::BufferManager *
SmartCtx::cacheTier(CachePolicy pol) const
{
    return pol == CachePolicy::Cached ? rt_.cache() : nullptr;
}

bool
SmartCtx::wireOnly(const AccessOp &op, CachePolicy pol) const
{
    return !admitting() && cacheTier(pol) == nullptr &&
           (op.mode_ == AccessMode::Read || op.mode_ == AccessMode::Write);
}

void
SmartCtx::stageWire(RemotePtr p, const AccessOp &op)
{
    if (op.mode_ == AccessMode::Read)
        read(p, MemSpan{op.buf_, op.len_});
    else
        write(p, ConstMemSpan{op.cbuf_, op.len_});
}

std::coroutine_handle<>
SmartCtx::Access::await_suspend(std::coroutine_handle<> h)
{
    SmartCtx &c = ctx_;
    if (!c.wireOnly(op_, pol_)) {
        sim::Task::Handle slow = c.accessSlow(p_, op_, pol_).detach();
        slow.promise().continuation = h;
        return slow;
    }
    c.stageWire(p_, op_);
    c.postSend();
    return sync_.emplace(c.sync()).await_suspend(h);
}

Task
SmartCtx::accessSlow(RemotePtr p, AccessOp op, CachePolicy pol)
{
    // Every step before the wire is guarded by the test wireOnly() makes
    // of it. Membership fence + overload admission:
    if (admitting()) [[unlikely]] {
        co_await admitAccess(bladeIndex(p));
        if (failed())
            co_return;
    }
    cache::BufferManager *tier = cacheTier(pol);
    switch (op.mode_) {
    case AccessMode::Read:
        if (tier != nullptr && tier->cacheable(p.offset, op.len_)) {
            ReadPart part{p, MemSpan{op.buf_, op.len_}};
            co_await tier->readParts(*this, &part, 1);
            co_return;
        }
        break;
    case AccessMode::Write:
        if (tier != nullptr &&
            tier->tryCachedWrite(bladeIndex(p), p,
                                 ConstMemSpan{op.cbuf_, op.len_})) {
            // Absorbed by a resident line (write-back; flushed on
            // eviction, cacheFlush() or a covering atomic).
            co_await cacheCharge(cache::kHitNs);
            co_return;
        }
        // Miss or Bypass: write through (no write-allocate).
        break;
    case AccessMode::Cas:
        co_await casAccess(p, op.a_, op.b_, *op.out_, *op.ok_);
        co_return;
    case AccessMode::Faa: {
        if (cache::BufferManager *bm = rt_.cache()) {
            std::uint32_t blade = bladeIndex(p);
            if (bm->lineDirty(blade, p.offset))
                co_await bm->flushLine(*this, blade, p.offset);
        }
        casLanding_ = 0;
        faa(p, op.a_, &casLanding_);
        co_await postSend();
        co_await sync();
        *op.out_ = casLanding_;
        co_return;
    }
    }
    // A read or write the cache tier did not serve: the wire path.
    stageWire(p, op);
    co_await postSend();
    co_await sync();
}

Task
SmartCtx::accessMany(const ReadPart *parts, std::uint32_t nparts, CachePolicy pol)
{
    if (admitting() && nparts > 0) [[unlikely]] {
        for (std::uint32_t i = 0; i < nparts; ++i) {
            co_await admitAccess(bladeIndex(parts[i].src));
            if (failed())
                co_return;
        }
    }
    cache::BufferManager *bm = rt_.cache();
    bool cached = bm != nullptr && pol == CachePolicy::Cached &&
                  nparts <= cache::kMaxParts;
    if (cached) {
        std::uint32_t lines = 0;
        for (std::uint32_t i = 0; i < nparts; ++i) {
            if (!bm->cacheable(parts[i].src.offset, parts[i].dst.len)) {
                cached = false;
                break;
            }
            lines += (parts[i].src.offset + parts[i].dst.len - 1) /
                         cache::kLineBytes -
                     parts[i].src.offset / cache::kLineBytes + 1;
        }
        if (lines > cache::kMaxBatchLines)
            cached = false;
        if (cached) {
            co_await bm->readParts(*this, parts, nparts);
            co_return;
        }
    }
    // Classic path: stage everything, one doorbell batch, one sync.
    for (std::uint32_t i = 0; i < nparts; ++i)
        read(parts[i].src, parts[i].dst);
    co_await postSend();
    co_await sync();
}

Task
SmartCtx::cacheFlush()
{
    if (cache::BufferManager *bm = rt_.cache())
        co_await bm->flushAll(*this);
}

Task
SmartCtx::cacheCharge(Time d)
{
    if (d == 0)
        co_return;
    Time t0 = sim().now();
    co_await thr_.simThread().compute(d);
    if (opSpan_ != 0)
        rt_.sim().spans()->record(track_, sim::Stage::Cache, currentSpan(),
                                  t0, sim().now());
}

Task
SmartCtx::backoffCasSync(RemotePtr dst, std::uint64_t expect,
                         std::uint64_t desired, std::uint64_t &old_value,
                         bool &success)
{
    co_await casAccess(dst, expect, desired, old_value, success);
    if (success) {
        casFailStreak_ = 0;
        co_return;
    }
    const SmartConfig &cfg = rt_.config();
    if (cfg.backoff) {
        std::uint64_t tmax_cycles = cfg.dynBackoffLimit
            ? thr_.conflictCtrl().tmaxCycles()
            : kBackoffUnitCycles * kBackoffMaxFactor;
        std::uint64_t cycles = backoffCycles(
            kBackoffUnitCycles, tmax_cycles, casFailStreak_, thr_.rng());
        ++casFailStreak_;
        // The coroutine yields for the backoff window (sibling coroutines
        // keep the thread busy); concurrency reduction under contention
        // is the coroutine gate's job.
        Time t0 = sim().now();
        co_await sim().delay(sim::cyclesToNs(cycles));
        if (opSpan_ != 0)
            rt_.sim().spans()->record(track_, sim::Stage::BackoffSleep,
                                      currentSpan(), t0, sim().now());
    }
}

Task
SmartCtx::compute(Time d)
{
    Time t0 = sim().now();
    co_await thr_.simThread().compute(d);
    if (opSpan_ != 0)
        rt_.sim().spans()->record(track_, sim::Stage::Cpu, currentSpan(),
                                  t0, sim().now());
}

Task
SmartCtx::opBegin()
{
    // Each application op starts with a clean failure slate.
    clearError();
    sim::SpanTracer *sp = rt_.sim().spans();
    if (sp != nullptr && opSampleCount_++ % sp->sampleEvery() == 0) {
        if (track_ == 0) {
            std::string thread =
                rt_.name() + "/t" + std::to_string(thr_.id());
            track_ = sp->internTrack(
                thread + "/c" + std::to_string(coroIdx_), thread);
        }
        opSpan_ = sp->begin(track_, sim::Stage::Op, 0);
        Time t0 = sim().now();
        co_await thr_.coroGate().acquire();
        sp->record(track_, sim::Stage::GateWait, opSpan_, t0, sim().now());
        co_return;
    }
    co_await thr_.coroGate().acquire();
}

void
SmartCtx::opEnd()
{
    if (opSpan_ != 0) {
        endVerbSpan(); // defensive: an errored op may skip sync()'s close
        rt_.sim().spans()->end(opSpan_);
        opSpan_ = 0;
    }
    thr_.coroGate().release();
}

void
SmartCtx::endVerbSpan()
{
    if (verbSpan_ != 0) {
        rt_.sim().spans()->end(verbSpan_);
        verbSpan_ = 0;
    }
}

} // namespace smart
