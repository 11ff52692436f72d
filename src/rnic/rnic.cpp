/**
 * @file
 * Implementation of the RNIC hardware model.
 */

#include "rnic/rnic.hpp"

#include <cassert>
#include <memory>

namespace smart::rnic {

using sim::Task;
using sim::Time;

namespace {

/**
 * Ask the host CPU to pull [p, p + n) into its caches for the copy a
 * later stage makes (DESIGN §9: prefetch one stage ahead, never on an
 * unchecked address). A hint: no architectural effect, no event.
 */
template <bool kForWrite>
void
prefetchBytes(const std::uint8_t *p, std::uint32_t n)
{
    for (std::uint32_t off = 0; off < n; off += 64)
        __builtin_prefetch(p + off, kForWrite ? 1 : 0, 3);
}

} // namespace

Rnic::Rnic(sim::Simulator &sim, const RnicConfig &cfg, std::string name)
    : sim_(sim), cfg_(cfg), name_(std::move(name)),
      faultName_(name_ + ".rnic"), retryWire_(sim), wire_(sim),
      pipeline_(sim, 1, name_ + ".pipe"),
      atomicUnits_(sim, kAtomicUnits, name_ + ".atomic"),
      dmaEngines_(sim, kDmaEngines, name_ + ".dma"),
      pcie_(sim, 1, name_ + ".pcie"),
      mttCache_(kMttCacheCapacity)
{
    sim::Labels labels{{"blade", name_}};
    sim::MetricsRegistry &m = sim_.metrics();
    perf_.registerWith(m, this, labels);
    m.registerCounter(this, "rnic.wqe_hits", labels, &wqeHits_);
    m.registerCounter(this, "rnic.wqe_misses", labels, &wqeMisses_);
    m.registerGauge(this, "rnic.owr_now", labels,
                    [this] { return static_cast<double>(owrNow_); });
    m.registerCounter(this, "rnic.wr_errors", labels, &wrErrors_);
    sim_.addFaultTarget(this);
}

Rnic::~Rnic()
{
    sim_.removeFaultTarget(this);
    sim_.metrics().unregisterOwner(this);
}

void
Rnic::applyFault(sim::FaultKind kind, sim::Time duration)
{
    switch (kind) {
    case sim::FaultKind::CompletionError:
        ++pendingCompletionErrors_;
        break;
    case sim::FaultKind::NicStall:
        stallUntil_ = std::max(stallUntil_, sim_.now() + duration);
        break;
    case sim::FaultKind::RnicReset:
        // Firmware reset: in-flight WRs flush in error (epoch mismatch
        // at completion time) and bound QPs must walk back to RTS. The
        // device absorbs no new doorbells while re-initializing.
        ++epoch_;
        stallUntil_ = std::max(stallUntil_, sim_.now() + kQpModifyNs);
        break;
    case sim::FaultKind::Crash:
        setDown(true);
        if (duration > 0)
            sim_.schedule(duration, [this] { setDown(false); });
        break;
    }
}

void
Rnic::completeError(const WorkReq &wr, WcStatus status)
{
    wrErrors_.add();
    --owrNow_;
    if (wr.sink != nullptr)
        wr.sink->complete(wr, 0, status);
}

const MrRecord &
Rnic::registerMemory(std::uint8_t *base, std::uint64_t length)
{
    MrRecord rec;
    rec.id = static_cast<std::uint32_t>(mrs_.size()) + 1;
    assert(rec.id < (1u << 20) && "rkey space exhausted");
    rec.rkey = (rec.id << 12) | kRkeyTag; // arbitrary but deterministic
    rec.base = base;
    rec.length = length;
    mrs_.push_back(rec);
    return mrs_.back();
}

double
Rnic::dramBytesPerWr() const
{
    std::uint64_t wrs = perf_.wrsCompleted.value();
    return wrs ? static_cast<double>(perf_.dramBytes.value()) / wrs : 0.0;
}

void
Rnic::postBatch(Rnic *target, std::vector<WorkReq> batch)
{
    for (WorkReq &wr : batch) {
        wr.uid = nextUid_++;
        wr.initEpoch = epoch_;
    }
    owrNow_ += batch.size();
    BatchFetch *f;
    if (idleFetches_.empty()) {
        fetches_.push_back(std::make_unique<BatchFetch>());
        f = fetches_.back().get();
        f->nic = this;
    } else {
        f = idleFetches_.back();
        idleFetches_.pop_back();
    }
    f->target = target;
    f->wrs = std::move(batch);
    if (stallUntil_ > sim_.now()) {
        // Stalled NIC: the doorbell write posts, but the device fetches
        // nothing until the stall lifts.
        sim_.scheduleAt(stallUntil_, [this, f] { launchFetch(f); });
        return;
    }
    launchFetch(f);
}

void
Rnic::launchFetch(BatchFetch *f)
{
    sim_.schedule(0, [this, f] { fetchWqes(f); });
}

void
Rnic::fetchWqes(BatchFetch *f)
{
    // The doorbell ring triggers a DMA fetch of the new WQEs, in
    // chunk-sized PCIe reads (the hardware prefetches whole chunks).
    std::uint32_t wqe_bytes =
        static_cast<std::uint32_t>(f->wrs.size()) * kWqeBytes;
    std::uint32_t lines = (wqe_bytes + 63) / 64;
    std::uint32_t fetch_bytes = lines * 64;
    perf_.dramBytes.add(fetch_bytes);
    // The fetch serves the whole batch; attribute it to the first traced
    // WR (sampling makes at most a few per batch traced anyway).
    f->traced = 0;
    if (sim_.spans() != nullptr) {
        for (const WorkReq &wr : f->wrs) {
            if (wr.traceSpan != 0) {
                f->traced = wr.traceSpan;
                break;
            }
        }
    }
    f->t0 = sim_.now();
    dmaStart(fetch_bytes, [f] { f->nic->issueBatch(f); });
}

void
Rnic::issueBatch(BatchFetch *f)
{
    if (f->traced != 0) {
        sim::SpanTracer *sp = sim_.spans();
        sp->record(spanTrack(*sp), sim::Stage::WqeFetch, f->traced, f->t0,
                   sim_.now());
    }
    for (WorkReq &wr : f->wrs)
        sim_.spawnDetached(executeWr(f->target, std::move(wr)));
    recycleBatchBuffer(std::move(f->wrs));
    f->wrs = {};
    idleFetches_.push_back(f);
}

void
Rnic::translateStart(std::coroutine_handle<> h)
{
    // Only reached on a miss (await_ready covered the hit): an extra
    // pipeline pass plus a host-DRAM read.
    perf_.mttRefetches.add();
    perf_.dramBytes.add(kMttMissBytes);
    if (pipeline_.tryAcquire())
        translatePipe(h);
    else
        pipeline_.enqueue([this, h] { translatePipe(h); });
}

void
Rnic::translatePipe(std::coroutine_handle<> h)
{
    sim_.schedule(kPipeResponderNs, [this, h] {
        pipeline_.release();
        sim_.scheduleResume(kMttMissLatencyNs, h);
    });
}

Task
Rnic::executeWr(Rnic *target, WorkReq wr)
{
    // Device-side spans are recorded by wrapping existing awaits in
    // now() timestamps — the pipeline itself is untouched. Untraced WRs
    // (the common case, and every WR when no tracer is installed) keep
    // sp == nullptr and skip every site with one branch. A stage goes to
    // the tracer of the shard it runs on; wr.traceSpan is an id in the
    // initiator's tracer (sp), so responder records name sp as the
    // parent's owner and SpanTracer::absorb links the two at capture
    // time. At one shard both are the same tracer.
    sim::SpanTracer *sp = wr.traceSpan != 0 ? sim_.spans() : nullptr;
    auto devSpan = [&](Rnic &dev, sim::Stage st, Time t0, Time t1) {
        if (sp == nullptr)
            return;
        if (sim::SpanTracer *here = dev.sim_.spans())
            here->record(dev.spanTrack(*here), st, wr.traceSpan, t0, t1, sp);
    };

    // ---- Initiator issue ----
    co_await pipeline_.hold(kPipeIssueNs);

    // Device-context ICM lookup (QPC root / MPT segment). With one
    // shared context this always hits; with per-thread contexts the
    // aggregate footprint thrashes the on-chip cache (s2.2).
    std::uint64_t icm_key =
        wr.icmBase + wr.uid % kIcmEntriesPerContext;
    if (!mttCache_.access(icm_key)) {
        Time t0 = sim_.now();
        perf_.mttRefetches.add();
        perf_.dramBytes.add(kMttMissBytes);
        co_await pipeline_.hold(kIcmMissExtraPipeNs);
        co_await sim_.delay(kMttMissLatencyNs);
        devSpan(*this, sim::Stage::MttFetch, t0, sim_.now());
    }

    if (wr.localBuf != nullptr) {
        Time t0 = sim_.now();
        co_await translate(wr.localTransKey);
        // Hits are 0 ns, which record() skips.
        devSpan(*this, sim::Stage::MttFetch, t0, sim_.now());
    }

    // Unreachable responder (crashed blade): the transport retries for
    // its timeout budget, then completes the WR in error.
    if (target == nullptr || target->down_) {
        co_await sim_.delay(kTransportRetryNs);
        completeError(wr, WcStatus::RetryExceeded);
        co_return;
    }

    // ---- Request over the wire ----
    // The request leaves once the egress link has serialized it and
    // arrives a propagation delay later: one crossing, no egress event.
    std::uint32_t req_bytes = kHeaderBytes;
    if (wr.op == Op::Write)
        req_bytes += wr.length;
    else if (wr.op == Op::Cas)
        req_bytes += 16;
    else if (wr.op == Op::Faa)
        req_bytes += 8;
    Time wire_t0 = sim_.now();
    Time arrival = egressEnd(req_bytes) + kPropagationNs;
    devSpan(*this, sim::Stage::Link, wire_t0, arrival);
    // The READ payload is borrowed from (and later returned to) this
    // initiator's pool, so the pool is touched only on this shard.
    std::vector<std::uint8_t> payload;
    if (wr.op == Op::Read)
        payload = takeByteBuffer();
    co_await cross(wire_, *target, arrival);

    // ---- Responder, on the target's shard ----
    Rnic &r = *target;
    WcStatus status = WcStatus::Success;
    std::uint64_t old_value = 0; // prior memory value (CAS/FAA)
    Time back_at = 0;
    sim::WireEndpoint *back_wire = &r.wire_;
    if (r.down_) {
        // Crashed while the request was in flight: no ACK ever comes; the
        // initiator transport retries for its budget, then gives up. The
        // crossing back lands when that budget expires.
        status = WcStatus::RetryExceeded;
        back_at = r.sim_.now() + kTransportRetryNs;
        back_wire = &r.retryWire_;
    } else {
        r.perf_.wrsServed.add();
        co_await r.pipeline_.hold(kPipeResponderNs);

        std::uint32_t resp_bytes = kHeaderBytes;
        const MrRecord *mr = r.findMr(wr.rkey);
        if (mr == nullptr || wr.remoteOffset + wr.length > mr->length) {
            // Invalid rkey (e.g. the MR was re-registered after a blade
            // restart) or out-of-bounds access: the responder NAKs and
            // the initiator sees an error CQE.
            status = WcStatus::RemoteAccessError;
        } else {
            std::uint8_t *remote = mr->base + wr.remoteOffset;
            Time t0 = r.sim_.now();
            co_await r.translate(transKey(mr->id, wr.remoteOffset));
            devSpan(r, sim::Stage::MttFetch, t0, r.sim_.now());

            t0 = r.sim_.now();
            if (wr.op == Op::Read || wr.op == Op::Write) {
                std::uint32_t bytes = wr.length + kPayloadPadBytes;
                r.perf_.dramBytes.add(bytes);
                if (wr.op == Op::Read) {
                    prefetchBytes<false>(remote, wr.length);
                } else {
                    prefetchBytes<false>(wr.localBuf, wr.length);
                    prefetchBytes<true>(remote, wr.length);
                }
                co_await r.pcieDma(bytes);
                devSpan(r, sim::Stage::Dma, t0, r.sim_.now());
                if (wr.op == Op::Read) {
                    // Snapshot target memory at DMA-read time: later
                    // concurrent writes must not be visible to this READ.
                    payload.assign(remote, remote + wr.length);
                    resp_bytes += wr.length;
                } else {
                    assert(wr.localBuf != nullptr);
                    // Cross-shard source read: the bytes behind
                    // wr.localBuf were written before the WR crossed,
                    // and the window barrier that hands the crossing
                    // over orders them before this copy.
                    std::memcpy(remote, wr.localBuf, wr.length);
                }
            } else {
                assert(wr.length == 8);
                prefetchBytes<true>(remote, 8);
                co_await r.atomicUnits_.hold(kAtomicServiceNs);
                // Atomic read-modify-write executes in one event (the
                // one that frees the unit): no interleaving.
                std::memcpy(&old_value, remote, 8);
                if (wr.op == Op::Faa) {
                    std::uint64_t updated = old_value + wr.compare;
                    std::memcpy(remote, &updated, 8);
                } else if (old_value == wr.compare) {
                    std::memcpy(remote, &wr.swap, 8);
                }
                devSpan(r, sim::Stage::Atomic, t0, r.sim_.now());
                r.perf_.dramBytes.add(16);
                resp_bytes += 8;
            }
        }

        // ---- Response (or NAK) over the wire ----
        wire_t0 = r.sim_.now();
        back_at = r.egressEnd(resp_bytes) + kPropagationNs;
        if (status == WcStatus::Success)
            devSpan(r, sim::Stage::Link, wire_t0, back_at);
    }
    co_await cross(*back_wire, *this, back_at);

    // ---- Initiator completion, back on this shard ----
    if (status == WcStatus::Success) {
        if (down_ || epoch_ != wr.initEpoch) {
            // The initiating device reset/crashed under this WR: its QP
            // is gone, so the response is dropped and the WR flushes.
            status = WcStatus::FlushedInError;
        } else if (pendingCompletionErrors_ > 0) {
            --pendingCompletionErrors_;
            status = WcStatus::RemoteAccessError;
        } else if (completionErrorProb_ > 0.0 && faultRng_ != nullptr &&
                   faultRng_->uniformDouble() < completionErrorProb_) {
            status = WcStatus::RemoteAccessError;
        }
    }
    if (status != WcStatus::Success) {
        recycleByteBuffer(std::move(payload));
        completeError(wr, status);
        co_return;
    }

    bool wqe_hit = rng_.uniformDouble() < wqeHitProb();
    if (wqe_hit) {
        wqeHits_.add();
    } else {
        // WQE state fell out of the on-chip cache: refetch via a DMA
        // engine. This is the cache-thrashing cost of too many OWRs.
        wqeMisses_.add();
        perf_.wqeRefetches.add();
        if (wr.wqeMissCounter)
            wr.wqeMissCounter->add();
        perf_.dramBytes.add(kWqeMissBytes);
        Time t0 = sim_.now();
        co_await dmaEngines_.hold(kDmaMissServiceNs);
        devSpan(*this, sim::Stage::WqeFetch, t0, sim_.now());
    }
    co_await pipeline_.hold(kPipeCompletionNs);

    // Land payload and the (compressed) CQE in host memory.
    std::uint32_t land_bytes = kCqeBytes;
    if (wr.op == Op::Read)
        land_bytes += wr.length + kPayloadPadBytes;
    else if (wr.op == Op::Cas || wr.op == Op::Faa)
        land_bytes += 8;
    perf_.dramBytes.add(land_bytes);
    Time t0 = sim_.now();
    if (wr.op == Op::Read && wr.localBuf != nullptr) {
        prefetchBytes<false>(payload.data(), wr.length);
        prefetchBytes<true>(wr.localBuf, wr.length);
    }
    co_await pcieDma(land_bytes);
    devSpan(*this, sim::Stage::Pcie, t0, sim_.now());

    if (wr.op == Op::Read && wr.localBuf != nullptr)
        std::memcpy(wr.localBuf, payload.data(), wr.length);
    if ((wr.op == Op::Cas || wr.op == Op::Faa) && wr.localBuf != nullptr)
        std::memcpy(wr.localBuf, &old_value, 8);
    recycleByteBuffer(std::move(payload));

    perf_.wrsCompleted.add();
    --owrNow_;
    if (wr.sink != nullptr)
        wr.sink->complete(wr, old_value, WcStatus::Success);
}

} // namespace smart::rnic
