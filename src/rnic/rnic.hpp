/**
 * @file
 * The RNIC hardware model: processing pipeline, on-chip caches, DMA
 * engines, PCIe interface, link egress, memory registration (MTT/MPT),
 * and one-sided operation execution against real host bytes.
 *
 * One Rnic instance models one ConnectX-6-class adapter plus the host
 * resources it contends on (PCIe link). Doorbell registers (UARs) are
 * *driver* objects allocated per device context and live in the verbs
 * layer; the Rnic only sees batches of work requests arriving after a
 * doorbell ring.
 */

#ifndef SMART_RNIC_RNIC_HPP
#define SMART_RNIC_RNIC_HPP

#include <cstdint>
#include <algorithm>
#include <cassert>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "rnic/cache_model.hpp"
#include "sim/fault.hpp"
#include "sim/random.hpp"
#include "rnic/perf_counters.hpp"
#include "rnic/rnic_config.hpp"
#include "sim/resource.hpp"
#include "sim/simulator.hpp"
#include "sim/span.hpp"
#include "sim/task.hpp"

namespace smart::rnic {

/** One-sided verb opcodes supported by the model. */
enum class Op : std::uint8_t { Read, Write, Cas, Faa };

/** CQE status, mirroring the ibverbs wc_status values we model. */
enum class WcStatus : std::uint8_t
{
    Success,
    /** Responder NAK: invalid rkey or out-of-bounds access. */
    RemoteAccessError,
    /** Transport retry budget exhausted (unreachable responder). */
    RetryExceeded,
    /** QP left RTS (error state / device reset) with the WR queued. */
    FlushedInError,
};

class Rnic;
struct WorkReq;

/** Receives the completion of a work request (implemented by verbs::Cq). */
class CompletionSink
{
  public:
    virtual ~CompletionSink() = default;

    /**
     * Called exactly once per work request when its CQE lands.
     * @param wr the completed request
     * @param oldValue prior memory value for CAS/FAA (0 otherwise)
     * @param status Success, or why the WR failed; on failure the local
     *        buffer is NOT written (partial results never land)
     */
    virtual void complete(const WorkReq &wr, std::uint64_t oldValue,
                          WcStatus status) = 0;
};

/** A registered memory region record (the MPT entry). */
struct MrRecord
{
    std::uint32_t id = 0;
    std::uint32_t rkey = 0;
    std::uint8_t *base = nullptr;
    std::uint64_t length = 0;
};

/**
 * One work request as seen by the hardware. Every staged WR is copied a
 * few times on its way to the wire, so the fields are ordered largest
 * first: 128 bytes, no padding holes.
 */
struct WorkReq
{
    std::uint64_t uid = 0;   ///< globally unique (WQE cache key)
    std::uint64_t wrId = 0;  ///< application wr_id (carried to the CQE)
    std::uint64_t remoteOffset = 0; ///< byte offset within the remote MR
    std::uint8_t *localBuf = nullptr; ///< payload source/landing (may be null)
    std::uint64_t localTransKey = 0;  ///< initiator-side MTT key
    std::uint64_t compare = 0; ///< CAS compare value / FAA addend
    std::uint64_t swap = 0;    ///< CAS swap value
    /** ICM base of the issuing device context (context footprint model). */
    std::uint64_t icmBase = 0;
    CompletionSink *sink = nullptr;
    /**
     * Optional initiator-side attribution: bumped when this WR's WQE
     * state must be refetched (cache miss). Lets the SMART layer keep
     * per-thread refetch counts the aggregate RNIC counter cannot.
     */
    sim::Counter *wqeMissCounter = nullptr;
    /**
     * Opaque retry-policy cookie: identifies this WR within its issuing
     * SmartCtx sync round so failed WRs can be re-staged individually.
     */
    std::uint64_t appTag = 0;
    /**
     * Compute-side cache-tier routing cookie (0 for ordinary WRs).
     * Encodes a fill / write-back / invalidation action plus a frame
     * generation so stale or duplicate CQEs are rejected; routed to the
     * owning BufferManager even for abandoned sync rounds.
     */
    std::uint64_t cacheCookie = 0;
    /** Initiator device epoch at post time (set by postBatch); a
     *  mismatch at completion means the RNIC reset under the WR. */
    std::uint64_t initEpoch = 0;
    std::uint32_t length = 0;
    std::uint32_t rkey = 0;        ///< remote MR
    /** Sync-round epoch; CQEs from abandoned rounds are ignored. */
    std::uint32_t syncEpoch = 0;
    /** Connected-blade index this WR targets (set at stage time; the
     *  completion path uses it for per-blade outstanding accounting). */
    std::uint32_t bladeIdx = 0;
    /**
     * Parent span (the issuing coroutine's verb/retry span) when this
     * WR belongs to a sampled operation of an installed SpanTracer;
     * 0 (the common case) disables all device-side span recording.
     */
    sim::SpanId traceSpan = 0;
    Op op = Op::Read;
    bool signaled = true;
};
static_assert(sizeof(WorkReq) == 128);

/**
 * The RNIC model. Latencies and capacities are the constants of
 * rnic_config.hpp plus the RnicConfig values; see DESIGN.md §5 for the
 * calibration rationale.
 *
 * The device is also a fault target (name "<blade>.rnic"): it absorbs
 * injected completion errors, doorbell stalls, resets and crash windows
 * from an installed FaultPlane. All fault state defaults to "healthy",
 * so runs without a plane take the exact same paths as before.
 */
class Rnic : public sim::FaultTarget
{
  public:
    Rnic(sim::Simulator &sim, const RnicConfig &cfg, std::string name);
    ~Rnic();

    Rnic(const Rnic &) = delete;
    Rnic &operator=(const Rnic &) = delete;

    /** @return the owning simulator. */
    sim::Simulator &sim() { return sim_; }

    /** @return the hardware configuration. */
    const RnicConfig &config() const { return cfg_; }

    /** @return diagnostic name ("mb0", "cb1", ...). */
    const std::string &name() const { return name_; }

    /** @return performance counters (mutable: the verbs layer counts
     *  doorbell rings and waits). */
    PerfCounters &perf() { return perf_; }

    /** @return performance counters, read-only. */
    const PerfCounters &perf() const { return perf_; }

    /**
     * Device-side span track of this adapter, interned in @p sp on first
     * use. Only called from instrumentation sites already gated on a
     * traced WR, so untraced runs never reach it.
     */
    sim::TrackId
    spanTrack(sim::SpanTracer &sp)
    {
        if (spanTrack_ == 0)
            spanTrack_ = sp.internTrack(name_ + ".rnic", "", true);
        return spanTrack_;
    }

    /** @return posted-but-uncompleted work requests (the paper's OWRs). */
    std::uint64_t owrNow() const { return owrNow_; }

    /**
     * @return probability that a completing WR still has its WQE state
     * on chip. With random replacement and a cyclic reference stream the
     * steady-state hit ratio is capacity / working-set.
     */
    double
    wqeHitProb() const
    {
        if (owrNow_ <= cfg_.wqeCacheCapacity)
            return 1.0;
        return static_cast<double>(cfg_.wqeCacheCapacity) /
               static_cast<double>(owrNow_);
    }

    /** @return WQE-cache hit ratio since the last reset. */
    double
    wqeHitRatio() const
    {
        std::uint64_t total = wqeHits_.value() + wqeMisses_.value();
        return total ? static_cast<double>(wqeHits_.value()) / total : 1.0;
    }

    /** Reset WQE-cache hit statistics (windowed measurements). */
    void
    resetWqeStats()
    {
        wqeHits_.reset();
        wqeMisses_.reset();
    }

    /**
     * Register host memory with the RNIC (creates the MPT/MTT entries).
     * @return the MR record; rkey can be shipped to remote initiators.
     */
    const MrRecord &registerMemory(std::uint8_t *base, std::uint64_t length);

    /** Look up a registered MR by rkey (nullptr if unknown). */
    const MrRecord *
    findMr(std::uint32_t rkey) const
    {
        std::uint32_t id = rkey >> 12;
        if ((rkey & 0xfffu) != kRkeyTag || id == 0 || id > mrs_.size())
            return nullptr;
        const MrRecord &mr = mrs_[id - 1];
        return mr.rkey == rkey ? &mr : nullptr;
    }

    /**
     * Drop the MPT entry for @p rkey. Accesses with the stale rkey then
     * complete with RemoteAccessError (blade restart semantics).
     */
    void
    invalidateMr(std::uint32_t rkey)
    {
        if (const MrRecord *mr = findMr(rkey))
            mrs_[mr->id - 1].rkey = 0; // no live MR has rkey 0
    }

    /** ---- Fault-target interface (see sim/fault.hpp) ---- */
    const std::string &faultTargetName() const override
    {
        return faultName_;
    }
    void applyFault(sim::FaultKind kind, sim::Time duration) override;
    bool setInjectedErrorRate(double per_op_prob, sim::Rng *rng) override
    {
        completionErrorProb_ = per_op_prob;
        faultRng_ = rng;
        return true;
    }
    bool faultedNow() const override
    {
        return down_ || sim_.now() < stallUntil_;
    }

    /**
     * Power the device down/up. Going up bumps the device epoch so WRs
     * and QPs from before the outage flush in error / must reconnect.
     */
    void
    setDown(bool down)
    {
        if (down_ && !down)
            ++epoch_;
        down_ = down;
    }

    /** @return true while crashed/powered down. */
    bool down() const { return down_; }

    /** @return device epoch; bumped by resets and crash recoveries. */
    std::uint64_t epoch() const { return epoch_; }

    /**
     * Reserve the ICM footprint for a new device context.
     * @return the context's ICM base key
     */
    std::uint64_t
    allocContextIcm()
    {
        std::uint64_t base =
            kIcmTag + nextContext_ * kIcmEntriesPerContext;
        ++nextContext_;
        return base;
    }

    /**
     * Hand a rung batch of work requests to the hardware. Called by the
     * verbs layer right after the doorbell MMIO; processing is
     * asynchronous.
     * @param target the responder RNIC (the memory blade's adapter)
     */
    void postBatch(Rnic *target, std::vector<WorkReq> batch);

    /** MTT translation key for an (mr, byte offset) pair. */
    static std::uint64_t
    transKey(std::uint32_t mr_id, std::uint64_t offset)
    {
        return (static_cast<std::uint64_t>(mr_id) << 32) |
               (offset >> 21); // 2 MB pages
    }

    /** Total inbound DRAM bytes divided by completed WRs (Fig. 4b). */
    double dramBytesPerWr() const;

    /**
     * Borrow an empty WorkReq vector with warm capacity. The flusher and
     * doorbell paths churn one batch vector per ring; recycling through
     * this pool keeps the steady state allocation-free.
     */
    std::vector<WorkReq>
    takeBatchBuffer()
    {
        if (batchPool_.empty())
            return {};
        std::vector<WorkReq> v = std::move(batchPool_.back());
        batchPool_.pop_back();
        return v;
    }

    /** Return a batch vector to the pool (cleared, capacity kept). */
    void
    recycleBatchBuffer(std::vector<WorkReq> &&v)
    {
        if (v.capacity() == 0 || batchPool_.size() >= kBatchPoolCap)
            return;
        v.clear();
        batchPool_.push_back(std::move(v));
    }

  private:
    /**
     * A rung batch from the doorbell to the end of its WQE fetch. Pooled:
     * the fetch is a frameless chain of events, and this is the state it
     * carries.
     */
    struct BatchFetch
    {
        Rnic *nic = nullptr;
        Rnic *target = nullptr;
        std::vector<WorkReq> wrs;
        sim::SpanId traced = 0;
        sim::Time t0 = 0;
    };

    /** Start @p f's WQE fetch in a new event at the current time. */
    void launchFetch(BatchFetch *f);
    /** Fetch the batch's WQEs via PCIe (the doorbell-triggered DMA). */
    void fetchWqes(BatchFetch *f);
    /** The fetch landed: issue each WR, return @p f to the pool. */
    void issueBatch(BatchFetch *f);

    /**
     * One work request, start to CQE, as one detached coroutine (this ==
     * the initiator). The issue half runs here: pipeline, ICM/MTT
     * lookups, egress serialization. The coroutine then crosses the wire
     * to @p target's shard, where the responder half runs on the
     * target's simulator and resources: pipeline, MR check, translation,
     * the operation itself against host bytes, egress. It crosses back
     * for the completion half here: WQE-cache model, completion
     * pipeline, CQE/payload landing. Every path, errors included, ends
     * on this shard, so the frame is freed by the thread-local arena
     * that allocated it.
     */
    sim::Task executeWr(Rnic *target, WorkReq wr);

    /**
     * Awaitable: carry the suspended WR across the wire. EventFn::resume
     * of the frame goes out through endpoint @p from, for delivery on
     * @p to's shard at absolute @p dtime; the coroutine resumes there as
     * that delivery event.
     */
    struct CrossAwaiter
    {
        sim::WireEndpoint &from;
        Rnic &to;
        sim::Time dtime;

        bool await_ready() const noexcept { return false; }
        void
        await_suspend(std::coroutine_handle<> h) const
        {
            from.send(to.sim_, dtime, sim::EventFn::resume(h));
        }
        void await_resume() const noexcept {}
    };

    static CrossAwaiter
    cross(sim::WireEndpoint &from, Rnic &to, sim::Time dtime)
    {
        return {from, to, dtime};
    }

    /**
     * Serialize @p bytes on this adapter's egress link behind every
     * earlier send and @return when the last byte leaves. The link is a
     * FIFO of capacity 1, so this is the time a queued acquire / delay /
     * release of it would reach; nothing waits on it but the crossing,
     * which carries serialization end + propagation as its dtime.
     */
    sim::Time
    egressEnd(std::uint32_t bytes)
    {
        sim::Time occupancy = static_cast<sim::Time>(
            static_cast<double>(bytes) / kLinkBytesPerNs);
        // Every frame carries a header, so each send holds the link for
        // at least 1 ns: one source's dtimes strictly increase.
        assert(occupancy > 0);
        egressFreeAt_ = std::max(sim_.now(), egressFreeAt_) + occupancy;
        return egressFreeAt_;
    }

    /*
     * The per-WR leaf stages below (and Resource::hold) are frameless
     * awaitables, not child coroutines: each runs 2-4 times per WR, and a
     * Task would cost a frame-pool round-trip plus actor dispatch per
     * call. They chain EventFn callbacks through the same resources and
     * delays the old coroutine bodies awaited, so the event sequence
     * (count, timestamps, FIFO seq) is bit-identical to the coroutine
     * formulation — metric output does not change.
     */

    /** Awaitable: occupy host PCIe for @p bytes, add the DMA latency. */
    struct DmaAwaiter
    {
        Rnic &nic;
        std::uint32_t bytes;

        bool await_ready() const noexcept { return false; }
        void
        await_suspend(std::coroutine_handle<> h) const
        {
            nic.dmaStart(bytes, h);
        }
        void await_resume() const noexcept {}
    };

    DmaAwaiter pcieDma(std::uint32_t bytes) { return {*this, bytes}; }

    /** Occupy host PCIe for @p bytes, then run @p k (a coroutine handle
     *  or an 8-byte callable) after the DMA latency. */
    template <typename K>
    void
    dmaStart(std::uint32_t bytes, K k)
    {
        if (pcie_.tryAcquire())
            dmaOccupy(bytes, k);
        else
            pcie_.enqueue([this, bytes, k] { dmaOccupy(bytes, k); });
    }

    template <typename K>
    void
    dmaOccupy(std::uint32_t bytes, K k)
    {
        // The zero-occupancy check mirrors delay()'s await_ready elision
        // in the coroutine formulation: a 0 ns stage runs inline.
        sim::Time occupancy = static_cast<sim::Time>(
            static_cast<double>(bytes) / kPcieBytesPerNs);
        auto landed = [this, k] {
            pcie_.release();
            sim_.schedule(kPcieLatencyNs, k);
        };
        if (occupancy == 0)
            landed();
        else
            sim_.schedule(occupancy, landed);
    }

    /**
     * Awaitable: touch the MTT/MPT cache. A hit completes synchronously
     * — no suspension, no event; a miss pays the refetch pipeline pass
     * plus the host-DRAM latency.
     */
    struct TranslateAwaiter
    {
        Rnic &nic;
        std::uint64_t key;

        bool
        await_ready() const
        {
            return nic.mttCache_.access(key);
        }
        void
        await_suspend(std::coroutine_handle<> h) const
        {
            nic.translateStart(h);
        }
        void await_resume() const noexcept {}
    };

    TranslateAwaiter translate(std::uint64_t key) { return {*this, key}; }
    void translateStart(std::coroutine_handle<> h);
    void translatePipe(std::coroutine_handle<> h);

    /** Deliver an error CQE for @p wr (no payload lands). */
    void completeError(const WorkReq &wr, WcStatus status);

    sim::Simulator &sim_;
    RnicConfig cfg_;
    std::string name_;
    std::string faultName_;
    /**
     * Crossings that bypass the egress link: the responder-crashed
     * return leg. Constructed just before wire_, so its srcId sorts
     * right below it and, at an equal dtime, such a crossing is
     * delivered before any egress crossing of this adapter: it left
     * first (an egress crossing due at the same time finishes
     * serializing 19.75 us after the crash leg is sent).
     */
    sim::WireEndpoint retryWire_;
    /** This adapter's wire identity: fixes cross-blade delivery
     *  tie-breaks independently of shard assignment (see wire.hpp). */
    sim::WireEndpoint wire_;

    sim::Resource pipeline_;
    sim::Resource atomicUnits_;
    sim::Resource dmaEngines_;
    sim::Resource pcie_;
    /** When the egress link finishes serializing its last send. */
    sim::Time egressFreeAt_ = 0;

    LruCache mttCache_;

    std::uint64_t owrNow_ = 0;
    sim::Counter wqeHits_;
    sim::Counter wqeMisses_;
    sim::Rng rng_;
    sim::TrackId spanTrack_ = 0; // interned lazily by spanTrack()

    // Fault state (defaults = healthy; only a FaultPlane mutates these).
    bool down_ = false;
    std::uint64_t epoch_ = 0;
    sim::Time stallUntil_ = 0;
    std::uint64_t pendingCompletionErrors_ = 0;
    double completionErrorProb_ = 0.0;
    sim::Rng *faultRng_ = nullptr;
    sim::Counter wrErrors_;

    PerfCounters perf_;

    /** MPT, indexed by MR id - 1 (a deque: records never move). */
    std::deque<MrRecord> mrs_;
    /** Low 12 bits of every rkey this adapter hands out. */
    static constexpr std::uint32_t kRkeyTag = 0xabcu;
    std::uint64_t nextUid_ = 1;

    /** Key-space tag separating ICM entries from MTT page entries. */
    static constexpr std::uint64_t kIcmTag = 1ull << 62;
    std::uint64_t nextContext_ = 0;

    /** Borrow a byte vector for READ snapshots (warm capacity). */
    std::vector<std::uint8_t>
    takeByteBuffer()
    {
        if (bytePool_.empty())
            return {};
        std::vector<std::uint8_t> v = std::move(bytePool_.back());
        bytePool_.pop_back();
        return v;
    }

    /** Return a snapshot vector to the pool. */
    void
    recycleByteBuffer(std::vector<std::uint8_t> &&v)
    {
        if (v.capacity() == 0 || bytePool_.size() >= kBytePoolCap)
            return;
        v.clear();
        bytePool_.push_back(std::move(v));
    }

    static constexpr std::size_t kBatchPoolCap = 64;
    static constexpr std::size_t kBytePoolCap = 256;
    std::vector<std::vector<WorkReq>> batchPool_;
    std::vector<std::vector<std::uint8_t>> bytePool_;
    /** Every BatchFetch ever made, and the idle ones. */
    std::vector<std::unique_ptr<BatchFetch>> fetches_;
    std::vector<BatchFetch *> idleFetches_;
};

} // namespace smart::rnic

#endif // SMART_RNIC_RNIC_HPP
