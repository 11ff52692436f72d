/**
 * @file
 * libibverbs-flavoured user API over the RNIC model, together with the
 * mlx5-flavoured driver behaviour that the paper reverse-engineered:
 * doorbell registers (UARs) allocated per device context, assigned to QPs
 * in a deterministic round-robin, and protected by spinlocks.
 */

#ifndef SMART_VERBS_VERBS_HPP
#define SMART_VERBS_VERBS_HPP

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "rnic/rnic.hpp"
#include "sim/resource.hpp"
#include "verbs/mem_span.hpp"
#include "sim/sim_thread.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"

namespace smart::verbs {

using rnic::Op;
using rnic::Rnic;
using rnic::RnicConfig;
using rnic::WcStatus;
using rnic::WorkReq;
using sim::Resource;
using sim::SimThread;
using sim::Simulator;
using sim::Task;
using sim::Time;

/**
 * Tracks which actors recently used a spinlock-protected structure: a
 * core that took the lock within the window still holds the lock cache
 * line, so the next handoff pays one bounce per such core even when the
 * instantaneous wait queue is empty.
 */
class SharerTracker
{
  public:
    /**
     * Record that @p self took the lock at @p now.
     * @return the number of *other* users seen within @p window ending at
     *         @p now (before this use)
     */
    std::uint32_t
    noteUse(const void *self, Time now, Time window)
    {
        std::uint32_t n = 0;
        bool seen = false;
        for (Use &u : uses_) {
            if (u.user == self) {
                u.when = now;
                seen = true;
            } else if (u.when + window >= now) {
                ++n;
            }
        }
        if (!seen)
            uses_.push_back({self, now});
        return n;
    }

  private:
    struct Use
    {
        const void *user;
        Time when;
    };

    /** One entry per user ever seen (a handful of threads or QPs). */
    std::vector<Use> uses_;
};

/**
 * A doorbell register (UAR page). The mlx5 driver protects each with a
 * spinlock; threads whose QPs share a UAR implicitly contend on it.
 */
struct Uar
{
    Uar(Simulator &sim, std::uint32_t id, bool low_latency)
        : lock(sim, 1, "uar"), id(id), lowLatency(low_latency)
    {
    }

    Resource lock;
    SharerTracker sharers;
    std::uint32_t id;
    bool lowLatency;
    std::uint32_t boundQps = 0;
};

/** A polled completion (ibv_wc). */
struct Wc
{
    std::uint64_t wrId = 0;
    Op op = Op::Read;
    std::uint64_t oldValue = 0; ///< prior memory value for CAS/FAA
    WcStatus status = WcStatus::Success;
};

/**
 * Completion queue. CQEs from the RNIC are dispatched to the submitter's
 * bookkeeping as soon as they land (SMART keeps a dedicated polling
 * coroutine per thread, so CQEs never sit unprocessed); the CPU and
 * CQ-lock costs of polling are charged to the coroutine that consumes
 * them, in pollUntil() / chargePoll().
 */
class Cq : public rnic::CompletionSink
{
  public:
    using Dispatch = std::function<void(const Wc &, const WorkReq &)>;

    Cq(Simulator &sim, const RnicConfig &cfg)
        : sim_(sim), cfg_(cfg), lock_(sim, 1, "cq")
    {
    }

    /** Install the CQE routing callback (invoked at delivery). */
    void setDispatch(Dispatch d) { dispatch_ = std::move(d); }

    /** rnic::CompletionSink: a CQE lands in host memory. */
    void
    complete(const WorkReq &wr, std::uint64_t old_value,
             WcStatus status) override
    {
        ++delivered_;
        Wc wc{wr.wrId, wr.op, old_value, status};
        if (dispatch_)
            dispatch_(wc, wr);
        // Batched delivery: instead of posting one wake event per CQE per
        // waiter, schedule a single drain at this timestamp; it resumes
        // every parked poller after all of the tick's CQEs dispatched.
        if (!pollWaiters_.empty() && !drainPending_) {
            drainPending_ = true;
            sim_.schedule(0, [this] { drainWaiters(); });
        }
    }

    /**
     * Block the calling coroutine (on @p thr) until @p done becomes true
     * (some dispatch flips it), then charge the polling costs for the
     * CQEs consumed meanwhile.
     */
    Task pollUntil(SimThread &thr, const bool &done);

    /** Awaitable returned by chargePoll(). */
    class PollCharge
    {
      public:
        PollCharge(Cq &cq, SimThread &thr, std::uint32_t ncqes)
            : cq_(cq), thr_(thr), ncqes_(ncqes)
        {
        }

        bool await_ready() const noexcept { return false; }
        void await_suspend(std::coroutine_handle<> h);
        void await_resume() const noexcept {}

      private:
        void cpuHeld();
        void lockHeld();

        Cq &cq_;
        SimThread &thr_;
        std::uint32_t ncqes_;
        std::coroutine_handle<> h_{};
    };

    /**
     * Awaitable: charge CPU + CQ-lock cost for polling @p ncqes
     * completions: the poller spins on the CQ lock (contended when the
     * CQ is shared) and processes each CQE. Frameless: it makes the
     * calls a coroutine would (CPU, then lock, then one delay).
     */
    PollCharge
    chargePoll(SimThread &thr, std::uint32_t ncqes)
    {
        return {*this, thr, ncqes};
    }

    /** @return total CQEs ever delivered. */
    std::uint64_t delivered() const { return delivered_; }

  private:
    friend class PollCharge;

    void
    drainWaiters()
    {
        drainPending_ = false;
        // Resume from a reused scratch vector: a resumed poller may park
        // again (or new completions may arrive) while we iterate.
        drainScratch_.assign(pollWaiters_.begin(), pollWaiters_.end());
        pollWaiters_.clear();
        for (std::coroutine_handle<> h : drainScratch_)
            h.resume();
        drainScratch_.clear();
    }

    /** Awaitable that parks the coroutine until the next delivery. */
    auto
    parkForEntry()
    {
        struct Awaiter
        {
            Cq &cq;
            bool await_ready() const noexcept { return false; }
            void
            await_suspend(std::coroutine_handle<> h)
            {
                cq.pollWaiters_.push_back(h);
            }
            void await_resume() const noexcept {}
        };
        return Awaiter{*this};
    }

    Simulator &sim_;
    const RnicConfig &cfg_;
    Resource lock_;
    std::uint64_t delivered_ = 0;
    std::deque<std::coroutine_handle<>> pollWaiters_;
    std::vector<std::coroutine_handle<>> drainScratch_;
    bool drainPending_ = false;
    Dispatch dispatch_;
};

class Context;

/** QP state machine (the ibv_qp_state subset the model distinguishes). */
enum class QpState : std::uint8_t { Reset, Init, Rtr, Rts, Error };

/**
 * A reliably-connected queue pair bound to one remote RNIC (memory blade).
 * postSend models the mlx5 fast path: QP spinlock, WQE writes, UAR
 * spinlock, doorbell MMIO — with contention penalties that grow with the
 * number of concurrent spinners (cache-line bouncing).
 *
 * QPs start in RTS (createQp models the whole connect handshake). When
 * the local device resets or the QP is moved to Error, posted WRs flush
 * with WcStatus::FlushedInError until reconnect() walks the
 * Reset->Init->RTR->RTS path again.
 */
class Qp
{
  public:
    Qp(Context &ctx, Cq &cq, Rnic *target, Uar *uar);

    /** Awaitable returned by postSend(); lives in the awaiting frame,
     *  which is where the batch waits while the locks are taken. */
    class PostSend
    {
      public:
        PostSend(Qp &qp, SimThread &thr, std::vector<WorkReq> wrs)
            : qp_(qp), thr_(thr), wrs_(std::move(wrs))
        {
        }

        bool await_ready();
        void await_suspend(std::coroutine_handle<> h);
        void await_resume() const noexcept {}

      private:
        void cpuHeld();
        void qpLockHeld();
        void qpCostPaid();
        void uarHeld();
        void rung();

        Qp &qp_;
        SimThread &thr_;
        std::vector<WorkReq> wrs_;
        std::coroutine_handle<> h_{};
        Time waitStart_ = 0;
        sim::SpanId traced_ = 0;
    };

    /**
     * Awaitable: post a batch of work requests and ring the doorbell.
     * Charges the posting thread's CPU for the entire critical path
     * (building WQEs and spinning on locks both burn cycles). On a QP
     * that is not in RTS (or whose device reset under it), the batch is
     * flushed in error instead of reaching the hardware. Frameless: each
     * lock grant and delay end runs a small callback.
     */
    PostSend
    postSend(SimThread &thr, std::vector<WorkReq> wrs)
    {
        return {*this, thr, std::move(wrs)};
    }

    /** @return current QP state (Error once the device reset under it). */
    QpState
    state() const
    {
        return stale() ? QpState::Error : state_;
    }

    /** @return true if the QP must reconnect before posting again. */
    bool needsReconnect() const { return state_ != QpState::Rts || stale(); }

    /** Move RTS -> Error by hand (tests, admin-style teardown). */
    void
    moveToError()
    {
        if (state_ == QpState::Rts)
            state_ = QpState::Error;
    }

    /**
     * Re-establish the connection: Reset -> Init -> RTR -> RTS, one
     * ibv_modify_qp cost each. Concurrent callers coalesce onto the one
     * in-progress handshake. No-op when the QP is already usable.
     */
    Task reconnect(SimThread &thr);

    /**
     * Attribute this QP's doorbell waits/rings to the owner's counters
     * (in addition to the RNIC aggregates). Under per-thread QP policies
     * the SMART layer points these at per-thread counters; under shared
     * policies attribution is impossible and they stay unset.
     */
    void
    setDoorbellStats(sim::Counter *wait_ns, sim::Counter *rings)
    {
        dbWaitSink_ = wait_ns;
        dbRingSink_ = rings;
    }

    /** @return the doorbell register this QP was bound to at creation. */
    Uar *uar() { return uar_; }

    /** @return the CQ completions of this QP land on. */
    Cq &cq() { return *cq_; }

    /** @return the remote (responder) RNIC. */
    Rnic *target() { return target_; }

  private:
    friend class PostSend;

    /** True when the device reset/recovered after this QP last connected. */
    bool stale() const;

    Context &ctx_;
    Cq *cq_;
    Rnic *target_;
    Uar *uar_;
    Resource qpLock_;
    SharerTracker qpSharers_;
    sim::Counter *dbWaitSink_ = nullptr;
    sim::Counter *dbRingSink_ = nullptr;
    QpState state_ = QpState::Rts;
    std::uint64_t boundEpoch_ = 0;
    bool reconnecting_ = false;
    /** Coroutines riding on another's in-progress reconnect. */
    sim::WaitQueue reconnectWaiters_;
};

/**
 * An RDMA device context (ibv_open_device + ibv_alloc_pd). Owns the
 * driver-side doorbell registers and hands them to new QPs round-robin:
 * the first `rnic::kNumLowLatencyUars` QPs get dedicated low-latency
 * doorbells, all later QPs share the medium-latency ones (paper Fig. 2b).
 */
class Context
{
  public:
    /**
     * @param total_uars override of the medium-latency doorbell count
     *        (the MLX5_TOTAL_UUARS-style knob; 0 keeps the default 12).
     *        Values beyond the hardware cap are clamped.
     */
    Context(Simulator &sim, Rnic &rnic, std::uint32_t total_uars = 0);

    Simulator &sim() { return sim_; }
    Rnic &rnic() { return rnic_; }
    const RnicConfig &config() const { return rnic_.config(); }

    /**
     * Register local memory (ibv_reg_mr). Registering the same buffer in
     * several contexts creates distinct MTT/MPT entries — exactly the
     * redundancy the paper warns about.
     */
    const rnic::MrRecord &regMr(std::uint8_t *base, std::uint64_t length);

    /** Register local memory described by a span (≤ 4 GiB). */
    const rnic::MrRecord &
    regMr(MemSpan span)
    {
        return regMr(span.bytes(), span.len);
    }

    /**
     * Predict the doorbell the *next* created QP will bind to. The mlx5
     * assignment is deterministic, which is what makes SMART's
     * thread-aware allocation possible without driver changes.
     */
    Uar *predictNextUar();

    /** Create an RC QP connected to @p target, completing into @p cq. */
    std::unique_ptr<Qp> createQp(Cq &cq, Rnic *target);

    /** Create a CQ on this context. */
    std::unique_ptr<Cq>
    createCq()
    {
        return std::make_unique<Cq>(sim_, config());
    }

    /** @return this context's ICM base key (context footprint model). */
    std::uint64_t icmBase() const { return icmBase_; }

    /** @return number of doorbells (for tests). */
    std::size_t numUars() const { return uars_.size(); }

    /** @return doorbell @p i (for tests). */
    Uar &uarAt(std::size_t i) { return *uars_[i]; }

  private:
    Simulator &sim_;
    Rnic &rnic_;
    std::vector<std::unique_ptr<Uar>> uars_;
    std::uint32_t numMedium_;
    std::uint32_t qpsCreated_ = 0;
    std::uint64_t icmBase_ = 0;
};

/** Spinlock contention penalty: bounce cost grows with active spinners. */
inline Time
lockHoldPenalty(const RnicConfig &cfg, const Resource &lock)
{
    std::uint32_t w = std::min(lock.waiters(), rnic::kLockBounceWaiterCap);
    return cfg.lockBouncePerWaiterNs * w;
}

} // namespace smart::verbs

#endif // SMART_VERBS_VERBS_HPP
