/**
 * @file
 * Allocation-free event core of the DES kernel: a small-buffer inline
 * callback type (EventFn), the pooled node every pending callable lives
 * in (EventNode), and a two-tier calendar/heap queue of those nodes
 * ordered by (time, insertion sequence).
 *
 * Every simulated verb flows through here, so the hot path must not touch
 * the allocator. EventFn stores its callable inline in 24 bytes — there is
 * deliberately no heap fallback; an oversized capture is a compile error,
 * forcing call sites to capture pointers/indices instead of owning
 * objects. The dominant event kind, "resume this coroutine at time T",
 * gets a dedicated vtable with no capture object at all.
 *
 * A callable is moved once, into a node drawn from the queue's free list,
 * and is invoked in place when its node is popped. Nodes never move, so
 * the same node can also wait outside the queue — as a Resource waiter
 * or a wire-inbox entry — and later be linked in without touching the
 * callable.
 *
 * The queue itself is a calendar queue: near-future events (the dense
 * now + small-delay traffic from doorbells, CQEs and backoffs) are
 * appended to FIFO lists in a ring of 1 ns buckets, far-future events
 * spill to a binary heap. Both tiers honor the same (time, seq) FIFO
 * tie-break, so equal-timestamp ordering — and with it whole-simulation
 * determinism — is identical to a single std::priority_queue.
 */

#ifndef SMART_SIM_EVENT_QUEUE_HPP
#define SMART_SIM_EVENT_QUEUE_HPP

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/types.hpp"

namespace smart::sim {

class EventQueue;

/**
 * Process-wide tally of DES kernel work, aggregated across every
 * Simulator instance in the process. Reporter/BenchCli read this via
 * collectKernelPerf() to emit the perf block; benches with several
 * Simulators (scale-out sweeps, shard groups) still get one coherent
 * events/sec figure.
 *
 * eventsProcessed/ringInserts/heapInserts sum over queues;
 * peakQueueDepth is the max over per-queue peaks (queues never share
 * storage, so summing peaks would be meaningless).
 */
struct KernelPerf
{
    std::uint64_t eventsProcessed = 0;
    std::uint64_t peakQueueDepth = 0;
    /** Tier split of insertions (diagnostic: the ring should dominate). */
    std::uint64_t ringInserts = 0;
    std::uint64_t heapInserts = 0;
};

/**
 * Aggregate kernel counters across all EventQueues, live and destroyed.
 * Counters are plain per-queue fields written only by the owning shard's
 * thread; call this while no simulation is advancing (between phases,
 * after runs) — exactly when perf is reported.
 */
KernelPerf collectKernelPerf();

/**
 * Move-only callable with fixed 24-byte inline storage and no heap
 * fallback. Dispatch goes through a static per-type Ops table; trivially
 * relocatable/destructible captures get null entries so moves are a
 * memcpy and destruction is free.
 *
 * The budget is deliberately tight: with it, an EventNode is 56 bytes.
 * Event throughput is bounded by cache misses on pending nodes, not by
 * arithmetic, so node size is the most perf-sensitive constant in the
 * kernel. Big captures belong behind a pointer (or a unique_ptr for
 * owning cases).
 */
class EventFn
{
  public:
    static constexpr std::size_t kInlineBytes = 24;
    static constexpr std::size_t kInlineAlign = 8;

    EventFn() noexcept = default;

    template <typename F>
        requires(!std::is_same_v<std::remove_cvref_t<F>, EventFn> &&
                 std::is_invocable_r_v<void, std::remove_cvref_t<F> &>)
    EventFn(F &&f) // NOLINT(bugprone-forwarding-reference-overload)
    {
        emplace(std::forward<F>(f));
    }

    /**
     * Build @p f's callable in this (empty) EventFn's own storage: a
     * pooled node takes its callable this way, with no temporary EventFn
     * to relocate from.
     */
    template <typename F>
        requires(!std::is_same_v<std::remove_cvref_t<F>, EventFn> &&
                 std::is_invocable_r_v<void, std::remove_cvref_t<F> &>)
    void
    emplace(F &&f)
    {
        assert(ops_ == nullptr);
        using Fn = std::remove_cvref_t<F>;
        static_assert(sizeof(Fn) <= kInlineBytes,
                      "event callback capture exceeds the 24-byte inline "
                      "budget; capture pointers/indices, not owning "
                      "objects (see DESIGN.md, DES kernel internals)");
        static_assert(alignof(Fn) <= kInlineAlign,
                      "event callback is over-aligned for inline storage");
        static_assert(std::is_nothrow_move_constructible_v<Fn>,
                      "event callback must be nothrow-movable");
        ::new (static_cast<void *>(buf_)) Fn(std::forward<F>(f));
        ops_ = &opsFor<Fn>;
    }

    /**
     * Fast path for the dominant event kind: resume @p h. No capture
     * object is constructed; the handle address lives raw in the buffer
     * and the shared kResumeOps table needs neither relocate nor destroy.
     */
    static EventFn
    resume(std::coroutine_handle<> h) noexcept
    {
        EventFn e;
        void *addr = h.address();
        std::memcpy(e.buf_, &addr, sizeof(addr));
        e.ops_ = &kResumeOps;
        return e;
    }

    EventFn(EventFn &&o) noexcept { moveFrom(o); }

    EventFn &
    operator=(EventFn &&o) noexcept
    {
        if (this != &o) {
            reset();
            moveFrom(o);
        }
        return *this;
    }

    EventFn(const EventFn &) = delete;
    EventFn &operator=(const EventFn &) = delete;

    ~EventFn() { reset(); }

    explicit operator bool() const noexcept { return ops_ != nullptr; }

    /** @return true if built by resume() (tests, introspection). */
    bool isResume() const noexcept { return ops_ == &kResumeOps; }

    void
    operator()()
    {
        assert(ops_ != nullptr);
        ops_->invoke(buf_);
    }

    /** Destroy the held callable, leaving this EventFn empty. */
    void
    reset() noexcept
    {
        if (ops_ != nullptr && ops_->destroy != nullptr)
            ops_->destroy(buf_);
        ops_ = nullptr;
    }

  private:
    struct Ops
    {
        void (*invoke)(void *self);
        /** nullptr = trivially relocatable (plain memcpy). */
        void (*relocate)(void *dst, void *src) noexcept;
        /** nullptr = trivially destructible. */
        void (*destroy)(void *self) noexcept;
    };

    template <typename Fn>
    static void
    invokeFn(void *p)
    {
        (*static_cast<Fn *>(p))();
    }

    template <typename Fn>
    static void
    relocateFn(void *dst, void *src) noexcept
    {
        Fn *s = static_cast<Fn *>(src);
        ::new (dst) Fn(std::move(*s));
        s->~Fn();
    }

    template <typename Fn>
    static void
    destroyFn(void *p) noexcept
    {
        static_cast<Fn *>(p)->~Fn();
    }

    template <typename Fn>
    static constexpr Ops opsFor{
        &invokeFn<Fn>,
        std::is_trivially_copyable_v<Fn> ? nullptr : &relocateFn<Fn>,
        std::is_trivially_destructible_v<Fn> ? nullptr : &destroyFn<Fn>,
    };

    static void
    invokeResume(void *p)
    {
        void *addr = nullptr;
        std::memcpy(&addr, p, sizeof(addr));
        std::coroutine_handle<>::from_address(addr).resume();
    }

    static constexpr Ops kResumeOps{&invokeResume, nullptr, nullptr};

    void
    moveFrom(EventFn &o) noexcept
    {
        ops_ = o.ops_;
        if (ops_ != nullptr) {
            if (ops_->relocate != nullptr)
                ops_->relocate(buf_, o.buf_);
            else
                std::memcpy(buf_, o.buf_, kInlineBytes);
            o.ops_ = nullptr;
        }
    }

    alignas(kInlineAlign) unsigned char buf_[kInlineBytes];
    const Ops *ops_ = nullptr;
};

/**
 * One pending callable: the unit every layer of the kernel hands around.
 * Nodes are carved from chunks an EventQueue owns and never move, so a
 * callable is built into its node once, waits there (in a calendar
 * bucket, behind a far-tier heap entry, in a Resource's waiter list or
 * behind a wire-inbox entry) and is invoked in place.
 */
struct EventNode
{
    Time when = 0;
    std::uint64_t seq = 0;
    EventNode *next = nullptr;
    EventFn fn;
};

/**
 * Intrusive FIFO of EventNodes linked through EventNode::next. @c tail is
 * meaningful only while the list is non-empty.
 */
struct EventList
{
    EventNode *head = nullptr;
    EventNode *tail = nullptr;

    bool empty() const noexcept { return head == nullptr; }

    void
    pushBack(EventNode *n) noexcept
    {
        n->next = nullptr;
        if (head == nullptr)
            head = n;
        else
            tail->next = n;
        tail = n;
    }

    /** @pre !empty() */
    EventNode *
    popFront() noexcept
    {
        EventNode *n = head;
        head = n->next;
        return n;
    }
};

/**
 * Two-tier event queue ordered by (time, insertion sequence), over a pool
 * of EventNodes.
 *
 * Tier 1 is a calendar ring of kRingSize 1 ns buckets covering
 * [ringBase_, ringBase_ + kRingSize); nearly all simulated delays (pipe
 * issue, doorbell, PCIe, DMA, propagation — see rnic_config.hpp) fall in
 * this 1 µs window, so insertion is "index by (when & mask), append".
 * Each bucket is an intrusive FIFO of nodes (Brown's calendar queue,
 * CACM 1988): every node in a bucket shares one timestamp and is linked
 * in insertion (= seq) order, so a same-time collision costs the same as
 * the first event of a bucket. The workloads collide a lot — a third to
 * 60% of ring inserts land in an occupied bucket (DESIGN §9). An
 * occupancy bitmap makes skipping empty buckets O(popcount word), and the
 * distance to the earliest occupied bucket is memoized so the
 * steady-state peek/pop pair scans it at most once per event.
 *
 * Tier 2 is a binary min-heap of {when, seq, node} for far-future events
 * (retry timers, controller epochs). Pops compare (time, seq) across
 * tiers, so events with equal timestamps execute in insertion order even
 * when one was far (heap) at insert time and the other near (ring).
 *
 * ringBase_ only advances when a ring event is popped, and never past the
 * earliest pending ring event, so the bucket window guard at insert stays
 * valid for the lifetime of every admitted node.
 *
 * Nodes come from fixed chunks through a LIFO free list, so the hot path
 * allocates only when the number of live nodes reaches a new high-water
 * mark. A node can also be parked: filled with a callable but linked into
 * neither tier (Resource waiters, wire-inbox entries) until link() gives
 * it a time and draws its FIFO seq. Every node is taken and released by
 * the thread that advances this queue's shard; destroying the queue
 * destroys every callable still in a node, so parked nodes must be
 * released first (their holders may not outlive the Simulator).
 */
class EventQueue
{
  public:
    EventQueue();
    ~EventQueue();
    /* Pinned: the process-wide perf registry holds this queue's address
     * for its whole lifetime. */
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /**
     * Schedule @p cb to run at absolute virtual time @p when. A callable
     * other than an EventFn is built directly in its node.
     */
    template <typename F>
    void
    scheduleAt(Time when, F &&cb)
    {
        link(when, park(std::forward<F>(cb)));
    }

    /** Fast path: resume @p h at absolute virtual time @p when. */
    void
    scheduleResumeAt(Time when, std::coroutine_handle<> h)
    {
        link(when, park(EventFn::resume(h)));
    }

    /** Take a node holding @p cb that is linked into neither tier. */
    template <typename F>
    EventNode *
    park(F &&cb)
    {
        if (free_ == nullptr)
            grow();
        EventNode *n = free_;
        free_ = n->next;
        if constexpr (std::is_same_v<std::remove_cvref_t<F>, EventFn>) {
            static_assert(!std::is_lvalue_reference_v<F>,
                          "pass an EventFn by rvalue");
            n->fn = std::move(cb);
        }
        else
            n->fn.emplace(std::forward<F>(cb));
        return n;
    }

    /**
     * Link parked node @p n to run at @p when. Its FIFO seq is drawn now,
     * exactly as if its callable were scheduled at this moment.
     */
    void
    link(Time when, EventNode *n)
    {
        n->when = when;
        n->seq = nextSeq_++;
        insert(n);
    }

    /**
     * Destroy @p n's callable and return the node to the pool. Takes
     * nodes from pop()/popIfAtOrBefore() after dispatch, and parked
     * nodes that will never run.
     */
    void
    release(EventNode *n) noexcept
    {
        n->fn.reset();
        n->next = free_;
        free_ = n;
    }

    /** @return true if no events remain. */
    bool empty() const { return size_ == 0; }

    /** @return number of pending events. */
    std::size_t size() const { return size_; }

    /** @return timestamp of the earliest pending event. */
    Time
    nextTime() const
    {
        Time t = kTimeNever;
        if (ringCount_ > 0)
            t = peekRingTime();
        if (!heap_.empty() && heap_.front().when < t)
            t = heap_.front().when;
        return t;
    }

    /**
     * Unlink the earliest event (ties broken by insertion sequence across
     * both tiers) only if it fires at or before @p deadline. One tier
     * decision serves both the peek and the pop. The caller invokes the
     * node's callable in place and then release()s it.
     * @return the unlinked node, or nullptr.
     */
    EventNode *
    popIfAtOrBefore(Time deadline)
    {
        if (size_ == 0)
            return nullptr;
        bool use_ring = false;
        std::size_t dist = 0;
        if (decideTier(use_ring, dist) > deadline)
            return nullptr;
        return commitPop(use_ring, dist);
    }

    /**
     * Pop the earliest event and hand its callable out (tests; the run
     * loop dispatches in place via popIfAtOrBefore).
     * @pre !empty()
     */
    EventFn
    pop(Time &when_out)
    {
        assert(size_ > 0);
        EventNode *n = popIfAtOrBefore(kTimeNever);
        when_out = n->when;
        EventFn fn = std::move(n->fn);
        release(n);
        return fn;
    }

    /** Total number of events ever scheduled (for perf reporting). */
    std::uint64_t totalScheduled() const { return nextSeq_; }

    /** Total number of events popped from this queue. */
    std::uint64_t totalProcessed() const { return processed_; }

    /** High-water mark of pending events. */
    std::uint64_t peakDepth() const { return peak_; }

    /** Insertions that landed in the calendar-ring tier. */
    std::uint64_t ringInserts() const { return ringInserts_; }

    /** Insertions that spilled to the far-future heap tier. */
    std::uint64_t heapInserts() const { return heapInserts_; }

    /** Events currently waiting in the far-future heap tier (tests). */
    std::size_t heapTierSize() const { return heap_.size(); }

    /** Events currently waiting in the calendar ring tier (tests). */
    std::size_t ringTierSize() const { return ringCount_; }

    /** Nodes carved so far, live or free (tests: pool reuse). */
    std::size_t nodeCapacity() const { return chunks_.size() * kChunkNodes; }

  private:
    /** Far-tier entry; (when, seq) are copied in so sifts stay local. */
    struct HeapRef
    {
        Time when;
        std::uint64_t seq;
        EventNode *node;
    };

    /** Heap comparator: true if @p a fires later than @p b (min-heap). */
    struct RefLater
    {
        bool
        operator()(const HeapRef &a, const HeapRef &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    static constexpr std::size_t kRingBits = 10;
    static constexpr std::size_t kRingSize = std::size_t{1} << kRingBits;
    static constexpr std::size_t kRingMask = kRingSize - 1;
    static constexpr std::size_t kOccWords = kRingSize / 64;
    static constexpr std::size_t kChunkNodes = 512;

    /** Carve one more chunk of nodes onto the free list. */
    void
    grow()
    {
        chunks_.push_back(std::make_unique<EventNode[]>(kChunkNodes));
        EventNode *c = chunks_.back().get();
        // Thread in reverse so the chunk is handed out front to back.
        for (std::size_t i = kChunkNodes; i-- > 0;) {
            c[i].next = free_;
            free_ = &c[i];
        }
    }

    void
    insert(EventNode *n)
    {
        ++size_;
        if (size_ > peak_)
            peak_ = size_;
        const Time when = n->when;
        // Unsigned subtraction: when < ringBase_ cannot happen (the
        // Simulator clamps to now and ringBase_ never passes the earliest
        // pending event), but would wrap huge and fall to the heap, which
        // stays correct.
        if (when - ringBase_ < kRingSize) {
            std::size_t idx = static_cast<std::size_t>(when) & kRingMask;
            EventList &b = ring_[idx];
            if (b.empty())
                setOccupied(idx);
            b.pushBack(n);
            ++ringCount_;
            ++ringInserts_;
            std::size_t dist = static_cast<std::size_t>(when - ringBase_);
            if (ringCount_ == 1 || (nearValid_ && dist < nearDist_)) {
                nearDist_ = dist;
                nearValid_ = true;
            }
        } else {
            heap_.push_back(HeapRef{when, n->seq, n});
            std::push_heap(heap_.begin(), heap_.end(), RefLater{});
            ++heapInserts_;
        }
    }

    /**
     * Choose the tier holding the earliest (time, seq) event and report
     * its timestamp. @p dist is the ring scan distance when the ring
     * holds anything (reused by commitPop to skip a second scan).
     * @pre size_ > 0
     */
    Time
    decideTier(bool &use_ring, std::size_t &dist) const
    {
        if (ringCount_ > 0) {
            dist = occupiedDistance();
            if (heap_.empty()) {
                use_ring = true;
                return ringBase_ + dist;
            }
            const EventNode &r = *ring_[static_cast<std::size_t>(
                                            ringBase_ + dist) &
                                        kRingMask]
                                      .head;
            const HeapRef &h = heap_.front();
            use_ring = r.when != h.when ? r.when < h.when : r.seq < h.seq;
            return use_ring ? r.when : h.when;
        }
        use_ring = false;
        return heap_.front().when;
    }

    /** Unlink the node decideTier() chose and update all bookkeeping. */
    EventNode *
    commitPop(bool use_ring, std::size_t dist)
    {
        --size_;
        ++processed_;

        if (use_ring) {
            // Advance the window only on a ring pop: if the heap tier won
            // (an overdue far-future event), moving ringBase_ forward here
            // would push upcoming near-future inserts out of the window.
            ringBase_ += dist;
            std::size_t bucketIdx =
                static_cast<std::size_t>(ringBase_) & kRingMask;
            EventList &b = ring_[bucketIdx];
            EventNode *n = b.popFront();
            if (b.empty()) {
                clearOccupied(bucketIdx);
                nearValid_ = false; // next ask rescans from the new base
            } else {
                nearDist_ = 0; // same bucket still holds the earliest
                nearValid_ = true;
            }
            --ringCount_;
            return n;
        }

        std::pop_heap(heap_.begin(), heap_.end(), RefLater{});
        EventNode *n = heap_.back().node;
        heap_.pop_back();
        // With the ring empty there is no admitted node the window guard
        // protects, so snap the window forward to the present. Without
        // this, a heap-only quiet period (e.g. only a far-future epoch
        // tick pending) would leave ringBase_ behind forever and every
        // later near-future insert would spill to the heap.
        if (ringCount_ == 0 && n->when > ringBase_) {
            ringBase_ = n->when;
            nearValid_ = false;
        }
        return n;
    }

    void
    setOccupied(std::size_t idx)
    {
        occ_[idx >> 6] |= std::uint64_t{1} << (idx & 63);
    }

    void
    clearOccupied(std::size_t idx)
    {
        occ_[idx >> 6] &= ~(std::uint64_t{1} << (idx & 63));
    }

    /** @return timestamp of the earliest pending ring event (const). */
    Time
    peekRingTime() const
    {
        return ringBase_ + occupiedDistance();
    }

    /**
     * Circular distance (in buckets) from ringBase_'s bucket to the first
     * occupied bucket. All pending ring nodes live within
     * [ringBase_, ringBase_ + kRingSize), so the distance is unique.
     * Memoized in nearDist_: the steady-state runUntil loop asks twice
     * per event (nextTime, then pop), and inserts of an earlier event
     * keep the memo exact without a rescan.
     * @pre ringCount_ > 0
     */
    std::size_t
    occupiedDistance() const
    {
        if (nearValid_)
            return nearDist_;
        std::size_t from = static_cast<std::size_t>(ringBase_) & kRingMask;
        std::size_t w = from >> 6;
        std::uint64_t word = occ_[w] & (~std::uint64_t{0} << (from & 63));
        for (std::size_t i = 0; i <= kOccWords; ++i) {
            if (word != 0) {
                std::size_t idx =
                    (w << 6) | static_cast<std::size_t>(
                                   std::countr_zero(word));
                nearDist_ = (idx - from) & kRingMask;
                nearValid_ = true;
                return nearDist_;
            }
            w = (w + 1) & (kOccWords - 1);
            word = occ_[w];
        }
        assert(false && "occupancy bitmap empty while ringCount_ > 0");
        return 0;
    }

    // Declared first so they are destroyed last: chunk destruction runs
    // the destructor of every callable still pending in a node.
    std::vector<std::unique_ptr<EventNode[]>> chunks_;
    EventNode *free_ = nullptr;
    std::array<EventList, kRingSize> ring_{};
    std::array<std::uint64_t, kOccWords> occ_{};
    Time ringBase_ = 0;
    std::size_t ringCount_ = 0;
    // Memo: distance from ringBase_ to the earliest occupied bucket.
    // Valid only when nearValid_; exact whenever valid. Mutable because
    // the const peek path (nextTime) fills it.
    mutable std::size_t nearDist_ = 0;
    mutable bool nearValid_ = false;
    std::vector<HeapRef> heap_;
    std::size_t size_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t processed_ = 0;
    std::uint64_t peak_ = 0;
    std::uint64_t ringInserts_ = 0;
    std::uint64_t heapInserts_ = 0;
};

namespace detail {

/**
 * Registry behind collectKernelPerf(): live queues plus the summed final
 * counters of destroyed ones. Registration happens at Simulator
 * construction/destruction — always on the setup thread, and never on
 * the per-event hot path, which touches only per-queue plain fields
 * (single writer: the owning shard's thread).
 */
struct KernelPerfRegistry
{
    std::mutex mu;
    std::vector<EventQueue *> live;
    KernelPerf retired;
};

inline KernelPerfRegistry &
kernelPerfRegistry()
{
    static KernelPerfRegistry r;
    return r;
}

/** Fold @p q's counters into @p total. */
inline void
addQueue(KernelPerf &total, const EventQueue &q)
{
    total.eventsProcessed += q.totalProcessed();
    total.ringInserts += q.ringInserts();
    total.heapInserts += q.heapInserts();
    total.peakQueueDepth = std::max(total.peakQueueDepth, q.peakDepth());
}

} // namespace detail

inline EventQueue::EventQueue()
{
    detail::KernelPerfRegistry &r = detail::kernelPerfRegistry();
    std::lock_guard<std::mutex> l(r.mu);
    r.live.push_back(this);
}

inline EventQueue::~EventQueue()
{
    detail::KernelPerfRegistry &r = detail::kernelPerfRegistry();
    std::lock_guard<std::mutex> l(r.mu);
    detail::addQueue(r.retired, *this);
    std::erase(r.live, this);
}

inline KernelPerf
collectKernelPerf()
{
    detail::KernelPerfRegistry &r = detail::kernelPerfRegistry();
    std::lock_guard<std::mutex> l(r.mu);
    KernelPerf out = r.retired;
    for (const EventQueue *q : r.live)
        detail::addQueue(out, *q);
    return out;
}

} // namespace smart::sim

#endif // SMART_SIM_EVENT_QUEUE_HPP
