/**
 * @file
 * Explicit cross-shard wire mailboxes and the windowed shard group.
 *
 * Every interaction that crosses a simulated wire goes through a
 * timestamped WireMsg delivered to the destination Simulator's WireInbox,
 * never by scheduling directly into a peer EventQueue. Messages carry a
 * globally-ordered (deliveryTime, srcId, perSourceSeq) key, perSourceSeq
 * being the source's send order (outboxes and inboxes keep it); the inbox
 * parks them in pooled event nodes until the destination clock reaches
 * deliveryTime and then links them — sorted by that key — into its event
 * queue as ordinary events. Because the key and the injection discipline
 * are independent of how blades are assigned to shards, a seeded run
 * produces byte-identical output at any shard count, including 1 (where
 * the same inbox path is used without any synchronization).
 *
 * Shards synchronize in bulk-synchronous lookahead windows (Nicol, JACM
 * 1993). Let T be the earliest pending event or in-flight delivery on
 * any shard and L the lookahead (the modelled wire propagation latency).
 * Every shard runs its events in [T, T + L), then all meet at one
 * barrier. A send made at time >= T lands at >= T + L, so nothing a
 * shard receives during a window can fall inside it. Cross-shard sends
 * go to plain per-(src, dst) outboxes that the destination drains into
 * its inbox after the barrier; the barrier's completion takes the next T
 * as the minimum of every shard's next local time and every dtime posted
 * in the window.
 */

#ifndef SMART_SIM_WIRE_HPP
#define SMART_SIM_WIRE_HPP

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cassert>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/types.hpp"

namespace smart::sim {

class Simulator;
class ShardGroup;

/**
 * One timestamped message crossing a simulated wire: an ordinary EventFn
 * plus its delivery key. It is the unit of the cross-shard outboxes; the
 * destination's WireInbox parks the callable in a node of its own pool.
 * The callable runs as an event on the destination shard at dtime; an
 * RNIC work request crosses as EventFn::resume of its own coroutine frame.
 */
struct WireMsg
{
    /** Delivery key, ordered lexicographically (dtime, srcId, send
     *  order); the send order is implicit in the order of delivery to
     *  the inbox. */
    Time dtime = 0;
    std::uint32_t srcId = 0;
    EventFn fn;
};

/**
 * Per-Simulator holding pen for in-flight wire messages, ordered by
 * (dtime, srcId, send order), whose entries refer to parked nodes of the
 * Simulator's EventQueue. A message's callable is moved into its node
 * once, on arrival; the run loop links the node into the queue only when
 * the local clock first reaches its delivery time — never eagerly — so
 * injected events draw their local FIFO sequence at a moment that is
 * invariant across shard assignments.
 *
 * Messages wait in one lane per source, kept sorted by (dtime, send
 * order); lanes are kept sorted by srcId. A source's sends arrive in order
 * and, for an RNIC endpoint, with nondecreasing dtime (its egress link
 * serializes them), so a push is an append. An out-of-order dtime is
 * still placed correctly, by a backward scan of its lane.
 */
class WireInbox
{
  public:
    explicit WireInbox(EventQueue &q) noexcept : q_(q) {}

    /** Destroys the callables of messages that never arrived. */
    ~WireInbox()
    {
        for (Lane &l : lanes_)
            for (std::size_t i = l.head; i < l.q.size(); ++i)
                q_.release(l.q[i].node);
    }

    WireInbox(const WireInbox &) = delete;
    WireInbox &operator=(const WireInbox &) = delete;

    /** Earliest pending delivery time, or kTimeNever when empty. */
    Time minTime() const noexcept { return min_; }

    bool empty() const noexcept { return size_ == 0; }

    /**
     * Park @p m until the destination clock reaches m.dtime. Call on the
     * thread that advances the owning Simulator.
     */
    void
    push(WireMsg &&m)
    {
        Lane &lane = laneOf(m.srcId);
        std::vector<Entry> &q = lane.q;
        Entry e{m.dtime, q_.park(std::move(m.fn))};
        if (q.empty() || q.back().dtime <= e.dtime) {
            q.push_back(e);
        } else {
            // Insert after every entry due at or before e.dtime: entries
            // with an equal dtime were sent earlier.
            auto at = q.end();
            const auto live =
                q.begin() + static_cast<std::ptrdiff_t>(lane.head);
            while (at > live && (at - 1)->dtime > e.dtime)
                --at;
            q.insert(at, e);
        }
        ++size_;
        min_ = std::min(min_, m.dtime);
    }

    /**
     * Link every pending message with dtime <= @p t into the queue as an
     * ordinary event at its delivery time, in (dtime, srcId, send order).
     * Call only when the run loop has exhausted all local events
     * strictly before the inbox minimum (so every linked message is due
     * at exactly the minimum, and lane order is srcId order).
     */
    void
    injectUpTo(Time t)
    {
        Time next = kTimeNever;
        for (Lane &l : lanes_) {
            while (l.head < l.q.size() && l.q[l.head].dtime <= t) {
                q_.link(l.q[l.head].dtime, l.q[l.head].node);
                ++l.head;
                --size_;
            }
            if (l.head == l.q.size()) {
                l.q.clear();
                l.head = 0;
                continue;
            }
            if (l.head >= kCompactAt && 2 * l.head >= l.q.size()) {
                l.q.erase(l.q.begin(),
                          l.q.begin() + static_cast<std::ptrdiff_t>(l.head));
                l.head = 0;
            }
            next = std::min(next, l.q[l.head].dtime);
        }
        min_ = next;
    }

    /** Pre-grow every lane's storage (alloc-sensitive callers). */
    void
    reserve(std::size_t n)
    {
        reserve_ = n;
        for (Lane &l : lanes_)
            l.q.reserve(n);
    }

  private:
    /** A pending message: its delivery time and the node holding its
     *  callable (srcId is the lane's; the send order is the position in
     *  it). */
    struct Entry
    {
        Time dtime;
        EventNode *node;
    };

    /** One source's pending messages; [head, q.size()) are live. */
    struct Lane
    {
        std::uint32_t srcId;
        std::size_t head = 0;
        std::vector<Entry> q;
    };

    /** Delivered prefix a lane drops once it is half the lane. */
    static constexpr std::size_t kCompactAt = 64;

    Lane &
    laneOf(std::uint32_t src)
    {
        auto it = std::lower_bound(
            lanes_.begin(), lanes_.end(), src,
            [](const Lane &l, std::uint32_t id) { return l.srcId < id; });
        if (it == lanes_.end() || it->srcId != src) {
            it = lanes_.insert(it, Lane{src, 0, {}});
            it->q.reserve(reserve_);
        }
        return *it;
    }

    EventQueue &q_;
    std::vector<Lane> lanes_;
    std::size_t size_ = 0;
    std::size_t reserve_ = 0;
    Time min_ = kTimeNever;
};

/**
 * A set of Simulators (one per shard) advanced together on real host
 * threads in bulk-synchronous lookahead windows. Shard 0 always runs on
 * the caller's thread; shards 1..n-1 on persistent workers parked
 * between phases. With size()==1 no threads are created and runUntil()
 * is a plain inline call — the single-shard hot path is byte- and
 * perf-identical to an unsharded Simulator.
 *
 * A "phase" is one runUntil() call: between phases every worker is
 * parked, so the caller may freely mutate any shard's state (setup,
 * metric resets, table loads) exactly as single-threaded code would.
 * Wire sends the caller makes between phases are handed over at the
 * start of the next phase.
 */
class ShardGroup
{
  public:
    /**
     * @param shards    number of shards (>= 1)
     * @param lookahead minimum cross-shard wire latency, ns (> 0 when
     *                  shards > 1; every wire send must carry
     *                  dtime >= sender now + lookahead)
     */
    ShardGroup(std::uint32_t shards, Time lookahead);
    ~ShardGroup();

    ShardGroup(const ShardGroup &) = delete;
    ShardGroup &operator=(const ShardGroup &) = delete;

    std::uint32_t size() const noexcept { return n_; }
    Time lookahead() const noexcept { return lookahead_; }

    Simulator &shard(std::uint32_t i);
    const Simulator &shard(std::uint32_t i) const;

    /** Advance every shard to @p deadline (clocks equal on return). */
    void runUntil(Time deadline);

  private:
    friend class WireEndpoint;

    /** What one shard reports at the end of a window. */
    struct alignas(64) WindowEnd
    {
        /** Earliest pending local event or inbox delivery. */
        Time next = kTimeNever;
        /** Earliest dtime this shard posted to another shard. */
        Time posted = kTimeNever;
    };

    /** Barrier completion: pick the next window start. */
    struct NextWindow
    {
        ShardGroup *g;
        void operator()() noexcept;
    };

    /** Queue @p m from shard @p src for shard @p dst. */
    void post(std::uint32_t src, std::uint32_t dst, WireMsg &&m);
    /**
     * Move every message of outbox parity @p parity into @p dst's inbox,
     * parking each in @p dst's node pool. Runs on @p dst's thread, or on
     * the caller's between phases while every worker is parked.
     */
    void drainInto(std::uint32_t dst, std::uint64_t parity);
    /** Run shard @p idx's windows until the phase deadline. */
    void runWindows(std::uint32_t idx);
    void workerMain(std::uint32_t idx);

    std::uint32_t n_;
    Time lookahead_;
    std::vector<std::unique_ptr<Simulator>> sims_;
    std::vector<WindowEnd> ends_;
    /**
     * outboxes_[(parity * n_ + src) * n_ + dst]. Sends made in window w
     * use parity w & 1; their destination drains them after the barrier
     * that closes w, while window w + 1 fills the other parity.
     */
    std::vector<std::vector<WireMsg>> outboxes_;
    std::barrier<NextWindow> barrier_;

    // Window state: written by the caller between phases and by the
    // barrier completion, read by every shard after the barrier.
    Time deadline_ = 0;
    Time windowStart_ = 0;
    std::uint64_t window_ = 0;

    std::mutex mu_;
    std::condition_variable cv_;
    std::uint64_t phaseGen_ = 0;
    std::uint32_t phaseDone_ = 0;
    bool stop_ = false;
    std::vector<std::thread> threads_;
};

/**
 * A named sender on the wire: owns a process-globally ordered source id;
 * its sends keep their order per destination. Construction order (always on
 * the setup thread) fixes srcId, so ids — and with them all same-time
 * delivery tie-breaks — do not depend on shard assignment.
 */
class WireEndpoint
{
  public:
    explicit WireEndpoint(Simulator &sim) : sim_(sim), srcId_(nextId()) {}

    WireEndpoint(const WireEndpoint &) = delete;
    WireEndpoint &operator=(const WireEndpoint &) = delete;

    std::uint32_t srcId() const noexcept { return srcId_; }

    /**
     * Send @p fn for delivery on @p dst's shard at absolute virtual time
     * @p dtime (>= sender now + group lookahead when @p dst is on another
     * shard). @p fn runs on the destination shard as the injected
     * delivery event.
     */
    void send(Simulator &dst, Time dtime, EventFn &&fn);

  private:
    static std::uint32_t
    nextId() noexcept
    {
        static std::atomic<std::uint32_t> counter{0};
        return counter.fetch_add(1, std::memory_order_relaxed);
    }

    Simulator &sim_;
    std::uint32_t srcId_;
};

} // namespace smart::sim

#endif // SMART_SIM_WIRE_HPP
