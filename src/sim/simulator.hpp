/**
 * @file
 * The discrete-event simulator: virtual clock, event loop, task spawning.
 */

#ifndef SMART_SIM_SIMULATOR_HPP
#define SMART_SIM_SIMULATOR_HPP

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/metrics.hpp"
#include "sim/task.hpp"
#include "sim/types.hpp"
#include "sim/wire.hpp"

namespace smart::sim {

class FaultPlane;
class FaultTarget;
class SpanTracer;
class Timeline;

/**
 * Owns the virtual clock and the event queue, and keeps root coroutines
 * alive. One Simulator is one shard, advanced by exactly one OS thread at
 * a time; a standalone Simulator (no ShardGroup) is the whole cluster on
 * one thread. Determinism follows from the stable event ordering plus the
 * (dtime, srcId, seq) wire-injection discipline (see wire.hpp).
 */
class Simulator
{
  public:
    Simulator() = default;
    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /** @return current virtual time in nanoseconds. */
    Time now() const { return now_; }

    /** Schedule @p cb (a callable or an EventFn) @p delay ns from now. */
    template <typename F>
    void
    schedule(Time delay, F &&cb)
    {
        events_.scheduleAt(now_ + delay, std::forward<F>(cb));
    }

    /** Schedule @p cb at absolute time @p when (must be >= now). */
    template <typename F>
    void
    scheduleAt(Time when, F &&cb)
    {
        events_.scheduleAt(when < now_ ? now_ : when, std::forward<F>(cb));
    }

    /** Resume @p h at current time, via the event queue (no recursion). */
    void
    post(std::coroutine_handle<> h)
    {
        events_.scheduleResumeAt(now_, h);
    }

    /** Resume @p h @p delay ns from now (allocation-free fast path). */
    void
    scheduleResume(Time delay, std::coroutine_handle<> h)
    {
        events_.scheduleResumeAt(now_ + delay, h);
    }

    /**
     * Spawn a root coroutine and keep its frame alive until the Simulator
     * is destroyed. Use for long-lived actors (client threads, servers).
     */
    void
    spawn(Task t)
    {
        rootTasks_.push_back(std::make_unique<Task>(std::move(t)));
        Task *stored = rootTasks_.back().get();
        events_.scheduleAt(now_, [stored] { stored->resume(); });
    }

    /**
     * Spawn a self-destroying coroutine. Use for per-operation activities
     * (e.g., the RNIC processing one work request) so frames do not pile up.
     */
    void
    spawnDetached(Task t)
    {
        events_.scheduleResumeAt(now_, t.detach());
    }

    /** Run until the event queue and the wire inbox both drain. */
    void
    run()
    {
        assert(group_ == nullptr &&
               "grouped shards are driven via ShardGroup::runUntil");
        runLocalUpTo(kTimeNever - 1);
    }

    /**
     * Run until virtual time @p deadline; events after it remain queued.
     * The clock is advanced to @p deadline on return. Grouped shards are
     * advanced together by ShardGroup::runUntil instead.
     */
    void
    runUntil(Time deadline)
    {
        assert(group_ == nullptr &&
               "grouped shards are driven via ShardGroup::runUntil");
        runLocalUpTo(deadline);
        if (now_ < deadline)
            now_ = deadline;
    }

    /** Awaitable that resumes the coroutine after @p d virtual ns. */
    auto
    delay(Time d)
    {
        struct Awaiter
        {
            Simulator &sim;
            Time d;

            bool await_ready() const noexcept { return d == 0; }

            void
            await_suspend(std::coroutine_handle<> h) const
            {
                sim.scheduleResume(d, h);
            }

            void await_resume() const noexcept {}
        };
        return Awaiter{*this, d};
    }

    /** Number of events ever scheduled (perf introspection). */
    std::uint64_t eventsScheduled() const { return events_.totalScheduled(); }

    /** Number of events executed so far (perf introspection). */
    std::uint64_t eventsProcessed() const { return events_.totalProcessed(); }

    /** High-water mark of pending events (perf introspection). */
    std::uint64_t peakQueueDepth() const { return events_.peakDepth(); }

    /**
     * Park @p cb in a pooled node that runs only once wake() links it
     * (Resource waiters). The node must be woken or dropped on this
     * Simulator's thread, before the Simulator is destroyed.
     */
    template <typename F>
    EventNode *
    park(F &&cb)
    {
        return events_.park(std::forward<F>(cb));
    }

    /** Run parked node @p n now; its FIFO seq is drawn at this call. */
    void wake(EventNode *n) { events_.link(now_, n); }

    /** Destroy parked node @p n's callable without running it. */
    void drop(EventNode *n) noexcept { events_.release(n); }

    /**
     * Metrics registered by every component of this simulation. Hanging
     * the registry off the Simulator means anything holding a Simulator&
     * (i.e. every component) can register without extra plumbing.
     */
    MetricsRegistry &metrics() { return metrics_; }
    const MetricsRegistry &metrics() const { return metrics_; }

    /**
     * The installed fault plane, or nullptr for a healthy simulation.
     * Upper layers key their retry/timeout machinery off this being
     * non-null, so a plane-free run pays no extra events or RNG draws.
     */
    FaultPlane *faultPlane() const { return fault_; }

    /** Called by FaultPlane's constructor/destructor. */
    void installFaultPlane(FaultPlane *p) { fault_ = p; }

    /**
     * The installed span tracer, or nullptr when span recording is off.
     * Instrumentation sites key on this being non-null (and on the op
     * being sampled), so an untraced run pays one pointer load per op.
     */
    SpanTracer *spans() const { return spans_; }

    /** Called by SpanTracer's constructor/destructor. */
    void installSpanTracer(SpanTracer *t) { spans_ = t; }

    /**
     * The installed timeline plane, or nullptr when windowed sampling is
     * off. Annotation emitters (fault plane, membership plane, overload
     * ladder, workload rotations) key on this being non-null, so a run
     * without a timeline pays one pointer load per emission site.
     */
    Timeline *timeline() const { return timeline_; }

    /** Called by Timeline::attach and its destructor. */
    void installTimeline(Timeline *t) { timeline_ = t; }

    /** Components that can absorb faults register here (see fault.hpp). */
    void addFaultTarget(FaultTarget *t) { faultTargets_.push_back(t); }

    /** Remove @p t from the target registry (component destruction). */
    void
    removeFaultTarget(FaultTarget *t)
    {
        std::erase(faultTargets_, t);
    }

    /** @return all registered fault targets, in registration order. */
    const std::vector<FaultTarget *> &faultTargets() const
    {
        return faultTargets_;
    }

    /** In-flight wire messages addressed to this shard (see wire.hpp). */
    WireInbox &wireInbox() { return inbox_; }

    /**
     * The group this Simulator is one of several shards of, or nullptr
     * when it runs the whole cluster (standalone, or a 1-shard group).
     */
    ShardGroup *shardGroup() const { return group_; }

    /** Shard index within the owning group (0 when standalone). */
    std::uint32_t shardIndex() const { return shardIndex_; }

    /** Called by ShardGroup when adopting this Simulator as a shard. */
    void
    installShardGroup(ShardGroup *group, std::uint32_t shard_index)
    {
        group_ = group;
        shardIndex_ = shard_index;
    }

  private:
    friend class ShardGroup;

    /**
     * Core loop: execute every local event and every wire delivery with
     * time <= @p deadline. The wire-inbox minimum bounds each pop because
     * an event may send an intra-shard wire message landing inside the
     * current segment; with an empty inbox (every workload that never
     * touches the wire) the extra cost is one member load + compare per
     * event.
     */
    void
    runLocalUpTo(Time deadline)
    {
        for (;;) {
            Time wnext = inbox_.minTime();
            Time limit = deadline;
            if (wnext != kTimeNever && wnext - 1 < limit)
                limit = wnext - 1;
            if (EventNode *n = events_.popIfAtOrBefore(limit)) {
                now_ = n->when;
                n->fn(); // in place: the node is unlinked, nothing moves
                events_.release(n);
                continue;
            }
            if (wnext <= deadline) {
                inbox_.injectUpTo(wnext);
                continue;
            }
            return;
        }
    }

    /** Earliest pending local event or wire delivery. */
    Time
    nextTime() const
    {
        return std::min(events_.nextTime(), inbox_.minTime());
    }

    EventQueue events_;
    Time now_ = 0;
    std::vector<std::unique_ptr<Task>> rootTasks_;
    MetricsRegistry metrics_;
    FaultPlane *fault_ = nullptr;
    SpanTracer *spans_ = nullptr;
    Timeline *timeline_ = nullptr;
    std::vector<FaultTarget *> faultTargets_;
    // After events_: destroyed first, returning its parked nodes.
    WireInbox inbox_{events_};
    ShardGroup *group_ = nullptr;
    std::uint32_t shardIndex_ = 0;
};

} // namespace smart::sim

#endif // SMART_SIM_SIMULATOR_HPP
