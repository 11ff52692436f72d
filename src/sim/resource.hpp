/**
 * @file
 * The model's two ways to wait: WaitQueue, a FIFO of parked waiters woken
 * by whoever owns the condition, and Resource, a FIFO-queued
 * capacity-limited unit built on it — the building block for every
 * contended hardware structure (CPUs, doorbell spinlocks, RNIC pipelines,
 * DMA engines, links) and for the throttles (§4.3 coroutine gate, HOCL
 * local locks).
 */

#ifndef SMART_SIM_RESOURCE_HPP
#define SMART_SIM_RESOURCE_HPP

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <string>
#include <utility>

#include "sim/simulator.hpp"
#include "sim/types.hpp"

namespace smart::sim {

/**
 * A FIFO of waiters parked in pooled event nodes of one Simulator.
 *
 * A wake links the oldest parked node into the event queue at the current
 * time, drawing its FIFO seq at that moment, exactly as Simulator::post
 * would: a woken coroutine is resumed by the event loop, never
 * recursively, in the order the wakes (and any other same-time schedules)
 * were made.
 *
 * Destroying a queue drops any waiter still parked (the coroutines are
 * owned elsewhere); an empty queue's destructor does not touch the
 * Simulator. A queue with parked waiters must not outlive its Simulator,
 * and a queue is used only on the thread that advances it.
 */
class WaitQueue
{
  public:
    explicit WaitQueue(Simulator &sim) noexcept : sim_(&sim) {}

    ~WaitQueue()
    {
        while (!list_.empty())
            sim_->drop(list_.popFront());
    }

    /** Movable, so a queue can live in a resized container; parked
     *  nodes hold coroutine handles, not pointers to the queue. */
    WaitQueue(WaitQueue &&o) noexcept
        : sim_(o.sim_), list_(std::exchange(o.list_, {})),
          size_(std::exchange(o.size_, 0))
    {
    }
    WaitQueue &operator=(WaitQueue &&) = delete;
    WaitQueue(const WaitQueue &) = delete;
    WaitQueue &operator=(const WaitQueue &) = delete;

    /** Awaitable: parks the caller until a wakeOne()/wakeAll() reaches
     *  it. Always suspends; callers re-check their condition. */
    auto
    wait()
    {
        struct Awaiter
        {
            WaitQueue &q;
            bool await_ready() const noexcept { return false; }
            void
            await_suspend(std::coroutine_handle<> h)
            {
                q.park(EventFn::resume(h));
            }
            void await_resume() const noexcept {}
        };
        return Awaiter{*this};
    }

    /** Park @p fn behind the current waiters; a wake runs it (frameless
     *  awaiters, Resource::enqueue). */
    template <typename F>
    void
    park(F &&fn)
    {
        list_.pushBack(sim_->park(std::forward<F>(fn)));
        ++size_;
    }

    /** Wake the oldest waiter. @return false if none was parked. */
    bool
    wakeOne()
    {
        if (list_.empty())
            return false;
        --size_;
        sim_->wake(list_.popFront());
        return true;
    }

    /** Wake every parked waiter, oldest first. */
    void
    wakeAll()
    {
        while (wakeOne()) {
        }
    }

    bool empty() const noexcept { return list_.empty(); }

    /** @return number of parked waiters. */
    std::uint32_t size() const noexcept { return size_; }

  private:
    Simulator *sim_;
    EventList list_;
    std::uint32_t size_ = 0;
};

/**
 * A capacity-N resource with FIFO admission.
 *
 * Coroutines `co_await res.acquire()` and must call `release()` when done.
 * Grants are delivered through the event queue (never by recursive resume),
 * which keeps wakeup order deterministic and the native stack flat. A
 * release hands its unit straight to the oldest waiter.
 *
 * The capacity can move at run time (setCapacity(), the §4.3 c_max
 * controller): a raise grants waiters in FIFO order at once; after a cut,
 * releases drain units without handoff until at most the new capacity
 * are held.
 *
 * A Resource with parked waiters must not outlive its Simulator, and is
 * used only on the thread that advances it.
 */
class Resource
{
  public:
    Resource(Simulator &sim, std::uint32_t capacity, std::string name = "")
        : sim_(sim), capacity_(capacity), waiters_(sim),
          name_(std::move(name))
    {
        assert(capacity_ > 0);
    }

    Resource(const Resource &) = delete;
    Resource &operator=(const Resource &) = delete;

    /** Awaitable: returns once a unit of the resource is granted. */
    auto
    acquire()
    {
        struct Awaiter
        {
            Resource &res;

            bool
            await_ready() const noexcept
            {
                return res.tryAcquire();
            }

            void
            await_suspend(std::coroutine_handle<> h)
            {
                res.waiters_.park(EventFn::resume(h));
            }

            void await_resume() const noexcept {}
        };
        return Awaiter{*this};
    }

    /**
     * Awaitable: hold one unit for @p d ns (> 0), then release it and
     * resume. Makes the same tryAcquire/enqueue/schedule calls, in the
     * same order, as `co_await acquire(); co_await delay(d); release();`
     * in the awaiting coroutine, so it costs the same events — but a
     * contended grant runs a small callback instead of resuming the
     * caller's frame, and no child coroutine is ever created.
     */
    auto
    hold(Time d)
    {
        struct Awaiter
        {
            Resource &res;
            Time d;

            bool await_ready() const noexcept { return false; }
            void
            await_suspend(std::coroutine_handle<> h)
            {
                res.holdThen(d, h);
            }
            void await_resume() const noexcept {}
        };
        return Awaiter{*this, d};
    }

    /**
     * Frameless hold: acquire a unit (queueing FIFO), keep it @p d ns
     * (> 0), release it, then run @p k in the same event. @p k is a
     * coroutine handle (resumed) or a callable of at most 8 bytes.
     */
    template <typename K>
    void
    holdThen(Time d, K k)
    {
        assert(d > 0);
        if (tryAcquire())
            occupy(d, k);
        else
            enqueue([this, d, k] { occupy(d, k); });
    }

    /**
     * Queue @p fn to run once a unit frees up; the unit is already held
     * when @p fn is invoked (same handoff as a granted acquire()). Only
     * valid right after tryAcquire() returned false — frameless awaiters
     * use this instead of suspending a coroutine. FIFO order with
     * coroutine waiters is preserved: both kinds share one queue.
     */
    template <typename F>
    void
    enqueue(F &&fn)
    {
        assert(inUse_ >= capacity_);
        waiters_.park(std::forward<F>(fn));
    }

    /**
     * Synchronous acquire attempt. @return true (holding one unit) if the
     * resource was free; false (state unchanged) if it would have queued.
     * Lets hot paths skip the coroutine machinery when uncontended.
     */
    bool
    tryAcquire()
    {
        if (inUse_ < capacity_) {
            ++inUse_;
            return true;
        }
        return false;
    }

    /** Return one unit; the oldest waiter (if any) is granted. */
    void
    release()
    {
        assert(inUse_ > 0);
        // Hand the unit straight to the head waiter (inUse_ unchanged),
        // unless a capacity cut left more units held than allowed.
        if (!waiters_.empty() && inUse_ <= capacity_)
            waiters_.wakeOne();
        else
            --inUse_;
    }

    /** Change the capacity; a raise grants waiters in FIFO order. */
    void
    setCapacity(std::uint32_t c)
    {
        assert(c > 0);
        capacity_ = c;
        while (inUse_ < capacity_ && waiters_.wakeOne())
            ++inUse_;
    }

    /** @return number of waiters queued behind the resource. */
    std::uint32_t waiters() const { return waiters_.size(); }

    /** @return number of units currently held. */
    std::uint32_t inUse() const { return inUse_; }

    /** @return configured capacity. */
    std::uint32_t capacity() const { return capacity_; }

    /** @return diagnostic name. */
    const std::string &name() const { return name_; }

  private:
    template <typename K>
    void
    occupy(Time d, K k)
    {
        sim_.schedule(d, [this, k] {
            release();
            k(); // a coroutine handle's operator() resumes it
        });
    }

    Simulator &sim_;
    std::uint32_t capacity_;
    std::uint32_t inUse_ = 0;
    // Mixed queue: coroutine waiters enter as EventFn::resume, frameless
    // awaiters as callbacks; one FIFO keeps the order fair across both.
    WaitQueue waiters_;
    std::string name_;
};

} // namespace smart::sim

#endif // SMART_SIM_RESOURCE_HPP
