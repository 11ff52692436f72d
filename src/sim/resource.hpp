/**
 * @file
 * FIFO-queued capacity-limited resources: the building block for every
 * contended hardware structure in the model (CPUs, doorbell spinlocks,
 * RNIC pipelines, DMA engines, links).
 */

#ifndef SMART_SIM_RESOURCE_HPP
#define SMART_SIM_RESOURCE_HPP

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <string>

#include "sim/simulator.hpp"
#include "sim/types.hpp"

namespace smart::sim {

/**
 * A capacity-N resource with FIFO admission.
 *
 * Coroutines `co_await res.acquire()` and must call `release()` when done.
 * Grants are delivered through the event queue (never by recursive resume),
 * which keeps wakeup order deterministic and the native stack flat.
 *
 * Waiters wait in parked event nodes of the Simulator's pool; a grant
 * links the head node into the queue without moving its callable. A
 * Resource must not outlive its Simulator, and is used only on the thread
 * that advances it.
 */
class Resource
{
  public:
    Resource(Simulator &sim, std::uint32_t capacity, std::string name = "")
        : sim_(sim), capacity_(capacity), name_(std::move(name))
    {
        assert(capacity_ > 0);
    }

    /** Destroys the callables of waiters that were never granted. */
    ~Resource()
    {
        while (!waiters_.empty())
            sim_.drop(waiters_.popFront());
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
                if (res.inUse_ < res.capacity_) {
                    ++res.inUse_;
                    return true;
                }
                return false;
            }

            void
            await_suspend(std::coroutine_handle<> h)
            {
                res.park(EventFn::resume(h));
            }

            void await_resume() const noexcept {}
        };
        return Awaiter{*this};
    }

    /**
     * Queue @p fn to run once a unit frees up; the unit is already held
     * when @p fn is invoked (same handoff as a granted acquire()). Only
     * valid right after tryAcquire() returned false — frameless awaiters
     * (rnic's DMA/egress paths) use this instead of suspending a
     * coroutine. FIFO order with coroutine waiters is preserved: both
     * kinds share one queue.
     */
    void
    enqueue(EventFn &&fn)
    {
        assert(inUse_ == capacity_);
        park(std::move(fn));
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
        if (!waiters_.empty()) {
            // Hand the unit straight to the head waiter: inUse_ unchanged.
            --waiting_;
            sim_.wake(waiters_.popFront());
        } else {
            --inUse_;
        }
    }

    /** @return number of coroutines queued behind the resource. */
    std::uint32_t waiters() const { return waiting_; }

    /** @return number of units currently held. */
    std::uint32_t inUse() const { return inUse_; }

    /** @return configured capacity. */
    std::uint32_t capacity() const { return capacity_; }

    /** @return diagnostic name. */
    const std::string &name() const { return name_; }

  private:
    void
    park(EventFn &&fn)
    {
        waiters_.pushBack(sim_.park(std::move(fn)));
        ++waiting_;
    }

    Simulator &sim_;
    std::uint32_t capacity_;
    std::uint32_t inUse_ = 0;
    std::uint32_t waiting_ = 0;
    // Mixed queue: coroutine waiters enter as EventFn::resume, frameless
    // awaiters as callbacks; one FIFO keeps the order fair across both.
    EventList waiters_;
    std::string name_;
};

} // namespace smart::sim

#endif // SMART_SIM_RESOURCE_HPP
