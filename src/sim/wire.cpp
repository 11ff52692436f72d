/**
 * @file
 * ShardGroup / WireEndpoint implementation: worker lifecycle, the
 * lookahead-window loop, and wire-message routing.
 */

#include "sim/wire.hpp"

#include <algorithm>

#include "sim/simulator.hpp"

namespace smart::sim {

// --------------------------------------------------------------- ShardGroup

ShardGroup::ShardGroup(std::uint32_t shards, Time lookahead)
    : n_(shards == 0 ? 1 : shards), lookahead_(lookahead), ends_(n_),
      barrier_(n_, NextWindow{this})
{
    assert((n_ == 1 || lookahead_ > 0) &&
           "conservative synchronization needs a positive lookahead");
    sims_.reserve(n_);
    for (std::uint32_t i = 0; i < n_; ++i)
        sims_.push_back(std::make_unique<Simulator>());
    if (n_ == 1)
        return; // standalone fast path: no outboxes, no threads
    outboxes_.resize(2 * static_cast<std::size_t>(n_) * n_);
    for (std::uint32_t i = 0; i < n_; ++i) {
        sims_[i]->installShardGroup(this, i);
        sims_[i]->wireInbox().reserve(256);
    }
    threads_.reserve(n_ - 1);
    for (std::uint32_t i = 1; i < n_; ++i)
        threads_.emplace_back([this, i] { workerMain(i); });
}

ShardGroup::~ShardGroup()
{
    if (!threads_.empty()) {
        {
            std::lock_guard<std::mutex> l(mu_);
            stop_ = true;
        }
        cv_.notify_all();
        for (std::thread &t : threads_)
            t.join();
    }
}

Simulator &
ShardGroup::shard(std::uint32_t i)
{
    assert(i < n_);
    return *sims_[i];
}

const Simulator &
ShardGroup::shard(std::uint32_t i) const
{
    assert(i < n_);
    return *sims_[i];
}

void
ShardGroup::post(std::uint32_t src, std::uint32_t dst, WireMsg &&m)
{
    Time &posted = ends_[src].posted;
    posted = std::min(posted, m.dtime);
    outboxes_[((window_ & 1) * n_ + src) * n_ + dst].push_back(std::move(m));
}

void
ShardGroup::drainInto(std::uint32_t dst, std::uint64_t parity)
{
    WireInbox &inbox = sims_[dst]->wireInbox();
    for (std::uint32_t src = 0; src < n_; ++src) {
        std::vector<WireMsg> &box = outboxes_[(parity * n_ + src) * n_ + dst];
        for (WireMsg &m : box)
            inbox.push(std::move(m));
        box.clear();
    }
}

void
ShardGroup::NextWindow::operator()() noexcept
{
    Time t = kTimeNever;
    for (WindowEnd &e : g->ends_) {
        t = std::min({t, e.next, e.posted});
        e.posted = kTimeNever;
    }
    g->windowStart_ = t;
    ++g->window_;
}

void
ShardGroup::runUntil(Time deadline)
{
    if (n_ == 1) {
        sims_[0]->runUntil(deadline);
        return;
    }
    // Workers are parked: hand over the caller's between-phase sends and
    // pick the first window start single-threaded.
    Time start = kTimeNever;
    for (std::uint32_t i = 0; i < n_; ++i) {
        drainInto(i, window_ & 1);
        ends_[i].posted = kTimeNever;
        start = std::min(start, sims_[i]->nextTime());
    }
    deadline_ = deadline;
    windowStart_ = start;
    {
        std::lock_guard<std::mutex> l(mu_);
        phaseDone_ = 0;
        ++phaseGen_;
    }
    cv_.notify_all();
    runWindows(0);
    std::unique_lock<std::mutex> l(mu_);
    cv_.wait(l, [&] { return phaseDone_ == n_ - 1; });
}

void
ShardGroup::runWindows(std::uint32_t idx)
{
    Simulator &s = *sims_[idx];
    while (windowStart_ <= deadline_) {
        const Time start = windowStart_;
        s.runLocalUpTo(deadline_ - start < lookahead_
                           ? deadline_
                           : start + lookahead_ - 1);
        ends_[idx].next = s.nextTime();
        barrier_.arrive_and_wait();
        drainInto(idx, (window_ - 1) & 1);
    }
    s.now_ = std::max(s.now_, deadline_);
}

void
ShardGroup::workerMain(std::uint32_t idx)
{
    std::uint64_t seen = 0;
    for (;;) {
        {
            std::unique_lock<std::mutex> l(mu_);
            cv_.wait(l, [&] { return stop_ || phaseGen_ != seen; });
            if (stop_)
                return;
            seen = phaseGen_;
        }
        runWindows(idx);
        {
            std::lock_guard<std::mutex> l(mu_);
            ++phaseDone_;
        }
        cv_.notify_all();
    }
}

// ------------------------------------------------------------- WireEndpoint

void
WireEndpoint::send(Simulator &dst, Time dtime, EventFn &&fn)
{
    assert(dtime >= sim_.now());
    WireMsg m{dtime, srcId_, std::move(fn)};
    if (&dst == &sim_) {
        sim_.wireInbox().push(std::move(m));
        return;
    }
    ShardGroup *g = sim_.shardGroup();
    assert(g != nullptr && g == dst.shardGroup() &&
           "cross-Simulator wire traffic requires both ends to be shards "
           "of one ShardGroup");
    assert(m.dtime >= sim_.now() + g->lookahead() &&
           "cross-shard delivery inside the lookahead window breaks the "
           "window protocol");
    g->post(sim_.shardIndex(), dst.shardIndex(), std::move(m));
}

} // namespace smart::sim
