/**
 * @file
 * MembershipPlane implementation: serialized join/drain/failover with
 * chunked RDMA partition migration and epoch-fenced map flips.
 */

#include "smart/membership.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "sim/timeline.hpp"
#include "smart/backoff.hpp"
#include "smart/cache/buffer_manager.hpp"
#include "smart/smart_ctx.hpp"

namespace smart {

namespace {

/** Causal-log emitter: one line per membership event, keyed on the
 *  timeline being installed (nullptr => free). */
void
noteMembership(sim::Simulator &sim, const std::string &target,
               std::string detail)
{
    if (sim::Timeline *tl = sim.timeline())
        tl->annotate(sim, "membership", target, std::move(detail));
}

} // namespace

MembershipPlane::MembershipPlane(sim::Simulator &sim, Config cfg,
                                 std::string name)
    : sim_(sim), cfg_(cfg), name_(std::move(name)), view_(sim, name_)
{
    if (sim_.shardGroup() != nullptr) {
        // Always-on (not assert): reconfiguration copies bytes between
        // blades and fences epochs from one shard mid-run.
        std::fprintf(stderr, "MembershipPlane: elastic membership "
                             "requires a single-shard simulation "
                             "(shards=1)\n");
        std::abort();
    }
    assert(cfg_.partitions > 0);
    partBlade_.assign(cfg_.partitions, kNoBlade);
    partMigrating_.assign(cfg_.partitions, 0);

    sim::MetricsRegistry &m = sim_.metrics();
    sim::Labels labels{{"cluster", name_}};
    m.registerCounter(this, "smart.migrate.partitions", labels,
                      &migratedParts_);
    m.registerCounter(this, "smart.migrate.bytes", labels, &migratedBytes_);
    m.registerCounter(this, "smart.migrate.joins", labels, &joins_);
    m.registerCounter(this, "smart.migrate.drains", labels, &drains_);
    m.registerCounter(this, "smart.migrate.failovers", labels, &failovers_);
    m.registerCounter(this, "smart.migrate.aborts", labels, &aborts_);
    m.registerGauge(this, "smart.migrate.in_flight", labels, [this] {
        double n = 0;
        for (std::uint8_t f : partMigrating_)
            n += f;
        return n;
    });
    m.registerGauge(this, "smart.migrate.queue", labels,
                    [this] { return double(queue_.size()); });
}

MembershipPlane::~MembershipPlane()
{
    for (auto &t : churnTargets_)
        sim_.removeFaultTarget(t.get());
    sim_.metrics().unregisterOwner(this);
}

void
MembershipPlane::addRuntime(SmartRuntime &rt)
{
    runtimes_.push_back(&rt);
    rt.setClusterView(&view_);
}

std::uint64_t
MembershipPlane::allocRegion(memblade::MemoryBlade &blade)
{
    std::uint64_t base =
        blade.alloc(std::uint64_t(cfg_.partitions) * cfg_.partBytes);
    if (partBase_ == ~0ull)
        partBase_ = base;
    // Offset-preserving migration depends on the region sitting at the
    // same base on every member; callers must not allocate first.
    assert(base == partBase_);
    return base;
}

std::uint32_t
MembershipPlane::addBlade(memblade::MemoryBlade &blade)
{
    std::uint32_t idx = blades_.size();
    for ([[maybe_unused]] SmartRuntime *rt : runtimes_)
        assert(idx < rt->numBlades());
    blades_.push_back(&blade);
    allocRegion(blade);
    view_.set(idx, BladeState::Active);
    return idx;
}

void
MembershipPlane::seedPartitions()
{
    std::vector<std::uint32_t> active;
    for (std::uint32_t i = 0; i < blades_.size(); ++i)
        if (view_.state(i) == BladeState::Active)
            active.push_back(i);
    assert(!active.empty());
    for (std::uint32_t p = 0; p < cfg_.partitions; ++p)
        partBlade_[p] = active[p % active.size()];
}

std::uint32_t
MembershipPlane::partsOn(std::uint32_t blade_idx) const
{
    std::uint32_t n = 0;
    for (std::uint32_t b : partBlade_)
        if (b == blade_idx)
            ++n;
    return n;
}

std::uint32_t
MembershipPlane::pickDest(std::uint32_t exclude) const
{
    std::uint32_t best = kNoBlade;
    std::uint32_t bestLoad = 0;
    for (std::uint32_t i = 0; i < blades_.size(); ++i) {
        if (i == exclude || view_.state(i) != BladeState::Active ||
            blades_[i]->crashed())
            continue;
        std::uint32_t load = partsOn(i);
        if (best == kNoBlade || load < bestLoad) {
            best = i;
            bestLoad = load;
        }
    }
    return best;
}

// ---- event entry points -------------------------------------------------

std::uint32_t
MembershipPlane::join(memblade::MemoryBlade &blade)
{
    std::uint32_t idx = kNoBlade;
    for (SmartRuntime *rt : runtimes_) {
        std::uint32_t i = rt->connect(blade);
        if (idx == kNoBlade)
            idx = i;
        else
            assert(i == idx);
    }
    assert(idx == blades_.size());
    blades_.push_back(&blade);
    allocRegion(blade);
    view_.set(idx, BladeState::Joining);
    joins_.add();
    noteMembership(sim_, blade.faultTargetName(),
                   "join epoch=" + std::to_string(view_.epoch()));
    enqueue({PendingOp::Kind::Join, idx});
    return idx;
}

void
MembershipPlane::rejoin(std::uint32_t blade_idx)
{
    if (blade_idx >= blades_.size() || blades_[blade_idx]->crashed())
        return;
    BladeState s = view_.state(blade_idx);
    if (s == BladeState::Draining) {
        // Drain still in flight; try again shortly.
        scheduleRejoinPoll(blade_idx);
        return;
    }
    if (s != BladeState::Dead)
        return;
    view_.set(blade_idx, BladeState::Joining);
    joins_.add();
    noteMembership(sim_, blades_[blade_idx]->faultTargetName(),
                   "rejoin epoch=" + std::to_string(view_.epoch()));
    enqueue({PendingOp::Kind::Join, blade_idx});
}

void
MembershipPlane::drain(std::uint32_t blade_idx)
{
    if (blade_idx >= blades_.size())
        return;
    if (view_.state(blade_idx) != BladeState::Active)
        return;
    view_.set(blade_idx, BladeState::Draining);
    drains_.add();
    noteMembership(sim_, blades_[blade_idx]->faultTargetName(),
                   "drain epoch=" + std::to_string(view_.epoch()));
    enqueue({PendingOp::Kind::Drain, blade_idx});
}

void
MembershipPlane::startHealthMonitor()
{
    if (healthStarted_)
        return;
    healthStarted_ = true;
    sim_.spawn(healthLoop());
}

void
MembershipPlane::enableChurnTargets()
{
    for (std::uint32_t i = churnTargets_.size(); i < blades_.size(); ++i) {
        auto t = std::make_unique<ChurnTarget>();
        t->plane = this;
        t->idx = i;
        t->name = "drain." + blades_[i]->faultTargetName();
        sim_.addFaultTarget(t.get());
        churnTargets_.push_back(std::move(t));
    }
}

void
MembershipPlane::ChurnTarget::applyFault(sim::FaultKind kind,
                                         sim::Time duration)
{
    (void)kind;
    plane->churnFault(idx, duration);
}

void
MembershipPlane::churnFault(std::uint32_t idx, sim::Time duration)
{
    if (view_.state(idx) != BladeState::Active || blades_[idx]->crashed())
        return;
    drain(idx);
    if (duration > 0) {
        std::uint32_t i = idx;
        sim_.schedule(duration, [this, i] { rejoin(i); });
    }
}

void
MembershipPlane::scheduleRejoinPoll(std::uint32_t idx)
{
    std::uint32_t i = idx;
    sim_.schedule(kSettleNs * 4, [this, i] { rejoin(i); });
}

// ---- serialized migration worker ---------------------------------------

void
MembershipPlane::ensureRunner()
{
    if (runnerStarted_)
        return;
    assert(!runtimes_.empty());
    runnerStarted_ = true;
    // The migration worker runs on the first runtime's thread 0.
    runtimes_.front()->spawnWorker(
        0, [this](SmartCtx &ctx) { return runnerLoop(ctx); });
}

void
MembershipPlane::enqueue(PendingOp op)
{
    queue_.push_back(op);
    ensureRunner();
    if (runnerWaiter_) {
        std::coroutine_handle<> h = runnerWaiter_;
        runnerWaiter_ = {};
        sim_.post(h);
    }
}

sim::Task
MembershipPlane::runnerLoop(SmartCtx &ctx)
{
    struct Park
    {
        MembershipPlane &p;
        bool await_ready() const noexcept { return !p.queue_.empty(); }
        void
        await_suspend(std::coroutine_handle<> h) noexcept
        {
            p.runnerWaiter_ = h;
        }
        void await_resume() const noexcept {}
    };

    for (;;) {
        co_await Park{*this};
        PendingOp op = queue_.front();
        queue_.pop_front();
        running_ = true;
        switch (op.kind) {
        case PendingOp::Kind::Join:
            co_await joinTask(ctx, op.idx);
            break;
        case PendingOp::Kind::Drain:
            co_await drainTask(ctx, op.idx);
            break;
        case PendingOp::Kind::Failover:
            co_await failoverTask(ctx, op.idx);
            break;
        }
        running_ = false;
    }
}

sim::Task
MembershipPlane::joinTask(SmartCtx &ctx, std::uint32_t idx)
{
    // Rebalance until taking another partition would leave the donor
    // less loaded than the joiner; donors are the most-loaded Active
    // blades (lowest index breaks ties) so the schedule is deterministic.
    for (std::uint32_t moved = 0; moved < cfg_.partitions; ++moved) {
        if (view_.state(idx) != BladeState::Joining ||
            blades_[idx]->crashed())
            co_return; // crashed mid-join; leave state to the monitor
        std::uint32_t src = kNoBlade;
        std::uint32_t srcLoad = 0;
        for (std::uint32_t i = 0; i < blades_.size(); ++i) {
            if (i == idx || view_.state(i) != BladeState::Active ||
                blades_[i]->crashed())
                continue;
            std::uint32_t load = partsOn(i);
            if (src == kNoBlade || load > srcLoad) {
                src = i;
                srcLoad = load;
            }
        }
        if (src == kNoBlade || srcLoad <= partsOn(idx) + 1)
            break;
        std::uint32_t part = kNoBlade;
        for (std::uint32_t p = 0; p < cfg_.partitions; ++p) {
            if (partBlade_[p] == src) {
                part = p;
                break;
            }
        }
        if (part == kNoBlade)
            break;
        bool ok = false;
        co_await migratePartition(ctx, part, idx, ok);
        if (!ok) {
            aborts_.add();
            break;
        }
    }
    if (view_.state(idx) == BladeState::Joining) {
        view_.set(idx, BladeState::Active);
        noteMembership(sim_, blades_[idx]->faultTargetName(),
                       "join-complete epoch=" +
                           std::to_string(view_.epoch()));
    }
}

sim::Task
MembershipPlane::drainTask(SmartCtx &ctx, std::uint32_t idx)
{
    // Two passes: pass 1 migrates everything, pass 2 retries stragglers
    // (e.g. a destination crashed mid-copy and a new one must be picked).
    for (int pass = 0; pass < 2 && partsOn(idx) != 0; ++pass) {
        for (std::uint32_t p = 0; p < cfg_.partitions; ++p) {
            if (partBlade_[p] != idx)
                continue;
            if (view_.state(idx) != BladeState::Draining ||
                blades_[idx]->crashed())
                co_return; // crash beat the drain; failover takes over
            std::uint32_t dst = pickDest(idx);
            if (dst == kNoBlade) {
                // Nowhere to put the data: abort and stay a member.
                aborts_.add();
                view_.set(idx, BladeState::Active);
                co_return;
            }
            bool ok = false;
            co_await migratePartition(ctx, p, dst, ok);
            if (!ok)
                aborts_.add();
        }
    }
    if (view_.state(idx) != BladeState::Draining)
        co_return;
    bool emptied = partsOn(idx) == 0;
    view_.set(idx, emptied ? BladeState::Dead : BladeState::Active);
    noteMembership(sim_, blades_[idx]->faultTargetName(),
                   std::string("drain-complete state=") +
                       (emptied ? "dead" : "active") +
                       " epoch=" + std::to_string(view_.epoch()));
}

sim::Task
MembershipPlane::failoverTask(SmartCtx &ctx, std::uint32_t idx)
{
    for (std::uint32_t p = 0; p < cfg_.partitions; ++p) {
        if (partBlade_[p] != idx)
            continue;
        std::uint32_t dst = pickDest(idx);
        if (dst == kNoBlade) {
            // No survivor can host it; the partition stays orphaned
            // until a join provides capacity (accesses keep fencing).
            aborts_.add();
            continue;
        }
        partMigrating_[p] = 1;
        partBlade_[p] = dst;
        view_.bumpEpoch();
        if (recover_)
            co_await recover_(ctx, p, dst);
        else
            co_await defaultRecover(ctx, p, dst);
        partMigrating_[p] = 0;
        migratedParts_.add();
    }
}

// ---- data movement ------------------------------------------------------

sim::Task
MembershipPlane::migratePartition(SmartCtx &ctx, std::uint32_t part,
                                  std::uint32_t dst, bool &ok)
{
    std::uint32_t src = partBlade_[part];
    partMigrating_[part] = 1;
    // Quiesce window: workers that consult migrating(part) stop issuing
    // new writes to the partition; in-flight ones complete well within
    // the settle delay (bounded by the verb timeout).
    co_await sim_.delay(kSettleNs);

    ok = false;
    if (!blades_[src]->crashed() && !blades_[dst]->crashed()) {
        bool copied = false;
        co_await copyPartition(ctx, part, src, dst, copied);
        if (copied) {
            // Re-key resident cache frames (pinned and dirty included):
            // a dirty line that raced the copy now writes back to the
            // destination, so the freshest bytes always win there.
            for (SmartRuntime *rt : runtimes_)
                if (cache::BufferManager *bm = rt->cache())
                    bm->handoffRange(src, dst, partitionOffset(part),
                                     cfg_.partBytes);
            partBlade_[part] = dst;
            view_.bumpEpoch();
            migratedParts_.add();
            ok = true;
        }
    }
    partMigrating_[part] = 0;
}

sim::Task
MembershipPlane::copyPartition(SmartCtx &ctx, std::uint32_t part,
                               std::uint32_t src, std::uint32_t dst,
                               bool &ok)
{
    SmartRuntime &rt = *runtimes_.front();
    std::uint64_t off = partitionOffset(part);
    ok = true;
    for (std::uint64_t o = 0; o < cfg_.partBytes; o += kCopyChunkBytes) {
        std::uint32_t n = std::uint32_t(
            std::min<std::uint64_t>(kCopyChunkBytes, cfg_.partBytes - o));
        bool done = false;
        for (std::uint32_t attempt = 0; attempt < 4 && !done; ++attempt) {
            std::uint8_t *buf = ctx.scratch(n);
            ctx.read(rt.ptr(src, off + o), MemSpan{buf, n});
            co_await ctx.postSend();
            co_await ctx.sync();
            if (ctx.failed()) {
                ctx.clearError();
                co_await sim_.delay(kSettleNs);
                continue;
            }
            ctx.write(rt.ptr(dst, off + o), ConstMemSpan{buf, n});
            co_await ctx.postSend();
            co_await ctx.sync();
            if (ctx.failed()) {
                ctx.clearError();
                co_await sim_.delay(kSettleNs);
                continue;
            }
            done = true;
        }
        if (!done) {
            ok = false;
            co_return;
        }
        migratedBytes_.add(n);
    }
}

sim::Task
MembershipPlane::defaultRecover(SmartCtx &ctx, std::uint32_t part,
                                std::uint32_t dst)
{
    // Zero-fill: the partition's bytes died with the blade; give the
    // application a defined (all-zero) state to rebuild from.
    SmartRuntime &rt = *runtimes_.front();
    std::uint64_t off = partitionOffset(part);
    std::vector<std::uint8_t> zeros(kCopyChunkBytes, 0);
    for (std::uint64_t o = 0; o < cfg_.partBytes; o += kCopyChunkBytes) {
        std::uint32_t n = std::uint32_t(
            std::min<std::uint64_t>(kCopyChunkBytes, cfg_.partBytes - o));
        ctx.write(rt.ptr(dst, off + o), ConstMemSpan{zeros.data(), n});
        co_await ctx.postSend();
        co_await ctx.sync();
        if (ctx.failed()) {
            ctx.clearError();
            co_return;
        }
    }
}

// ---- health monitor -----------------------------------------------------

sim::Task
MembershipPlane::healthLoop()
{
    while (!healthStop_) {
        co_await sim_.delay(kHealthCheckNs);
        for (std::uint32_t i = 0; i < blades_.size(); ++i) {
            BladeState s = view_.state(i);
            bool member = s == BladeState::Active ||
                          s == BladeState::Draining ||
                          s == BladeState::Joining;
            if (!member || !blades_[i]->crashed())
                continue;
            // Fence first (epoch bump stops new accesses immediately),
            // then drop the corpse's cached lines, then re-place.
            view_.set(i, BladeState::Dead);
            failovers_.add();
            noteMembership(sim_, blades_[i]->faultTargetName(),
                           "failover epoch=" +
                               std::to_string(view_.epoch()));
            for (SmartRuntime *rt : runtimes_)
                if (cache::BufferManager *bm = rt->cache())
                    bm->flushBlade(i);
            enqueue({PendingOp::Kind::Failover, i});
        }
    }
}

} // namespace smart
