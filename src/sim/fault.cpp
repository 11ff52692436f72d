/**
 * @file
 * FaultPlane implementation.
 */

#include "sim/fault.hpp"

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "sim/timeline.hpp"

namespace smart::sim {

const char *
faultKindName(FaultKind k)
{
    switch (k) {
    case FaultKind::CompletionError:
        return "completion_error";
    case FaultKind::NicStall:
        return "nic_stall";
    case FaultKind::RnicReset:
        return "rnic_reset";
    case FaultKind::Crash:
        return "crash";
    }
    return "unknown";
}

FaultPlane::FaultPlane(Simulator &sim, std::uint64_t seed)
    : sim_(sim), rng_(seed, 0xfa017c0de5eedULL)
{
    if (sim_.shardGroup() != nullptr) {
        // Always-on (not assert): injected faults mutate cross-blade
        // state from one shard, which the window protocol does not
        // order. Run fault scenarios single-shard.
        std::fprintf(stderr, "FaultPlane: fault injection requires a "
                             "single-shard simulation (shards=1)\n");
        std::abort();
    }
    assert(sim_.faultPlane() == nullptr &&
           "one fault plane per simulator");
    sim_.installFaultPlane(this);
    sim_.metrics().registerCounter(this, "smart.fault.injected", {},
                                   &injected_);
    sim_.metrics().registerGauge(this, "smart.fault.targets_down", {},
                                 [this] {
                                     double down = 0;
                                     for (const FaultTarget *t :
                                          sim_.faultTargets())
                                         if (t->faultedNow())
                                             ++down;
                                     return down;
                                 });
}

FaultPlane::~FaultPlane()
{
    sim_.metrics().unregisterOwner(this);
    sim_.installFaultPlane(nullptr);
}

FaultTarget *
FaultPlane::find(const std::string &name) const
{
    for (FaultTarget *t : sim_.faultTargets())
        if (t->faultTargetName() == name)
            return t;
    return nullptr;
}

void
FaultPlane::fire(FaultKind kind, const std::string &target, Time duration)
{
    FaultTarget *t = find(target);
    assert(t != nullptr && "fault schedule names an unknown target");
    if (t == nullptr)
        return;
    injected_.add();
    fired_.push_back({sim_.now(), kind, target});
    if (Timeline *tl = sim_.timeline()) {
        tl->annotate(sim_, "fault", target,
                     std::string(faultKindName(kind)) + " dur=" +
                         std::to_string(duration));
    }
    t->applyFault(kind, duration);
}

void
FaultPlane::inject(FaultKind kind, const std::string &target, Time duration)
{
    fire(kind, target, duration);
}

void
FaultPlane::armAt(Time at, std::size_t idx)
{
    // Capture the schedule by index, not by value: EventFn stores its
    // capture inline in 48 bytes, and the target name (a std::string)
    // belongs in the plane-owned Sched entry, not in the event.
    sim_.scheduleAt(at, [this, idx] { fireScheduled(idx); });
}

void
FaultPlane::fireScheduled(std::size_t idx)
{
    const Sched &s = schedules_[idx];
    fire(s.kind, s.target, s.duration);
    if (s.period > 0)
        armAt(sim_.now() + s.period, idx);
}

void
FaultPlane::oneShot(Time at, FaultKind kind, std::string target,
                    Time duration)
{
    schedules_.push_back({kind, std::move(target), duration, 0});
    armAt(at, schedules_.size() - 1);
}

void
FaultPlane::periodic(Time first, Time period, FaultKind kind,
                     std::string target, Time duration)
{
    assert(period > 0);
    schedules_.push_back({kind, std::move(target), duration, period});
    armAt(first, schedules_.size() - 1);
}

void
FaultPlane::probabilistic(const std::string &target, double per_op_prob)
{
    FaultTarget *t = find(target);
    assert(t != nullptr && "probabilistic fault names an unknown target");
    if (t == nullptr)
        return;
    if (!t->setInjectedErrorRate(per_op_prob,
                                 per_op_prob > 0 ? &rng_ : nullptr)) {
        // Always-on (not assert): the schedule would never fire.
        std::fprintf(stderr,
                     "FaultPlane: %s has no injected-error path; aim "
                     "probabilistic completion errors at an initiator "
                     "RNIC\n",
                     target.c_str());
        std::abort();
    }
}

} // namespace smart::sim
