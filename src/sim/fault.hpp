/**
 * @file
 * Deterministic fault-injection plane. A FaultPlane installed on a
 * Simulator fires one-shot, periodic, and probabilistic fault schedules
 * in virtual time against named targets (RNICs, memory blades). All
 * randomness comes from the plane's own seeded RNG, so a faulty run is
 * exactly reproducible from (workload seed, fault seed).
 *
 * Pay-for-what-you-use: components register as FaultTargets
 * unconditionally (a pointer push, no behavioral cost), but no fault
 * state is consulted and no RNG is drawn unless a plane is installed and
 * a schedule actually targets the component. With no plane, simulations
 * are bit-identical to a build without this file.
 */

#ifndef SMART_SIM_FAULT_HPP
#define SMART_SIM_FAULT_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "sim/metrics.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/types.hpp"

namespace smart::sim {

/** The fault classes the plane can inject. */
enum class FaultKind : std::uint8_t
{
    /** One work request completes with an error CQE at the initiator. */
    CompletionError,
    /** Doorbell/processing stall: the NIC absorbs no new work for the
     *  fault's duration (posted batches queue up). */
    NicStall,
    /** Whole-RNIC reset: in-flight WRs are flushed in error and every QP
     *  bound to the device must walk Reset->Init->RTR->RTS again. */
    RnicReset,
    /** Component crash: down for `duration` ns (0 = until restarted by
     *  hand). A memory blade keeps its bytes (NVM) but re-registers its
     *  MR on restart, invalidating every rkey clients cached. */
    Crash,
};

/** @return a short stable name for @p k (reports, traces). */
const char *faultKindName(FaultKind k);

/**
 * Interface implemented by every component that can absorb injected
 * faults. Components register with Simulator::addFaultTarget() at
 * construction; the plane resolves schedules to targets by name.
 */
class FaultTarget
{
  public:
    virtual ~FaultTarget() = default;

    /** Unique name schedules address ("mb0", "cb0.rnic", ...). */
    virtual const std::string &faultTargetName() const = 0;

    /** Absorb one fired fault. */
    virtual void applyFault(FaultKind kind, Time duration) = 0;

    /**
     * Install a per-completion error probability (probabilistic
     * schedules). @p rng stays owned by the plane; draws happen only
     * while the rate is non-zero, preserving determinism elsewhere.
     * @return false if the target completes no work requests of its own
     *         (no injected-error path): the rate would never apply.
     */
    virtual bool
    setInjectedErrorRate(double per_op_prob, Rng *rng)
    {
        (void)per_op_prob;
        (void)rng;
        return false;
    }

    /** @return true while the target is down/stalled by a fault. */
    virtual bool faultedNow() const = 0;
};

/** Record of one fired fault (assertions, reports). */
struct FaultRecord
{
    Time at = 0;
    FaultKind kind = FaultKind::CompletionError;
    std::string target;
};

/**
 * The fault schedule driver. Construct with the owning simulator and a
 * seed; the plane installs itself (Simulator::faultPlane() becomes
 * non-null, which is what arms the retry/timeout machinery above the
 * verbs layer) and uninstalls on destruction.
 */
class FaultPlane
{
  public:
    FaultPlane(Simulator &sim, std::uint64_t seed);
    ~FaultPlane();

    FaultPlane(const FaultPlane &) = delete;
    FaultPlane &operator=(const FaultPlane &) = delete;

    /** Fire @p kind at @p target once, at absolute virtual time @p at. */
    void oneShot(Time at, FaultKind kind, std::string target,
                 Time duration = 0);

    /** Fire @p kind at @p target every @p period ns starting at @p first. */
    void periodic(Time first, Time period, FaultKind kind,
                  std::string target, Time duration = 0);

    /**
     * Make each completing work request on @p target fail with
     * probability @p per_op_prob (0 restores the healthy path). Aborts
     * if @p target has no injected-error path (a memory blade: its
     * adapter only responds), where the schedule would be a silent
     * no-op.
     */
    void probabilistic(const std::string &target, double per_op_prob);

    /** Fire @p kind at @p target right now (tests, REPL-style use). */
    void inject(FaultKind kind, const std::string &target,
                Time duration = 0);

    /** @return the plane's seeded RNG (probabilistic draws). */
    Rng &rng() { return rng_; }

    /** @return every fault fired so far, in firing order. */
    const std::vector<FaultRecord> &fired() const { return fired_; }

    /** @return total faults injected (mirrors smart.fault.injected). */
    std::uint64_t injectedCount() const { return injected_.value(); }

  private:
    /**
     * One armed schedule entry. Scheduled events capture only
     * [this, index] (16 bytes) to fit EventFn's inline budget; the owning
     * strings live here. Entries are append-only, so indices stay stable
     * across vector growth.
     */
    struct Sched
    {
        FaultKind kind;
        std::string target;
        Time duration;
        Time period; // 0 = one-shot
    };

    FaultTarget *find(const std::string &name) const;
    void fire(FaultKind kind, const std::string &target, Time duration);
    void armAt(Time at, std::size_t idx);
    void fireScheduled(std::size_t idx);

    Simulator &sim_;
    Rng rng_;
    Counter injected_;
    std::vector<FaultRecord> fired_;
    std::vector<Sched> schedules_;
};

} // namespace smart::sim

#endif // SMART_SIM_FAULT_HPP
