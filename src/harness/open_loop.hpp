/**
 * @file
 * Open-loop traffic driver (DESIGN §13): seeded arrival processes feed
 * per-tenant bounded admission queues; worker coroutines on the SMART
 * threads drain them in weighted-fair order and invoke an app-supplied
 * service function.
 *
 * Closed-loop harnesses (ht_bench & friends) measure peak capacity: every
 * coroutine always has a request in hand, so offered load equals service
 * rate by construction and queueing delay is invisible. This driver
 * decouples the two — arrivals come from a pluggable stochastic process
 * (Poisson at a target rate, diurnal sinusoid, periodic spike/burst) for
 * N simulated client sessions per tenant, so the latency-vs-offered-load
 * knee and the overload regime become measurable.
 *
 * Accounting boundaries:
 *  - queue wait (arrival -> worker dequeue) is recorded per tenant in
 *    `smart.tenant.queue_wait_ns` and attributed as the distinct
 *    `admission_wait` span stage (breakdown-only, like credit_wait);
 *  - service time stays in the runtime's app.op_latency_ns as before;
 *  - end-to-end latency (arrival -> completion, what a client observes)
 *    goes to `smart.tenant.latency_ns`, and SLO violations are judged
 *    against it.
 *
 * Fairness: admission ordering across tenants is weighted-fair queuing
 * over per-tenant virtual time (vtime += 1/weight per dispatch), so a
 * spiking tenant saturates its own bounded queue and starts shedding
 * instead of starving the others.
 */

#ifndef SMART_HARNESS_OPEN_LOOP_HPP
#define SMART_HARNESS_OPEN_LOOP_HPP

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "harness/testbed.hpp"
#include "sim/random.hpp"
#include "sim/resource.hpp"
#include "sim/stats.hpp"
#include "workload/ycsb.hpp"

namespace smart::harness {

/** Shape of one tenant's arrival process. */
enum class ArrivalKind : std::uint8_t
{
    Poisson, ///< homogeneous Poisson at ratePerUs
    Diurnal, ///< sinusoidally modulated Poisson (day/night swing)
    Spike,   ///< Poisson base with periodic multiplicative bursts
};

/** @return stable lower-case name of @p k ("poisson", ...). */
const char *arrivalKindName(ArrivalKind k);

/** Parameters of one arrival process. */
struct ArrivalConfig
{
    ArrivalKind kind = ArrivalKind::Poisson;
    /** Base arrival rate, requests per microsecond (> 0). */
    double ratePerUs = 1.0;

    // -- Diurnal: rate(t) = base * (1 + amp * sin(2 pi t / period)) --
    /** Relative swing amplitude in [0, 1). */
    double diurnalAmp = 0.5;
    sim::Time diurnalPeriodNs = 2'000'000; // 2 ms of virtual time

    // -- Spike: rate = base * factor inside bursts, base outside --
    /** Rate multiplier inside a burst (>= 1). */
    double spikeFactor = 4.0;
    /** Burst every this many ns. */
    sim::Time spikePeriodNs = 1'000'000;
    /** Burst length (< spikePeriodNs). */
    sim::Time spikeLenNs = 100'000;
};

/**
 * Seeded arrival-time generator. Homogeneous Poisson draws exponential
 * gaps directly; the modulated kinds use Lewis-Shedler thinning against
 * the process's peak rate, so every kind is an exact (not binned)
 * continuous-time process. Deterministic per (config, seed).
 */
class ArrivalProcess
{
  public:
    ArrivalProcess(const ArrivalConfig &cfg, std::uint64_t seed);

    /** @return the absolute time of the next arrival (strictly after the
     *  previous one; the process keeps its own time cursor). */
    sim::Time next();

    /** Instantaneous rate at time @p t, requests per ns. */
    double rateAtNs(sim::Time t) const;

    /** Peak instantaneous rate, requests per ns (thinning envelope). */
    double peakRateNs() const;

  private:
    ArrivalConfig cfg_;
    sim::Rng rng_;
    sim::Time cursor_ = 0;
};

/** One tenant: its own mix, skew, arrival process, weight and SLO. */
struct TenantConfig
{
    std::string name = "tenant0";
    /** Weighted-fair-queuing weight (> 0); 2 = twice the share. */
    double weight = 1.0;
    workload::YcsbMix mix = workload::YcsbMix::readHeavy();
    double zipfTheta = 0.99;
    ArrivalConfig arrival;
    /** Target end-to-end p99 (ns); 0 = no SLO for this tenant. */
    sim::Time sloP99Ns = 0;
    /** Simulated client sessions multiplexed onto this tenant's stream
     *  (each session keeps its own generator state). */
    std::uint32_t sessions = 4;
};

/**
 * Multi-window SLO burn-rate detector thresholds (SRE-style): a tenant
 * "enters burn" when its violation fraction exceeds the fast threshold
 * over the most recent sampling window AND the slow threshold over the
 * trailing slowWindows windows; it exits only when the fast fraction
 * drops below the (lower) exit threshold — hysteresis against flapping.
 * Evaluated once per time-series window (Testbed tsWindowNs), so the
 * plane must be on for the detector to run.
 */
struct BurnConfig
{
    /** Trailing windows averaged for the slow signal. */
    std::uint32_t slowWindows = 8;
    /** Enter: violation fraction over the last window (1%). */
    double fastEnter = 0.01;
    /** Enter: violation fraction over the slow horizon (0.1%). */
    double slowEnter = 0.001;
    /** Exit: fast fraction must fall below this (hysteresis). */
    double fastExit = 0.005;
};

/** Driver-wide configuration. */
struct OpenLoopConfig
{
    std::vector<TenantConfig> tenants;
    /** Key-space size shared by every tenant's generator. */
    std::uint64_t numKeys = 100'000;
    /** Bounded admission queue depth per tenant; arrivals beyond it are
     *  rejected (counted, never serviced). */
    std::uint32_t queueCap = 1024;
    /** Perturbs every arrival/workload RNG stream. */
    std::uint64_t seed = 0;
    /** SLO burn-rate detector thresholds. */
    BurnConfig burn;
};

/**
 * App adapter: perform one request on @p ctx, reporting CAS retries into
 * @p retries. The adapter owns the closed-loop bookkeeping convention
 * (rt.recordOp with *service* latency); the driver layers queue-wait and
 * end-to-end accounting around it.
 */
using ServiceFn = std::function<sim::Task(
    SmartCtx &ctx, const workload::YcsbRequest &req, std::uint32_t &retries)>;

/**
 * The open-loop driver for one Testbed. Construction registers the
 * `smart.tenant.*` metrics on the testbed's registry; destruction
 * unregisters them. start() spawns the per-tenant arrival coroutines
 * plus the worker coroutines; the simulation is then advanced by the
 * caller (tb.runUntil) exactly like a closed-loop run.
 */
class OpenLoopDriver
{
  public:
    /** Windowed per-tenant tallies (reset by resetWindow()). */
    struct TenantStats
    {
        sim::Counter offered;       ///< arrivals generated
        sim::Counter admitted;      ///< arrivals that entered the queue
        sim::Counter rejected;      ///< arrivals shed at a full queue
        sim::Counter completed;     ///< serviced to completion
        sim::Counter sloViolations; ///< completed with e2e > sloP99Ns
        sim::LatencyHistogram latency;   ///< end-to-end (arrival -> done)
        sim::LatencyHistogram queueWait; ///< arrival -> worker dequeue
    };

    OpenLoopDriver(Testbed &tb, OpenLoopConfig cfg, ServiceFn service);
    ~OpenLoopDriver();

    OpenLoopDriver(const OpenLoopDriver &) = delete;
    OpenLoopDriver &operator=(const OpenLoopDriver &) = delete;

    /**
     * Spawn arrivals + workers. @p workersPerThread coroutines are
     * spawned on every thread of every compute blade; must fit the
     * testbed's corosPerThread budget.
     */
    void start(std::uint32_t workersPerThread);

    /** Zero every per-tenant tally (end-of-warmup window boundary). */
    void resetWindow();

    std::size_t numTenants() const { return tenants_.size(); }
    const TenantStats &stats(std::size_t i) const { return tenants_[i].s; }

    /** Current depth of tenant @p i's admission queue. */
    std::size_t queueDepth(std::size_t i) const
    {
        return tenants_[i].queue.size();
    }

    /** @return whether tenant @p i is currently in SLO burn (only
     *  meaningful when the testbed's time-series plane is on). */
    bool burning(std::size_t i) const { return tenants_[i].burning; }

    /**
     * Per-tenant SLO block for Reporter::setSlo():
     * {"<name>": {"target_p99_ns", "observed_p99_ns", "observed_p50_ns",
     *  "violation_fraction", "offered", "admitted", "rejected",
     *  "completed"}}. Tenants without an SLO report target 0 and
     * violation_fraction 0.
     */
    sim::Json sloJson() const;

  private:
    /** One admitted, not-yet-dispatched request. */
    struct Pending
    {
        workload::YcsbRequest req;
        sim::Time arrival = 0;
    };

    struct Tenant
    {
        TenantConfig cfg;
        ArrivalProcess proc;
        std::vector<workload::YcsbGenerator> gens; // one per session
        std::deque<Pending> queue;
        double vtime = 0.0; ///< WFQ virtual finish time
        std::uint64_t nextSession = 0;
        TenantStats s;

        // Burn-rate detector state, advanced once per time-series
        // window by onWindow(), with its own prev-value cursors.
        std::uint64_t prevDone = 0;
        std::uint64_t prevViol = 0;
        /** Trailing per-window {completed, violations} deltas. */
        std::vector<std::pair<std::uint64_t, std::uint64_t>> ring;
        std::uint64_t ringPos = 0;
        bool burning = false;
        double fastFrac = 0.0; ///< last-window violation fraction
        double slowFrac = 0.0; ///< trailing-horizon violation fraction

        Tenant(const TenantConfig &c, const OpenLoopConfig &cfg,
               std::size_t index);
    };

    sim::Task arrivalLoop(std::size_t ti);
    sim::Task worker(SmartCtx &ctx);

    /** Time-series window hook: advance every tenant's burn-rate
     *  detector, emitting "slo" annotations on enter/exit. */
    void onWindow(sim::Time now);

    /** WFQ pick: non-empty tenant with minimal vtime (index order breaks
     *  ties deterministically). @pre some queue is non-empty. */
    std::size_t pickTenant();

    /** Record one sampled admission_wait span on @p track (interned on
     *  first use; @p count is the worker's sampling cursor). */
    void recordAdmissionSpan(SmartCtx &ctx, sim::TrackId &track,
                             std::uint64_t &count, sim::Time start,
                             sim::Time end);

    Testbed &tb_;
    OpenLoopConfig cfg_;
    ServiceFn service_;
    std::vector<Tenant> tenants_;
    double globalVtime_ = 0.0; ///< vtime of the last dispatch (catch-up)

    // Counting semaphore over queued requests: each admission hands its
    // ticket to the oldest idle worker, or banks it when none is parked.
    std::uint64_t tickets_ = 0;
    sim::WaitQueue idleWorkers_;

    bool started_ = false;
};

} // namespace smart::harness

#endif // SMART_HARNESS_OPEN_LOOP_HPP
