/**
 * @file
 * Feature toggles and tuning constants of the SMART framework. Every
 * paper technique can be switched independently, which is what the
 * breakdown experiments (Figs. 8, 13, 14) sweep.
 */

#ifndef SMART_SMART_CONFIG_HPP
#define SMART_SMART_CONFIG_HPP

#include <cstdint>
#include <vector>

#include "sim/types.hpp"

namespace smart {

/** Queue-pair / doorbell allocation policies compared in §3.1. */
enum class QpPolicy : std::uint8_t
{
    SharedQp,        ///< one QP per blade shared by all threads
    MultiplexedQp,   ///< each QP shared by kMultiplexFactor threads
    PerThreadQp,     ///< per-thread QPs, default driver doorbell mapping
    PerThreadDb,     ///< SMART: per-thread QPs bound to private doorbells
    PerThreadContext ///< per-thread device contexts (X-RDMA style)
};

/** @return a short human-readable policy name. */
inline const char *
qpPolicyName(QpPolicy p)
{
    switch (p) {
      case QpPolicy::SharedQp: return "shared-qp";
      case QpPolicy::MultiplexedQp: return "multiplexed-qp";
      case QpPolicy::PerThreadQp: return "per-thread-qp";
      case QpPolicy::PerThreadDb: return "per-thread-db";
      case QpPolicy::PerThreadContext: return "per-thread-ctx";
    }
    return "?";
}

// ---- Fixed constants: the paper's values (section cited) and the
//      membership fence's. No bench or test varies them. ----

/** §3.1: threads sharing one QP under QpPolicy::MultiplexedQp. */
inline constexpr std::uint32_t kMultiplexFactor = 4;

/** §4.3: backoff unit t0 in CPU cycles (~ one RDMA round-trip). */
inline constexpr std::uint64_t kBackoffUnitCycles = 4096;

/** §4.3: longest backoff t_M = 2^10 · t0. */
inline constexpr std::uint64_t kBackoffMaxFactor = 1024;

/** §4.3: retry-rate high water mark γ_H. */
inline constexpr double kGammaHigh = 0.5;

/** §4.3: retry-rate low water mark γ_L. */
inline constexpr double kGammaLow = 0.1;

/** §4.3: retry-rate sampling period (every millisecond). */
inline constexpr sim::Time kRetryWindowNs = sim::msec(1);

/** §5.1: per-coroutine local scratch buffer bytes. */
inline constexpr std::uint32_t kScratchBytesPerCoro = 8192;

/**
 * Membership-plane epoch fence (DESIGN.md §12): how many
 * decorrelated-jitter spaced polls access() makes against a Dead blade
 * (waiting for the placement to be redirected) before surfacing a typed
 * VerbError::Kind::StaleView to the application.
 */
inline constexpr std::uint32_t kMaxViewWaits = 8;

/** Decorrelated-jitter base for fence polls (≈ 2 round trips, i.e.
 *  2 · t0 of §4.3); also spaces overload-ladder admission delays. */
inline constexpr std::uint64_t kViewJitterUnitCycles = 2 * kBackoffUnitCycles;

/** Decorrelated-jitter truncation for fence polls. */
inline constexpr std::uint64_t kViewJitterMaxCycles = 1ull << 20;

/** Configuration of one SmartRuntime (one compute blade process). */
struct SmartConfig
{
    // ---- §4.1 thread-aware resource allocation ----
    QpPolicy qpPolicy = QpPolicy::PerThreadDb;

    // ---- §4.2 adaptive work request throttling (Algorithm 1) ----
    bool workReqThrottle = true;
    /** Initial / fallback per-thread credit limit C_max. */
    std::uint32_t initialCmax = 8;
    /** Candidate C_max values probed each epoch. */
    std::vector<std::uint32_t> cmaxCandidates = {4, 6, 8, 10, 12};
    /** Probe duration per candidate (paper: Δ = 8 ms). */
    sim::Time probeIntervalNs = sim::msec(8);
    /** Stable-phase duration (paper: T = 60·Δ = 480 ms). */
    sim::Time stableIntervalNs = sim::msec(480);

    // ---- §4.3 conflict avoidance ----
    bool backoff = true;
    bool dynBackoffLimit = true;
    bool coroThrottle = true;

    /** Coroutines spawned per thread (concurrency depth upper bound). */
    std::uint32_t corosPerThread = 8;

    // ---- Verb-level failure policy (active only under a FaultPlane) ----
    /**
     * How many times a sync round re-posts failed work requests (with
     * truncated-exponential spacing and transparent QP reconnects)
     * before SmartCtx surfaces a typed VerbError to the application.
     */
    std::uint32_t maxVerbRetries = 8;
    /**
     * Per-sync timeout: a round whose completions never arrive is
     * abandoned and its WRs treated as failed. Only armed when a
     * FaultPlane is installed, so healthy runs schedule no extra
     * events. 0 disables timeouts even under faults.
     */
    sim::Time verbTimeoutNs = sim::msec(1);

    // ---- Overload-side graceful degradation (off unless set) ----
    /**
     * Per-blade outstanding-WR watermark at which the first degradation
     * level engages. Level 1 only marks the approach to overload (a
     * Timeline annotation); 0 disables the whole ladder (the default;
     * healthy benches are untouched).
     */
    std::uint32_t overloadLowWm = 0;
    /**
     * Second level: doorbell batches to an overloaded blade are posted
     * in overloadChunkWrs-sized chunks instead of one coalesced ring,
     * pacing the blade at the cost of extra doorbells.
     */
    std::uint32_t overloadHighWm = 0;
    /** Chunk size used while the second level is active. */
    std::uint32_t overloadChunkWrs = 4;

    /**
     * Compute-side cache tier (ScaleStore-style, smart/cache/) frame
     * pool capacity in bytes. 0 (the default) disables the tier: no
     * BufferManager exists and every event stream stays byte-identical
     * to a cache-less build unless a bench/test opts in.
     */
    std::uint64_t cacheBytes = 0;

    // ---- Fluent builder: chainable tweaks over a preset ----

    /** Set the QP/doorbell allocation policy. */
    SmartConfig &
    withQpPolicy(QpPolicy p)
    {
        qpPolicy = p;
        return *this;
    }

    /** Enable/disable retry backoff and its dynamic t_max (§4.3). */
    SmartConfig &
    withBackoff(bool on, bool dyn_limit)
    {
        backoff = on;
        dynBackoffLimit = dyn_limit;
        return *this;
    }

    /** Set coroutines per thread. */
    SmartConfig &
    withCoros(std::uint32_t n)
    {
        corosPerThread = n;
        return *this;
    }

    /** Set the verb retry budget and per-sync timeout (fault runs). */
    SmartConfig &
    withVerbRetryPolicy(std::uint32_t max_retries, sim::Time timeout_ns)
    {
        maxVerbRetries = max_retries;
        verbTimeoutNs = timeout_ns;
        return *this;
    }

    /** Arm the overload degradation ladder (@p low marks the approach,
     *  @p high chunks doorbell batches, 2 * @p high delays user ops). */
    SmartConfig &
    withOverloadWatermarks(std::uint32_t low, std::uint32_t high,
                           std::uint32_t chunk_wrs = 4)
    {
        overloadLowWm = low;
        overloadHighWm = high;
        overloadChunkWrs = chunk_wrs;
        return *this;
    }

    /** Enable the cache tier with a pool of @p mb megabytes (0 = off). */
    SmartConfig &
    withCacheMb(std::uint32_t mb)
    {
        cacheBytes = static_cast<std::uint64_t>(mb) << 20;
        return *this;
    }

    /**
     * Shrink the Algorithm-1 epochs so adaptation is observable inside a
     * few simulated milliseconds. The paper's Δ=8ms / T=480ms epochs
     * would leave every bench's measurement window inside one epoch;
     * scaling both by ~8x preserves the probe/stable ratio while letting
     * --quick runs cross several epochs.
     */
    SmartConfig &
    withBenchTimescale()
    {
        probeIntervalNs = sim::msec(1);
        stableIntervalNs = sim::msec(20);
        return *this;
    }
};

/** Convenience presets used throughout benches and tests. */
namespace presets {

/** Baseline: what existing apps do (per-thread QP, nothing else). */
inline SmartConfig
baseline()
{
    SmartConfig c;
    c.qpPolicy = QpPolicy::PerThreadQp;
    c.workReqThrottle = false;
    c.backoff = false;
    c.dynBackoffLimit = false;
    c.coroThrottle = false;
    return c;
}

/** Full SMART: all three techniques enabled. */
inline SmartConfig
full()
{
    return SmartConfig{};
}

/** Baseline + thread-aware resource allocation only. */
inline SmartConfig
thdResAlloc()
{
    SmartConfig c = baseline();
    c.qpPolicy = QpPolicy::PerThreadDb;
    return c;
}

/** ThdResAlloc + adaptive work request throttling. */
inline SmartConfig
workReqThrot()
{
    SmartConfig c = thdResAlloc();
    c.workReqThrottle = true;
    return c;
}

} // namespace presets

} // namespace smart

#endif // SMART_SMART_CONFIG_HPP
