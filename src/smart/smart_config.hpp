/**
 * @file
 * Feature toggles and tuning constants of the SMART framework. Every
 * paper technique can be switched independently, which is what the
 * breakdown experiments (Figs. 8, 13, 14) sweep.
 */

#ifndef SMART_SMART_CONFIG_HPP
#define SMART_SMART_CONFIG_HPP

#include <array>
#include <cstdint>

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

// ---- Fixed constants: the paper's values (section cited), the verb
//      failure policy, the overload ladder's and the membership
//      fence's. No bench varies them. ----

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

/** §4.2 Algorithm 1: initial per-thread credit limit C_max. */
inline constexpr std::uint32_t kInitialCmax = 8;

/** §4.2 Algorithm 1: candidate C_max values probed each epoch. */
inline constexpr std::array<std::uint32_t, 5> kCmaxCandidates = {4, 6, 8,
                                                                 10, 12};

/**
 * Verb-level failure policy (active only under a FaultPlane): how many
 * times a sync round re-posts failed work requests (with
 * truncated-exponential spacing and transparent QP reconnects) before
 * SmartCtx surfaces a typed VerbError to the application.
 */
inline constexpr std::uint32_t kMaxVerbRetries = 8;

/**
 * Per-sync verb timeout: a round whose completions never arrive is
 * abandoned and its WRs treated as failed. Armed only when a FaultPlane
 * is installed, so healthy runs schedule no extra events.
 */
inline constexpr sim::Time kVerbTimeoutNs = sim::msec(1);

/**
 * Overload degradation ladder (DESIGN.md §12), armed by
 * SmartConfig::overloadLadder: per-blade outstanding-WR watermarks.
 * Level 1 (>= low) only marks the approach to overload (a Timeline
 * annotation); level 2 (>= high) posts doorbell batches to the blade in
 * kOverloadChunkWrs-sized chunks; level 3 (>= 2 * high) delays user-op
 * admission.
 */
inline constexpr std::uint32_t kOverloadLowWm = 48;
inline constexpr std::uint32_t kOverloadHighWm = 96;

/** Doorbell-batch chunk size while ladder level 2 is active. */
inline constexpr std::uint32_t kOverloadChunkWrs = 4;

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

    /**
     * Overload-side graceful degradation: arm the per-blade ladder at
     * kOverloadLowWm / kOverloadHighWm (off by default; healthy benches
     * are untouched).
     */
    bool overloadLadder = false;

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

    /** Arm the overload degradation ladder (kOverloadLowWm marks the
     *  approach, kOverloadHighWm chunks doorbell batches, twice it
     *  delays user ops). */
    SmartConfig &
    withOverloadLadder()
    {
        overloadLadder = true;
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
