/**
 * @file
 * End-to-end hash table benchmark harness (paper §6.2.1): builds a
 * testbed, creates and bulk-loads a RACE-style table, runs YCSB mixes
 * from every compute blade, and reports throughput / latency / retry
 * statistics. RACE-baseline vs SMART-HT is purely a SmartConfig choice.
 */

#ifndef SMART_HARNESS_HT_BENCH_HPP
#define SMART_HARNESS_HT_BENCH_HPP

#include <cstdint>
#include <vector>

#include "apps/race/race.hpp"
#include "harness/testbed.hpp"
#include "workload/ycsb.hpp"

namespace smart::harness {

/** Parameters of one hash-table benchmark run. */
struct HtBenchParams
{
    std::uint64_t numKeys = 2'000'000;
    double zipfTheta = 0.99;
    workload::YcsbMix mix = workload::YcsbMix::writeHeavy();
    std::uint32_t corosPerThread = 8;
    sim::Time warmupNs = sim::msec(2);
    sim::Time measureNs = sim::msec(5);
    /** Injected think time per op (Fig. 9 latency/throughput curves). */
    sim::Time interOpDelayNs = 0;
    /** When non-zero, rotate the Zipfian hot set at this virtual time
     *  (cache adaptivity under a skew shift). */
    sim::Time shiftAtNs = 0;
    /** Popularity-rank rotation applied at shiftAtNs. */
    std::uint64_t shiftRotate = 0;
};

/** Results of one hash-table benchmark run. */
struct HtBenchResult
{
    double mops = 0;          ///< index operations per microsecond
    double medianNs = 0;      ///< per-op latency percentiles
    double p99Ns = 0;
    double avgRetries = 0;    ///< unsuccessful CAS retries per update op
    /** retryHist[n] = ops that needed n retries (63 = "63 or more"). */
    std::vector<std::uint64_t> retryHist = std::vector<std::uint64_t>(64, 0);
    double rdmaMops = 0;      ///< underlying one-sided verbs per us
    /** Cache-tier evictions over the measure window (0 when disabled). */
    std::uint64_t cacheEvictions = 0;
    /** hits / (hits + misses) over the measure window; 0 when disabled. */
    double hitRatio = 0;
};

/**
 * Run the benchmark on a fresh testbed built from @p cfg with @p spec
 * applied (observe()); the run is captured when @p spec asks for it.
 */
HtBenchResult runHtBench(const TestbedConfig &cfg,
                         const HtBenchParams &params,
                         const RunSpec &spec);

/** Size a RaceConfig so @p num_keys load at ~60% occupancy (no splits). */
race::RaceConfig sizedRaceConfig(std::uint64_t num_keys);

} // namespace smart::harness

#endif // SMART_HARNESS_HT_BENCH_HPP
