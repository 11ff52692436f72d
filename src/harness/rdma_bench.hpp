/**
 * @file
 * The raw READ/WRITE micro-benchmark from §3.1 (the artifact's
 * `test_rdma`): each thread repeatedly stages `depth` work requests,
 * rings the doorbell, and waits for all acknowledgments. Reports MOPS,
 * per-WR DRAM traffic, WQE-cache hit ratio and doorbell wait.
 */

#ifndef SMART_HARNESS_RDMA_BENCH_HPP
#define SMART_HARNESS_RDMA_BENCH_HPP

#include <cstdint>

#include "harness/testbed.hpp"
#include "rnic/rnic.hpp"

namespace smart::harness {

/** Payload bytes per READ/WRITE work request (the artifact's 8 B). */
inline constexpr std::uint32_t kRdmaBlockBytes = 8;

/** Parameters of one micro-benchmark run. */
struct RdmaBenchParams
{
    rnic::Op op = rnic::Op::Read;
    std::uint32_t depth = 8;          ///< WRs per thread per batch (OWRs)
    sim::Time warmupNs = sim::msec(1);
    sim::Time measureNs = sim::msec(4);
};

/** Results of one micro-benchmark run. */
struct RdmaBenchResult
{
    double mops = 0;            ///< completed WRs per microsecond
    double dramBytesPerWr = 0;  ///< initiator RNIC<->DRAM bytes per WR
    double wqeHitRatio = 0;
    double avgDoorbellWaitNs = 0;
};

/**
 * Run the micro-benchmark on a fresh testbed built from @p cfg with
 * @p spec applied (observe()); the run is captured when @p spec asks for
 * it. All compute-blade threads target memory blade 0 (like the
 * artifact's client/server pair), at random 64 B-aligned offsets over
 * the whole blade (cfg.bladeBytes).
 */
RdmaBenchResult runRdmaBench(const TestbedConfig &cfg,
                             const RdmaBenchParams &params,
                             const RunSpec &spec);

} // namespace smart::harness

#endif // SMART_HARNESS_RDMA_BENCH_HPP
