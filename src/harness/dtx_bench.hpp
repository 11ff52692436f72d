/**
 * @file
 * Distributed-transaction benchmark harness (paper §6.2.2): SmallBank
 * and TATP over the FORD-style layer, FORD+ baseline vs SMART-DTX.
 */

#ifndef SMART_HARNESS_DTX_BENCH_HPP
#define SMART_HARNESS_DTX_BENCH_HPP

#include <cstdint>

#include "harness/testbed.hpp"

namespace smart::harness {

enum class DtxWorkload { SmallBank, Tatp };

inline const char *
dtxWorkloadName(DtxWorkload w)
{
    return w == DtxWorkload::SmallBank ? "SmallBank" : "TATP";
}

struct DtxBenchParams
{
    DtxWorkload workload = DtxWorkload::SmallBank;
    bool smartOn = true; ///< false = FORD+ baseline config
    std::uint64_t numAccounts = 100'000;
    /** SmallBank account skew (standard SmallBank is mostly uniform). */
    double zipfTheta = 0.2;
    std::uint32_t threads = 96;
    std::uint32_t corosPerThread = 8;
    sim::Time warmupNs = sim::msec(8);
    sim::Time measureNs = sim::msec(4);
    sim::Time interTxnDelayNs = 0; ///< Fig. 11 throughput throttling
};

struct DtxBenchResult
{
    double mtps = 0;       ///< committed transactions per microsecond
    double medianNs = 0;   ///< commit latency percentiles
    double p99Ns = 0;
    double abortRate = 0;  ///< aborts per committed transaction
    double rdmaMops = 0;
};

/**
 * Run one transaction benchmark on a fresh testbed with @p spec applied
 * (observe()); the run is captured when @p spec asks for it.
 */
DtxBenchResult runDtxBench(const DtxBenchParams &params,
                           const RunSpec &spec);

} // namespace smart::harness

#endif // SMART_HARNESS_DTX_BENCH_HPP
