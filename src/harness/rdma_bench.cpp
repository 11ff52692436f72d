/**
 * @file
 * Implementation of the raw RDMA micro-benchmark.
 */

#include "harness/rdma_bench.hpp"

#include "sim/random.hpp"
#include "smart/smart_ctx.hpp"

namespace smart::harness {

using sim::Task;
using sim::Time;

namespace {

/** One bench thread: batch-post `depth` ops, wait, repeat forever. */
Task
benchWorker(SmartCtx &ctx, RdmaBenchParams params)
{
    SmartRuntime &rt = ctx.runtime();
    sim::Rng rng(0xbe7c0000ull + ctx.thread().id() * 131 + ctx.coroIndex() +
                 params.seed * 0x9e3779b97f4a7c15ull);
    const std::uint64_t slots = params.regionBytes / 64;
    std::uint8_t *buf = ctx.scratch(params.depth * params.blockSize);
    std::uint64_t cas_result = 0;

    for (;;) {
        Time start = ctx.sim().now();
        for (std::uint32_t i = 0; i < params.depth; ++i) {
            std::uint64_t off = rng.uniform(slots) * 64;
            RemotePtr p = rt.ptr(0, off);
            switch (params.op) {
              case rnic::Op::Read:
                ctx.read(p, MemSpan{buf + i * params.blockSize,
                                    params.blockSize});
                break;
              case rnic::Op::Write:
                ctx.write(p, ConstMemSpan{buf + i * params.blockSize,
                                          params.blockSize});
                break;
              case rnic::Op::Cas:
                ctx.cas(p, 0, 1, &cas_result);
                break;
              case rnic::Op::Faa:
                ctx.faa(p, 1, &cas_result);
                break;
            }
        }
        co_await ctx.postSend();
        co_await ctx.sync();
        rt.recordOp(ctx.sim().now() - start, 0);
    }
}

} // namespace

RdmaBenchResult
runRdmaBench(const TestbedConfig &cfg, const RdmaBenchParams &params,
             RunCapture *capture)
{
    TestbedConfig tb_cfg = cfg;
    tb_cfg.bladeBytes = params.regionBytes;
    observe(tb_cfg, capture);
    Testbed tb(tb_cfg);

    for (std::uint32_t c = 0; c < tb.numComputeBlades(); ++c) {
        SmartRuntime &rt = tb.compute(c);
        for (std::uint32_t t = 0; t < rt.numThreads(); ++t) {
            rt.spawnWorker(t, [params](SmartCtx &ctx) {
                return benchWorker(ctx, params);
            });
        }
    }

    tb.runUntil(params.warmupNs);

    // Snapshot post-warmup state.
    std::uint64_t wrs0 = 0;
    std::uint64_t dram0 = 0;
    std::uint64_t rings0 = 0;
    std::uint64_t db_wait0 = 0;
    for (std::uint32_t c = 0; c < tb.numComputeBlades(); ++c) {
        rnic::PerfCounters &perf = tb.compute(c).rnic().perf();
        wrs0 += perf.wrsCompleted.value();
        dram0 += perf.dramBytes.value();
        rings0 += perf.doorbellRings.value();
        db_wait0 += perf.doorbellWaitNs.value();
        tb.compute(c).opLatency.reset();
        tb.compute(c).rnic().resetWqeStats();
        tb.compute(c).rnic().mttCache().resetStats();
    }

    tb.runUntil(params.warmupNs + params.measureNs);

    RdmaBenchResult res;
    std::uint64_t wrs = 0;
    std::uint64_t dram = 0;
    std::uint64_t rings = 0;
    std::uint64_t db_wait = 0;
    sim::LatencyHistogram lat;
    double wqe_hits = 0;
    double mtt_hits = 0;
    for (std::uint32_t c = 0; c < tb.numComputeBlades(); ++c) {
        rnic::PerfCounters &perf = tb.compute(c).rnic().perf();
        wrs += perf.wrsCompleted.value();
        dram += perf.dramBytes.value();
        rings += perf.doorbellRings.value();
        db_wait += perf.doorbellWaitNs.value();
        lat.merge(tb.compute(c).opLatency);
        wqe_hits += tb.compute(c).rnic().wqeHitRatio();
        mtt_hits += tb.compute(c).rnic().mttCache().hitRatio();
    }
    wrs -= wrs0;
    dram -= dram0;
    rings -= rings0;
    db_wait -= db_wait0;

    double us = static_cast<double>(params.measureNs) / 1000.0;
    res.mops = static_cast<double>(wrs) / us;
    res.dramBytesPerWr =
        wrs ? static_cast<double>(dram) / static_cast<double>(wrs) : 0.0;
    res.medianBatchNs = static_cast<double>(lat.p50());
    res.p99BatchNs = static_cast<double>(lat.p99());
    res.wqeHitRatio = wqe_hits / tb.numComputeBlades();
    res.mttHitRatio = mtt_hits / tb.numComputeBlades();
    res.avgDoorbellWaitNs =
        rings ? static_cast<double>(db_wait) / static_cast<double>(rings)
              : 0.0;
    captureRun(tb, capture);
    return res;
}

} // namespace smart::harness
