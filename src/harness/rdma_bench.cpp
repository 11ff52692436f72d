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

/** One bench thread: batch-post `depth` ops to random 64 B slots among
 *  @p slots, wait, repeat forever. */
Task
benchWorker(SmartCtx &ctx, RdmaBenchParams params, std::uint64_t slots,
            std::uint64_t seed)
{
    SmartRuntime &rt = ctx.runtime();
    sim::Rng rng(0xbe7c0000ull + ctx.thread().id() * 131 + ctx.coroIndex() +
                 seed * 0x9e3779b97f4a7c15ull);
    std::uint8_t *buf = ctx.scratch(params.depth * kRdmaBlockBytes);
    std::uint64_t cas_result = 0;

    for (;;) {
        Time start = ctx.sim().now();
        for (std::uint32_t i = 0; i < params.depth; ++i) {
            std::uint64_t off = rng.uniform(slots) * 64;
            RemotePtr p = rt.ptr(0, off);
            switch (params.op) {
              case rnic::Op::Read:
                ctx.read(p, MemSpan{buf + i * kRdmaBlockBytes,
                                    kRdmaBlockBytes});
                break;
              case rnic::Op::Write:
                ctx.write(p, ConstMemSpan{buf + i * kRdmaBlockBytes,
                                          kRdmaBlockBytes});
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
             const RunSpec &spec)
{
    TestbedConfig tb_cfg = cfg;
    observe(tb_cfg, spec);
    Testbed tb(tb_cfg);

    for (std::uint32_t c = 0; c < tb.numComputeBlades(); ++c) {
        SmartRuntime &rt = tb.compute(c);
        for (std::uint32_t t = 0; t < rt.numThreads(); ++t) {
            rt.spawnWorker(t, [params, slots = tb_cfg.bladeBytes / 64,
                                seed = spec.seed](SmartCtx &ctx) {
                return benchWorker(ctx, params, slots, seed);
            });
        }
    }

    tb.runUntil(params.warmupNs);
    MeasureWindow window(tb);
    for (std::uint32_t c = 0; c < tb.numComputeBlades(); ++c)
        tb.compute(c).rnic().resetWqeStats();
    tb.runUntil(params.warmupNs + params.measureNs);
    Measured m = window.close();

    double wqe_hits = 0;
    for (std::uint32_t c = 0; c < tb.numComputeBlades(); ++c)
        wqe_hits += tb.compute(c).rnic().wqeHitRatio();
    RdmaBenchResult res;
    res.mops = m.perUs(m.wrs);
    res.dramBytesPerWr = Measured::ratio(m.dramBytes, m.wrs);
    res.wqeHitRatio = wqe_hits / tb.numComputeBlades();
    res.avgDoorbellWaitNs =
        Measured::ratio(m.doorbellWaitNs, m.doorbellRings);
    captureRun(tb, spec);
    return res;
}

} // namespace smart::harness
