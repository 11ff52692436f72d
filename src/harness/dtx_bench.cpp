/**
 * @file
 * DTX benchmark harness implementation.
 */

#include "harness/dtx_bench.hpp"

#include <memory>

#include "apps/ford/smallbank.hpp"
#include "apps/ford/tatp.hpp"
#include "smart/smart_ctx.hpp"

namespace smart::harness {

using sim::Task;
using sim::Time;

namespace {

Task
sbWorker(SmartCtx &ctx, ford::SmallBank &bank, DtxBenchParams params,
         std::uint64_t seed, double zetan)
{
    SmartRuntime &rt = ctx.runtime();
    sim::Rng rng(seed);
    sim::ZipfianGenerator accounts(params.numAccounts, params.zipfTheta,
                                   seed ^ 0xacc, zetan);
    for (;;) {
        Time start = ctx.sim().now();
        ford::DtxResult res;
        co_await ctx.opBegin();
        co_await bank.runOne(ctx, rng, accounts, res);
        ctx.opEnd();
        rt.recordOp(ctx.sim().now() - start, res.aborts);
        if (params.interTxnDelayNs)
            co_await ctx.sim().delay(params.interTxnDelayNs);
    }
}

Task
tatpWorker(SmartCtx &ctx, ford::Tatp &tatp, DtxBenchParams params,
           std::uint64_t seed)
{
    SmartRuntime &rt = ctx.runtime();
    sim::Rng rng(seed);
    for (;;) {
        Time start = ctx.sim().now();
        ford::DtxResult res;
        co_await ctx.opBegin();
        co_await tatp.runOne(ctx, rng, res);
        ctx.opEnd();
        rt.recordOp(ctx.sim().now() - start, res.aborts);
        if (params.interTxnDelayNs)
            co_await ctx.sim().delay(params.interTxnDelayNs);
    }
}

} // namespace

DtxBenchResult
runDtxBench(const DtxBenchParams &params, const RunSpec &spec)
{
    TestbedConfig cfg;
    cfg.computeBlades = 1;
    cfg.memoryBlades = 2; // the paper uses two blades for DTX tests
    cfg.threadsPerBlade = params.threads;
    cfg.bladeBytes = 2ull << 30;
    cfg.smart = params.smartOn ? presets::full() : presets::baseline();
    cfg.smart.corosPerThread = params.corosPerThread;
    cfg.smart.withBenchTimescale();
    observe(cfg, spec);
    Testbed tb(cfg);

    ford::DtxSystem sys(tb.memBlades(), params.threads);

    std::unique_ptr<ford::SmallBank> bank;
    std::unique_ptr<ford::Tatp> tatp;
    double zetan = 0.0;
    if (params.workload == DtxWorkload::SmallBank) {
        bank = std::make_unique<ford::SmallBank>(sys, params.numAccounts);
        zetan = sim::ZipfianGenerator::zeta(params.numAccounts,
                                            params.zipfTheta);
    } else {
        tatp = std::make_unique<ford::Tatp>(
            sys, std::max<std::uint64_t>(1, params.numAccounts / 10));
    }

    SmartRuntime &rt = tb.compute(0);
    for (std::uint32_t t = 0; t < params.threads; ++t) {
        for (std::uint32_t k = 0; k < params.corosPerThread; ++k) {
            std::uint64_t seed = 0xd7 + t * 911ull + k * 31ull +
                                 spec.seed * 0x9e3779b97f4a7c15ull;
            if (bank) {
                rt.spawnWorker(t, [&, seed](SmartCtx &ctx) {
                    return sbWorker(ctx, *bank, params, seed, zetan);
                });
            } else {
                rt.spawnWorker(t, [&, seed](SmartCtx &ctx) {
                    return tatpWorker(ctx, *tatp, params, seed);
                });
            }
        }
    }

    tb.runUntil(params.warmupNs);
    MeasureWindow window(tb);
    tb.runUntil(params.warmupNs + params.measureNs);
    Measured m = window.close();

    DtxBenchResult res;
    res.mtps = m.perUs(m.appOps);
    res.rdmaMops = m.perUs(m.wrs);
    res.medianNs = static_cast<double>(m.latency.p50());
    res.p99Ns = static_cast<double>(m.latency.p99());
    res.abortRate = Measured::ratio(m.retries, m.appOps);
    captureRun(tb, spec);
    return res;
}

} // namespace smart::harness
