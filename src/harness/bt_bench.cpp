/**
 * @file
 * B+Tree benchmark harness implementation.
 */

#include "harness/bt_bench.hpp"

#include <memory>

#include "smart/smart_ctx.hpp"

namespace smart::harness {

using sim::Task;
using sim::Time;

namespace {

Task
btWorker(SmartCtx &ctx, sherman::BtreeClient &client, BtBenchParams params,
         std::uint64_t seed, double zetan)
{
    SmartRuntime &rt = ctx.runtime();
    workload::YcsbGenerator gen(params.numKeys, params.zipfTheta, params.mix,
                                seed, zetan);
    std::uint64_t value_seq = seed;
    for (;;) {
        workload::YcsbRequest req = gen.next();
        Time start = ctx.sim().now();
        sherman::BtOpResult res;
        switch (req.op) {
          case workload::YcsbOp::Lookup:
            co_await client.lookup(ctx, req.key, res);
            break;
          case workload::YcsbOp::Update:
          case workload::YcsbOp::Insert:
            co_await client.insert(ctx, req.key, ++value_seq, res);
            break;
        }
        rt.recordOp(ctx.sim().now() - start, res.retries);
    }
}

} // namespace

BtBenchResult
runBtBench(const BtBenchParams &params, RunCapture *capture)
{
    TestbedConfig cfg;
    cfg.computeBlades = params.servers;
    cfg.memoryBlades = params.servers;
    cfg.threadsPerBlade = params.threadsPerServer;
    cfg.bladeBytes = 2ull << 30;
    cfg.smart = params.variant == BtVariant::SmartBt ? presets::full()
                                                     : presets::baseline();
    cfg.smart.corosPerThread = params.corosPerThread;
    cfg.smart.withBenchTimescale();
    cfg.shards = params.shards;
    observe(cfg, capture);
    Testbed tb(cfg);

    std::vector<memblade::MemoryBlade *> blades;
    for (std::uint32_t i = 0; i < tb.numMemBlades(); ++i)
        blades.push_back(&tb.memBlade(i));

    sherman::BtreeConfig bcfg;
    bcfg.speculativeLookup = params.variant != BtVariant::ShermanPlus;
    sherman::BtreeIndex index(blades, bcfg);
    index.loadSequential(params.numKeys, 0x5a5aull);

    double zetan =
        sim::ZipfianGenerator::zeta(params.numKeys, params.zipfTheta);

    std::vector<std::unique_ptr<sherman::BtreeClient>> clients;
    for (std::uint32_t c = 0; c < tb.numComputeBlades(); ++c) {
        clients.push_back(std::make_unique<sherman::BtreeClient>(
            index, tb.compute(c)));
        SmartRuntime &rt = tb.compute(c);
        for (std::uint32_t t = 0; t < rt.numThreads(); ++t) {
            for (std::uint32_t k = 0; k < params.corosPerThread; ++k) {
                std::uint64_t seed =
                    0xbee5 + c * 1000003ull + t * 977ull + k * 17ull +
                    params.seed * 0x9e3779b97f4a7c15ull;
                sherman::BtreeClient *cl = clients.back().get();
                rt.spawnWorker(t, [&, cl, seed](SmartCtx &ctx) {
                    return btWorker(ctx, *cl, params, seed, zetan);
                });
            }
        }
    }

    tb.runUntil(params.warmupNs);
    std::uint64_t ops0 = 0;
    std::uint64_t wrs0 = 0;
    for (std::uint32_t c = 0; c < tb.numComputeBlades(); ++c) {
        ops0 += tb.compute(c).appOps.value();
        wrs0 += tb.compute(c).rnic().perf().wrsCompleted.value();
        tb.compute(c).opLatency.reset();
    }

    tb.runUntil(params.warmupNs + params.measureNs);

    BtBenchResult res;
    std::uint64_t ops = 0;
    std::uint64_t wrs = 0;
    std::uint64_t spec_hits = 0;
    std::uint64_t spec_total = 0;
    sim::LatencyHistogram lat;
    for (std::uint32_t c = 0; c < tb.numComputeBlades(); ++c) {
        ops += tb.compute(c).appOps.value();
        wrs += tb.compute(c).rnic().perf().wrsCompleted.value();
        lat.merge(tb.compute(c).opLatency);
        spec_hits += clients[c]->specHits();
        spec_total += clients[c]->specHits() + clients[c]->specMisses();
    }
    ops -= ops0;
    wrs -= wrs0;

    double us = static_cast<double>(params.measureNs) / 1000.0;
    res.mops = static_cast<double>(ops) / us;
    res.rdmaMops = static_cast<double>(wrs) / us;
    res.medianNs = static_cast<double>(lat.p50());
    res.p99Ns = static_cast<double>(lat.p99());
    res.specHitRate = spec_total
        ? static_cast<double>(spec_hits) / static_cast<double>(spec_total)
        : 0.0;
    captureRun(tb, capture);
    return res;
}

} // namespace smart::harness
