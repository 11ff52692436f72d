/**
 * @file
 * B+Tree benchmark harness implementation.
 */

#include "harness/bt_bench.hpp"

#include <memory>
#include <utility>

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
runBtBench(const BtBenchParams &params, const RunSpec &spec)
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
    observe(cfg, spec);
    Testbed tb(cfg);

    sherman::BtreeConfig bcfg;
    bcfg.speculativeLookup = params.variant != BtVariant::ShermanPlus;
    sherman::BtreeIndex index(tb.memBlades(), bcfg);
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
                    spec.seed * 0x9e3779b97f4a7c15ull;
                sherman::BtreeClient *cl = clients.back().get();
                rt.spawnWorker(t, [&, cl, seed](SmartCtx &ctx) {
                    return btWorker(ctx, *cl, params, seed, zetan);
                });
            }
        }
    }

    // Speculative-lookup hits and lookups so far, over every client.
    auto specTally = [&clients] {
        std::pair<std::uint64_t, std::uint64_t> t{0, 0};
        for (const auto &cl : clients) {
            t.first += cl->specHits();
            t.second += cl->specHits() + cl->specMisses();
        }
        return t;
    };

    tb.runUntil(params.warmupNs);
    MeasureWindow window(tb);
    auto [hits0, total0] = specTally();
    tb.runUntil(params.warmupNs + params.measureNs);
    Measured m = window.close();
    auto [hits1, total1] = specTally();

    BtBenchResult res;
    res.mops = m.perUs(m.appOps);
    res.rdmaMops = m.perUs(m.wrs);
    res.medianNs = static_cast<double>(m.latency.p50());
    res.p99Ns = static_cast<double>(m.latency.p99());
    res.specHitRate = Measured::ratio(hits1 - hits0, total1 - total0);
    captureRun(tb, spec);
    return res;
}

} // namespace smart::harness
