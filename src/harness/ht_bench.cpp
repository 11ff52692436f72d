/**
 * @file
 * Hash-table benchmark harness implementation.
 */

#include "harness/ht_bench.hpp"

#include <memory>

#include "smart/smart_ctx.hpp"

namespace smart::harness {

using sim::Task;
using sim::Time;

race::RaceConfig
sizedRaceConfig(std::uint64_t num_keys)
{
    race::RaceConfig rcfg;
    rcfg.groupsPerSegment = 64;
    double slots_needed = static_cast<double>(num_keys) / 0.55;
    std::uint64_t slots_per_segment =
        rcfg.groupsPerSegment * race::kSlotsPerGroup;
    std::uint32_t depth = 1;
    while ((1ull << depth) * slots_per_segment < slots_needed)
        ++depth;
    rcfg.initialDepth = depth;
    rcfg.maxDepth = depth + 4;
    rcfg.arenaBytesPerThread = 2ull << 20;
    rcfg.segmentHeapBytes =
        (1ull << depth) * race::segmentBytes(rcfg.groupsPerSegment) + (4ull << 20);
    return rcfg;
}

namespace {

Task
htWorker(SmartCtx &ctx, race::RaceClient &client, HtBenchParams params,
         std::uint64_t seed, double zetan)
{
    SmartRuntime &rt = ctx.runtime();
    workload::YcsbGenerator gen(params.numKeys, params.zipfTheta, params.mix,
                                seed, zetan);
    std::uint64_t value_seq = seed;
    bool shifted = false;
    for (;;) {
        if (params.shiftAtNs != 0 && !shifted &&
            ctx.sim().now() >= params.shiftAtNs) {
            gen.rotate(params.shiftRotate);
            shifted = true;
        }
        workload::YcsbRequest req = gen.next();
        Time start = ctx.sim().now();
        race::OpResult res;
        switch (req.op) {
          case workload::YcsbOp::Lookup:
            co_await client.lookup(ctx, req.key, res);
            break;
          case workload::YcsbOp::Update:
          case workload::YcsbOp::Insert:
            co_await client.update(ctx, req.key, ++value_seq, res);
            break;
        }
        rt.recordOp(ctx.sim().now() - start, res.retries);
        if (params.interOpDelayNs)
            co_await ctx.sim().delay(params.interOpDelayNs);
    }
}

} // namespace

HtBenchResult
runHtBench(const TestbedConfig &cfg, const HtBenchParams &params,
           const RunSpec &spec)
{
    TestbedConfig tb_cfg = cfg;
    tb_cfg.smart.corosPerThread = params.corosPerThread;
    observe(tb_cfg, spec);
    Testbed tb(tb_cfg);

    race::RaceTable table(tb.memBlades(), sizedRaceConfig(params.numKeys));
    for (std::uint64_t k = 0; k < params.numKeys; ++k)
        table.loadInsert(k, k);

    double zetan =
        sim::ZipfianGenerator::zeta(params.numKeys, params.zipfTheta);

    std::vector<std::unique_ptr<race::RaceClient>> clients;
    for (std::uint32_t c = 0; c < tb.numComputeBlades(); ++c) {
        clients.push_back(
            std::make_unique<race::RaceClient>(table, tb.compute(c)));
        SmartRuntime &rt = tb.compute(c);
        for (std::uint32_t t = 0; t < rt.numThreads(); ++t) {
            for (std::uint32_t k = 0; k < params.corosPerThread; ++k) {
                std::uint64_t seed =
                    0xf00d + c * 1000003ull + t * 971ull + k * 13ull +
                    spec.seed * 0x9e3779b97f4a7c15ull;
                race::RaceClient *cl = clients.back().get();
                rt.spawnWorker(t, [&, cl, seed](SmartCtx &ctx) {
                    return htWorker(ctx, *cl, params, seed, zetan);
                });
            }
        }
    }

    if (params.shiftAtNs != 0) {
        // One causal annotation for the skew rotation (the workers each
        // rotate their own generator at the same virtual time).
        if (sim::Timeline *tl = tb.timeline())
            tl->annotateAt(params.shiftAtNs, "cache", "workload",
                           "zipf rotate=" +
                               std::to_string(params.shiftRotate));
    }

    tb.runUntil(params.warmupNs);
    MeasureWindow window(tb);
    tb.runUntil(params.warmupNs + params.measureNs);
    Measured m = window.close();

    HtBenchResult res;
    res.mops = m.perUs(m.appOps);
    res.rdmaMops = m.perUs(m.wrs);
    res.medianNs = static_cast<double>(m.latency.p50());
    res.p99Ns = static_cast<double>(m.latency.p99());
    res.avgRetries = Measured::ratio(m.retries, m.appOps);
    res.retryHist = m.retryHist;
    res.cacheEvictions = m.cacheEvictions;
    res.hitRatio = Measured::ratio(m.cacheHits, m.cacheHits + m.cacheMisses);
    captureRun(tb, spec);
    return res;
}

} // namespace smart::harness
