/**
 * @file
 * Reproduces paper Table 1: 8-byte READ throughput under a dynamically
 * changing workload — the number of active threads jumps randomly in
 * [36, 96] at a fixed interval, with and without adaptive work-request
 * throttling. Batch size 64, per-thread doorbells.
 *
 * Timescale note: the paper changes the workload every 32-2048 ms
 * against a 480 ms epoch; the benches scale the epoch by 8x (probe 1 ms,
 * stable 20 ms => ~25 ms epoch), so the interval sweep is scaled the
 * same way (4-256 ms). The comparison "interval shorter vs longer than
 * the epoch" is preserved.
 */

#include <iostream>
#include <string>
#include <vector>

#include "harness/bench_cli.hpp"
#include "harness/testbed.hpp"
#include "sim/random.hpp"
#include "sim/table.hpp"
#include "smart/smart_ctx.hpp"

using namespace smart;
using namespace smart::harness;
using sim::Task;
using sim::Time;

namespace {

struct Shared
{
    std::uint32_t activeThreads = 96;
};

Task
dynWorker(SmartCtx &ctx, const Shared &shared, std::uint32_t batch,
          std::uint64_t seed)
{
    SmartRuntime &rt = ctx.runtime();
    sim::Rng rng(0xd15c0 + ctx.thread().id() +
                 seed * 0x9e3779b97f4a7c15ull);
    std::uint8_t *buf = ctx.scratch(batch * 8);
    const std::uint64_t slots = (1ull << 28) / 64;
    for (;;) {
        if (ctx.thread().id() >= shared.activeThreads) {
            co_await ctx.sim().delay(sim::usec(50));
            continue;
        }
        for (std::uint32_t i = 0; i < batch; ++i)
            ctx.read(rt.ptr(0, rng.uniform(slots) * 64), MemSpan{buf + i * 8, 8});
        co_await ctx.postSend();
        co_await ctx.sync();
    }
}

Task
controller(sim::Simulator &sim, Shared &shared, Time interval,
           std::uint64_t seed)
{
    sim::Rng rng(42 ^ seed);
    for (;;) {
        co_await sim.delay(interval);
        shared.activeThreads =
            static_cast<std::uint32_t>(rng.uniformRange(36, 96));
    }
}

double
run(bool throttle, Time interval, Time window, const RunSpec &spec)
{
    TestbedConfig cfg;
    cfg.computeBlades = 1;
    cfg.memoryBlades = 1;
    cfg.bladeBytes = 1ull << 28;
    cfg.threadsPerBlade = 96;
    cfg.smart = throttle ? presets::workReqThrot() : presets::thdResAlloc();
    cfg.smart.corosPerThread = 1;
    cfg.smart.withBenchTimescale();
    observe(cfg, spec);

    Testbed tb(cfg);
    Shared shared;
    for (std::uint32_t t = 0; t < 96; ++t) {
        tb.compute(0).spawnWorker(
            t, [&shared, seed = spec.seed](SmartCtx &ctx) {
                return dynWorker(ctx, shared, 64, seed);
            });
    }
    tb.compute(0).sim().spawn(
        controller(tb.compute(0).sim(), shared, interval, spec.seed));

    Time warmup = sim::msec(8);
    tb.runUntil(warmup);
    MeasureWindow measure(tb);
    tb.runUntil(warmup + window);
    Measured m = measure.close();
    captureRun(tb, spec);
    return m.perUs(m.wrs);
}

} // namespace

int
main(int argc, char **argv)
{
    BenchCli cli(argc, argv, "table1_dynamic");
    bool quick = cli.quick();

    std::vector<Time> intervals =
        quick ? std::vector<Time>{sim::msec(4), sim::msec(64)}
              : std::vector<Time>{sim::msec(4),  sim::msec(8),
                                  sim::msec(16), sim::msec(32),
                                  sim::msec(64), sim::msec(128),
                                  sim::msec(256)};

    std::cout << "== Table 1: 8-byte READ MOP/s under dynamically "
                 "changing thread counts (36-96), batch = 64 ==\n";
    sim::Table t({"interval_ms", "w/o WorkReqThrot", "w/ WorkReqThrot"});
    for (Time iv : intervals) {
        Time window = quick ? sim::msec(12)
                            : std::max<Time>(sim::msec(24), 3 * iv);
        // Capture the throttled run at the shortest interval — its
        // trace shows the credit controller re-probing after every
        // workload change.
        bool first = iv == intervals.front();
        double off = run(false, iv, window, cli.spec());
        double on = run(true, iv, window,
                        cli.spec(first ? "throttle/iv" +
                                             std::to_string(iv / 1000000) +
                                             "ms"
                                       : ""));
        t.row()
            .cell(static_cast<std::uint64_t>(iv / 1000000))
            .cell(off, 1)
            .cell(on, 1);
    }
    cli.addTable("table1", t);
    cli.note("\nPaper shape: with throttling, throughput is near the "
             "110 MOP/s limit once the change interval exceeds the "
             "epoch, and degrades by at most ~13% below it; without "
             "throttling it sits far lower at every interval.");
    return cli.finish();
}
