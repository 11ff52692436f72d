/**
 * @file
 * Reproduces paper Figure 8: breakdown of SMART-HT's gains by enabling
 * the three techniques one at a time — +ThdResAlloc (thread-aware
 * resource allocation), +WorkReqThrot (adaptive work-request
 * throttling), +ConflictAvoid (backoff + dynamic limits + coroutine
 * throttling).
 */

#include <iostream>
#include <string>
#include <vector>

#include "harness/bench_cli.hpp"
#include "harness/ht_bench.hpp"
#include "sim/table.hpp"

using namespace smart;
using namespace smart::harness;

int
main(int argc, char **argv)
{
    BenchCli cli(argc, argv, "fig08_ht_breakdown");
    bool quick = cli.quick();
    std::uint64_t keys = quick ? 200'000 : 1'000'000;

    struct Step
    {
        const char *name;
        SmartConfig cfg;
    };
    const std::vector<Step> steps = {
        {"RACE", presets::baseline()},
        {"+ThdResAlloc", presets::thdResAlloc()},
        {"+WorkReqThrot", presets::workReqThrot()},
        {"+ConflictAvoid", presets::full()},
    };

    const std::vector<workload::YcsbMix> mixes = {
        workload::YcsbMix::writeHeavy(), workload::YcsbMix::readHeavy(),
        workload::YcsbMix::readOnly()};
    std::vector<std::uint32_t> threads =
        quick ? std::vector<std::uint32_t>{96}
              : std::vector<std::uint32_t>{16, 48, 96};

    for (const auto &mix : mixes) {
        std::cout << "== Figure 8 (" << mix.name()
                  << "): MOP/s per technique ==\n";
        sim::Table t({"threads", "RACE", "+ThdResAlloc", "+WorkReqThrot",
                      "+ConflictAvoid"});
        for (std::uint32_t thr : threads) {
            t.row().cell(static_cast<std::uint64_t>(thr));
            for (const Step &s : steps) {
                TestbedConfig cfg;
                cfg.computeBlades = 1;
                cfg.memoryBlades = 2;
                cfg.threadsPerBlade = thr;
                cfg.bladeBytes = 3ull << 30;
                cfg.smart = s.cfg;
                cfg.smart.withBenchTimescale();

                HtBenchParams p;
                p.numKeys = keys;
                p.mix = mix;
                p.warmupNs = sim::msec(8);
                p.measureNs = quick ? sim::msec(2) : sim::msec(4);
                RunSpec spec = cli.spec(
                    thr == threads.back()
                        ? std::string(s.name) + "/" + mix.name()
                        : "");
                HtBenchResult r = runHtBench(cfg, p, spec);
                t.cell(r.mops, 2);
            }
        }
        cli.addTable(std::string("fig08_") + mix.name(), t);
        std::cout << "\n";
    }
    cli.note("Paper shape: ThdResAlloc dominates read-heavy gains; "
             "WorkReqThrot helps write-heavy at 8-32 threads; "
             "ConflictAvoid dominates write-heavy at high threads.");
    return cli.finish();
}
