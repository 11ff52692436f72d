/**
 * @file
 * Reproduces paper Figure 9: throughput vs median/p99 latency for the
 * read-only hash-table workload at 96 threads, sweeping injected think
 * time to trace the curve (the paper throttles execution the same way).
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
    BenchCli cli(argc, argv, "fig09_ht_latency");
    std::uint64_t keys = cli.quick() ? 200'000 : 1'000'000;

    std::vector<sim::Time> delays =
        cli.quick()
            ? std::vector<sim::Time>{0, sim::usec(100)}
            : std::vector<sim::Time>{0, sim::usec(20), sim::usec(50),
                                     sim::usec(100), sim::usec(200),
                                     sim::usec(500), sim::usec(1000)};

    for (bool smart_on : {false, true}) {
        const char *label = smart_on ? "SMART-HT" : "RACE";
        std::cout << "== Figure 9 (" << label
                  << "): read-only, 96 threads ==\n";
        sim::Table t({"think_us", "MOPS", "p50_us", "p99_us"});
        for (sim::Time d : delays) {
            TestbedConfig cfg;
            cfg.computeBlades = 1;
            cfg.memoryBlades = 2;
            cfg.threadsPerBlade = 96;
            cfg.bladeBytes = 3ull << 30;
            cfg.smart = smart_on ? presets::full() : presets::baseline();
            cfg.smart.withBenchTimescale();

            HtBenchParams p;
            p.numKeys = keys;
            p.mix = workload::YcsbMix::readOnly();
            p.interOpDelayNs = d;
            p.warmupNs = sim::msec(8);
            p.measureNs = cli.quick() ? sim::msec(2) : sim::msec(4);
            RunSpec spec =
                cli.spec(d == 0 ? std::string(label) + "/think0" : "");
            HtBenchResult r = runHtBench(cfg, p, spec);
            t.row()
                .cell(static_cast<std::uint64_t>(d / 1000))
                .cell(r.mops, 2)
                .cell(r.medianNs / 1000.0, 1)
                .cell(r.p99Ns / 1000.0, 1);
        }
        cli.addTable(smart_on ? "fig09_smart" : "fig09_race", t);
        std::cout << "\n";
    }
    cli.note("Paper shape: SMART-HT reduces median latency by ~70% and "
             "p99 by up to ~80% at matched throughput, and sustains "
             "~2x the maximum throughput.");
    return cli.finish();
}
