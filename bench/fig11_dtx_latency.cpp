/**
 * @file
 * Reproduces paper Figure 11: throughput vs median commit latency for
 * SmallBank and TATP at 96 threads x 8 coroutines (768 concurrent
 * tasks), tracing the curve by throttling transaction issue.
 */

#include <iostream>
#include <string>
#include <vector>

#include "harness/bench_cli.hpp"
#include "harness/dtx_bench.hpp"
#include "sim/table.hpp"

using namespace smart;
using namespace smart::harness;

int
main(int argc, char **argv)
{
    BenchCli cli(argc, argv, "fig11_dtx_latency");

    std::vector<sim::Time> delays =
        cli.quick()
            ? std::vector<sim::Time>{0, sim::usec(300)}
            : std::vector<sim::Time>{0, sim::usec(50), sim::usec(100),
                                     sim::usec(300), sim::usec(1000),
                                     sim::usec(3000)};

    for (DtxWorkload w : {DtxWorkload::SmallBank, DtxWorkload::Tatp}) {
        for (bool smart_on : {false, true}) {
            const char *label = smart_on ? "SMART-DTX" : "FORD+";
            std::cout << "== Figure 11 (" << dtxWorkloadName(w) << ", "
                      << label << "): 96 threads x 8 coroutines ==\n";
            sim::Table t({"think_us", "Mtxn/s", "p50_us", "p99_us"});
            for (sim::Time d : delays) {
                DtxBenchParams p;
                p.workload = w;
                p.threads = 96;
                p.numAccounts = cli.quick() ? 20'000 : 100'000;
                p.measureNs = cli.quick() ? sim::msec(2) : sim::msec(4);
                p.smartOn = smart_on;
                p.interTxnDelayNs = d;
                RunSpec spec = cli.spec(
                    d == 0 ? std::string(label) + "/" + dtxWorkloadName(w) +
                                 "/think0"
                           : "");
                DtxBenchResult r = runDtxBench(p, spec);
                t.row()
                    .cell(static_cast<std::uint64_t>(d / 1000))
                    .cell(r.mtps, 2)
                    .cell(r.medianNs / 1000.0, 1)
                    .cell(r.p99Ns / 1000.0, 1);
            }
            cli.addTable(std::string("fig11_") + dtxWorkloadName(w) +
                             (smart_on ? "_smart" : "_ford"),
                         t);
            std::cout << "\n";
        }
    }
    cli.note("Paper shape: SMART-DTX cuts median latency by up to "
             "~46% (SmallBank) / ~77% (TATP) at matched throughput "
             "(median ~29% of FORD's in SmallBank), and extends the "
             "maximum throughput several-fold.");
    return cli.finish();
}
