/**
 * @file
 * BenchCli: the shared command-line front end of every bench binary.
 * Parses the common flags, owns the output directory, collects result
 * tables and per-run captures, and writes the JSON report on finish().
 *
 * Flags:
 *   --quick        reduced sweep (CI / smoke runs)
 *   --json PATH    write a smart-bench-report/v1 JSON report to PATH
 *   --out-dir DIR  directory for CSV/JSON outputs (default ".")
 *   --seed N       perturb every bench's workload RNG streams (recorded
 *                  in the JSON report; same seed => identical run)
 *   --trace        alias for --ts-window 500us: the windowed time series
 *                  carry the adaptive-controller timelines (smart.ctrl.*)
 *   --trace-spans[=N]  record per-op spans, sampling every Nth op
 *                  (default every op; implies a JSON report; also writes
 *                  <out-dir>/<bench>_<label>_trace.json per captured run)
 *   --flame PATH   write collapsed-stack flamegraph lines to PATH
 *                  (implies --trace-spans)
 *   --cache-mb N   run every testbed with an N MiB compute-side cache
 *                  frame pool per runtime, replacing the bench's own
 *                  setting (0 turns the cache tier off); N > 0 is a
 *                  usage error on the benches whose verbs bypass the
 *                  tier (fig03, fig04, fig13, ablation_model,
 *                  table1_dynamic) and on kernel_stress
 *   --ts-window W  sample every registered metric into windowed time
 *                  series every W of virtual time (suffix us/ms; plain
 *                  number = ns; implies a JSON report, whose runs
 *                  scripts/plot_timeseries.py --csv exports as CSV)
 *
 * Numeric values (--seed, --cache-mb, --trace-spans=N, the
 * number of --ts-window) are unsigned integers — decimal, 0x hex or 0
 * octal; a value with trailing garbage is a usage error (exit 2).
 *
 * --seed, --cache-mb and the observers reach a run only through the
 * RunSpec that spec() hands out for it (see harness/testbed.hpp).
 * kernel_stress never asks for one: there --cache-mb N > 0, --trace-spans
 * and --flame are usage errors, and --seed and --trace are recorded but
 * change nothing.
 */

#ifndef SMART_HARNESS_BENCH_CLI_HPP
#define SMART_HARNESS_BENCH_CLI_HPP

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>

#include "harness/reporter.hpp"
#include "harness/testbed.hpp"
#include "sim/table.hpp"

namespace smart::harness {

/** Common CLI handling + report assembly for bench mains. */
class BenchCli
{
  public:
    /**
     * Parse @p argv. Prints usage and exits on --help or unknown flags.
     * @param bench_name report/default-file base name ("fig03_qp_alloc")
     */
    BenchCli(int argc, char **argv, std::string bench_name);

    bool quick() const { return quick_; }

    /**
     * Wall-clock perf of this process so far (ctor to now), paired with
     * the process-wide DES kernel tallies. finish() embeds this in the
     * report; --perf also prints it.
     */
    PerfBlock measurePerf() const;

    /** @return true when runs should fill RunCaptures (JSON requested). */
    bool capturing() const { return !jsonPath_.empty(); }

    /**
     * The spec of the next run: seed and cache override from the
     * flags. A non-empty @p label also reserves a capture slot, carrying
     * the observers --trace-spans / --ts-window ask for, when a report
     * was requested and the per-report capture cap is not reached.
     */
    RunSpec spec(std::string label = {});

    /** Print @p t, write it to <out-dir>/<name>.csv, add to the report. */
    void addTable(const std::string &name, const sim::Table &t);

    /** Print @p text and record it in the report's notes. */
    void note(const std::string &text);

    /** Install the per-tenant SLO block on the report (open-loop). */
    void setSlo(sim::Json slo) { reporter_->setSlo(std::move(slo)); }

    /**
     * Flush the JSON report (when requested).
     * @return process exit code (0, or 1 on report I/O failure)
     */
    int finish();

  private:
    std::string benchName_;
    std::chrono::steady_clock::time_point startWall_ =
        std::chrono::steady_clock::now();
    bool quick_ = false;
    bool perf_ = false;
    // Every flag a run takes; spec() copies it for each run.
    RunSpec flags_;
    std::string outDir_ = ".";
    std::string jsonPath_;
    std::string flamePath_;
    // Stable-address storage: each RunSpec points at its capture slot.
    std::deque<RunCapture> captures_;
    std::size_t maxCaptures_ = 32;
    bool capturesDropped_ = false;
    std::unique_ptr<Reporter> reporter_;
};

} // namespace smart::harness

#endif // SMART_HARNESS_BENCH_CLI_HPP
