/**
 * @file
 * BenchCli implementation.
 */

#include "harness/bench_cli.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <thread>

#include "sim/event_queue.hpp"

namespace smart::harness {

namespace {

/**
 * Benches that cannot apply some run flags, which are usage errors there
 * rather than silent no-ops. The raw-verb benches' workers post
 * SmartCtx::read/write past the compute-side cache tier, so a --cache-mb
 * pool would be built and never filled; kernel_stress drives bare
 * Simulators and never asks for a RunSpec, so no run flag reaches a run.
 */
struct FlagLimit
{
    std::string_view bench;
    bool noTestbed; ///< false: only the cache tier is bypassed
};
constexpr FlagLimit kFlagLimits[] = {
    {"fig03_qp_alloc", false}, {"fig04_cache_thrash", false},
    {"fig13_micro", false},    {"ablation_model", false},
    {"table1_dynamic", false}, {"kernel_stress", true}};

const FlagLimit *
flagLimitOf(const std::string &bench)
{
    for (const FlagLimit &l : kFlagLimits) {
        if (l.bench == bench)
            return &l;
    }
    return nullptr;
}

[[noreturn]] void
usage(const std::string &bench, int exit_code)
{
    std::ostream &os = exit_code == 0 ? std::cout : std::cerr;
    os << "usage: " << bench
       << " [--quick] [--json PATH] [--out-dir DIR] [--seed N] "
          "[--trace] [--trace-spans[=N]] [--flame PATH] [--perf]\n"
          "  [--cache-mb N] [--ts-window W]\n"
          "  --quick        reduced sweep for CI / smoke runs\n"
          "  --json PATH    write a smart-bench-report/v1 JSON report\n"
          "  --out-dir DIR  directory for CSV/JSON outputs (default .)\n"
          "  --seed N       perturb workload RNG seeds (recorded in the "
          "JSON report)\n"
          "  --trace        alias for --ts-window 500us (the time "
          "series carry the controller timelines)\n"
          "  --trace-spans[=N]  record per-op latency spans, sampling "
          "every Nth op (default 1; implies a JSON report and writes a "
          "Perfetto trace per captured run)\n"
          "  --flame PATH   write collapsed-stack flamegraph lines to "
          "PATH (implies --trace-spans)\n"
          "  --perf         print a wall-clock perf summary (always "
          "embedded in the JSON report)\n"
          "  --cache-mb N   run every testbed with an N MiB compute-side "
          "cache frame pool (0 turns the cache tier off; N > 0 is an "
          "error where the bench's verbs bypass the tier)\n"
          "  --ts-window W  windowed time-series sampling every W of "
          "virtual time (suffix us/ms, plain = ns; implies a JSON report; "
          "scripts/plot_timeseries.py --csv exports a run as CSV)\n";
    const FlagLimit *limit = flagLimitOf(bench);
    if (limit != nullptr && limit->noTestbed)
        os << "  " << bench << " builds no testbed: --seed and --trace "
           << "are recorded but change nothing; --cache-mb N > 0, "
              "--trace-spans and --flame are errors\n";
    std::exit(exit_code);
}

/**
 * Parse an unsigned integer flag value (decimal, 0x hex or 0 octal) no
 * larger than @p max. Signs, trailing garbage and overflow are usage
 * errors, so "--seed 7x" cannot silently become 7.
 */
std::uint64_t
parseUint(const std::string &bench, const char *flag, const std::string &text,
          std::uint64_t max = UINT64_MAX)
{
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(text.c_str(), &end, 0);
    bool digits = !text.empty() && text[0] >= '0' && text[0] <= '9';
    if (!digits || *end != '\0' || errno == ERANGE || v > max) {
        std::cerr << bench << ": " << flag << " needs an unsigned integer"
                  << " <= " << max << ", got '" << text << "'\n";
        usage(bench, 2);
    }
    return v;
}

/** Parse a virtual-time value: plain number = ns, ns/us/ms suffixes. */
sim::Time
parseTimeNs(const std::string &bench, const char *flag,
            const std::string &text)
{
    std::string num = text;
    sim::Time unit = 1;
    if (num.size() > 2) {
        std::string suffix = num.substr(num.size() - 2);
        if (suffix == "us" || suffix == "ms" || suffix == "ns") {
            unit = suffix == "us" ? sim::usec(1)
                 : suffix == "ms" ? sim::msec(1) : 1;
            num.resize(num.size() - 2);
        }
    }
    sim::Time ns = parseUint(bench, flag, num, UINT64_MAX / unit) * unit;
    if (ns == 0) {
        std::cerr << bench << ": " << flag << " needs a value > 0\n";
        usage(bench, 2);
    }
    return ns;
}

/** Turn a run label into a filename fragment ("SMART-HT/t0" ->
 *  "SMART-HT_t0"). */
std::string
fileSafe(const std::string &label)
{
    std::string out = label;
    for (char &c : out) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '-' || c == '.';
        if (!ok)
            c = '_';
    }
    return out;
}

} // namespace

BenchCli::BenchCli(int argc, char **argv, std::string bench_name)
    : benchName_(std::move(bench_name))
{
    bool trace = false;
    auto value = [&](int &i, const char *flag) -> std::string {
        if (i + 1 >= argc) {
            std::cerr << benchName_ << ": " << flag
                      << " needs a value\n";
            usage(benchName_, 2);
        }
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--quick") {
            quick_ = true;
        } else if (arg == "--json") {
            jsonPath_ = value(i, "--json");
        } else if (arg == "--out-dir") {
            outDir_ = value(i, "--out-dir");
        } else if (arg == "--seed") {
            flags_.seed =
                parseUint(benchName_, "--seed", value(i, "--seed"));
        } else if (arg == "--trace") {
            trace = true;
        } else if (arg == "--trace-spans") {
            flags_.spanSampleEvery = 1;
        } else if (arg.rfind("--trace-spans=", 0) == 0) {
            flags_.spanSampleEvery = static_cast<std::uint32_t>(
                parseUint(benchName_, "--trace-spans=N",
                          arg.substr(sizeof("--trace-spans=") - 1),
                          UINT32_MAX));
            if (flags_.spanSampleEvery == 0) {
                std::cerr << benchName_
                          << ": --trace-spans=N needs N >= 1\n";
                usage(benchName_, 2);
            }
        } else if (arg == "--flame") {
            flamePath_ = value(i, "--flame");
        } else if (arg == "--cache-mb") {
            flags_.cacheMb = static_cast<std::uint32_t>(parseUint(
                benchName_, "--cache-mb", value(i, "--cache-mb"),
                UINT32_MAX));
        } else if (arg == "--ts-window") {
            flags_.tsWindowNs = parseTimeNs(benchName_, "--ts-window",
                                            value(i, "--ts-window"));
        } else if (arg == "--perf") {
            perf_ = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(benchName_, 0);
        } else {
            std::cerr << benchName_ << ": unknown flag '" << arg << "'\n";
            usage(benchName_, 2);
        }
    }
    if (const FlagLimit *limit = flagLimitOf(benchName_)) {
        auto reject = [&](const char *flag) {
            std::cerr << benchName_ << ": " << flag << " has no effect: "
                      << (limit->noTestbed
                              ? "this bench builds no testbed\n"
                              : "this bench's verbs bypass the cache tier\n");
            usage(benchName_, 2);
        };
        if (flags_.cacheMb.value_or(0) > 0)
            reject("--cache-mb N > 0");
        if (limit->noTestbed && flags_.spanSampleEvery > 0)
            reject("--trace-spans");
        if (limit->noTestbed && !flamePath_.empty())
            reject("--flame");
    }
    if (outDir_.empty())
        outDir_ = ".";
    if (!flamePath_.empty() && flags_.spanSampleEvery == 0)
        flags_.spanSampleEvery = 1;
    if (trace && flags_.tsWindowNs == 0)
        flags_.tsWindowNs = sim::usec(500);
    if ((flags_.spanSampleEvery > 0 || flags_.tsWindowNs > 0) &&
        jsonPath_.empty())
        jsonPath_ = outDir_ + "/" + benchName_ + "_report.json";

    std::error_code ec;
    std::filesystem::create_directories(outDir_, ec);
    if (ec) {
        std::cerr << benchName_ << ": cannot create out-dir '" << outDir_
                  << "': " << ec.message() << "\n";
        std::exit(2);
    }

    reporter_ = std::make_unique<Reporter>(benchName_, quick_, flags_.seed);
}

RunSpec
BenchCli::spec(std::string label)
{
    RunSpec s = flags_;
    s.label = std::move(label);
    if (!s.label.empty() && capturing()) {
        if (captures_.size() < maxCaptures_) {
            s.capture = &captures_.emplace_back();
            return s;
        }
        if (!capturesDropped_) {
            capturesDropped_ = true;
            note("note: capture cap (" + std::to_string(maxCaptures_) +
                 " runs) reached; later runs are not captured");
        }
    }
    // The observers only serve a capture.
    s.spanSampleEvery = 0;
    s.tsWindowNs = 0;
    return s;
}

void
BenchCli::addTable(const std::string &name, const sim::Table &t)
{
    t.print();
    t.writeCsv(outDir_ + "/" + name + ".csv");
    reporter_->addTable(name, t);
}

void
BenchCli::note(const std::string &text)
{
    std::cout << text << "\n";
    reporter_->addNote(text);
}

PerfBlock
BenchCli::measurePerf() const
{
    PerfBlock p;
    std::chrono::duration<double, std::milli> wall =
        std::chrono::steady_clock::now() - startWall_;
    p.wallMs = wall.count();
    sim::KernelPerf kp = sim::collectKernelPerf();
    p.eventsProcessed = kp.eventsProcessed;
    p.peakQueueDepth = kp.peakQueueDepth;
    p.ringInserts = kp.ringInserts;
    p.heapInserts = kp.heapInserts;
    p.hostCores = std::thread::hardware_concurrency();
    double wall_s = std::max(p.wallMs, 1e-3) / 1000.0;
    p.eventsPerSec = static_cast<double>(p.eventsProcessed) / wall_s;
    return p;
}

int
BenchCli::finish()
{
    PerfBlock perf = measurePerf();
    if (perf_) {
        std::printf("perf: %.1f ms wall, %llu events, %.3g events/s, "
                    "peak queue depth %llu, inserts %llu ring / %llu heap\n",
                    perf.wallMs,
                    static_cast<unsigned long long>(perf.eventsProcessed),
                    perf.eventsPerSec,
                    static_cast<unsigned long long>(perf.peakQueueDepth),
                    static_cast<unsigned long long>(perf.ringInserts),
                    static_cast<unsigned long long>(perf.heapInserts));
    }
    if (!capturing())
        return 0;
    reporter_->setPerf(perf);
    int rc = 0;
    std::string folded; // all captures, label-prefixed, one flame file
    for (const RunCapture &cap : captures_) {
        reporter_->addRun(cap);
        if (!cap.spanTrace.empty()) {
            std::string path = outDir_ + "/" + benchName_ + "_" +
                               fileSafe(cap.label) + "_trace.json";
            std::ofstream os(path);
            os << cap.spanTrace;
            if (!os) {
                std::cerr << benchName_ << ": failed to write '" << path
                          << "'\n";
                rc = 1;
            } else {
                std::cout << "span trace: " << path << "\n";
            }
        }
        if (!cap.spanFolded.empty() && !flamePath_.empty()) {
            // Re-prefix each line with the run label so one flame file
            // can hold every captured run of the sweep.
            std::size_t pos = 0;
            while (pos < cap.spanFolded.size()) {
                std::size_t eol = cap.spanFolded.find('\n', pos);
                if (eol == std::string::npos)
                    eol = cap.spanFolded.size();
                folded += fileSafe(cap.label) + ";" +
                          cap.spanFolded.substr(pos, eol - pos) + "\n";
                pos = eol + 1;
            }
        }
    }
    if (!flamePath_.empty()) {
        std::ofstream os(flamePath_);
        os << folded;
        if (!os) {
            std::cerr << benchName_ << ": failed to write '" << flamePath_
                      << "'\n";
            rc = 1;
        } else {
            std::cout << "flamegraph stacks: " << flamePath_ << "\n";
        }
    }
    if (!reporter_->writeTo(jsonPath_)) {
        std::cerr << benchName_ << ": failed to write report to '"
                  << jsonPath_ << "'\n";
        return 1;
    }
    std::cout << "report: " << jsonPath_ << "\n";
    return rc;
}

} // namespace smart::harness
