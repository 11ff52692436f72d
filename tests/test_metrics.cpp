/**
 * @file
 * Unit tests for the observability layer: MetricsRegistry registration /
 * snapshot / unregistration, JSON serialization and the snapshot
 * JSON document, histogram bucket boundary behaviour, the Timeline capturing the adaptive-
 * controller timelines (C_max, t_max) through a Testbed run,
 * BenchCli's strict numeric flag parsing, and the run spec carrying the
 * flags into every runner's testbed.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "harness/bench_cli.hpp"
#include "harness/bt_bench.hpp"
#include "harness/dtx_bench.hpp"
#include "harness/ht_bench.hpp"
#include "harness/rdma_bench.hpp"
#include "harness/testbed.hpp"
#include "sim/json.hpp"
#include "sim/metrics.hpp"
#include "sim/timeline.hpp"
#include "smart/smart_ctx.hpp"

using namespace smart;
using namespace smart::harness;
using sim::Task;

// ---------------------------------------------------------- registry core

TEST(MetricsRegistry, RegisterSnapshotAndLabels)
{
    sim::MetricsRegistry reg;
    sim::Counter ops;
    sim::LatencyHistogram lat;
    int token = 0;

    reg.registerCounter(&token, "app.ops", {{"blade", "cb0"}}, &ops);
    reg.registerGauge(&token, "free_frac", {{"blade", "mb1"}},
                      [] { return 0.25; });
    reg.registerHistogram(&token, "app.lat", {{"blade", "cb0"}}, &lat);
    EXPECT_EQ(reg.size(), 3u);

    ops.add(7);
    lat.record(100);
    lat.record(300);

    sim::MetricsSnapshot s = reg.snapshot(12345);
    EXPECT_EQ(s.at, 12345u);
    ASSERT_EQ(s.entries.size(), 3u);

    const sim::SnapshotEntry *c = s.find("app.ops", {{"blade", "cb0"}});
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->kind, sim::MetricKind::Counter);
    EXPECT_EQ(c->counter, 7u);
    EXPECT_EQ(c->id.label("blade"), "cb0");
    EXPECT_EQ(c->id.label("missing"), "");

    const sim::SnapshotEntry *g = s.find("free_frac");
    ASSERT_NE(g, nullptr);
    EXPECT_DOUBLE_EQ(g->gauge, 0.25);

    const sim::SnapshotEntry *h = s.find("app.lat");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->hist.count, 2u);
    EXPECT_DOUBLE_EQ(h->hist.mean, 200.0);

    // Wrong label set does not match.
    EXPECT_EQ(s.find("app.ops", {{"blade", "cb1"}}), nullptr);
}

TEST(MetricsRegistry, SumCountersAcrossLabelSets)
{
    sim::MetricsRegistry reg;
    sim::Counter a, b;
    int token = 0;
    reg.registerCounter(&token, "wrs", {{"thread", "0"}}, &a);
    reg.registerCounter(&token, "wrs", {{"thread", "1"}}, &b);
    a.add(10);
    b.add(32);
    EXPECT_EQ(reg.snapshot(0).sumCounters("wrs"), 42u);
}

TEST(MetricsRegistry, UnregisterOwnerDropsOnlyThatOwner)
{
    sim::MetricsRegistry reg;
    sim::Counter a, b;
    int owner1 = 0, owner2 = 0;
    reg.registerCounter(&owner1, "a", {}, &a);
    reg.registerCounter(&owner2, "b", {}, &b);
    reg.unregisterOwner(&owner1);
    EXPECT_EQ(reg.size(), 1u);
    sim::MetricsSnapshot s = reg.snapshot(0);
    EXPECT_EQ(s.find("a"), nullptr);
    EXPECT_NE(s.find("b"), nullptr);
}

// ------------------------------------------------------- JSON documents

TEST(Json, DumpEscapesStringsAndNestsAtEachIndent)
{
    EXPECT_EQ(sim::Json("q\"b\\n\nr\rt\t\x01\x1f").dump(),
              R"("q\"b\\n\nr\rt\t\u0001\u001f")");

    sim::Json doc = sim::Json::object();
    doc.set("a", sim::Json::array().push(1).push(sim::Json::object()));
    doc.set("b", "x");
    doc.set("c", sim::Json::array());
    doc.set("d", sim::Json::array()
                     .push(true)
                     .push(nullptr)
                     .push(-3)
                     .push(0.5)
                     .push(std::nan("")));
    EXPECT_EQ(doc.dump(0),
              R"({"a":[1,{}],"b":"x","c":[],"d":[true,null,-3,0.5,null]})");
    EXPECT_EQ(doc.dump(1), "{\n"
                           " \"a\": [\n"
                           "  1,\n"
                           "  {}\n"
                           " ],\n"
                           " \"b\": \"x\",\n"
                           " \"c\": [],\n"
                           " \"d\": [\n"
                           "  true,\n"
                           "  null,\n"
                           "  -3,\n"
                           "  0.5,\n"
                           "  null\n"
                           " ]\n"
                           "}");
}

TEST(MetricsSnapshot, ToJsonDocument)
{
    sim::MetricsRegistry reg;
    sim::Counter ops;
    sim::LatencyHistogram lat;
    int token = 0;
    reg.registerCounter(&token, "app.ops",
                        {{"blade", "cb0"}, {"policy", "per-thread-db"}},
                        &ops);
    reg.registerGauge(&token, "gamma", {{"thread", "3"}},
                      [] { return 0.125; });
    reg.registerHistogram(&token, "app.lat", {}, &lat);
    ops.add(9);
    for (std::uint64_t v : {100, 200, 400, 800, 1600})
        lat.record(v);

    sim::MetricsSnapshot snap = reg.snapshot(777);
    sim::Json doc = snap.toJson();
    ASSERT_TRUE(doc.isArray());
    ASSERT_EQ(doc.asArray().size(), snap.entries.size());
    auto metric = [&doc](const std::string &name) -> const sim::Json * {
        for (const sim::Json &m : doc.asArray())
            if (m.find("name")->asString() == name)
                return &m;
        return nullptr;
    };

    const sim::Json *c = metric("app.ops");
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->find("kind")->asString(), "counter");
    EXPECT_EQ(c->find("value")->asUint(), 9u);
    EXPECT_EQ(c->find("labels")->dump(),
              R"({"blade":"cb0","policy":"per-thread-db"})");

    const sim::Json *g = metric("gamma");
    ASSERT_NE(g, nullptr);
    EXPECT_EQ(g->find("kind")->asString(), "gauge");
    EXPECT_DOUBLE_EQ(g->find("value")->asDouble(), 0.125);

    const sim::Json *h = metric("app.lat");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->find("kind")->asString(), "histogram");
    const sim::Json &v = *h->find("value");
    const sim::HistogramSummary &want = snap.find("app.lat")->hist;
    EXPECT_EQ(v.find("count")->asUint(), 5u);
    EXPECT_DOUBLE_EQ(v.find("mean")->asDouble(), want.mean);
    EXPECT_EQ(v.find("min")->asUint(), want.min);
    EXPECT_EQ(v.find("max")->asUint(), want.max);
    EXPECT_EQ(v.find("p50")->asUint(), want.p50);
    EXPECT_EQ(v.find("p90")->asUint(), want.p90);
    EXPECT_EQ(v.find("p99")->asUint(), want.p99);
    EXPECT_EQ(v.find("p999")->asUint(), want.p999);
}

// ------------------------------------------------ histogram bucket bounds

TEST(LatencyHistogram, BucketBoundariesRoundTrip)
{
    using H = sim::LatencyHistogram;
    for (int b = 0; b < H::kBuckets; ++b) {
        EXPECT_EQ(H::bucketOf(H::bucketLo(b)), b) << "lo of bucket " << b;
        EXPECT_EQ(H::bucketOf(H::bucketMid(b)), b) << "mid of bucket " << b;
    }
}

TEST(LatencyHistogram, BucketOfIsMonotonic)
{
    using H = sim::LatencyHistogram;
    int prev = H::bucketOf(0);
    for (std::uint64_t ns = 1; ns < (1ull << 20); ns += 13) {
        int b = H::bucketOf(ns);
        EXPECT_GE(b, prev);
        prev = b;
    }
}

TEST(LatencyHistogram, HugeValuesSaturateIntoTopBucket)
{
    using H = sim::LatencyHistogram;
    // Regression: values past the last octave (>= 2^45 ns) used to fold
    // onto arbitrary lower buckets instead of clamping.
    EXPECT_EQ(H::bucketOf((1ull << 45) - 1), H::kBuckets - 1);
    EXPECT_EQ(H::bucketOf(1ull << 45), H::kBuckets - 1);
    EXPECT_EQ(H::bucketOf(~std::uint64_t{0}), H::kBuckets - 1);
    H h;
    h.record(1ull << 50);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_GE(h.percentile(50), H::bucketLo(H::kBuckets - 1));
}

TEST(LatencyHistogram, PercentileClampedToObservedRange)
{
    // Regression: percentile() used to return the raw bucket midpoint,
    // which can exceed max() (top of a wide bucket) or undercut min().
    using H = sim::LatencyHistogram;

    // Single sample in a wide bucket: every percentile is that sample.
    H one;
    std::uint64_t v = (1ull << 20) + 1; // wide octave, mid != sample
    one.record(v);
    EXPECT_EQ(one.percentile(0), v);
    EXPECT_EQ(one.percentile(50), v);
    EXPECT_EQ(one.percentile(100), v);

    // Two samples: p0 must not undercut min, p100 must not exceed max.
    H two;
    // lo above its bucket midpoint (mid 66048) so the clamp floor engages.
    std::uint64_t lo = (1ull << 16) + 600;
    std::uint64_t hi = (1ull << 30) + 5;
    two.record(lo);
    two.record(hi);
    EXPECT_EQ(two.percentile(0), lo);
    EXPECT_GE(two.percentile(50), lo);
    EXPECT_LE(two.percentile(50), hi);
    EXPECT_EQ(two.percentile(100), hi);
    EXPECT_LE(two.p999(), two.max());
}

// --------------------------------------------- testbed + tracer timelines

namespace {

Task
readWorker(SmartCtx &ctx)
{
    std::uint8_t buf[256];
    for (;;) {
        for (int i = 0; i < 16; ++i)
            ctx.read(ctx.runtime().ptr(0, 64 * i), MemSpan{buf + i * 8, 8});
        co_await ctx.postSend();
        co_await ctx.sync();
    }
}

} // namespace

TEST(Testbed, SnapshotExposesPerThreadMetrics)
{
    TestbedConfig cfg;
    cfg.computeBlades = 1;
    cfg.memoryBlades = 1;
    cfg.threadsPerBlade = 2;
    cfg.bladeBytes = 1 << 20;
    cfg.smart = presets::thdResAlloc();
    Testbed tb(cfg);
    tb.compute(0).spawnWorker(0, readWorker);
    tb.compute(0).spawnWorker(1, readWorker);
    tb.sim().runUntil(sim::msec(2));

    sim::MetricsSnapshot s = tb.snapshot();
    EXPECT_GT(s.sumCounters("smart.thread.wrs_completed"), 0u);
    // Per-thread doorbell metrics exist, labelled by thread id.
    for (const char *thread : {"0", "1"}) {
        const sim::SnapshotEntry *wait = nullptr;
        for (const auto &e : s.entries) {
            if (e.id.name == "smart.thread.doorbell_wait_ns" &&
                e.id.label("thread") == thread)
                wait = &e;
        }
        ASSERT_NE(wait, nullptr) << "thread " << thread;
        EXPECT_EQ(wait->id.label("policy"), "per-thread-db");
    }
    EXPECT_NE(s.find("rnic.wrs_completed"), nullptr);
    EXPECT_NE(s.find("memblade.free_bytes"), nullptr);
}

namespace {

/** The Timeline series @p name on thread @p thread (its "start" and
 *  "points"), or nullptr when the block has no such series. */
const sim::Json *
findSeries(const sim::Json &ts, const std::string &name,
           const std::string &thread)
{
    for (const sim::Json &s : ts.find("series")->asArray()) {
        const sim::Json *t = s.find("labels")->find("thread");
        if (s.find("name")->asString() == name && t != nullptr &&
            t->asString() == thread)
            return &s;
    }
    return nullptr;
}

} // namespace

TEST(Timeline, CapturesControllerTimeline)
{
    TestbedConfig cfg;
    cfg.computeBlades = 1;
    cfg.memoryBlades = 1;
    cfg.threadsPerBlade = 4;
    cfg.bladeBytes = 1 << 20;
    cfg.smart = presets::workReqThrot().withBenchTimescale();
    cfg.tsWindowNs = sim::usec(500);
    Testbed tb(cfg);
    for (std::uint32_t t = 0; t < 4; ++t)
        tb.compute(0).spawnWorker(t, readWorker);
    // Long enough for several 1 ms candidate probes => C_max moves.
    tb.runUntil(sim::msec(10));

    ASSERT_NE(tb.timeline(), nullptr);
    EXPECT_GE(tb.timeline()->windows(), 5u);
    sim::Json ts = tb.timeline()->toJson();

    const sim::Json *cmax = findSeries(ts, "smart.ctrl.credit_cmax", "0");
    ASSERT_NE(cmax, nullptr);
    // Sampled in every window: born at the first window, never a gap.
    EXPECT_EQ(cmax->find("start")->asUint(), 0u);
    const sim::Json::Array &points = cmax->find("points")->asArray();
    ASSERT_EQ(points.size(), tb.timeline()->windows());
    std::set<double> distinct;
    for (const sim::Json &v : points)
        distinct.insert(v.asDouble());
    // Algorithm 1 probes the candidate set during the epoch, so the
    // timeline must show C_max actually changing, not a flat line.
    EXPECT_GE(distinct.size(), 2u);

    EXPECT_NE(findSeries(ts, "smart.ctrl.tmax_cycles", "0"), nullptr);
    // The default filter keeps per-thread series only for thread 0.
    EXPECT_EQ(findSeries(ts, "smart.ctrl.credit_cmax", "1"), nullptr);

    // JSON shape: one t_ns entry per sampled window.
    EXPECT_EQ(ts.find("t_ns")->asArray().size(), tb.timeline()->windows());
}

// ------------------------------------------------------- BenchCli flags

namespace {

/** Parse @p args (after argv[0]) the way bench @p name's main does. */
std::unique_ptr<BenchCli>
parseCli(std::vector<std::string> args, const std::string &name = "bench")
{
    std::vector<char *> argv{const_cast<char *>(name.c_str())};
    for (std::string &a : args)
        argv.push_back(a.data());
    return std::make_unique<BenchCli>(static_cast<int>(argv.size()),
                                      argv.data(), name);
}

} // namespace

TEST(BenchCliDeathTest, RejectsMalformedNumericFlags)
{
    const char *msg = "needs an unsigned integer";
    EXPECT_EXIT(parseCli({"--seed", "abc"}), testing::ExitedWithCode(2), msg);
    EXPECT_EXIT(parseCli({"--seed", "7x"}), testing::ExitedWithCode(2), msg);
    EXPECT_EXIT(parseCli({"--seed", "-1"}), testing::ExitedWithCode(2), msg);
    EXPECT_EXIT(parseCli({"--seed", "99999999999999999999"}),
                testing::ExitedWithCode(2), msg);
    EXPECT_EXIT(parseCli({"--cache-mb", "1.5"}), testing::ExitedWithCode(2),
                msg);
    EXPECT_EXIT(parseCli({"--trace-spans=4x"}), testing::ExitedWithCode(2),
                msg);
    EXPECT_EXIT(parseCli({"--ts-window", "5s"}), testing::ExitedWithCode(2),
                msg);
}

TEST(BenchCliDeathTest, RejectsTheRemovedNoCacheFlag)
{
    // --cache-mb 0 is the way to turn the cache tier off.
    EXPECT_EXIT(parseCli({"--no-cache"}), testing::ExitedWithCode(2),
                "unknown flag '--no-cache'");
}

TEST(BenchCliDeathTest, RejectsTheRemovedShardsFlag)
{
    // Bench binaries run on one engine; only a TestbedConfig shards.
    EXPECT_EXIT(parseCli({"--shards", "2"}), testing::ExitedWithCode(2),
                "unknown flag '--shards'");
}

TEST(BenchCliDeathTest, RejectsACachePoolOnTheRawVerbBenches)
{
    // Their workers post SmartCtx::read/write past the cache tier, so an
    // N MiB pool would be built and never filled.
    for (const char *bench : {"fig03_qp_alloc", "fig04_cache_thrash",
                              "fig13_micro", "ablation_model",
                              "table1_dynamic"}) {
        EXPECT_EXIT(parseCli({"--cache-mb", "4"}, bench),
                    testing::ExitedWithCode(2), "bypass the cache tier")
            << bench;
        EXPECT_EQ(parseCli({"--cache-mb", "0"}, bench)->spec().cacheMb, 0u)
            << bench;
    }
    // A bench that reads through the tier keeps the flag.
    EXPECT_EQ(parseCli({"--cache-mb", "4"}, "fig10_dtx")->spec().cacheMb,
              4u);
}

TEST(BenchCliDeathTest, RejectsRunFlagsOnKernelStress)
{
    // kernel_stress drives bare Simulators and never asks for a RunSpec,
    // so these flags would be accepted and applied nowhere.
    const char *bench = "kernel_stress";
    const char *msg = "builds no testbed";
    EXPECT_EXIT(parseCli({"--cache-mb", "4"}, bench),
                testing::ExitedWithCode(2), msg);
    EXPECT_EXIT(parseCli({"--trace-spans=8"}, bench),
                testing::ExitedWithCode(2), msg);
    EXPECT_EXIT(parseCli({"--flame", "f.txt"}, bench),
                testing::ExitedWithCode(2), msg);
    // The regression gate passes --seed and --trace to every baseline
    // bench; they and the no-op settings stay valid.
    EXPECT_EQ(parseCli({"--seed", "7", "--trace", "--cache-mb", "0"}, bench)
                  ->spec()
                  .seed,
              7u);
}

TEST(BenchCli, ParsesNumericFlags)
{
    EXPECT_EQ(parseCli({"--seed", "7"})->spec().seed, 7u);
    EXPECT_EQ(parseCli({"--seed", "0x10"})->spec().seed, 16u);
    EXPECT_EQ(parseCli({"--cache-mb", "8"})->spec().cacheMb, 8u);
    EXPECT_FALSE(parseCli({})->spec().cacheMb.has_value());
    EXPECT_FALSE(parseCli({})->capturing());

    // --trace is --ts-window 500us, handed to every captured run.
    std::unique_ptr<BenchCli> traced = parseCli({"--trace"});
    RunSpec spec = traced->spec("run");
    ASSERT_NE(spec.capture, nullptr);
    EXPECT_EQ(spec.tsWindowNs, sim::usec(500));
    EXPECT_EQ(spec.spanSampleEvery, 0u);
    // An unlabelled run is not captured, so it carries no observers.
    RunSpec plain = traced->spec();
    EXPECT_EQ(plain.capture, nullptr);
    EXPECT_EQ(plain.tsWindowNs, 0u);
}

// ------------------------------------------- run specs reach the runners

namespace {

DtxBenchParams
tinyDtx()
{
    DtxBenchParams p;
    p.numAccounts = 1000;
    p.threads = 2;
    p.corosPerThread = 2;
    p.warmupNs = sim::usec(200);
    p.measureNs = sim::usec(200);
    return p;
}

/**
 * Run @p run with a 1 MiB cache: the spec must reach the runner, so the
 * cache tier exports its metrics. @return the run's snapshot as JSON.
 */
template <typename Run>
std::string
specSnapshot(Run run)
{
    RunCapture cap;
    RunSpec spec;
    spec.label = "spec";
    spec.capture = &cap;
    spec.seed = 3;
    spec.cacheMb = 1;
    run(spec);
    EXPECT_GT(cap.metrics.sumCounters("app.ops"), 0u);
    EXPECT_NE(cap.metrics.find("smart.cache.hits"), nullptr);
    return cap.metrics.toJson().dump();
}

} // namespace

// The rdma and ht runners take a TestbedConfig, so they also run on two
// shards (one blade each): the snapshot must not change.
namespace {

TestbedConfig
twoBladeConfig(std::uint32_t shards)
{
    TestbedConfig cfg;
    cfg.memoryBlades = 1;
    cfg.threadsPerBlade = 2;
    cfg.shards = shards;
    return cfg;
}

} // namespace

TEST(RunSpec, ReachesRdmaBench)
{
    auto config = [](std::uint32_t shards) {
        TestbedConfig cfg = twoBladeConfig(shards);
        cfg.smart = presets::full().withCoros(1);
        return cfg;
    };
    auto snapshot = [&config](std::uint32_t shards) {
        return specSnapshot([&](const RunSpec &spec) {
            RdmaBenchParams p;
            p.depth = 4;
            p.regionBytes = 1ull << 20;
            p.warmupNs = sim::usec(50);
            p.measureNs = sim::usec(100);
            runRdmaBench(config(shards), p, spec);
        });
    };
    ASSERT_EQ(Testbed(config(2)).shards(), 2u);
    EXPECT_EQ(snapshot(2), snapshot(1));
}

TEST(RunSpec, ReachesHtBench)
{
    auto config = [](std::uint32_t shards) {
        TestbedConfig cfg = twoBladeConfig(shards);
        cfg.bladeBytes = 64ull << 20;
        cfg.smart = presets::full();
        return cfg;
    };
    auto snapshot = [&config](std::uint32_t shards) {
        return specSnapshot([&](const RunSpec &spec) {
            HtBenchParams p;
            p.numKeys = 1000;
            p.mix = workload::YcsbMix::readHeavy();
            p.corosPerThread = 2;
            p.warmupNs = sim::usec(100);
            p.measureNs = sim::usec(200);
            runHtBench(config(shards), p, spec);
        });
    };
    ASSERT_EQ(Testbed(config(2)).shards(), 2u);
    EXPECT_EQ(snapshot(2), snapshot(1));
}

TEST(RunSpec, ReachesDtxBench)
{
    specSnapshot([](const RunSpec &spec) { runDtxBench(tinyDtx(), spec); });
}

TEST(RunSpec, ReachesBtBench)
{
    specSnapshot([](const RunSpec &spec) {
        BtBenchParams p;
        p.numKeys = 2000;
        p.threadsPerServer = 2;
        p.corosPerThread = 2;
        p.mix = workload::YcsbMix::readHeavy();
        p.warmupNs = sim::usec(200);
        p.measureNs = sim::usec(200);
        runBtBench(p, spec);
    });
}

TEST(BtBench, SpecHitRateCoversOnlyTheMeasureWindow)
{
    // The speculative cache starts cold, so the warm-up's first lookups
    // miss. A window opened after warm-up must report a higher rate than
    // the same run measured from time zero.
    BtBenchParams p;
    p.numKeys = 2000;
    p.threadsPerServer = 2;
    p.corosPerThread = 2;
    p.variant = BtVariant::ShermanPlusSl;
    p.mix = workload::YcsbMix::readHeavy();
    p.warmupNs = sim::usec(300);
    p.measureNs = sim::usec(300);
    double windowed = runBtBench(p, {}).specHitRate;
    p.warmupNs = 0;
    p.measureNs = sim::usec(600);
    double whole = runBtBench(p, {}).specHitRate;
    EXPECT_GT(windowed, whole);
}

TEST(RunSpec, CacheMbFlagReachesADtxTestbed)
{
    // The report is never written: finish() is not called.
    const std::string json = "unwritten_report.json";
    std::unique_ptr<BenchCli> with =
        parseCli({"--cache-mb", "4", "--json", json});
    RunSpec cached = with->spec("cached");
    ASSERT_NE(cached.capture, nullptr);
    runDtxBench(tinyDtx(), cached);
    EXPECT_NE(cached.capture->metrics.find("smart.cache.hits"), nullptr);

    std::unique_ptr<BenchCli> without = parseCli({"--json", json});
    RunSpec plain = without->spec("plain");
    ASSERT_NE(plain.capture, nullptr);
    runDtxBench(tinyDtx(), plain);
    EXPECT_EQ(plain.capture->metrics.find("smart.cache.hits"), nullptr);
}
