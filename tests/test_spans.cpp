/**
 * @file
 * Span-tracer tests: nesting/containment of per-op spans across
 * coroutine suspension, span correctness under fault-injected retries,
 * byte-identical exports for a fixed seed, attribution coverage, and
 * the named-percentile accessors the span layer introduced.
 */

#include <gtest/gtest.h>

#include <string>

#include "harness/testbed.hpp"
#include "sim/fault.hpp"
#include "sim/span.hpp"
#include "smart/smart_ctx.hpp"

using namespace smart;
using namespace smart::harness;
using sim::SpanId;
using sim::SpanRecord;
using sim::SpanTracer;
using sim::Stage;
using sim::Task;

namespace {

TestbedConfig
spanConfig(std::uint32_t span_every)
{
    TestbedConfig cfg;
    cfg.computeBlades = 1;
    cfg.memoryBlades = 1;
    cfg.threadsPerBlade = 2;
    cfg.bladeBytes = 1ull << 20;
    cfg.smart = presets::full();
    cfg.smart.corosPerThread = 2;
    cfg.spanSampleEvery = span_every;
    return cfg;
}

Task
spanWorker(SmartCtx &ctx, std::uint64_t &ops)
{
    SmartRuntime &rt = ctx.runtime();
    std::uint8_t *buf = ctx.scratch(64);
    for (;;) {
        co_await ctx.opBegin();
        co_await ctx.access(rt.ptr(0, 0), AccessOp::read(MemSpan{buf, 64}));
        if (ctx.failed())
            ctx.clearError();
        ctx.opEnd();
        ++ops;
    }
}

/** Spawn every worker of @p tb and run for @p ns of virtual time. */
std::uint64_t
runWorkers(Testbed &tb, sim::Time ns)
{
    static std::uint64_t ops; // workers outlive the counter's scope
    ops = 0;
    SmartRuntime &rt = tb.compute(0);
    for (std::uint32_t t = 0; t < rt.numThreads(); ++t) {
        for (std::uint32_t k = 0; k < tb.config().smart.corosPerThread;
             ++k) {
            rt.spawnWorker(
                t, [](SmartCtx &ctx) { return spanWorker(ctx, ops); });
        }
    }
    tb.sim().runUntil(ns);
    return ops;
}

/** Count closed records of @p stage. */
std::uint64_t
countStage(const SpanTracer &sp, Stage stage)
{
    std::uint64_t n = 0;
    for (SpanId id = 1; id <= sp.size(); ++id) {
        const SpanRecord &r = sp.at(id);
        if (!r.open && r.stage == stage)
            ++n;
    }
    return n;
}

} // namespace

TEST(Spans, NestingAndContainmentAcrossSuspension)
{
    Testbed tb(spanConfig(1));
    std::uint64_t ops = runWorkers(tb, sim::usec(200));
    ASSERT_GT(ops, 0u);

    SpanTracer &sp = *tb.spanTracer();
    ASSERT_GT(sp.size(), 0u);
    EXPECT_EQ(sp.dropped(), 0u);

    std::uint64_t closed_ops = 0;
    std::uint64_t verbs = 0;
    for (SpanId id = 1; id <= sp.size(); ++id) {
        const SpanRecord &r = sp.at(id);
        ASSERT_NE(r.track, 0u);
        if (r.open)
            continue; // in flight at capture time
        EXPECT_LE(r.start, r.end);
        if (r.stage == Stage::Op) {
            ++closed_ops;
            EXPECT_EQ(r.parent, 0u) << "ops are roots";
            continue;
        }
        // Every non-op span hangs off a parent...
        ASSERT_NE(r.parent, 0u) << "stage " << stageName(r.stage);
        const SpanRecord &p = sp.at(r.parent);
        EXPECT_GE(r.start, p.start);
        if (sp.trackIsDevice(r.track)) {
            // ...device spans cross-parent to another track's verb/op.
            EXPECT_NE(r.track, p.track);
        } else {
            // ...coroutine spans nest properly within their parent,
            // even though the coroutine suspended inside them.
            EXPECT_EQ(r.track, p.track);
            if (!p.open) {
                EXPECT_LE(r.end, p.end)
                    << stageName(r.stage) << " leaks past its parent";
            }
        }
        if (r.stage == Stage::Verb) {
            ++verbs;
            EXPECT_EQ(p.stage, Stage::Op);
        }
    }
    // Sampling every op: one verb round per op, all resolving to ops.
    EXPECT_GT(closed_ops, 0u);
    EXPECT_GE(verbs, closed_ops);
    // The device pipeline showed up (wire + CQE landing at minimum).
    EXPECT_GT(countStage(sp, Stage::Link), 0u);
    EXPECT_GT(countStage(sp, Stage::Pcie), 0u);
}

TEST(Spans, SamplingStrideTracesEveryNthOp)
{
    Testbed tb(spanConfig(4));
    std::uint64_t ops = runWorkers(tb, sim::usec(200));
    ASSERT_GT(ops, 40u);

    SpanTracer &sp = *tb.spanTracer();
    std::uint64_t traced = countStage(sp, Stage::Op);
    EXPECT_GT(traced, 0u);
    // 4 coroutines each trace every 4th op (+1 open op per coroutine).
    EXPECT_LE(traced, ops / 4 + 4);
}

TEST(Spans, RetryRoundsNestUnderFaultInjection)
{
    TestbedConfig cfg = spanConfig(1);
    Testbed tb(cfg);
    sim::FaultPlane &fp = tb.faultPlane(7);
    fp.probabilistic("cb0.rnic", 0.2);
    std::uint64_t ops = runWorkers(tb, sim::msec(1));
    ASSERT_GT(ops, 0u);

    SpanTracer &sp = *tb.spanTracer();
    std::uint64_t rounds = 0;
    std::uint64_t backoffs = 0;
    for (SpanId id = 1; id <= sp.size(); ++id) {
        const SpanRecord &r = sp.at(id);
        if (r.open)
            continue;
        if (r.stage == Stage::RetryRound) {
            ++rounds;
            const SpanRecord &p = sp.at(r.parent);
            EXPECT_TRUE(p.stage == Stage::Verb || p.stage == Stage::Op);
            EXPECT_EQ(r.track, p.track);
        }
        if (r.stage == Stage::BackoffSleep) {
            ++backoffs;
            const SpanRecord &p = sp.at(r.parent);
            EXPECT_GE(r.start, p.start);
            EXPECT_EQ(r.track, p.track);
        }
    }
    // 20% error rate across a millisecond guarantees retry traffic.
    EXPECT_GT(rounds, 0u);
    EXPECT_GT(backoffs, 0u);
    EXPECT_GE(tb.compute(0).thread(0).verbRetries.value() +
                  tb.compute(0).thread(1).verbRetries.value(),
              rounds);
}

namespace {

/** One fixed-seed run: build, run, export all three artifacts. */
struct Exports
{
    std::string trace;
    std::string folded;
    std::string attrib;
};

Exports
exportRun(bool with_faults)
{
    TestbedConfig cfg = spanConfig(1);
    Testbed tb(cfg);
    if (with_faults)
        tb.faultPlane(11).probabilistic("cb0.rnic", 0.1);
    runWorkers(tb, sim::usec(300));
    SpanTracer &sp = *tb.spanTracer();
    return {sp.chromeTraceString(), sp.collapsedStacks(),
            sp.attribution().dump(2)};
}

} // namespace

TEST(Spans, ExportsAreByteIdenticalForFixedSeed)
{
    Exports a = exportRun(false);
    Exports b = exportRun(false);
    EXPECT_EQ(a.trace, b.trace);
    EXPECT_EQ(a.folded, b.folded);
    EXPECT_EQ(a.attrib, b.attrib);

    Exports fa = exportRun(true);
    Exports fb = exportRun(true);
    EXPECT_EQ(fa.trace, fb.trace);
    EXPECT_EQ(fa.folded, fb.folded);
    EXPECT_EQ(fa.attrib, fb.attrib);
}

TEST(Spans, AttributionCoversMeasuredOpTime)
{
    Testbed tb(spanConfig(1));
    std::uint64_t ops = runWorkers(tb, sim::usec(500));
    ASSERT_GT(ops, 0u);

    sim::Json a = tb.spanTracer()->attribution();
    ASSERT_TRUE(a.isObject());
    const sim::Json *cov = a.find("coverage");
    ASSERT_NE(cov, nullptr);
    double op_total = cov->find("op_total_ns")->asDouble();
    double attributed = cov->find("attributed_ns")->asDouble();
    double ratio = cov->find("ratio")->asDouble();
    EXPECT_GT(op_total, 0.0);
    EXPECT_GE(ratio, 0.95) << "attribution must cover >=95% of op time";
    EXPECT_LE(ratio, 1.0 + 1e-9);
    EXPECT_NEAR(attributed / op_total, ratio, 1e-9);

    const sim::Json *stages = a.find("stages");
    ASSERT_NE(stages, nullptr);
    ASSERT_TRUE(stages->isArray());
    ASSERT_FALSE(stages->asArray().empty());
    bool saw_verb_self = false;
    for (const sim::Json &s : stages->asArray()) {
        EXPECT_NE(s.find("stage"), nullptr);
        EXPECT_NE(s.find("thread"), nullptr);
        EXPECT_GT(s.find("count")->asUint(), 0u);
        EXPECT_GE(s.find("p99_ns")->asUint(), s.find("p50_ns")->asUint());
        EXPECT_GE(s.find("p999_ns")->asUint(), s.find("p99_ns")->asUint());
        if (s.find("stage")->asString() == "verb")
            saw_verb_self = true;
    }
    EXPECT_TRUE(saw_verb_self);
}

TEST(Spans, ChromeTraceHasTraceEvents)
{
    Testbed tb(spanConfig(1));
    runWorkers(tb, sim::usec(100));
    sim::Json trace = tb.spanTracer()->chromeTrace();
    const sim::Json *events = trace.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());
    ASSERT_FALSE(events->asArray().empty());
    // Thread-name metadata plus at least one complete and one async pair.
    bool saw_meta = false;
    bool saw_complete = false;
    bool saw_async = false;
    for (const sim::Json &e : events->asArray()) {
        const std::string &ph = e.find("ph")->asString();
        saw_meta |= ph == "M";
        saw_complete |= ph == "X";
        saw_async |= ph == "b";
    }
    EXPECT_TRUE(saw_meta);
    EXPECT_TRUE(saw_complete);
    EXPECT_TRUE(saw_async);
}

TEST(Spans, DisabledTracerLeavesRunIdentical)
{
    // Byte-identical event streams with and without an (idle) tracer
    // would be vacuous — the tracer is exercised via sampling instead:
    // the deterministic kernel must process the same events either way.
    TestbedConfig off = spanConfig(1);
    off.spanSampleEvery = 0;
    Testbed tb_off(off);
    std::uint64_t ops_off = runWorkers(tb_off, sim::usec(200));

    Testbed tb_on(spanConfig(1));
    std::uint64_t ops_on = runWorkers(tb_on, sim::usec(200));

    // Span recording is observation only: it never schedules events or
    // perturbs virtual time, so both runs do identical work.
    EXPECT_EQ(ops_off, ops_on);
    EXPECT_EQ(tb_off.sim().eventsProcessed(), tb_on.sim().eventsProcessed());
    EXPECT_EQ(tb_off.sim().now(), tb_on.sim().now());
}

TEST(Spans, RecordPoolCapStopsCleanly)
{
    Testbed tb(spanConfig(0));
    SpanTracer sp(tb.sim(), 1, 64);
    std::uint64_t ops = runWorkers(tb, sim::usec(500));
    ASSERT_GT(ops, 64u);

    EXPECT_LE(sp.size(), 64u);
    EXPECT_GT(sp.dropped(), 0u);
    // Exports still work on the truncated pool.
    EXPECT_FALSE(sp.chromeTraceString().empty());
}

TEST(Spans, NamedPercentileAccessorsMatchPercentile)
{
    sim::LatencyHistogram h;
    for (std::uint64_t i = 1; i <= 10'000; ++i)
        h.record(i * 7);
    EXPECT_EQ(h.p50(), h.percentile(50));
    EXPECT_EQ(h.p99(), h.percentile(99));
    EXPECT_EQ(h.p999(), h.percentile(99.9));
    EXPECT_GT(h.p999(), h.p99());

    sim::HistogramSummary s = sim::HistogramSummary::of(h);
    EXPECT_EQ(s.p50, h.p50());
    EXPECT_EQ(s.p99, h.p99());
    EXPECT_EQ(s.p999, h.p999());
}
