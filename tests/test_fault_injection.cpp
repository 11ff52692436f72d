/**
 * @file
 * Fault-injection plane tests: error completions are retried to
 * success, exhausted retry budgets surface typed errors, RNIC resets
 * drive QP reconnects, blade restarts invalidate cached rkeys, and a
 * faulty run is bit-reproducible from its seeds.
 */

#include <gtest/gtest.h>

#include "harness/testbed.hpp"
#include "sim/fault.hpp"
#include "smart/smart_ctx.hpp"

using namespace smart;
using namespace smart::harness;
using sim::Task;

namespace {

TestbedConfig
smallConfig(std::uint32_t threads = 1)
{
    TestbedConfig cfg;
    cfg.computeBlades = 1;
    cfg.memoryBlades = 1;
    cfg.threadsPerBlade = threads;
    cfg.bladeBytes = 1ull << 20;
    cfg.smart = presets::full();
    return cfg;
}

/** Endless 64 B READ loop; counts successes and surfaced errors. */
struct LoopStats
{
    std::uint64_t ops = 0;
    std::uint64_t errors = 0;
};

Task
readLoop(SmartCtx &ctx, LoopStats &st)
{
    std::uint8_t *buf = ctx.scratch(64);
    for (;;) {
        co_await ctx.access(ctx.runtime().ptr(0, 0),
                            AccessOp::read(MemSpan{buf, 64}));
        if (ctx.failed()) {
            ++st.errors;
            ctx.clearError();
        } else {
            ++st.ops;
        }
    }
}

} // namespace

TEST(FaultInjection, ErrorCompletionIsRetriedToSuccess)
{
    Testbed tb(smallConfig());
    sim::FaultPlane &fp = tb.faultPlane(1);
    LoopStats st;
    tb.compute(0).spawnWorker(
        0, [&st](SmartCtx &ctx) { return readLoop(ctx, st); });
    fp.oneShot(sim::usec(50), sim::FaultKind::CompletionError, "cb0.rnic");
    tb.sim().runUntil(sim::msec(2));

    EXPECT_EQ(fp.injectedCount(), 1u);
    SmartThread &thr = tb.compute(0).thread(0);
    EXPECT_GE(thr.wrErrors.value(), 1u);
    EXPECT_GE(thr.verbRetries.value(), 1u);
    // The retry absorbed the fault: the application never saw it.
    EXPECT_EQ(st.errors, 0u);
    EXPECT_GT(st.ops, 100u);
}

TEST(FaultInjection, ExhaustedRetriesSurfaceTypedError)
{
    Testbed tb(smallConfig());
    sim::FaultPlane &fp = tb.faultPlane(2);

    VerbError seen;
    bool done = false;
    tb.compute(0).spawnWorker(0, [&](SmartCtx &ctx) -> Task {
        std::uint8_t *buf = ctx.scratch(64);
        co_await ctx.access(ctx.runtime().ptr(0, 0),
                            AccessOp::read(MemSpan{buf, 64}));
        seen = ctx.lastError();
        done = true;
    });
    // The blade is dead before the op starts and never comes back.
    fp.inject(sim::FaultKind::Crash, "mb0");
    tb.sim().runUntil(sim::msec(50));

    ASSERT_TRUE(done);
    EXPECT_EQ(seen.kind, VerbError::Kind::RetriesExhausted);
    EXPECT_EQ(seen.status, rnic::WcStatus::RetryExceeded);
    // The whole budget was spent before the error surfaced.
    EXPECT_EQ(tb.compute(0).thread(0).verbRetries.value(), kMaxVerbRetries);
    EXPECT_EQ(tb.compute(0).thread(0).verbExhausted.value(), 1u);
}

TEST(FaultInjection, RnicResetReconnectsQpsAndWorkContinues)
{
    Testbed tb(smallConfig());
    sim::FaultPlane &fp = tb.faultPlane(3);
    LoopStats st;
    tb.compute(0).spawnWorker(
        0, [&st](SmartCtx &ctx) { return readLoop(ctx, st); });
    fp.oneShot(sim::usec(100), sim::FaultKind::RnicReset, "cb0.rnic");
    tb.sim().runUntil(sim::usec(100));
    std::uint64_t ops_before = st.ops;
    tb.sim().runUntil(sim::msec(2));

    SmartThread &thr = tb.compute(0).thread(0);
    EXPECT_GE(thr.qpReconnects.value(), 1u);
    EXPECT_GE(thr.wrErrors.value(), 1u); // flushed in error by the reset
    EXPECT_EQ(st.errors, 0u);            // ...but retried transparently
    EXPECT_GT(st.ops, ops_before + 100); // throughput resumed
}

TEST(FaultInjection, BladeRestartInvalidatesMr)
{
    Testbed tb(smallConfig());
    sim::FaultPlane &fp = tb.faultPlane(4);
    memblade::MemoryBlade &mb = tb.memBlade(0);
    std::uint32_t rkey_before = mb.rkey();

    LoopStats st;
    tb.compute(0).spawnWorker(
        0, [&st](SmartCtx &ctx) { return readLoop(ctx, st); });
    fp.oneShot(sim::usec(100), sim::FaultKind::Crash, "mb0",
               sim::usec(200)); // restarts at t = 300 us
    tb.sim().runUntil(sim::msec(1));
    std::uint64_t ops_mid = st.ops;
    tb.sim().runUntil(sim::msec(3));

    // The restart re-registered the MR under a fresh rkey...
    EXPECT_EQ(mb.incarnation(), 1u);
    EXPECT_NE(mb.rkey(), rkey_before);
    // ...and the runtime picked it up: ops keep completing afterwards.
    EXPECT_GT(st.ops, ops_mid + 100);
}

namespace {

struct RunStats
{
    std::uint64_t ops = 0;
    std::uint64_t wrErrors = 0;
    std::uint64_t injected = 0;
    std::uint64_t events = 0;

    bool
    operator==(const RunStats &o) const
    {
        return ops == o.ops && wrErrors == o.wrErrors &&
               injected == o.injected && events == o.events;
    }
};

RunStats
faultyRun(std::uint64_t seed)
{
    Testbed tb(smallConfig(2));
    sim::FaultPlane &fp = tb.faultPlane(seed);
    fp.probabilistic("cb0.rnic", 0.02);
    fp.periodic(sim::usec(200), sim::usec(500), sim::FaultKind::NicStall,
                "cb0.rnic", sim::usec(20));
    fp.oneShot(sim::msec(1), sim::FaultKind::Crash, "mb0", sim::usec(100));

    std::vector<LoopStats> st(2);
    for (std::uint32_t t = 0; t < 2; ++t) {
        tb.compute(0).spawnWorker(t, [&st, t](SmartCtx &ctx) {
            return readLoop(ctx, st[t]);
        });
    }
    tb.sim().runUntil(sim::msec(3));

    RunStats r;
    for (std::uint32_t t = 0; t < 2; ++t) {
        r.ops += st[t].ops;
        r.wrErrors += tb.compute(0).thread(t).wrErrors.value();
    }
    r.injected = fp.injectedCount();
    r.events = tb.sim().eventsScheduled();
    return r;
}

} // namespace

TEST(FaultInjection, FaultyRunIsDeterministicUnderFixedSeed)
{
    RunStats a = faultyRun(7);
    RunStats b = faultyRun(7);
    EXPECT_TRUE(a == b)
        << "ops " << a.ops << "/" << b.ops << ", errors " << a.wrErrors
        << "/" << b.wrErrors << ", injected " << a.injected << "/"
        << b.injected << ", events " << a.events << "/" << b.events;
    // The schedule actually exercised the fault machinery.
    EXPECT_GT(a.injected, 2u);
    EXPECT_GT(a.wrErrors, 0u);
    EXPECT_GT(a.ops, 0u);
}

TEST(FaultInjectionDeathTest, ProbabilisticErrorsNeedAnInitiatorPath)
{
    // A memory blade only responds: it completes no work requests of its
    // own, so a completion-error rate on it would never fire.
    EXPECT_DEATH(
        {
            Testbed tb(smallConfig());
            tb.faultPlane(1).probabilistic("mb0", 0.1);
        },
        "no injected-error path");
}
