/**
 * @file
 * Unit tests for the SMART framework: the programming interface
 * (read/write/cas/faa/postSend/sync/backoffCasSync), Algorithm-1 credit
 * throttling, the conflict controller, coroutine throttling, and the
 * per-policy RDMA resource allocation.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "harness/testbed.hpp"
#include "smart/backoff.hpp"
#include "smart/smart_ctx.hpp"

using namespace smart;
using namespace smart::harness;
using sim::Task;
using sim::Time;

// ------------------------------------------------------- pure components

TEST(Backoff, TruncatedExponentialFormula)
{
    sim::Rng rng(1);
    // attempt 0: t0 + rand(t0) in [t0, 2 t0)
    for (int i = 0; i < 100; ++i) {
        std::uint64_t t = backoffCycles(4096, 4096 << 10, 0, rng);
        EXPECT_GE(t, 4096u);
        EXPECT_LT(t, 2 * 4096u);
    }
    // attempt 3: 8 t0 + rand(t0)
    for (int i = 0; i < 100; ++i) {
        std::uint64_t t = backoffCycles(4096, 4096 << 10, 3, rng);
        EXPECT_GE(t, 8 * 4096u);
        EXPECT_LT(t, 9 * 4096u);
    }
}

TEST(Backoff, TruncatesAtTmax)
{
    sim::Rng rng(2);
    std::uint64_t tmax = 4096 * 4;
    for (int i = 0; i < 100; ++i) {
        std::uint64_t t = backoffCycles(4096, tmax, 20, rng);
        EXPECT_GE(t, tmax);
        EXPECT_LT(t, tmax + 4096);
    }
}

TEST(Backoff, HugeAttemptDoesNotOverflow)
{
    sim::Rng rng(3);
    std::uint64_t t = backoffCycles(4096, 4096ull << 10, 1000, rng);
    EXPECT_GE(t, 4096ull << 10);
}

TEST(Backoff, ExtremeCycleValuesSaturateInsteadOfWrapping)
{
    // Regression: t0 << shift wrapped for t0 >= 2^32 at the shift clamp
    // (32), collapsing the backoff to a near-zero delay exactly when the
    // configured unit was largest.
    sim::Rng rng(4);
    std::uint64_t t0 = 1ull << 40;
    std::uint64_t tmax = 1ull << 50;
    for (int i = 0; i < 100; ++i) {
        std::uint64_t t = backoffCycles(t0, tmax, 32, rng);
        EXPECT_GE(t, tmax);
        EXPECT_LT(t, tmax + t0);
    }
    // t + rand(t0) must saturate, not wrap past UINT64_MAX.
    std::uint64_t huge = ~std::uint64_t{0};
    for (int i = 0; i < 100; ++i)
        EXPECT_GE(backoffCycles(huge, huge, 5, rng), huge - 1);
}

TEST(Backoff, DecorrelatedJitterSaturatesAtExtremes)
{
    // Regression: prev * 3 wrapped for prev > UINT64_MAX / 3, collapsing
    // the draw interval and freezing the jitter at its floor.
    sim::Rng rng(5);
    std::uint64_t tmax = ~std::uint64_t{0};
    std::uint64_t prev = tmax / 2; // prev * 3 would wrap
    std::uint64_t t = decorrelatedJitterCycles(4096, tmax, prev, rng);
    EXPECT_GE(t, 4096u);
    EXPECT_EQ(prev, t);
    // Bounded tmax: draws stay within [t0, tmax] even from a huge prev.
    std::uint64_t cap = 1ull << 30;
    prev = ~std::uint64_t{0} / 2;
    for (int i = 0; i < 100; ++i) {
        std::uint64_t d = decorrelatedJitterCycles(4096, cap, prev, rng);
        EXPECT_GE(d, 4096u);
        EXPECT_LE(d, cap);
    }
}

TEST(ConflictController, HighGammaShrinksCmaxThenGrowsTmax)
{
    ConflictController c(4096, 1024, 8, 0.5, 0.1);
    EXPECT_EQ(c.cmax(), 8u);
    EXPECT_EQ(c.tmaxCycles(), 4096u);
    c.update(0.9, true, true);
    EXPECT_EQ(c.cmax(), 4u);
    c.update(0.9, true, true);
    c.update(0.9, true, true);
    EXPECT_EQ(c.cmax(), 1u);
    std::uint64_t tmax_before = c.tmaxCycles();
    c.update(0.9, true, true); // cmax at lower bound: tmax doubles
    EXPECT_EQ(c.cmax(), 1u);
    EXPECT_EQ(c.tmaxCycles(), tmax_before * 2);
}

TEST(ConflictController, LowGammaExpandsCmaxThenShrinksTmax)
{
    ConflictController c(4096, 1024, 8, 0.5, 0.1);
    for (int i = 0; i < 5; ++i)
        c.update(0.9, true, true); // drive down + tmax up
    std::uint64_t high_tmax = c.tmaxCycles();
    EXPECT_GT(high_tmax, 4096u);
    for (int i = 0; i < 5; ++i)
        c.update(0.0, true, true);
    EXPECT_EQ(c.cmax(), 8u);
    EXPECT_LT(c.tmaxCycles(), high_tmax);
}

TEST(ConflictController, TmaxClampedToRange)
{
    ConflictController c(4096, 4, 8, 0.5, 0.1);
    for (int i = 0; i < 20; ++i)
        c.update(0.9, false, true); // no coro throttle: tmax moves directly
    EXPECT_EQ(c.tmaxCycles(), 4096u * 4);
    for (int i = 0; i < 20; ++i)
        c.update(0.0, false, true);
    EXPECT_EQ(c.tmaxCycles(), 4096u);
}

TEST(ConflictController, MidGammaIsStable)
{
    ConflictController c(4096, 1024, 8, 0.5, 0.1);
    c.update(0.3, true, true);
    EXPECT_EQ(c.cmax(), 8u);
    EXPECT_EQ(c.tmaxCycles(), 4096u);
}

TEST(ConflictController, GammaExactlyAtWatermarksMovesNothing)
{
    // The comparisons are strict: sitting exactly on either water mark
    // is the dead band, not a trigger.
    ConflictController c(4096, 1024, 8, 0.5, 0.1);
    c.update(0.5, true, true); // == gamma_high
    EXPECT_EQ(c.cmax(), 8u);
    EXPECT_EQ(c.tmaxCycles(), 4096u);
    c.update(0.1, true, true); // == gamma_low
    EXPECT_EQ(c.cmax(), 8u);
    EXPECT_EQ(c.tmaxCycles(), 4096u);
    EXPECT_DOUBLE_EQ(c.lastGamma(), 0.1);
}

TEST(ConflictController, CmaxFloorsAtOne)
{
    ConflictController c(4096, 1024, 8, 0.5, 0.1);
    for (int i = 0; i < 50; ++i)
        c.update(0.9, true, false); // tmax frozen: only cmax can move
    EXPECT_EQ(c.cmax(), 1u);
    EXPECT_EQ(c.tmaxCycles(), 4096u);
}

TEST(ConflictController, TmaxCapsAtTm)
{
    ConflictController c(4096, 8, 8, 0.5, 0.1);
    for (int i = 0; i < 50; ++i)
        c.update(0.9, true, true);
    EXPECT_EQ(c.cmax(), 1u);
    EXPECT_EQ(c.tmaxCycles(), 4096u * 8); // t_max never exceeds t_M
}

TEST(ConflictController, ExpansionGrowsCmaxBeforeShrinkingTmax)
{
    ConflictController c(4096, 1024, 8, 0.5, 0.1);
    for (int i = 0; i < 10; ++i)
        c.update(0.9, true, true); // cmax -> 1, tmax well above t0
    std::uint64_t contracted_tmax = c.tmaxCycles();
    ASSERT_EQ(c.cmax(), 1u);
    ASSERT_GT(contracted_tmax, 4096u);
    // Recovery: each low-gamma window doubles c_max while t_max stays
    // put; only once c_max is back at its upper bound does t_max halve.
    for (std::uint32_t expect = 2; expect <= 8; expect *= 2) {
        c.update(0.0, true, true);
        EXPECT_EQ(c.cmax(), expect);
        EXPECT_EQ(c.tmaxCycles(), contracted_tmax);
    }
    c.update(0.0, true, true);
    EXPECT_EQ(c.cmax(), 8u);
    EXPECT_EQ(c.tmaxCycles(), contracted_tmax / 2);
}

TEST(CoroGate, EnforcesCapacity)
{
    sim::Simulator sim;
    sim::Resource sem(sim, 2);
    int running = 0;
    int peak = 0;
    auto worker = [&](sim::Resource &s) -> Task {
        co_await s.acquire();
        ++running;
        peak = std::max(peak, running);
        co_await sim.delay(10);
        --running;
        s.release();
    };
    for (int i = 0; i < 6; ++i)
        sim.spawn(worker(sem));
    sim.run();
    EXPECT_EQ(peak, 2);
    EXPECT_EQ(sim.now(), 30u);
}

TEST(CoroGate, CapacityIncreaseAdmitsWaiters)
{
    sim::Simulator sim;
    sim::Resource sem(sim, 1);
    int running = 0;
    int peak = 0;
    auto worker = [&](sim::Resource &s) -> Task {
        co_await s.acquire();
        ++running;
        peak = std::max(peak, running);
        co_await sim.delay(100);
        --running;
        s.release();
    };
    for (int i = 0; i < 4; ++i)
        sim.spawn(worker(sem));
    sim.schedule(10, [&] { sem.setCapacity(4); });
    sim.run();
    EXPECT_EQ(peak, 4);
}

// ----------------------------------------------------- runtime & SmartCtx

namespace {

TestbedConfig
smallTestbed(const SmartConfig &smart, std::uint32_t threads = 2)
{
    TestbedConfig cfg;
    cfg.computeBlades = 1;
    cfg.memoryBlades = 2;
    cfg.threadsPerBlade = threads;
    cfg.bladeBytes = 1 << 20;
    cfg.smart = smart;
    return cfg;
}

} // namespace

TEST(SmartCtxOps, ReadWriteRoundTrip)
{
    Testbed tb(smallTestbed(presets::full()));
    bool done = false;
    tb.compute(0).spawnWorker(0, [&](SmartCtx &ctx) -> Task {
        std::uint64_t off = tb.memBlade(0).alloc(64);
        RemotePtr p = ctx.runtime().ptr(0, off);
        char out[16] = "hello smart";
        co_await ctx.access(p, AccessOp::write(ConstMemSpan{out, 12}));
        char in[16] = {};
        co_await ctx.access(p, AccessOp::read(MemSpan{in, 12}));
        EXPECT_EQ(std::memcmp(in, out, 12), 0);
        done = true;
    });
    tb.sim().runUntil(sim::msec(10));
    EXPECT_TRUE(done);
}

TEST(SmartCtxOps, WriteBufferReusableImmediately)
{
    // write() copies into scratch at staging time.
    Testbed tb(smallTestbed(presets::full()));
    bool done = false;
    tb.compute(0).spawnWorker(0, [&](SmartCtx &ctx) -> Task {
        std::uint64_t off = tb.memBlade(0).alloc(64);
        RemotePtr p = ctx.runtime().ptr(0, off);
        char buf[8] = "AAAAAAA";
        ctx.write(p, ConstMemSpan{buf, 8});
        std::memset(buf, 'B', 8); // clobber before post
        co_await ctx.postSend();
        co_await ctx.sync();
        char in[8] = {};
        co_await ctx.access(p, AccessOp::read(MemSpan{in, 8}));
        EXPECT_EQ(in[0], 'A');
        done = true;
    });
    tb.sim().runUntil(sim::msec(10));
    EXPECT_TRUE(done);
}

TEST(SmartCtxOps, BatchAcrossBladesCompletes)
{
    Testbed tb(smallTestbed(presets::full()));
    bool done = false;
    tb.compute(0).spawnWorker(0, [&](SmartCtx &ctx) -> Task {
        std::uint64_t off0 = tb.memBlade(0).alloc(64);
        std::uint64_t off1 = tb.memBlade(1).alloc(64);
        std::uint8_t in0[8], in1[8];
        ctx.read(ctx.runtime().ptr(0, off0), MemSpan{in0, 8});
        ctx.read(ctx.runtime().ptr(1, off1), MemSpan{in1, 8});
        co_await ctx.postSend();
        co_await ctx.sync();
        done = true;
    });
    tb.sim().runUntil(sim::msec(10));
    EXPECT_TRUE(done);
}

TEST(SmartCtxOps, CasAccessReportsSuccessAndOldValue)
{
    Testbed tb(smallTestbed(presets::full()));
    int phase = 0;
    tb.compute(0).spawnWorker(0, [&](SmartCtx &ctx) -> Task {
        std::uint64_t off = tb.memBlade(0).alloc(8);
        std::uint64_t seed = 5;
        std::memcpy(tb.memBlade(0).bytesAt(off), &seed, 8);
        RemotePtr p = ctx.runtime().ptr(0, off);

        std::uint64_t old = 0;
        bool ok = false;
        co_await ctx.access(p, AccessOp::cas(5, 6, old, ok));
        EXPECT_TRUE(ok);
        EXPECT_EQ(old, 5u);
        phase = 1;

        co_await ctx.access(p, AccessOp::cas(5, 7, old, ok)); // now holds 6
        EXPECT_FALSE(ok);
        EXPECT_EQ(old, 6u);
        phase = 2;
    });
    tb.sim().runUntil(sim::msec(10));
    EXPECT_EQ(phase, 2);
}

TEST(SmartCtxOps, BypassAccessRoundTrip)
{
    // The Bypass access forms the removed *Sync shims lowered to: every
    // access goes straight to the wire, no cache interaction.
    Testbed tb(smallTestbed(presets::full()));
    bool done = false;
    tb.compute(0).spawnWorker(0, [&](SmartCtx &ctx) -> Task {
        std::uint64_t off = tb.memBlade(0).alloc(64);
        std::uint64_t seed = 5;
        std::memcpy(tb.memBlade(0).bytesAt(off), &seed, 8);
        RemotePtr p = ctx.runtime().ptr(0, off);
        char out[16] = "legacy";
        co_await ctx.access(p + 16, AccessOp::write(ConstMemSpan{out, 8}),
                            CachePolicy::Bypass);
        char in[16] = {};
        co_await ctx.access(p + 16, AccessOp::read(MemSpan{in, 8}),
                            CachePolicy::Bypass);
        EXPECT_EQ(std::memcmp(in, out, 8), 0);
        std::uint64_t old = 0;
        bool ok = false;
        co_await ctx.access(p, AccessOp::cas(5, 6, old, ok));
        EXPECT_TRUE(ok);
        EXPECT_EQ(old, 5u);
        done = true;
    });
    tb.sim().runUntil(sim::msec(10));
    EXPECT_TRUE(done);
}

TEST(SmartCtxOps, FaaAccumulates)
{
    Testbed tb(smallTestbed(presets::full()));
    bool done = false;
    tb.compute(0).spawnWorker(0, [&](SmartCtx &ctx) -> Task {
        std::uint64_t off = tb.memBlade(0).alloc(8);
        std::memset(tb.memBlade(0).bytesAt(off), 0, 8);
        RemotePtr p = ctx.runtime().ptr(0, off);
        std::uint64_t result = 0;
        for (int i = 0; i < 4; ++i) {
            ctx.faa(p, 10, &result);
            co_await ctx.postSend();
            co_await ctx.sync();
        }
        EXPECT_EQ(result, 30u); // old value before the 4th add
        std::uint64_t final_val = 0;
        std::memcpy(&final_val, tb.memBlade(0).bytesAt(off), 8);
        EXPECT_EQ(final_val, 40u);
        done = true;
    });
    tb.sim().runUntil(sim::msec(10));
    EXPECT_TRUE(done);
}

TEST(SmartCtxOps, BackoffCasRetryLoopConverges)
{
    // Two coroutines increment a remote counter via CAS 50 times each;
    // with backoff every increment must eventually land: final == 100.
    SmartConfig cfg = presets::full();
    Testbed tb(smallTestbed(cfg));
    std::uint64_t off = tb.memBlade(0).alloc(8);
    std::memset(tb.memBlade(0).bytesAt(off), 0, 8);
    int finished = 0;

    auto worker = [&](SmartCtx &ctx) -> Task {
        RemotePtr p = ctx.runtime().ptr(0, off);
        for (int i = 0; i < 50; ++i) {
            std::uint64_t cur = 0;
            co_await ctx.access(p, AccessOp::read(MemSpan::of(cur)));
            for (;;) {
                std::uint64_t old = 0;
                bool ok = false;
                co_await ctx.backoffCasSync(p, cur, cur + 1, old, ok);
                if (ok)
                    break;
                cur = old;
            }
        }
        ++finished;
    };
    tb.compute(0).spawnWorker(0, worker);
    tb.compute(0).spawnWorker(1, worker);
    tb.sim().runUntil(sim::msec(200));
    EXPECT_EQ(finished, 2);
    std::uint64_t final_val = 0;
    std::memcpy(&final_val, tb.memBlade(0).bytesAt(off), 8);
    EXPECT_EQ(final_val, 100u);
}

TEST(SmartCtxOps, OpGateLimitsConcurrentOperations)
{
    SmartConfig cfg = presets::full();
    cfg.corosPerThread = 4;
    Testbed tb(smallTestbed(cfg, 1));
    tb.compute(0).thread(0).coroGate().setCapacity(1);

    int inside = 0;
    int peak = 0;
    for (int c = 0; c < 4; ++c) {
        tb.compute(0).spawnWorker(0, [&](SmartCtx &ctx) -> Task {
            for (int i = 0; i < 3; ++i) {
                co_await ctx.opBegin();
                ++inside;
                peak = std::max(peak, inside);
                co_await ctx.compute(100);
                --inside;
                ctx.opEnd();
            }
        });
    }
    tb.sim().runUntil(sim::msec(5));
    EXPECT_EQ(peak, 1);
}

// ----------------------------------------------- Algorithm 1: throttling

TEST(Throttle, CreditsBoundOutstandingWrs)
{
    SmartConfig cfg = presets::workReqThrot();
    cfg.initialCmax = 4;
    cfg.cmaxCandidates = {4}; // freeze the epoch search at 4
    Testbed tb(smallTestbed(cfg, 1));

    std::uint64_t peak_owr = 0;
    bool running = true;
    tb.compute(0).spawnWorker(0, [&](SmartCtx &ctx) -> Task {
        std::uint8_t buf[32 * 8];
        for (int iter = 0; iter < 20; ++iter) {
            for (int i = 0; i < 32; ++i)
                ctx.read(ctx.runtime().ptr(0, 64 * i), MemSpan{buf + i * 8, 8});
            co_await ctx.postSend();
            co_await ctx.sync();
        }
        running = false;
    });
    // Posting is asynchronous (the thread flusher drains the buffer), so
    // sample the in-flight count continuously.
    struct Sampler
    {
        static Task
        run(Testbed &tb, std::uint64_t &peak, const bool &running)
        {
            while (running) {
                peak = std::max(peak, tb.compute(0).rnic().owrNow());
                co_await tb.sim().delay(200);
            }
        }
    };
    tb.sim().spawn(Sampler::run(tb, peak_owr, running));
    tb.sim().runUntil(sim::msec(20));
    // Credits cap in-flight WRs at C_max even though batches are 32 deep.
    EXPECT_LE(peak_owr, 4u);
    EXPECT_GT(peak_owr, 0u);
}

TEST(Throttle, CreditAccountingBalances)
{
    SmartConfig cfg = presets::workReqThrot();
    Testbed tb(smallTestbed(cfg, 1));
    bool done = false;
    tb.compute(0).spawnWorker(0, [&](SmartCtx &ctx) -> Task {
        std::uint8_t buf[64];
        for (int iter = 0; iter < 10; ++iter) {
            for (int i = 0; i < 8; ++i)
                ctx.read(ctx.runtime().ptr(0, 64 * i), MemSpan{buf + i * 8, 8});
            co_await ctx.postSend();
            co_await ctx.sync();
        }
        done = true;
    });
    tb.sim().runUntil(sim::msec(20));
    EXPECT_TRUE(done);
    SmartThread &thr = tb.compute(0).thread(0);
    // All credits returned once everything is synced.
    EXPECT_EQ(thr.credit(), static_cast<std::int64_t>(thr.cmax()));
}

TEST(Throttle, UpdateCmaxAdjustsCredits)
{
    SmartConfig cfg = presets::workReqThrot();
    Testbed tb(smallTestbed(cfg, 1));
    SmartThread &thr = tb.compute(0).thread(0);
    std::int64_t before = thr.credit();
    thr.updateCmax(thr.cmax() + 4);
    EXPECT_EQ(thr.credit(), before + 4);
    thr.updateCmax(thr.cmax() - 6);
    EXPECT_EQ(thr.credit(), before - 2);
}

TEST(Throttle, EpochLoopSettlesOnCandidate)
{
    SmartConfig cfg = presets::workReqThrot();
    cfg.cmaxCandidates = {4, 6, 8, 10, 12};
    TestbedConfig tcfg = smallTestbed(cfg, 4);
    Testbed tb(tcfg);
    for (std::uint32_t t = 0; t < 4; ++t) {
        tb.compute(0).spawnWorker(t, [&](SmartCtx &ctx) -> Task {
            std::uint8_t buf[256];
            for (;;) {
                for (int i = 0; i < 16; ++i)
                    ctx.read(ctx.runtime().ptr(0, 64 * i), MemSpan{buf + i * 8, 8});
                co_await ctx.postSend();
                co_await ctx.sync();
            }
        });
    }
    // One full update phase is 5 candidates x 8 ms = 40 ms.
    tb.sim().runUntil(sim::msec(60));
    std::uint32_t cmax = tb.compute(0).thread(0).cmax();
    bool is_candidate = false;
    for (std::uint32_t c : cfg.cmaxCandidates)
        is_candidate |= (cmax == c);
    EXPECT_TRUE(is_candidate);
}

// ------------------------------------------------------ policy plumbing

TEST(Policies, PerThreadDbGivesPrivateDoorbells)
{
    SmartConfig cfg = presets::thdResAlloc();
    TestbedConfig tcfg = smallTestbed(cfg, 8);
    Testbed tb(tcfg); // connect() asserts per-thread UAR uniqueness
    SUCCEED();
}

TEST(Policies, EveryPolicyCompletesOps)
{
    for (QpPolicy policy :
         {QpPolicy::SharedQp, QpPolicy::MultiplexedQp, QpPolicy::PerThreadQp,
          QpPolicy::PerThreadDb, QpPolicy::PerThreadContext}) {
        SmartConfig cfg = presets::baseline();
        cfg.qpPolicy = policy;
        TestbedConfig tcfg = smallTestbed(cfg, 4);
        Testbed tb(tcfg);
        int done = 0;
        for (std::uint32_t t = 0; t < 4; ++t) {
            tb.compute(0).spawnWorker(t, [&](SmartCtx &ctx) -> Task {
                std::uint8_t buf[64];
                for (int iter = 0; iter < 5; ++iter) {
                    for (int i = 0; i < 8; ++i)
                        ctx.read(ctx.runtime().ptr(i % 2, 64 * i),
                                 MemSpan{buf + i * 8, 8});
                    co_await ctx.postSend();
                    co_await ctx.sync();
                }
                ++done;
            });
        }
        tb.sim().runUntil(sim::msec(20));
        EXPECT_EQ(done, 4) << qpPolicyName(policy);
    }
}

TEST(Policies, PerThreadContextRegistersMrPerThread)
{
    SmartConfig cfg = presets::baseline();
    cfg.qpPolicy = QpPolicy::PerThreadContext;
    TestbedConfig tcfg = smallTestbed(cfg, 4);
    Testbed tb(tcfg);
    // 4 threads => at least 4 MTT-visible MR registrations on the client
    // RNIC (ids are distinct), plus whatever the blades registered.
    // Exercise: run some traffic, then check distinct translation keys
    // appeared (hit ratio < 1 in first accesses).
    int done = 0;
    tb.compute(0).spawnWorker(0, [&](SmartCtx &ctx) -> Task {
        std::uint8_t buf[8];
        co_await ctx.access(ctx.runtime().ptr(0, 0),
                            AccessOp::read(MemSpan{buf, 8}));
        ++done;
    });
    tb.sim().runUntil(sim::msec(5));
    EXPECT_EQ(done, 1);
}

TEST(Stats, RecordOpFillsHistogramsAndRetries)
{
    SmartConfig cfg = presets::full();
    Testbed tb(smallTestbed(cfg, 1));
    tb.compute(0).recordOp(1000, 0);
    tb.compute(0).recordOp(2000, 3);
    EXPECT_EQ(tb.compute(0).appOps.value(), 2u);
    EXPECT_EQ(tb.compute(0).totalRetries.value(), 3u);
    EXPECT_EQ(tb.compute(0).retryHist[0], 1u);
    EXPECT_EQ(tb.compute(0).retryHist[3], 1u);
}
