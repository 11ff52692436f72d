/**
 * @file
 * Sharded-engine tests: deterministic wire-delivery ordering under the
 * (dtime, srcId, seq) key; the lookahead-window protocol's edges (a
 * ping-pong spaced exactly one lookahead apart, caller sends between
 * phases, events at and just past the phase deadline); liveness when
 * shards go idle; shard-count invariance of a ShardGroup toy workload;
 * byte-identical full-stack Testbed output and span attribution across
 * shard counts; a work request's error path across shards; and teardown
 * with messages and work requests still in flight.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "harness/testbed.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/span.hpp"
#include "sim/wire.hpp"
#include "smart/smart_ctx.hpp"

using namespace smart;
using namespace smart::harness;
using sim::ShardGroup;
using sim::Simulator;
using sim::Task;
using sim::Time;
using sim::WireEndpoint;

namespace {

// ------------------------------------------------- wire delivery ordering

struct Push
{
    std::vector<std::string> *log;
    const char *tag;

    void operator()() { log->push_back(tag); }
};

TEST(WireOrdering, DeliversByTimeThenSourceThenSeq)
{
    Simulator sim;
    // Construction order fixes the srcId order: a's id < b's id.
    WireEndpoint a(sim);
    WireEndpoint b(sim);
    ASSERT_LT(a.srcId(), b.srcId());

    std::vector<std::string> log;
    b.send(sim, 1000, Push{&log, "b1"});
    a.send(sim, 1000, Push{&log, "a1"});
    a.send(sim, 500, Push{&log, "a0"});
    b.send(sim, 1000, Push{&log, "b2"});
    sim.runUntil(2000);

    ASSERT_EQ(log.size(), 4u);
    EXPECT_EQ(log[0], "a0"); // earliest dtime first
    EXPECT_EQ(log[1], "a1"); // same dtime: lower srcId wins
    EXPECT_EQ(log[2], "b1"); // same dtime + srcId: FIFO by seq
    EXPECT_EQ(log[3], "b2");
}

TEST(WireInbox, DeliveryOrderMatchesReferenceOnSeededSends)
{
    // Five sources send over 2000 ns of virtual time; each send lands
    // 250-330 ns later, mostly in send order per source (the RNIC egress
    // pattern), sometimes not, with frequent equal-dtime ties. Delivery
    // must follow (dtime, srcId, send order), exactly as a sort of the
    // send log says.
    struct Sent
    {
        Time dtime;
        std::uint32_t src;
        std::uint64_t order;
    };
    struct Log
    {
        std::vector<std::uint64_t> *out;
        std::uint64_t order;
        void operator()() { out->push_back(order); }
    };
    struct Senders
    {
        Simulator sim;
        std::vector<std::unique_ptr<WireEndpoint>> eps;
        std::vector<Time> last;
        sim::Rng rng{2024};
        std::vector<Sent> sent;
        std::vector<std::uint64_t> delivered;

        void
        sendBurst(Time t)
        {
            std::uint64_t n = rng.uniform(6);
            for (std::uint64_t k = 0; k < n; ++k) {
                std::size_t src = rng.uniform(eps.size());
                Time d = t + 250 + rng.uniform(4) * 20;
                if (rng.uniform(4) != 0)
                    d = std::max(d, last[src]); // mostly nondecreasing
                last[src] = std::max(last[src], d);
                std::uint64_t order = sent.size();
                sent.push_back({d, eps[src]->srcId(), order});
                eps[src]->send(sim, d, Log{&delivered, order});
            }
        }
    } st;
    for (int i = 0; i < 5; ++i)
        st.eps.push_back(std::make_unique<WireEndpoint>(st.sim));
    st.last.assign(st.eps.size(), 0);
    Senders *sp = &st;
    for (Time t = 0; t < 2000; t += 10)
        st.sim.scheduleAt(t, [sp, t] { sp->sendBurst(t); });
    st.sim.run();
    std::vector<Sent> ref = st.sent;
    std::stable_sort(ref.begin(), ref.end(),
                     [](const Sent &a, const Sent &b) {
                         if (a.dtime != b.dtime)
                             return a.dtime < b.dtime;
                         return a.src < b.src;
                     });
    std::vector<std::uint64_t> expected;
    for (const Sent &x : ref)
        expected.push_back(x.order);
    ASSERT_GT(st.sent.size(), 300u);
    EXPECT_EQ(st.delivered, expected);
}

TEST(WireOrdering, SameSimDeliveryInterleavesWithLocalEvents)
{
    Simulator sim;
    WireEndpoint ep(sim);
    std::vector<std::string> log;
    sim.scheduleAt(999, [&log] { log.push_back("local999"); });
    sim.scheduleAt(1001, [&log] { log.push_back("local1001"); });
    ep.send(sim, 1000, Push{&log, "wire1000"});
    sim.runUntil(2000);
    ASSERT_EQ(log.size(), 3u);
    EXPECT_EQ(log[0], "local999");
    EXPECT_EQ(log[1], "wire1000");
    EXPECT_EQ(log[2], "local1001");
}

TEST(WireInbox, DestroysParkedMessages)
{
    auto token = std::make_shared<int>(0);
    std::weak_ptr<int> watch = token;
    {
        Simulator sim;
        WireEndpoint ep(sim);
        ep.send(sim, 1000, [keep = std::move(token)] { ++*keep; });
        ASSERT_FALSE(sim.wireInbox().empty());
        ASSERT_FALSE(watch.expired());
    }
    // The message never reached its delivery time: destroying the
    // simulator's inbox must still destroy it, and with it everything its
    // callable owns.
    EXPECT_TRUE(watch.expired());
}

// ------------------------------------------------ lookahead-window edges

constexpr Time kLookahead = 250;

/** Shared state of a ring ping-pong: hop k lands on shard k % n. */
struct PingPong
{
    ShardGroup *group;
    std::vector<std::unique_ptr<WireEndpoint>> eps; // one per shard
    std::vector<Time> arrived;                      // per hop
};

struct Hop
{
    PingPong *pp;
    std::uint32_t hop;

    void
    operator()()
    {
        const std::uint32_t n = pp->group->size();
        Simulator &here = pp->group->shard(hop % n);
        pp->arrived[hop] = here.now();
        if (hop + 1 < pp->arrived.size())
            pp->eps[hop % n]->send(pp->group->shard((hop + 1) % n),
                                   here.now() + kLookahead,
                                   Hop{pp, hop + 1});
    }
};

TEST(ShardWindows, PingPongOneLookaheadApartRunsAtEachDtime)
{
    for (std::uint32_t n : {2u, 3u, 8u}) {
        ShardGroup group(n, kLookahead);
        PingPong pp{&group, {}, std::vector<Time>(400, sim::kTimeNever)};
        for (std::uint32_t s = 0; s < n; ++s)
            pp.eps.push_back(std::make_unique<WireEndpoint>(group.shard(s)));
        // Every hop is sent at the start of a window and lands exactly
        // at the start of the next one.
        pp.eps[n - 1]->send(group.shard(0), kLookahead, Hop{&pp, 0});
        group.runUntil(kLookahead * (pp.arrived.size() + 1));
        for (std::size_t k = 0; k < pp.arrived.size(); ++k)
            ASSERT_EQ(pp.arrived[k], kLookahead * (k + 1))
                << "hop " << k << " at " << n << " shards";
    }
}

struct Stamp
{
    Simulator *sim;
    Time *at;

    void operator()() { *at = sim->now(); }
};

TEST(ShardWindows, CallerSendBetweenPhasesRunsInNextPhase)
{
    for (std::uint32_t n : {2u, 3u, 8u}) {
        ShardGroup group(n, kLookahead);
        WireEndpoint ep(group.shard(0));
        Simulator &dst = group.shard(n - 1);
        group.runUntil(1000);

        Time at = sim::kTimeNever;
        ep.send(dst, 1000 + kLookahead, Stamp{&dst, &at});
        EXPECT_EQ(at, sim::kTimeNever) << n << " shards";
        group.runUntil(2000);
        EXPECT_EQ(at, 1000 + kLookahead) << n << " shards";

        // A send past the next deadline waits out a phase with no work.
        at = sim::kTimeNever;
        ep.send(dst, 5000, Stamp{&dst, &at});
        group.runUntil(3000);
        EXPECT_EQ(at, sim::kTimeNever) << n << " shards";
        for (std::uint32_t s = 0; s < n; ++s)
            EXPECT_EQ(group.shard(s).now(), 3000u);
        group.runUntil(6000);
        EXPECT_EQ(at, 5000u) << n << " shards";
    }
}

/** A sender on shard src and its destination shard. */
struct Route
{
    WireEndpoint *ep;
    Simulator *src;
    Simulator *dst;
};

/** When run, sends one delivery along @p route a lookahead later. */
struct SendLater
{
    const Route *route;
    Time *at;

    void
    operator()()
    {
        const Route &r = *route;
        r.ep->send(*r.dst, r.src->now() + kLookahead, Stamp{r.dst, at});
    }
};

TEST(ShardWindows, DeadlineIsInclusiveForEventsAndDeliveries)
{
    constexpr Time kDeadline = 10'000;
    for (std::uint32_t n : {2u, 3u, 8u}) {
        ShardGroup group(n, kLookahead);
        WireEndpoint ep(group.shard(0));
        Simulator &dst = group.shard(n - 1);
        Time local_at = sim::kTimeNever;
        Time on_deadline = sim::kTimeNever;
        Time past_deadline = sim::kTimeNever;
        const Route route{&ep, &group.shard(0), &dst};
        dst.scheduleAt(kDeadline, Stamp{&dst, &local_at});
        group.shard(0).scheduleAt(kDeadline - kLookahead,
                                  SendLater{&route, &on_deadline});
        group.shard(0).scheduleAt(kDeadline + 1 - kLookahead,
                                  SendLater{&route, &past_deadline});

        group.runUntil(kDeadline);
        EXPECT_EQ(local_at, kDeadline) << n << " shards";
        EXPECT_EQ(on_deadline, kDeadline) << n << " shards";
        EXPECT_EQ(past_deadline, sim::kTimeNever) << n << " shards";
        for (std::uint32_t s = 0; s < n; ++s)
            EXPECT_EQ(group.shard(s).now(), kDeadline);

        group.runUntil(kDeadline + 1);
        EXPECT_EQ(past_deadline, kDeadline + 1) << n << " shards";
    }
}

// ------------------------------------------------------ idle-shard liveness

Task
tickLooper(Simulator &sim, std::uint64_t *ticks)
{
    for (;;) {
        co_await sim.delay(100);
        ++*ticks;
    }
}

struct Bump
{
    std::uint64_t *counter;

    void operator()() { ++*counter; }
};

Task
pingEvery(Simulator &sim, WireEndpoint &ep, Simulator &dst,
          std::uint64_t *delivered)
{
    for (;;) {
        co_await sim.delay(400);
        ep.send(dst, sim.now() + 250, Bump{delivered});
    }
}

TEST(ShardGroupLiveness, CompletesWithIdleShard)
{
    // Shard 1 has no local work at all: the busy shard must not stall
    // waiting on an idle neighbour.
    ShardGroup group(2, 250);
    std::uint64_t ticks = 0;
    group.shard(0).spawn(tickLooper(group.shard(0), &ticks));
    group.runUntil(sim::msec(1));
    EXPECT_EQ(group.shard(0).now(), sim::msec(1));
    EXPECT_EQ(group.shard(1).now(), sim::msec(1));
    EXPECT_GE(ticks, 1'000'000u / 100u - 1);
}

TEST(ShardGroupLiveness, DeliversIntoOtherwiseIdleShard)
{
    ShardGroup group(2, 250);
    std::uint64_t delivered = 0;
    auto ep = std::make_unique<WireEndpoint>(group.shard(0));
    group.shard(0).spawn(
        pingEvery(group.shard(0), *ep, group.shard(1), &delivered));
    group.runUntil(sim::msec(1));
    // 1 ms / 400 ns cadence, delivery 250 ns later: ~2499 arrive in time.
    EXPECT_GE(delivered, 2'400u);
}

// --------------------------------------- shard-count-invariant toy group

/** Total events processed by an 8-blade looper+pinger toy on N shards. */
std::pair<std::uint64_t, std::uint64_t>
runToy(std::uint32_t nshards)
{
    constexpr std::uint32_t kBlades = 8;
    ShardGroup group(nshards, 250);
    std::vector<std::uint64_t> ticks(kBlades, 0);
    std::vector<std::uint64_t> delivered(kBlades, 0);
    std::vector<std::unique_ptr<WireEndpoint>> eps;
    for (std::uint32_t b = 0; b < kBlades; ++b)
        eps.push_back(
            std::make_unique<WireEndpoint>(group.shard(b % group.size())));
    for (std::uint32_t b = 0; b < kBlades; ++b) {
        Simulator &s = group.shard(b % group.size());
        s.spawn(tickLooper(s, &ticks[b]));
        std::uint32_t nb = (b + 1) % kBlades;
        s.spawn(pingEvery(s, *eps[b], group.shard(nb % group.size()),
                          &delivered[nb]));
    }
    group.runUntil(sim::msec(1));
    std::uint64_t events = 0;
    for (std::uint32_t s = 0; s < group.size(); ++s)
        events += group.shard(s).eventsProcessed();
    std::uint64_t total_delivered = 0;
    for (std::uint64_t d : delivered)
        total_delivered += d;
    return {events, total_delivered};
}

TEST(ShardGroupDeterminism, EventAndDeliveryTotalsMatchSingleShard)
{
    auto [e1, d1] = runToy(1);
    EXPECT_GT(e1, 0u);
    EXPECT_GT(d1, 0u);
    for (std::uint32_t n : {2u, 4u, 8u}) {
        auto [en, dn] = runToy(n);
        EXPECT_EQ(en, e1) << n << " shards changed the event total";
        EXPECT_EQ(dn, d1) << n << " shards changed the delivery total";
    }
}

// ------------------------------------------- full-stack Testbed identity

Task
accessWorker(SmartCtx &ctx, std::uint64_t &ops)
{
    SmartRuntime &rt = ctx.runtime();
    std::uint8_t *buf = ctx.scratch(64);
    std::uint32_t i = ctx.thread().id() * 16 + ctx.coroIndex();
    for (;;) {
        co_await ctx.opBegin();
        // Alternate target blades so traffic crosses shards.
        RemotePtr p = rt.ptr(i % 2, 64 * (i % 512));
        if (i % 3 == 0) {
            co_await ctx.access(p, AccessOp::write(ConstMemSpan{buf, 64}));
        } else {
            co_await ctx.access(p, AccessOp::read(MemSpan{buf, 64}));
        }
        if (ctx.failed())
            ctx.clearError();
        ctx.opEnd();
        ++ops;
        ++i;
    }
}

/** Fingerprint of one full-stack run. */
struct StackRun
{
    std::string snapshot;
    std::string spans; // attribution JSON; empty when spans are off
    std::uint64_t ops = 0;
};

/**
 * Run the full SMART stack on @p shards shards, tracing every
 * @p span_every-th op (0 = spans off); return a fingerprint.
 */
StackRun
runStack(std::uint32_t shards, std::uint32_t span_every = 0)
{
    TestbedConfig cfg;
    cfg.computeBlades = 2;
    cfg.memoryBlades = 2;
    cfg.threadsPerBlade = 2;
    cfg.bladeBytes = 1ull << 20;
    cfg.smart = presets::full();
    cfg.smart.corosPerThread = 2;
    cfg.shards = shards;
    cfg.spanSampleEvery = span_every;
    Testbed tb(cfg);
    std::vector<std::uint64_t> ops(
        tb.numComputeBlades() * cfg.threadsPerBlade * 2, 0);
    std::size_t w = 0;
    for (std::uint32_t c = 0; c < tb.numComputeBlades(); ++c) {
        SmartRuntime &rt = tb.compute(c);
        for (std::uint32_t t = 0; t < rt.numThreads(); ++t) {
            for (std::uint32_t k = 0; k < 2; ++k) {
                std::uint64_t *slot = &ops[w++];
                rt.spawnWorker(t, [slot](SmartCtx &ctx) {
                    return accessWorker(ctx, *slot);
                });
            }
        }
    }
    tb.runUntil(sim::msec(2));
    std::uint64_t total_ops = 0;
    for (std::uint64_t o : ops)
        total_ops += o;
    EXPECT_GT(total_ops, 0u);
    StackRun run{tb.snapshot().toJson().dump(), {}, total_ops};
    if (sim::SpanTracer *sp = tb.mergedSpanTracer())
        run.spans = sp->attribution().dump();
    return run;
}

TEST(TestbedSharding, ByteIdenticalAcrossShardCounts)
{
    StackRun one = runStack(1);
    StackRun four = runStack(4);
    EXPECT_EQ(one.ops, four.ops);
    EXPECT_EQ(one.snapshot, four.snapshot);
}

TEST(TestbedSharding, SpanAttributionIdenticalAcrossShardCounts)
{
    // Memory blades record their responder-side stages (DMA, MTT, the
    // response link) on their own shard; the merged attribution must
    // still charge them to the issuing op's thread.
    StackRun one = runStack(1, 1);
    StackRun three = runStack(3, 1);
    ASSERT_FALSE(one.spans.empty());
    EXPECT_EQ(one.snapshot, three.snapshot);
    EXPECT_EQ(one.spans, three.spans);
}

Task
readWorker(SmartCtx &ctx)
{
    SmartRuntime &rt = ctx.runtime();
    std::uint8_t *buf = ctx.scratch(64);
    std::uint32_t i = ctx.thread().id() * 16 + ctx.coroIndex();
    for (;; ++i) {
        co_await ctx.opBegin();
        co_await ctx.access(rt.ptr(i % 2, 64 * (i % 512)),
                            AccessOp::read(MemSpan{buf, 64}));
        if (ctx.failed())
            ctx.clearError();
        ctx.opEnd();
    }
}

TEST(TestbedTeardown, ReadsInFlightTearDownCleanly)
{
    // A READ in flight owns a payload buffer until its CQE lands. Tearing
    // the testbed down while READs are on the wire must neither crash nor
    // leak it (the sanitizer builds run this test with LeakSanitizer on).
    for (std::uint32_t shards : {1u, 2u}) {
        TestbedConfig cfg;
        cfg.computeBlades = 1;
        cfg.memoryBlades = 2;
        cfg.threadsPerBlade = 4;
        cfg.bladeBytes = 1ull << 20;
        cfg.smart = presets::full();
        cfg.smart.corosPerThread = 4;
        cfg.shards = shards;
        Testbed tb(cfg);
        SmartRuntime &rt = tb.compute(0);
        for (std::uint32_t t = 0; t < rt.numThreads(); ++t)
            for (std::uint32_t k = 0; k < 4; ++k)
                rt.spawnWorker(t, [](SmartCtx &ctx) {
                    return readWorker(ctx);
                });
        // Step until some READ is on the wire, i.e. parked in an inbox.
        auto on_wire = [&tb] {
            for (std::uint32_t s = 0; s < tb.shards(); ++s)
                if (!tb.shardGroup().shard(s).wireInbox().empty())
                    return true;
            return false;
        };
        Time t = sim::usec(100);
        do {
            t += 50;
            tb.runUntil(t);
        } while (!on_wire() && t < sim::usec(200));
        ASSERT_TRUE(on_wire()) << shards << " shards";
    }
}

// ----------------------------------------- a work request's error path

/** Records the one CQE of a NAKed WR and the thread it landed on. */
struct NakSink : rnic::CompletionSink
{
    Simulator *sim = nullptr;
    Time at = sim::kTimeNever;
    rnic::WcStatus status = rnic::WcStatus::Success;
    std::thread::id thread;

    void
    complete(const rnic::WorkReq &, std::uint64_t,
             rnic::WcStatus s) override
    {
        at = sim->now();
        status = s;
        thread = std::this_thread::get_id();
    }
};

/** One READ with a bad rkey, from an initiator on the group's last shard
 *  to a responder on shard 0. */
struct NakCase
{
    rnic::RnicConfig cfg;
    ShardGroup group;
    rnic::Rnic responder;
    rnic::Rnic initiator;
    std::vector<std::uint8_t> remote = std::vector<std::uint8_t>(4096);
    std::vector<std::uint8_t> local = std::vector<std::uint8_t>(64);
    const rnic::MrRecord &remoteMr;
    const rnic::MrRecord &localMr;
    NakSink sink;
    std::thread::id issuer;
    std::uint64_t owrAtPost = 0;

    explicit NakCase(std::uint32_t shards)
        : group(shards, rnic::kPropagationNs),
          responder(group.shard(0), cfg, "mb0"),
          initiator(group.shard(shards - 1), cfg, "cb0"),
          remoteMr(responder.registerMemory(remote.data(), remote.size())),
          localMr(initiator.registerMemory(local.data(), local.size()))
    {
        sink.sim = &group.shard(shards - 1);
    }

    void
    post()
    {
        rnic::WorkReq wr;
        wr.op = rnic::Op::Read;
        wr.rkey = remoteMr.rkey + 1; // no such MR: the responder NAKs
        wr.length = 8;
        wr.localBuf = local.data();
        wr.localTransKey = rnic::Rnic::transKey(localMr.id, 0);
        wr.sink = &sink;
        issuer = std::this_thread::get_id();
        initiator.postBatch(&responder, {wr});
        owrAtPost = initiator.owrNow();
    }
};

TEST(CrossShardErrors, NakMatchesOneShardAndCompletesOnInitiator)
{
    auto run = [](std::uint32_t shards) {
        auto c = std::make_unique<NakCase>(shards);
        // Post from an event on the initiator's shard, so the WR's
        // coroutine is spawned by the thread that runs that shard.
        c->group.shard(shards - 1).scheduleAt(100, [p = c.get()] {
            p->post();
        });
        c->group.runUntil(sim::usec(50));
        return c;
    };
    auto one = run(1);
    auto two = run(2);
    ASSERT_EQ(one->sink.status, rnic::WcStatus::RemoteAccessError);
    ASSERT_EQ(two->sink.status, rnic::WcStatus::RemoteAccessError);
    EXPECT_EQ(two->sink.at, one->sink.at);
    EXPECT_LT(one->sink.at, sim::kTimeNever);
    EXPECT_EQ(one->owrAtPost, 1u);
    EXPECT_EQ(two->owrAtPost, 1u);
    EXPECT_EQ(one->initiator.owrNow(), 0u);
    EXPECT_EQ(two->initiator.owrNow(), 0u);
    // At two shards the initiator runs on a worker thread; the CQE must
    // land on that thread, not on the responder's.
    EXPECT_NE(two->issuer, std::this_thread::get_id());
    EXPECT_EQ(two->sink.thread, two->issuer);
    EXPECT_EQ(one->sink.thread, one->issuer);
}

TEST(TestbedSharding, ClampsShardsToBladeCount)
{
    TestbedConfig cfg;
    cfg.computeBlades = 2;
    cfg.memoryBlades = 2;
    cfg.threadsPerBlade = 1;
    cfg.bladeBytes = 1ull << 20;
    cfg.smart = presets::baseline();
    cfg.shards = 64;
    Testbed tb(cfg);
    EXPECT_EQ(tb.shards(), 4u);
    tb.runUntil(sim::usec(10));
}

} // namespace
