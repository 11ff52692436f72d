/**
 * @file
 * Tests of the elastic membership plane: ClusterView epochs and fencing,
 * decorrelated jitter determinism, live drain/join migration without
 * data loss, crash failover with app recovery hooks, overload
 * degradation ladder counters, ParamServer resharding, and run-to-run
 * determinism of full membership scenarios.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "apps/paramserver/param_server.hpp"
#include "harness/testbed.hpp"
#include "sim/fault.hpp"
#include "smart/backoff.hpp"
#include "smart/cluster_view.hpp"
#include "smart/membership.hpp"
#include "smart/smart_ctx.hpp"

using namespace smart;
using namespace smart::harness;
using sim::Task;

namespace {

TestbedConfig
planeConfig(std::uint32_t mem_blades, std::uint64_t cache_bytes = 0)
{
    TestbedConfig cfg;
    cfg.computeBlades = 1;
    cfg.memoryBlades = mem_blades;
    cfg.threadsPerBlade = 1;
    cfg.bladeBytes = 4ull << 20;
    cfg.smart = presets::full();
    cfg.smart.cacheBytes = cache_bytes;
    return cfg;
}

MembershipPlane::Config
smallPlane(std::uint32_t partitions = 8, std::uint64_t part_bytes = 8192)
{
    MembershipPlane::Config pc;
    pc.partitions = partitions;
    pc.partBytes = part_bytes;
    return pc;
}

/** Fill partition @p part on its home blade with a seeded pattern. */
void
fillPartition(Testbed &tb, MembershipPlane &plane, std::uint32_t part,
              std::uint8_t seed)
{
    std::uint8_t *bytes = tb.memBlade(plane.bladeOf(part))
                              .bytesAt(plane.partitionOffset(part));
    for (std::uint64_t i = 0; i < plane.config().partBytes; ++i)
        bytes[i] = static_cast<std::uint8_t>(seed + i * 13);
}

bool
partitionMatches(memblade::MemoryBlade &blade, MembershipPlane &plane,
                 std::uint32_t part, std::uint8_t seed)
{
    const std::uint8_t *bytes = blade.bytesAt(plane.partitionOffset(part));
    for (std::uint64_t i = 0; i < plane.config().partBytes; ++i)
        if (bytes[i] != static_cast<std::uint8_t>(seed + i * 13))
            return false;
    return true;
}

} // namespace

TEST(Jitter, DecorrelatedIsDeterministicAndBounded)
{
    const std::uint64_t t0 = 1000, tmax = 64000;
    sim::Rng a(42), b(42), c(43);
    std::uint64_t pa = 0, pb = 0, pc = 0;
    std::vector<std::uint64_t> seq_a, seq_b;
    bool diverged = false;
    for (int i = 0; i < 64; ++i) {
        std::uint64_t va = decorrelatedJitterCycles(t0, tmax, pa, a);
        std::uint64_t vb = decorrelatedJitterCycles(t0, tmax, pb, b);
        std::uint64_t vc = decorrelatedJitterCycles(t0, tmax, pc, c);
        seq_a.push_back(va);
        seq_b.push_back(vb);
        // Bounds: always within [t0, tmax].
        EXPECT_GE(va, t0);
        EXPECT_LE(va, tmax);
        // Decorrelated growth: next draw never exceeds 3x the previous.
        if (i > 0) {
            EXPECT_LE(va, std::max(seq_a[i - 1] * 3, t0));
        }
        if (va != vc)
            diverged = true;
    }
    // Same seed -> identical sequence; different seed -> different one.
    EXPECT_EQ(seq_a, seq_b);
    EXPECT_TRUE(diverged);

    // Resetting prev to 0 restarts from the floor.
    std::uint64_t prev = 0;
    std::uint64_t first = decorrelatedJitterCycles(t0, tmax, prev, a);
    EXPECT_GE(first, t0);
    EXPECT_LE(first, std::max<std::uint64_t>(t0 * 3, t0));
}

TEST(ClusterViewTest, EpochMonotonicAndFencing)
{
    sim::Simulator sim;
    ClusterView view(sim, "t0");
    EXPECT_EQ(view.epoch(), 0u);
    EXPECT_EQ(view.state(0), BladeState::Absent);
    EXPECT_FALSE(view.fenced(0));

    view.set(0, BladeState::Active);
    EXPECT_EQ(view.epoch(), 1u);
    EXPECT_TRUE(view.placeable(0));

    view.set(0, BladeState::Active); // no-op: same state
    EXPECT_EQ(view.epoch(), 1u);

    view.set(1, BladeState::Active);
    view.set(1, BladeState::Draining);
    EXPECT_EQ(view.epoch(), 3u);
    EXPECT_FALSE(view.placeable(1));
    EXPECT_FALSE(view.fenced(1)); // draining still reachable

    view.set(1, BladeState::Dead);
    EXPECT_EQ(view.epoch(), 4u);
    EXPECT_TRUE(view.fenced(1));
    EXPECT_EQ(view.activeBlades(), 1u);
    EXPECT_EQ(view.lastChange(1), 4u);

    view.bumpEpoch();
    EXPECT_EQ(view.epoch(), 5u);
    EXPECT_EQ(view.eventCount(), 4u); // bumpEpoch is not a state event
}

TEST(Membership, DrainMigratesDataWithoutLoss)
{
    Testbed tb(planeConfig(2));
    MembershipPlane plane(tb.sim(), smallPlane(), "drain0");
    plane.addRuntime(tb.compute(0));
    for (std::uint32_t m = 0; m < tb.numMemBlades(); ++m)
        plane.addBlade(tb.memBlade(m));
    plane.seedPartitions();

    for (std::uint32_t p = 0; p < plane.numPartitions(); ++p)
        fillPartition(tb, plane, p, static_cast<std::uint8_t>(p + 1));

    EXPECT_EQ(plane.partsOn(1), 4u);
    plane.drain(1);
    EXPECT_EQ(plane.view().state(1), BladeState::Draining);
    tb.sim().runUntil(sim::msec(20));

    EXPECT_EQ(plane.view().state(1), BladeState::Dead);
    EXPECT_EQ(plane.partsOn(1), 0u);
    EXPECT_EQ(plane.partsOn(0), plane.numPartitions());
    EXPECT_EQ(plane.migratedPartitions(), 4u);
    EXPECT_EQ(plane.migratedBytes(), 4u * plane.config().partBytes);
    EXPECT_EQ(plane.drainCount(), 1u);
    // Every partition's bytes are intact on blade 0.
    for (std::uint32_t p = 0; p < plane.numPartitions(); ++p)
        EXPECT_TRUE(partitionMatches(tb.memBlade(0), plane, p,
                                     static_cast<std::uint8_t>(p + 1)))
            << "partition " << p;
}

TEST(Membership, JoinRebalancesOntoNewBlade)
{
    TestbedConfig cfg = planeConfig(1);
    Testbed tb(cfg);
    MembershipPlane plane(tb.sim(), smallPlane(), "join0");
    plane.addRuntime(tb.compute(0));
    plane.addBlade(tb.memBlade(0));
    plane.seedPartitions();
    for (std::uint32_t p = 0; p < plane.numPartitions(); ++p)
        fillPartition(tb, plane, p, static_cast<std::uint8_t>(p + 1));
    EXPECT_EQ(plane.partsOn(0), 8u);

    // A cold blade joins mid-run.
    memblade::MemoryBlade joiner(tb.sim(), cfg.hw, "mbj", cfg.bladeBytes);
    tb.sim().schedule(sim::msec(1), [&plane, &joiner] {
        plane.join(joiner);
    });
    tb.sim().runUntil(sim::msec(30));

    EXPECT_EQ(plane.view().state(1), BladeState::Active);
    EXPECT_EQ(plane.joinCount(), 1u);
    // Rebalance converged: 4/4 split of 8 partitions.
    EXPECT_EQ(plane.partsOn(0), 4u);
    EXPECT_EQ(plane.partsOn(1), 4u);
    // Moved partitions carried their bytes.
    for (std::uint32_t p = 0; p < plane.numPartitions(); ++p) {
        memblade::MemoryBlade &home =
            plane.bladeOf(p) == 0 ? tb.memBlade(0) : joiner;
        EXPECT_TRUE(partitionMatches(home, plane, p,
                                     static_cast<std::uint8_t>(p + 1)))
            << "partition " << p;
    }
}

TEST(Membership, CrashFailoverRunsRecovery)
{
    Testbed tb(planeConfig(2));
    MembershipPlane plane(tb.sim(), smallPlane(), "fail0");
    plane.addRuntime(tb.compute(0));
    for (std::uint32_t m = 0; m < tb.numMemBlades(); ++m)
        plane.addBlade(tb.memBlade(m));
    plane.seedPartitions();
    plane.startHealthMonitor();

    std::vector<std::uint32_t> recovered;
    plane.setRecoverFn([&](SmartCtx &ctx, std::uint32_t part,
                           std::uint32_t dst) -> Task {
        // App-level rebuild: stamp the partition header with a marker.
        recovered.push_back(part * 16 + dst);
        std::uint64_t tag = 0xab12cd34ull + part;
        co_await ctx.access(
            ctx.runtime().ptr(dst, plane.partitionOffset(part)),
            AccessOp::write(ConstMemSpan::of(tag)));
        EXPECT_FALSE(ctx.failed());
    });

    tb.sim().schedule(sim::msec(1), [&tb] { tb.memBlade(1).crash(0); });
    tb.sim().runUntil(sim::msec(20));
    plane.stopHealthMonitor();

    EXPECT_EQ(plane.view().state(1), BladeState::Dead);
    EXPECT_EQ(plane.failoverCount(), 1u);
    EXPECT_EQ(plane.partsOn(1), 0u);
    EXPECT_EQ(plane.partsOn(0), plane.numPartitions());
    EXPECT_EQ(recovered.size(), 4u); // the 4 partitions that lived on mb1
    for (std::uint32_t p = 0; p < plane.numPartitions(); ++p) {
        if ((p & 1) == 0)
            continue; // originally on mb0, untouched
        std::uint64_t tag = 0;
        std::memcpy(&tag, tb.memBlade(0).bytesAt(plane.partitionOffset(p)),
                    8);
        EXPECT_EQ(tag, 0xab12cd34ull + p) << "partition " << p;
    }
}

TEST(Membership, FencedAccessSurfacesStaleView)
{
    Testbed tb(planeConfig(2));
    MembershipPlane plane(tb.sim(), smallPlane(), "fence1");
    plane.addRuntime(tb.compute(0));
    for (std::uint32_t m = 0; m < tb.numMemBlades(); ++m)
        plane.addBlade(tb.memBlade(m));
    plane.seedPartitions();
    // No health monitor: the partition stays mapped to the dead blade,
    // so the access must exhaust its view-wait budget and surface the
    // typed error instead of hanging or touching the corpse.
    tb.memBlade(1).crash(0);
    plane.view().set(1, BladeState::Dead);

    bool done = false;
    VerbError::Kind seen = VerbError::Kind::None;
    tb.compute(0).spawnWorker(0, [&](SmartCtx &ctx) -> Task {
        std::uint8_t buf[64] = {};
        co_await ctx.access(ctx.runtime().ptr(1, plane.partitionOffset(1)),
                            AccessOp::read(MemSpan{buf, 64}));
        EXPECT_TRUE(ctx.failed());
        seen = ctx.lastError().kind;
        ctx.clearError();
        done = true;
    });
    tb.sim().runUntil(sim::msec(50));
    EXPECT_TRUE(done);
    EXPECT_EQ(seen, VerbError::Kind::StaleView);
    EXPECT_GE(plane.view().fencedCount(), 1u);
}

TEST(Membership, ChurnTargetDrivesDrainAndRejoin)
{
    Testbed tb(planeConfig(2));
    MembershipPlane plane(tb.sim(), smallPlane(), "churn1");
    plane.addRuntime(tb.compute(0));
    for (std::uint32_t m = 0; m < tb.numMemBlades(); ++m)
        plane.addBlade(tb.memBlade(m));
    plane.seedPartitions();
    plane.enableChurnTargets();

    sim::FaultPlane &fp = tb.faultPlane(7);
    // One churn cycle: drain mb1 at 1 ms, rejoin it 5 ms later.
    fp.oneShot(sim::msec(1), sim::FaultKind::Crash, "drain.mb1",
               sim::msec(5));
    tb.sim().runUntil(sim::msec(40));

    EXPECT_EQ(plane.drainCount(), 1u);
    EXPECT_EQ(plane.joinCount(), 1u);
    EXPECT_EQ(plane.view().state(1), BladeState::Active);
    // Drained out (4) and rebalanced back; counts re-converged.
    EXPECT_GE(plane.migratedPartitions(), 7u);
    EXPECT_EQ(plane.partsOn(0) + plane.partsOn(1), plane.numPartitions());
    EXPECT_LE(plane.partsOn(0) > plane.partsOn(1)
                  ? plane.partsOn(0) - plane.partsOn(1)
                  : plane.partsOn(1) - plane.partsOn(0),
              2u);
}

TEST(Membership, ScenarioIsDeterministicPerSeed)
{
    auto run = [](std::uint64_t seed) {
        TestbedConfig cfg = planeConfig(2, 16 * 4096);
        Testbed tb(cfg);
        SmartRuntime &rt = tb.compute(0);
        MembershipPlane plane(tb.sim(), smallPlane(16, 16384), "det0");
        plane.addRuntime(rt);
        for (std::uint32_t m = 0; m < tb.numMemBlades(); ++m)
            plane.addBlade(tb.memBlade(m));
        plane.seedPartitions();
        plane.startHealthMonitor();

        memblade::MemoryBlade joiner(tb.sim(), cfg.hw, "mbj",
                                     cfg.bladeBytes);
        tb.sim().schedule(sim::msec(2),
                          [&plane] { plane.drain(1); });
        tb.sim().schedule(sim::msec(6),
                          [&plane, &joiner] { plane.join(joiner); });

        std::uint64_t failed = 0;
        rt.spawnWorker(0, [&plane, &rt, &failed, seed](SmartCtx &ctx)
                              -> Task {
            sim::Rng rng(seed);
            std::uint8_t *buf = ctx.scratch(64);
            const std::uint64_t slots = plane.config().partBytes / 64;
            for (;;) {
                std::uint32_t part = static_cast<std::uint32_t>(
                    rng.uniform(plane.numPartitions()));
                std::uint64_t off = rng.uniform(slots) * 64;
                co_await ctx.opBegin();
                for (int a = 0; a < 64; ++a) {
                    while (plane.migrating(part))
                        co_await ctx.sim().delay(
                            sim::cyclesToNs(4096 + rng.uniform(4096)));
                    std::uint32_t blade = plane.bladeOf(part);
                    co_await ctx.access(
                        rt.ptr(blade, plane.partitionOffset(part) + off),
                        AccessOp::read(MemSpan{buf, 64}));
                    if (!ctx.failed())
                        break;
                    ctx.clearError();
                    if (a == 63)
                        ++failed;
                }
                ctx.opEnd();
                rt.recordOp(0, 0);
            }
        });
        tb.sim().runUntil(sim::msec(14));
        plane.stopHealthMonitor();
        std::string digest =
            std::to_string(rt.appOps.value()) + "/" +
            std::to_string(tb.sim().eventsProcessed()) + "/" +
            std::to_string(plane.migratedBytes()) + "/" +
            std::to_string(plane.view().epoch()) + "/" +
            std::to_string(failed);
        return digest;
    };
    EXPECT_EQ(run(11), run(11));
    EXPECT_NE(run(11), run(12));
}

TEST(Overload, LadderChunksPostsAndDelaysOps)
{
    // Enough load to trip the ladder's fixed watermarks: 8 threads each
    // stage 32-WR doorbell batches to blade 0, 256 outstanding WRs at
    // once, past 2 * kOverloadHighWm. Level >= 2 chunks posts, level 3
    // delays op admission.
    constexpr std::uint32_t kThreads = 8;
    constexpr std::uint32_t kBatch = 32;
    static_assert(kThreads * kBatch >= 2 * kOverloadHighWm);
    TestbedConfig cfg = planeConfig(1);
    cfg.threadsPerBlade = kThreads;
    cfg.smart.withOverloadLadder();
    Testbed tb(cfg);
    SmartRuntime &rt = tb.compute(0);

    std::uint64_t off = tb.memBlade(0).alloc(kBatch * 64, 64);
    std::uint32_t batches_done = 0;
    bool access_done = false;
    // Workers A: deep doorbell batches keep blade 0's outstanding count
    // above the high watermark, so level >= 2 forces chunked posts.
    for (std::uint32_t t = 0; t < kThreads; ++t) {
        rt.spawnWorker(t, [&](SmartCtx &ctx) -> Task {
            std::uint8_t *buf = ctx.scratch(kBatch * 64);
            for (int round = 0; round < 32; ++round) {
                for (std::uint32_t i = 0; i < kBatch; ++i)
                    ctx.read(rt.ptr(0, off + i * 64),
                             MemSpan{buf + i * 64, 64});
                co_await ctx.postSend();
                co_await ctx.sync();
                EXPECT_FALSE(ctx.failed());
            }
            ++batches_done;
        });
    }
    // Worker B: plain accesses admitted through admitAccess — while the
    // batches are in flight the ladder sits at level 3, so each access
    // pays one jittered admission delay.
    rt.spawnWorker(0, [&](SmartCtx &ctx) -> Task {
        std::uint8_t *buf = ctx.scratch(64);
        for (int i = 0; i < 16; ++i) {
            co_await ctx.access(rt.ptr(0, off),
                                AccessOp::read(MemSpan{buf, 64}));
            EXPECT_FALSE(ctx.failed());
        }
        access_done = true;
    });
    tb.sim().runUntil(sim::msec(20));
    EXPECT_EQ(batches_done, kThreads);
    EXPECT_TRUE(access_done);
    EXPECT_GT(rt.chunkedPostCount(), 0u);
    EXPECT_GT(rt.opDelayCount(), 0u);
    EXPECT_EQ(rt.bladeOutstanding(0), 0); // all accounted back down
}

TEST(Membership, ParamServerReshardsAfterBladeLoss)
{
    Testbed tb(planeConfig(2));
    std::vector<memblade::MemoryBlade *> blades;
    for (std::uint32_t i = 0; i < tb.numMemBlades(); ++i)
        blades.push_back(&tb.memBlade(i));
    paramserver::ParamServer ps(blades, 64, 4, /*elastic=*/true);

    EXPECT_EQ(ps.shardOf(0), 0u);
    EXPECT_EQ(ps.shardOf(1), 1u);

    bool done = false;
    tb.compute(0).spawnWorker(0, [&](SmartCtx &ctx) -> Task {
        std::vector<std::uint64_t> rows = {1, 3};
        std::vector<std::int64_t> grads = {5, 5, 5, 5, 7, 7, 7, 7};
        co_await ps.push(ctx, rows, grads);
        EXPECT_EQ(ps.hostValue(1, 0), 5);
        EXPECT_EQ(ps.hostValue(3, 3), 7);

        // mb1 dies; its residue classes re-home onto mb0 from zero.
        tb.memBlade(1).crash(0);
        EXPECT_EQ(ps.removeBlade(1), 1u);
        EXPECT_EQ(ps.shardOf(1), 0u);
        EXPECT_EQ(ps.hostValue(1, 0), 0); // gradients died with the blade

        // Pushes to the re-homed class land on the survivor.
        co_await ps.push(ctx, rows, grads);
        EXPECT_EQ(ps.hostValue(1, 0), 5);
        EXPECT_EQ(ps.hostValue(3, 3), 7);
        // Rows of even residue classes were never disturbed.
        std::vector<std::uint64_t> rows0 = {2};
        std::vector<std::int64_t> grads0 = {9, 9, 9, 9};
        co_await ps.push(ctx, rows0, grads0);
        EXPECT_EQ(ps.hostValue(2, 0), 9);
        done = true;
    });
    tb.sim().runUntil(sim::msec(20));
    EXPECT_TRUE(done);
}
