/**
 * @file
 * Tests of the compute-side buffer-managed cache tier: hit/miss/eviction
 * mechanics under capacity pressure, the coherence rules (CAS
 * invalidation, write-back ordering ahead of atomics, crash-restart
 * flush), the pins an in-flight accessMany() batch holds, and per-seed
 * determinism of cached runs.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "harness/testbed.hpp"
#include "sim/fault.hpp"
#include "smart/cache/buffer_manager.hpp"
#include "smart/smart_ctx.hpp"

using namespace smart;
using namespace smart::harness;
using sim::Task;

namespace {

/** One compute blade, two memory blades, cache pool of @p cache_bytes. */
TestbedConfig
cachedConfig(std::uint64_t cache_bytes)
{
    TestbedConfig cfg;
    cfg.computeBlades = 1;
    cfg.memoryBlades = 2;
    cfg.threadsPerBlade = 1;
    cfg.bladeBytes = 1 << 20;
    cfg.smart = presets::full();
    cfg.smart.cacheBytes = cache_bytes;
    return cfg;
}

/** Fill @p n bytes at blade offset @p off with a seeded pattern. */
void
patternFill(Testbed &tb, std::uint32_t blade, std::uint64_t off,
            std::uint32_t n, std::uint8_t seed)
{
    std::uint8_t *bytes = tb.memBlade(blade).bytesAt(off);
    for (std::uint32_t i = 0; i < n; ++i)
        bytes[i] = static_cast<std::uint8_t>(seed + i * 13);
}

/** One 16-byte read of line @p line (of blade 0, from @p base) into @p buf. */
ReadPart
linePart(SmartCtx &ctx, std::uint64_t base, std::uint32_t line,
         std::uint8_t *buf)
{
    return ReadPart{ctx.runtime().ptr(0, base + line * 256),
                    MemSpan{buf, 16}};
}

} // namespace

TEST(Cache, SecondReadOfLineIsAHit)
{
    Testbed tb(cachedConfig(16 * 256));
    bool done = false;
    tb.compute(0).spawnWorker(0, [&](SmartCtx &ctx) -> Task {
        std::uint64_t off = tb.memBlade(0).alloc(256, 256);
        patternFill(tb, 0, off, 256, 7);
        RemotePtr p = ctx.runtime().ptr(0, off);
        cache::BufferManager *bm = ctx.runtime().cache();
        EXPECT_NE(bm, nullptr);
        if (bm == nullptr)
            co_return;

        std::uint8_t buf[64] = {};
        co_await ctx.access(p, AccessOp::read(MemSpan{buf, 64}));
        EXPECT_EQ(bm->missCount(), 1u);
        EXPECT_EQ(buf[3], static_cast<std::uint8_t>(7 + 3 * 13));

        // Different span, same line: served locally.
        std::uint8_t buf2[64] = {};
        co_await ctx.access(p + 64, AccessOp::read(MemSpan{buf2, 64}));
        EXPECT_EQ(bm->missCount(), 1u);
        EXPECT_GE(bm->hitCount(), 1u);
        EXPECT_EQ(buf2[0], static_cast<std::uint8_t>(7 + 64 * 13));
        done = true;
    });
    tb.sim().runUntil(sim::msec(10));
    EXPECT_TRUE(done);
}

TEST(Cache, ConcurrentMissesOnOneLineShareOneFill)
{
    TestbedConfig cfg = cachedConfig(16 * 256);
    cfg.threadsPerBlade = 2;
    Testbed tb(cfg);
    std::uint64_t off = tb.memBlade(0).alloc(256, 256);
    patternFill(tb, 0, off, 256, 5);
    int done = 0;
    for (std::uint32_t t = 0; t < 2; ++t) {
        tb.compute(0).spawnWorker(t, [&done, off](SmartCtx &ctx) -> Task {
            std::uint8_t buf[16] = {};
            co_await ctx.access(ctx.runtime().ptr(0, off + 32),
                                AccessOp::read(MemSpan{buf, 16}));
            EXPECT_EQ(buf[0], static_cast<std::uint8_t>(5 + 32 * 13));
            ++done;
        });
    }
    tb.sim().runUntil(sim::msec(10));
    // One fill: the second reader waited on the loading frame and was
    // woken by the fill's completion.
    EXPECT_EQ(done, 2);
    EXPECT_EQ(tb.compute(0).cache()->missCount(), 1u);
}

TEST(Cache, EvictionUnderCapacityPressure)
{
    // A 4-frame pool cycled through 12 distinct lines must evict, stay
    // within its capacity, and still return correct bytes every time.
    Testbed tb(cachedConfig(4 * 256));
    bool done = false;
    tb.compute(0).spawnWorker(0, [&](SmartCtx &ctx) -> Task {
        std::uint64_t base = tb.memBlade(0).alloc(12 * 256, 256);
        for (std::uint32_t l = 0; l < 12; ++l)
            patternFill(tb, 0, base + l * 256, 256,
                        static_cast<std::uint8_t>(l * 11 + 1));
        cache::BufferManager *bm = ctx.runtime().cache();
        EXPECT_NE(bm, nullptr);
        if (bm == nullptr)
            co_return;

        for (int round = 0; round < 3; ++round) {
            for (std::uint32_t l = 0; l < 12; ++l) {
                std::uint8_t buf[32] = {};
                co_await ctx.access(
                    ctx.runtime().ptr(0, base + l * 256 + 32),
                    AccessOp::read(MemSpan{buf, 32}));
                EXPECT_FALSE(ctx.failed());
                if (ctx.failed())
                    co_return;
                EXPECT_EQ(buf[0], static_cast<std::uint8_t>(
                                      l * 11 + 1 + 32 * 13));
            }
        }
        EXPECT_GE(bm->evictionCount(), 12u);
        EXPECT_LE(bm->residentLines(), 4u);
        done = true;
    });
    tb.sim().runUntil(sim::msec(10));
    EXPECT_TRUE(done);
}

TEST(Cache, CasInvalidatesCoveringLine)
{
    Testbed tb(cachedConfig(16 * 256));
    bool done = false;
    tb.compute(0).spawnWorker(0, [&](SmartCtx &ctx) -> Task {
        std::uint64_t off = tb.memBlade(0).alloc(256, 256);
        std::uint64_t seed = 5;
        std::memcpy(tb.memBlade(0).bytesAt(off), &seed, 8);
        RemotePtr p = ctx.runtime().ptr(0, off);
        cache::BufferManager *bm = ctx.runtime().cache();

        std::uint64_t v = 0;
        co_await ctx.access(p, AccessOp::read(MemSpan::of(v)));
        EXPECT_EQ(v, 5u);

        std::uint64_t old = 0;
        bool ok = false;
        co_await ctx.access(p, AccessOp::cas(5, 99, old, ok));
        EXPECT_TRUE(ok);
        EXPECT_GE(bm->invalidationCount(), 1u);

        // The cached line was dropped: this read refetches and sees the
        // CAS result, not the stale fill.
        co_await ctx.access(p, AccessOp::read(MemSpan::of(v)));
        EXPECT_EQ(v, 99u);
        done = true;
    });
    tb.sim().runUntil(sim::msec(10));
    EXPECT_TRUE(done);
}

TEST(Cache, DirtyLineIsFlushedBeforeAtomic)
{
    // FORD-style commit ordering: a CAS commit point on a line holding
    // buffered (dirty) cached writes must not overtake them.
    Testbed tb(cachedConfig(16 * 256));
    bool done = false;
    tb.compute(0).spawnWorker(0, [&](SmartCtx &ctx) -> Task {
        std::uint64_t off = tb.memBlade(0).alloc(256, 256);
        std::memset(tb.memBlade(0).bytesAt(off), 0, 256);
        RemotePtr p = ctx.runtime().ptr(0, off);
        cache::BufferManager *bm = ctx.runtime().cache();

        // Fill the line, then buffer a cached write to word 1.
        std::uint64_t v = 0;
        co_await ctx.access(p, AccessOp::read(MemSpan::of(v)));
        std::uint64_t payload = 0xabcdefull;
        co_await ctx.access(p + 8, AccessOp::write(ConstMemSpan::of(payload)),
                            CachePolicy::Cached);
        EXPECT_TRUE(bm->lineDirty(0, off));
        std::uint64_t host_word1 = 0;
        std::memcpy(&host_word1, tb.memBlade(0).bytesAt(off + 8), 8);
        EXPECT_EQ(host_word1, 0u); // still buffered, not written back

        // CAS word 0 of the same line: forces the write-back first.
        std::uint64_t old = 0;
        bool ok = false;
        co_await ctx.access(p, AccessOp::cas(0, 1, old, ok));
        EXPECT_TRUE(ok);
        EXPECT_GE(bm->writebackCount(), 1u);
        std::memcpy(&host_word1, tb.memBlade(0).bytesAt(off + 8), 8);
        EXPECT_EQ(host_word1, 0xabcdefull);
        EXPECT_FALSE(bm->lineDirty(0, off));
        done = true;
    });
    tb.sim().runUntil(sim::msec(10));
    EXPECT_TRUE(done);
}

TEST(Cache, CachedWriteVisibleToCachedReadAndFlushable)
{
    Testbed tb(cachedConfig(16 * 256));
    bool done = false;
    tb.compute(0).spawnWorker(0, [&](SmartCtx &ctx) -> Task {
        std::uint64_t off = tb.memBlade(0).alloc(256, 256);
        std::memset(tb.memBlade(0).bytesAt(off), 0, 256);
        RemotePtr p = ctx.runtime().ptr(0, off);

        std::uint64_t v = 0;
        co_await ctx.access(p, AccessOp::read(MemSpan::of(v)));
        std::uint64_t nv = 1234;
        co_await ctx.access(p, AccessOp::write(ConstMemSpan::of(nv)),
                            CachePolicy::Cached);
        co_await ctx.access(p, AccessOp::read(MemSpan::of(v)));
        EXPECT_EQ(v, 1234u); // served from the dirty frame

        co_await ctx.cacheFlush();
        std::uint64_t host = 0;
        std::memcpy(&host, tb.memBlade(0).bytesAt(off), 8);
        EXPECT_EQ(host, 1234u);
        done = true;
    });
    tb.sim().runUntil(sim::msec(10));
    EXPECT_TRUE(done);
}

TEST(Cache, BladeCrashRestartDropsItsLines)
{
    // NVM contents survive a crash, the MR does not: after the restart
    // the next cached access must refetch, never serve the stale frame.
    TestbedConfig cfg = cachedConfig(16 * 256);
    Testbed tb(cfg);
    sim::FaultPlane &fp = tb.faultPlane(42);
    std::uint64_t off = tb.memBlade(0).alloc(256, 256);
    std::uint64_t seed = 111;
    std::memcpy(tb.memBlade(0).bytesAt(off), &seed, 8);
    bool done = false;
    tb.compute(0).spawnWorker(0, [&](SmartCtx &ctx) -> Task {
        RemotePtr p = ctx.runtime().ptr(0, off);

        std::uint64_t v = 0;
        co_await ctx.access(p, AccessOp::read(MemSpan::of(v)));
        EXPECT_EQ(v, 111u);

        // Wait out the crash/restart cycle (blade down for 1 ms), during
        // which the blade's NVM is mutated behind the cache's back.
        co_await ctx.sim().delay(sim::msec(3));
        co_await ctx.access(p, AccessOp::read(MemSpan::of(v)));
        EXPECT_FALSE(ctx.failed());
        EXPECT_EQ(v, 222u);
        done = true;
    });
    fp.oneShot(sim::msec(1), sim::FaultKind::Crash, "mb0", sim::msec(1));
    tb.sim().schedule(sim::usec(1500), [&tb, off] {
        std::uint64_t nv = 222;
        std::memcpy(tb.memBlade(0).bytesAt(off), &nv, 8);
    });
    tb.sim().runUntil(sim::msec(10));
    EXPECT_TRUE(done);
}

TEST(Cache, BatchPinnedFramesAreNeverEvicted)
{
    // Two-frame pool. Coroutine A's accessMany batch pins both frames
    // across its sync(): line 0 resident (a hit), line 1 mid-fill. A
    // sibling coroutine reading line 2 meanwhile finds no victim: its
    // read goes to the wire and nothing is evicted from under A.
    Testbed tb(cachedConfig(2 * 256));
    std::uint64_t base = tb.memBlade(0).alloc(3 * 256, 256);
    for (std::uint32_t l = 0; l < 3; ++l)
        patternFill(tb, 0, base + l * 256, 256,
                    static_cast<std::uint8_t>(20 + l));
    cache::BufferManager *bm = tb.compute(0).cache();
    ASSERT_NE(bm, nullptr);
    bool posted = false, batch_done = false, a_done = false, b_done = false;
    tb.compute(0).spawnWorker(0, [&](SmartCtx &ctx) -> Task {
        std::uint8_t warm[16] = {};
        ReadPart warm_part = linePart(ctx, base, 0, warm);
        co_await ctx.accessMany(&warm_part, 1);
        std::uint8_t b0[16] = {}, b1[16] = {};
        ReadPart parts[2] = {linePart(ctx, base, 0, b0),
                             linePart(ctx, base, 1, b1)};
        posted = true;
        co_await ctx.accessMany(parts, 2);
        batch_done = true;
        EXPECT_FALSE(ctx.failed());
        EXPECT_EQ(b0[0], 20u);
        EXPECT_EQ(b1[0], 21u);
        a_done = true;
    });
    tb.compute(0).spawnWorker(0, [&](SmartCtx &ctx) -> Task {
        while (!posted)
            co_await ctx.sim().delay(50);
        EXPECT_FALSE(batch_done); // A's frames are pinned right now
        std::uint8_t buf[16] = {};
        ReadPart buf_part = linePart(ctx, base, 2, buf);
        co_await ctx.accessMany(&buf_part, 1);
        EXPECT_EQ(buf[0], 22u);
        EXPECT_EQ(bm->evictionCount(), 0u);
        EXPECT_EQ(bm->poolExhausted(), 1u);
        b_done = true;
    });
    tb.sim().runUntil(sim::msec(10));
    EXPECT_TRUE(a_done);
    EXPECT_TRUE(b_done);
}

TEST(Cache, BatchPinnedFrameSurvivesInvalidation)
{
    // A CAS completion invalidates line 0 while A's in-flight batch has
    // it pinned (routed through onCqe exactly as SmartRuntime's CQE
    // dispatch does). The detached frame must stay out of the pool until
    // A releases it: A copies out the bytes it pinned, a sibling read
    // meanwhile goes to the wire, and once A's batch ends the frame is
    // reclaimed, so a later two-line batch fits the pool again.
    Testbed tb(cachedConfig(2 * 256));
    std::uint64_t base = tb.memBlade(0).alloc(5 * 256, 256);
    for (std::uint32_t l = 0; l < 5; ++l)
        patternFill(tb, 0, base + l * 256, 256,
                    static_cast<std::uint8_t>(30 + l));
    cache::BufferManager *bm = tb.compute(0).cache();
    ASSERT_NE(bm, nullptr);
    bool posted = false, batch_done = false, a_done = false, b_done = false;
    tb.compute(0).spawnWorker(0, [&](SmartCtx &ctx) -> Task {
        std::uint8_t warm[16] = {};
        ReadPart warm_part = linePart(ctx, base, 0, warm);
        co_await ctx.accessMany(&warm_part, 1);
        std::uint8_t b0[16] = {}, b1[16] = {};
        ReadPart parts[2] = {linePart(ctx, base, 0, b0),
                             linePart(ctx, base, 1, b1)};
        posted = true;
        co_await ctx.accessMany(parts, 2);
        batch_done = true;
        EXPECT_FALSE(ctx.failed());
        EXPECT_EQ(b0[0], 30u); // the snapshot A pinned, pre-CAS
        EXPECT_EQ(b1[0], 31u);

        // The invalidated line refetches the post-CAS bytes...
        std::uint64_t misses = bm->missCount();
        std::uint8_t again[16] = {};
        ReadPart again_part = linePart(ctx, base, 0, again);
        co_await ctx.accessMany(&again_part, 1);
        EXPECT_EQ(bm->missCount(), misses + 1);
        EXPECT_EQ(again[0], 0xeeu);
        // ...and no frame leaked: two fresh lines get two frames.
        std::uint64_t exhausted = bm->poolExhausted();
        std::uint8_t c3[16] = {}, c4[16] = {};
        ReadPart more[2] = {linePart(ctx, base, 3, c3),
                            linePart(ctx, base, 4, c4)};
        co_await ctx.accessMany(more, 2);
        EXPECT_EQ(bm->poolExhausted(), exhausted);
        EXPECT_EQ(c3[0], 33u);
        EXPECT_EQ(c4[0], 34u);
        a_done = true;
    });
    tb.compute(0).spawnWorker(0, [&](SmartCtx &ctx) -> Task {
        while (!posted)
            co_await ctx.sim().delay(50);
        EXPECT_FALSE(batch_done); // A's frames are pinned right now
        std::memset(tb.memBlade(0).bytesAt(base), 0xee, 8);
        rnic::WorkReq cas_wr;
        cas_wr.cacheCookie = bm->atomicCookie(0, base);
        bm->onCqe(cas_wr, rnic::WcStatus::Success);
        EXPECT_EQ(bm->invalidationCount(), 1u);
        std::uint8_t buf[16] = {};
        ReadPart buf_part = linePart(ctx, base, 2, buf);
        co_await ctx.accessMany(&buf_part, 1);
        EXPECT_EQ(buf[0], 32u);
        EXPECT_EQ(bm->poolExhausted(), 1u);
        b_done = true;
    });
    tb.sim().runUntil(sim::msec(10));
    EXPECT_TRUE(a_done);
    EXPECT_TRUE(b_done);
}

TEST(Cache, BatchLargerThanPoolReadsExcessOverWire)
{
    // Four lines through a two-frame pool in one batch: two fill frames,
    // the other two are read straight off the wire in the same doorbell
    // batch and count smart.cache.pool_exhausted. Every byte is right.
    Testbed tb(cachedConfig(2 * 256));
    std::uint64_t base = tb.memBlade(0).alloc(4 * 256, 256);
    for (std::uint32_t l = 0; l < 4; ++l)
        patternFill(tb, 0, base + l * 256, 256,
                    static_cast<std::uint8_t>(40 + l));
    cache::BufferManager *bm = tb.compute(0).cache();
    ASSERT_NE(bm, nullptr);
    bool done = false;
    tb.compute(0).spawnWorker(0, [&](SmartCtx &ctx) -> Task {
        std::uint8_t buf[4][16] = {};
        ReadPart parts[4];
        for (std::uint32_t l = 0; l < 4; ++l)
            parts[l] = linePart(ctx, base, l, buf[l]);
        co_await ctx.accessMany(parts, 4);
        EXPECT_FALSE(ctx.failed());
        for (std::uint32_t l = 0; l < 4; ++l) {
            EXPECT_EQ(buf[l][0], 40u + l);
            EXPECT_EQ(buf[l][15], static_cast<std::uint8_t>(40 + l + 15 * 13));
        }
        EXPECT_EQ(bm->missCount(), 2u);
        EXPECT_EQ(bm->poolExhausted(), 2u);
        done = true;
    });
    tb.sim().runUntil(sim::msec(10));
    EXPECT_TRUE(done);
    EXPECT_EQ(tb.sim()
                  .metrics()
                  .snapshot(tb.sim().now())
                  .sumCounters("smart.cache.pool_exhausted"),
              2u);
}

TEST(Cache, CachedRunsAreDeterministicPerSeed)
{
    auto run = [](std::uint64_t cache_bytes) {
        TestbedConfig cfg = cachedConfig(cache_bytes);
        cfg.threadsPerBlade = 2;
        Testbed tb(cfg);
        for (std::uint32_t t = 0; t < 2; ++t) {
            tb.compute(0).spawnWorker(t, [&tb, t](SmartCtx &ctx) -> Task {
                sim::Rng rng(900 + t);
                std::uint64_t base = 0;
                for (int i = 0; i < 200; ++i) {
                    std::uint64_t off =
                        base + rng.uniform(64) * 64; // 16 hot lines
                    std::uint64_t v = 0;
                    co_await ctx.access(
                        ctx.runtime().ptr(t % 2, off),
                        AccessOp::read(MemSpan::of(v)));
                    if (i % 7 == 0) {
                        std::uint64_t nv = rng.next64();
                        co_await ctx.access(
                            ctx.runtime().ptr(t % 2, off),
                            AccessOp::write(ConstMemSpan::of(nv)));
                    }
                }
            });
        }
        tb.sim().runUntil(sim::msec(20));
        return std::make_pair(
            tb.sim().metrics().snapshot(tb.sim().now()).toJson().dump(),
            tb.sim().eventsProcessed());
    };

    // Cached runs replay byte-identically...
    auto [json_a, events_a] = run(16 * 256);
    auto [json_b, events_b] = run(16 * 256);
    EXPECT_EQ(json_a, json_b);
    EXPECT_EQ(events_a, events_b);

    // ...and so do cache-disabled runs (no BufferManager at all).
    auto [json_c, events_c] = run(0);
    auto [json_d, events_d] = run(0);
    EXPECT_EQ(json_c, json_d);
    EXPECT_EQ(events_c, events_d);
    // The cached and disabled streams differ (the cache is real).
    EXPECT_NE(events_a, events_c);
}

TEST(Cache, BatchPinnedFrameHandoffDuringDrain)
{
    // A drain re-keys resident frames to the destination blade via
    // handoffRange while A's batch holds line 0 (a hit) and line 1 (a
    // fill) pinned. The batch must still copy out line 0's pinned bytes
    // (the source line is scrubbed after the copy, so a refetch would
    // show), and the re-keyed line must serve a same-offset access on
    // the destination as a hit.
    Testbed tb(cachedConfig(8 * 256));
    std::uint64_t off0 = tb.memBlade(0).alloc(2 * 256, 256);
    std::uint64_t off1 = tb.memBlade(1).alloc(2 * 256, 256);
    ASSERT_EQ(off0, off1); // offset-preserving migration contract
    patternFill(tb, 0, off0, 2 * 256, 50);
    cache::BufferManager *bm = tb.compute(0).cache();
    ASSERT_NE(bm, nullptr);
    bool posted = false, batch_done = false, a_done = false, b_done = false;
    tb.compute(0).spawnWorker(0, [&](SmartCtx &ctx) -> Task {
        std::uint8_t warm[16] = {};
        ReadPart warm_part = linePart(ctx, off0, 0, warm);
        co_await ctx.accessMany(&warm_part, 1);
        std::uint8_t b0[16] = {}, b1[16] = {};
        ReadPart parts[2] = {linePart(ctx, off0, 0, b0),
                             linePart(ctx, off0, 1, b1)};
        posted = true;
        co_await ctx.accessMany(parts, 2);
        batch_done = true;
        EXPECT_FALSE(ctx.failed());
        EXPECT_EQ(std::memcmp(b0, tb.memBlade(1).bytesAt(off1), 16), 0);
        EXPECT_EQ(std::memcmp(b1, tb.memBlade(1).bytesAt(off1 + 256), 16), 0);

        // The frame now fronts blade 1: same-offset access there hits.
        std::uint64_t hits = bm->hitCount();
        std::uint8_t v[16] = {};
        co_await ctx.access(ctx.runtime().ptr(1, off1),
                            AccessOp::read(MemSpan{v, 16}));
        EXPECT_EQ(v[0], 50u);
        EXPECT_EQ(bm->hitCount(), hits + 1);
        a_done = true;
    });
    tb.compute(0).spawnWorker(0, [&](SmartCtx &ctx) -> Task {
        while (!posted)
            co_await ctx.sim().delay(50);
        EXPECT_FALSE(batch_done); // A's frames are pinned right now
        // The drain's copy step, then the cache handoff: resident line 0
        // is re-keyed, line 1 (mid-fill) is invalidated. Then line 0 of
        // the source is reused.
        std::memcpy(tb.memBlade(1).bytesAt(off1),
                    tb.memBlade(0).bytesAt(off0), 2 * 256);
        EXPECT_EQ(bm->handoffRange(0, 1, off0, 2 * 256), 1u);
        EXPECT_EQ(bm->handoffCount(), 1u);
        std::memset(tb.memBlade(0).bytesAt(off0), 0, 256);
        b_done = true;
        co_return;
    });
    tb.sim().runUntil(sim::msec(10));
    EXPECT_TRUE(a_done);
    EXPECT_TRUE(b_done);
}

TEST(Cache, DirtyLineHandoffWritesBackToDestination)
{
    // A line dirtied before the drain must write its (newer) bytes back
    // to the destination blade after the handoff, never to the source.
    Testbed tb(cachedConfig(8 * 256));
    bool done = false;
    tb.compute(0).spawnWorker(0, [&](SmartCtx &ctx) -> Task {
        std::uint64_t off0 = tb.memBlade(0).alloc(256, 256);
        std::uint64_t off1 = tb.memBlade(1).alloc(256, 256);
        EXPECT_EQ(off0, off1);
        std::memset(tb.memBlade(0).bytesAt(off0), 0, 256);
        std::memset(tb.memBlade(1).bytesAt(off1), 0, 256);
        cache::BufferManager *bm = ctx.runtime().cache();

        std::uint64_t v = 0;
        RemotePtr p0 = ctx.runtime().ptr(0, off0);
        co_await ctx.access(p0, AccessOp::read(MemSpan::of(v)));
        std::uint64_t nv = 4321;
        co_await ctx.access(p0, AccessOp::write(ConstMemSpan::of(nv)),
                            CachePolicy::Cached);

        bm->handoffRange(0, 1, off0, 256);

        co_await ctx.cacheFlush();
        std::uint64_t src_host = ~0ull, dst_host = 0;
        std::memcpy(&src_host, tb.memBlade(0).bytesAt(off0), 8);
        std::memcpy(&dst_host, tb.memBlade(1).bytesAt(off1), 8);
        EXPECT_EQ(src_host, 0u);    // source never re-written
        EXPECT_EQ(dst_host, 4321u); // write-back followed the handoff
        done = true;
    });
    tb.sim().runUntil(sim::msec(10));
    EXPECT_TRUE(done);
}
