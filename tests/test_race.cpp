/**
 * @file
 * Tests for the RACE-style hash table: layout encodings, host-side
 * loading and splits, the one-sided client protocols (lookup / insert /
 * update / delete), concurrent-update linearizability, retry accounting,
 * and client-side extendible splits over RDMA.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <vector>

#include "apps/race/race.hpp"
#include "harness/ht_bench.hpp"
#include "harness/testbed.hpp"

using namespace smart;
using namespace smart::race;
using namespace smart::harness;
using sim::Task;

// ---------------------------------------------------------------- layout

TEST(RaceLayout, SlotRoundTrips)
{
    Slot s = Slot::make(0xab, 2, 3, 0x12345678ull);
    EXPECT_EQ(s.fp(), 0xab);
    EXPECT_EQ(s.len8(), 2u);
    EXPECT_EQ(s.blade(), 3u);
    EXPECT_EQ(s.offset(), 0x12345678ull);
    EXPECT_FALSE(s.empty());
    EXPECT_TRUE(Slot{}.empty());
}

TEST(RaceLayout, BucketHeaderRoundTrips)
{
    BucketHeader h = BucketHeader::make(7, true, 0x1234);
    EXPECT_EQ(h.localDepth(), 7u);
    EXPECT_TRUE(h.splitting());
    EXPECT_EQ(h.suffix(), 0x1234u);
    BucketHeader h2 = BucketHeader::make(7, false, 0x1234);
    EXPECT_FALSE(h2.splitting());
}

TEST(RaceLayout, DirEntryRoundTrips)
{
    DirEntry e = DirEntry::make(5, 2, 0xabcdef0ull);
    EXPECT_EQ(e.localDepth(), 5u);
    EXPECT_EQ(e.blade(), 2u);
    EXPECT_EQ(e.offset(), 0xabcdef0ull);
    EXPECT_TRUE(e.valid());
    EXPECT_FALSE(DirEntry{}.valid());
}

TEST(RaceLayout, FingerprintNonZeroAndStable)
{
    for (std::uint64_t k = 0; k < 1000; ++k) {
        EXPECT_NE(fingerprint(k), 0);
        EXPECT_EQ(fingerprint(k), fingerprint(k));
    }
}

TEST(RaceLayout, GroupGeometry)
{
    EXPECT_EQ(kBucketBytes, 64u);
    EXPECT_EQ(kGroupBytes, 128u);
    EXPECT_EQ(groupOffset(0), 64u);
    EXPECT_EQ(groupOffset(1), 64u + 128u);
}

// ------------------------------------------------------------ host side

namespace {

struct RaceFixture : ::testing::Test
{
    TestbedConfig tcfg;
    std::unique_ptr<Testbed> tb;
    std::unique_ptr<RaceTable> table;

    void
    build(const SmartConfig &smart, std::uint32_t threads,
          const RaceConfig &rcfg)
    {
        tcfg.computeBlades = 1;
        tcfg.memoryBlades = 2;
        tcfg.threadsPerBlade = threads;
        tcfg.bladeBytes = 256ull << 20;
        tcfg.smart = smart;
        tb = std::make_unique<Testbed>(tcfg);
        std::vector<memblade::MemoryBlade *> blades;
        for (std::uint32_t i = 0; i < tb->numMemBlades(); ++i)
            blades.push_back(&tb->memBlade(i));
        table = std::make_unique<RaceTable>(blades, rcfg);
    }
};

RaceConfig
tinyConfig()
{
    RaceConfig rcfg;
    rcfg.initialDepth = 2;
    rcfg.maxDepth = 12;
    rcfg.groupsPerSegment = 8;
    rcfg.segmentHeapBytes = 8ull << 20;
    return rcfg;
}

/** Call @p fn with the base of every distinct segment the directory
 *  points at, in first-seen directory order. */
template <typename Fn>
void
forEachSegment(RaceTable &t, Fn &&fn)
{
    memblade::MemoryBlade &b0 = *t.blades()[0];
    std::vector<std::uint64_t> seen;
    for (std::uint64_t j = 0; j < (1ull << t.globalDepth()); ++j) {
        DirEntry e;
        std::memcpy(&e.raw, b0.bytesAt(t.dirOffset() + j * 8), 8);
        std::uint64_t where = e.raw & ~(0xffull << 56); // blade + offset
        if (std::find(seen.begin(), seen.end(), where) != seen.end())
            continue;
        seen.push_back(where);
        fn(t.blades()[e.blade()]->bytesAt(e.offset()));
    }
}

/** Slot word @p s of group @p g in the segment at @p seg. */
Slot
slotAt(const std::uint8_t *seg, std::uint32_t g, std::uint32_t s)
{
    Slot slot;
    std::memcpy(&slot.raw,
                seg + groupOffset(g) + (s / kSlotsPerBucket) * kBucketBytes +
                    8 + (s % kSlotsPerBucket) * 8,
                8);
    return slot;
}

/**
 * FNV-1a over the table's logical bytes: the global-depth word, every
 * directory word, each distinct segment (header line and all groups), and
 * the KV block every non-empty slot references. Raw blade memory is never
 * hashed whole: allocation padding between KV blocks is uninitialized.
 */
std::uint64_t
layoutHash(RaceTable &t)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mixIn = [&h](const std::uint8_t *p, std::size_t n) {
        for (std::size_t i = 0; i < n; ++i)
            h = (h ^ p[i]) * 0x100000001b3ull;
    };
    memblade::MemoryBlade &b0 = *t.blades()[0];
    mixIn(b0.bytesAt(t.gdOffset()), 8);
    mixIn(b0.bytesAt(t.dirOffset()), 8ull << t.config().maxDepth);
    std::uint32_t groups = t.config().groupsPerSegment;
    forEachSegment(t, [&](const std::uint8_t *seg) {
        mixIn(seg, segmentBytes(groups));
        for (std::uint32_t g = 0; g < groups; ++g) {
            for (std::uint32_t s = 0; s < kSlotsPerGroup; ++s) {
                Slot slot = slotAt(seg, g, s);
                if (!slot.empty())
                    mixIn(t.blades()[slot.blade()]->bytesAt(slot.offset()),
                          kKvBytes);
            }
        }
    });
    return h;
}

/** Non-empty slots over all segments. */
std::uint64_t
occupiedSlots(RaceTable &t)
{
    std::uint64_t n = 0;
    std::uint32_t groups = t.config().groupsPerSegment;
    forEachSegment(t, [&](const std::uint8_t *seg) {
        for (std::uint32_t g = 0; g < groups; ++g)
            for (std::uint32_t s = 0; s < kSlotsPerGroup; ++s)
                n += !slotAt(seg, g, s).empty();
    });
    return n;
}

} // namespace

TEST_F(RaceFixture, HostLoadAndLookup)
{
    build(presets::full(), 1, tinyConfig());
    for (std::uint64_t k = 0; k < 5000; ++k)
        table->loadInsert(k, k * 7 + 1);
    for (std::uint64_t k = 0; k < 5000; ++k) {
        std::uint64_t v = 0;
        ASSERT_TRUE(table->hostLookup(k, v)) << "key " << k;
        EXPECT_EQ(v, k * 7 + 1);
    }
    std::uint64_t v = 0;
    EXPECT_FALSE(table->hostLookup(999999, v));
    for (std::uint64_t k = 5000; k < 6000; ++k) { // absent, in key order
        v = 0xdead;
        EXPECT_FALSE(table->hostLookup(k, v)) << "key " << k;
        EXPECT_EQ(v, 0xdeadu);
    }
    // 5000 keys in 4 initial segments of 8 groups x 14 slots forces
    // many host-side splits.
    EXPECT_GT(table->globalDepth(), 2u);
    EXPECT_EQ(occupiedSlots(*table), 5000u);
    // Golden layout with splits (see GoldenLayoutSizedSequentialLoad).
    EXPECT_EQ(table->loadSplits(), 60u);
    EXPECT_EQ(layoutHash(*table), 15853422093524777036ull);
}

TEST_F(RaceFixture, HostOverwriteKeepsOneCopy)
{
    build(presets::full(), 1, tinyConfig());
    table->loadInsert(42, 1);
    table->loadInsert(42, 2);
    std::uint64_t v = 0;
    ASSERT_TRUE(table->hostLookup(42, v));
    EXPECT_EQ(v, 2u);
    // A whole key range overwritten in key order, across splits.
    for (std::uint64_t k = 0; k < 3000; ++k)
        table->loadInsert(k, k);
    for (std::uint64_t k = 0; k < 3000; ++k)
        table->loadInsert(k, k + 1'000'000);
    EXPECT_EQ(occupiedSlots(*table), 3000u);
    for (std::uint64_t k = 0; k < 3000; ++k) {
        ASSERT_TRUE(table->hostLookup(k, v)) << "key " << k;
        EXPECT_EQ(v, k + 1'000'000);
    }
}

// The bulk loader's placement decisions fix every simulated result that
// follows, so its layout is pinned byte for byte. A change to these
// constants changes the paper figures and needs a named model fix.
TEST_F(RaceFixture, GoldenLayoutSizedSequentialLoad)
{
    build(presets::full(), 1, sizedRaceConfig(200'000));
    for (std::uint64_t k = 0; k < 200'000; ++k)
        table->loadInsert(k, k);
    EXPECT_EQ(table->loadSplits(), 0u);
    EXPECT_EQ(layoutHash(*table), 14351802405660356030ull);
}

TEST_F(RaceFixture, HostReverseLoadFindsEveryKey)
{
    build(presets::full(), 1, tinyConfig());
    for (std::uint64_t k = 5000; k-- > 0;)
        table->loadInsert(k, k + 3);
    EXPECT_GT(table->loadSplits(), 0u);
    for (std::uint64_t k = 5000; k-- > 0;) {
        std::uint64_t v = 0;
        ASSERT_TRUE(table->hostLookup(k, v)) << "key " << k;
        EXPECT_EQ(v, k + 3);
    }
    EXPECT_EQ(occupiedSlots(*table), 5000u);
}

// ----------------------------------------------------------- client ops

TEST_F(RaceFixture, ClientLookupFindsLoadedKeys)
{
    build(presets::full(), 2, tinyConfig());
    for (std::uint64_t k = 0; k < 2000; ++k)
        table->loadInsert(k, k + 100);
    RaceClient client(*table, tb->compute(0));

    int checked = 0;
    tb->compute(0).spawnWorker(0, [&](SmartCtx &ctx) -> Task {
        for (std::uint64_t k = 0; k < 200; ++k) {
            OpResult res;
            co_await client.lookup(ctx, k * 10, res);
            EXPECT_TRUE(res.ok) << "key " << k * 10;
            EXPECT_EQ(res.value, k * 10 + 100);
            EXPECT_GE(res.rdmaOps, 3u); // 2 group READs + >=1 KV READ
            ++checked;
        }
        OpResult res;
        co_await client.lookup(ctx, 777777, res);
        EXPECT_FALSE(res.ok);
    });
    tb->sim().runUntil(sim::msec(100));
    EXPECT_EQ(checked, 200);
}

TEST_F(RaceFixture, ClientInsertThenLookup)
{
    build(presets::full(), 2, tinyConfig());
    RaceClient client(*table, tb->compute(0));
    int done = 0;
    tb->compute(0).spawnWorker(0, [&](SmartCtx &ctx) -> Task {
        for (std::uint64_t k = 0; k < 100; ++k) {
            OpResult ins;
            co_await client.insert(ctx, 5000 + k, k, ins);
            EXPECT_TRUE(ins.ok);
        }
        for (std::uint64_t k = 0; k < 100; ++k) {
            OpResult res;
            co_await client.lookup(ctx, 5000 + k, res);
            EXPECT_TRUE(res.ok);
            EXPECT_EQ(res.value, k);
        }
        ++done;
    });
    tb->sim().runUntil(sim::msec(200));
    EXPECT_EQ(done, 1);
    // Host view agrees with RDMA view.
    std::uint64_t v = 0;
    EXPECT_TRUE(table->hostLookup(5050, v));
    EXPECT_EQ(v, 50u);
}

TEST_F(RaceFixture, ClientUpdateReplacesValue)
{
    build(presets::full(), 2, tinyConfig());
    table->loadInsert(1, 10);
    RaceClient client(*table, tb->compute(0));
    int done = 0;
    tb->compute(0).spawnWorker(0, [&](SmartCtx &ctx) -> Task {
        OpResult up;
        co_await client.update(ctx, 1, 20, up);
        EXPECT_TRUE(up.ok);
        OpResult res;
        co_await client.lookup(ctx, 1, res);
        EXPECT_TRUE(res.ok);
        EXPECT_EQ(res.value, 20u);
        ++done;
    });
    tb->sim().runUntil(sim::msec(50));
    EXPECT_EQ(done, 1);
}

TEST_F(RaceFixture, ClientRemoveDeletes)
{
    build(presets::full(), 2, tinyConfig());
    table->loadInsert(9, 90);
    RaceClient client(*table, tb->compute(0));
    int done = 0;
    tb->compute(0).spawnWorker(0, [&](SmartCtx &ctx) -> Task {
        OpResult rm;
        co_await client.remove(ctx, 9, rm);
        EXPECT_TRUE(rm.ok);
        OpResult res;
        co_await client.lookup(ctx, 9, res);
        EXPECT_FALSE(res.ok);
        OpResult rm2;
        co_await client.remove(ctx, 9, rm2);
        EXPECT_FALSE(rm2.ok); // already gone
        ++done;
    });
    tb->sim().runUntil(sim::msec(50));
    EXPECT_EQ(done, 1);
}

TEST_F(RaceFixture, ConcurrentUpdatesOnHotKeyRetryAndConverge)
{
    build(presets::full(), 4, tinyConfig());
    table->loadInsert(7, 0);
    RaceClient client(*table, tb->compute(0));

    std::uint64_t total_retries = 0;
    int done = 0;
    for (std::uint32_t t = 0; t < 4; ++t) {
        tb->compute(0).spawnWorker(t, [&, t](SmartCtx &ctx) -> Task {
            for (int i = 0; i < 25; ++i) {
                OpResult res;
                co_await client.update(ctx, 7, t * 1000 + i, res);
                EXPECT_TRUE(res.ok);
                total_retries += res.retries;
            }
            ++done;
        });
    }
    tb->sim().runUntil(sim::msec(500));
    EXPECT_EQ(done, 4);
    // The final value must be one of the written values (atomicity).
    std::uint64_t v = 0;
    ASSERT_TRUE(table->hostLookup(7, v));
    EXPECT_EQ((v % 1000) < 25 && (v / 1000) < 4, true);
}

TEST_F(RaceFixture, ClientSideSplitViaRdma)
{
    RaceConfig rcfg = tinyConfig();
    rcfg.initialDepth = 1;
    rcfg.groupsPerSegment = 2; // tiny: 2 groups x 14 slots per segment
    build(presets::full(), 2, rcfg);
    RaceClient client(*table, tb->compute(0));

    int inserted = 0;
    tb->compute(0).spawnWorker(0, [&](SmartCtx &ctx) -> Task {
        for (std::uint64_t k = 0; k < 300; ++k) {
            OpResult res;
            co_await client.insert(ctx, k, k * 3, res);
            EXPECT_TRUE(res.ok) << "key " << k;
            inserted += res.ok;
        }
    });
    tb->sim().runUntil(sim::sec(5));
    EXPECT_EQ(inserted, 300);
    EXPECT_GT(client.clientSplits(), 0u);
    // Every key is still reachable, host-side.
    for (std::uint64_t k = 0; k < 300; ++k) {
        std::uint64_t v = 0;
        ASSERT_TRUE(table->hostLookup(k, v)) << "key " << k;
        EXPECT_EQ(v, k * 3);
    }
}

TEST_F(RaceFixture, BaselineConfigAlsoWorks)
{
    build(presets::baseline(), 2, tinyConfig());
    table->loadInsert(3, 33);
    RaceClient client(*table, tb->compute(0));
    int done = 0;
    tb->compute(0).spawnWorker(1, [&](SmartCtx &ctx) -> Task {
        OpResult res;
        co_await client.lookup(ctx, 3, res);
        EXPECT_TRUE(res.ok);
        EXPECT_EQ(res.value, 33u);
        ++done;
    });
    tb->sim().runUntil(sim::msec(50));
    EXPECT_EQ(done, 1);
}

TEST_F(RaceFixture, RetriesReportedUnderContention)
{
    build(presets::baseline(), 8, tinyConfig());
    table->loadInsert(1, 0);
    RaceClient client(*table, tb->compute(0));
    std::uint64_t retries = 0;
    int ops = 0;
    for (std::uint32_t t = 0; t < 8; ++t) {
        tb->compute(0).spawnWorker(t, [&](SmartCtx &ctx) -> Task {
            for (int i = 0; i < 10; ++i) {
                OpResult res;
                co_await client.update(ctx, 1, i, res);
                retries += res.retries;
                ++ops;
            }
        });
    }
    tb->sim().runUntil(sim::msec(500));
    EXPECT_EQ(ops, 80);
    // 8 threads hammering one key without backoff must produce retries.
    EXPECT_GT(retries, 0u);
}
