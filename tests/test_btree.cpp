/**
 * @file
 * Tests for the Sherman-style B+Tree: layout invariants, host-side bulk
 * build, client lookup/insert/remove/scan over RDMA, splits (leaf,
 * internal, root growth), speculative lookup correctness including
 * invalidation, and HOCL lock behaviour under concurrency.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <unordered_map>
#include <vector>

#include "apps/sherman/btree.hpp"
#include "harness/testbed.hpp"
#include "sim/flat_map.hpp"
#include "sim/random.hpp"

using namespace smart;
using namespace smart::sherman;
using namespace smart::harness;
using sim::Task;

TEST(BtreeLayout, SizesAndPacking)
{
    EXPECT_EQ(sizeof(NodeImage), 1024u);
    EXPECT_EQ(kNodeCapacity, 45u);
    std::uint64_t p = packPtr(3, 0x123456);
    EXPECT_EQ(ptrBlade(p), 3u);
    EXPECT_EQ(ptrOffset(p), 0x123456u);
    EXPECT_EQ(lineOffset(0), 64u);
    EXPECT_EQ(lineOffset(14), 64u * 15);
}

TEST(BtreeLayout, VersionConsistencyCheck)
{
    NodeImage img{};
    EXPECT_TRUE(versionsConsistent(img));
    img.lines[7].version = 42;
    EXPECT_FALSE(versionsConsistent(img));
}

// ---------------------------------------------------------- flat map

namespace {

/** Two fields, so a half-copied value would show. */
struct FlatVal
{
    std::uint64_t a = 0;
    std::uint32_t b = 0;
    bool operator==(const FlatVal &) const = default;
};

using RefMap = std::unordered_map<std::uint64_t, FlatVal>;

/** @p m holds exactly what @p ref holds, checked on every key of
 *  @p universe. */
::testing::AssertionResult
sameAs(const sim::FlatMap<FlatVal> &m, const RefMap &ref,
       const std::vector<std::uint64_t> &universe)
{
    if (m.size() != ref.size())
        return ::testing::AssertionFailure()
               << "size " << m.size() << " vs " << ref.size();
    for (std::uint64_t k : universe) {
        const FlatVal *v = m.find(k);
        auto it = ref.find(k);
        if ((v != nullptr) != (it != ref.end()))
            return ::testing::AssertionFailure()
                   << "key " << k << (v ? " present" : " missing");
        if (v != nullptr && !(*v == it->second))
            return ::testing::AssertionFailure()
                   << "key " << k << " has another value";
    }
    return ::testing::AssertionSuccess();
}

/** Keys whose home is slot @p home of a 16-slot table (FlatMap's
 *  Fibonacci hash keeps the product's top four bits). */
std::vector<std::uint64_t>
keysHomedAt(std::uint64_t home, std::size_t n)
{
    std::vector<std::uint64_t> out;
    for (std::uint64_t k = 1; out.size() < n; ++k) {
        if ((k * 0x9e3779b97f4a7c15ull) >> 60 == home)
            out.push_back(k);
    }
    return out;
}

} // namespace

TEST(FlatMap, EraseShiftsRunsBackAcrossTheWrap)
{
    // Four keys homed at the last slot fill slots 15, 0, 1 and 2; two
    // keys homed at slot 0 are displaced behind them. Each erase must
    // shift the rest of the run back over the wrap so every survivor
    // stays reachable from its home.
    std::vector<std::uint64_t> keys = keysHomedAt(15, 4);
    for (std::uint64_t k : keysHomedAt(0, 2))
        keys.push_back(k);
    for (std::size_t first = 0; first < keys.size(); ++first) {
        sim::FlatMap<FlatVal> m;
        RefMap ref;
        for (std::uint64_t k : keys) {
            m.emplace(k, FlatVal{k, 1});
            ref.try_emplace(k, FlatVal{k, 1});
        }
        ASSERT_TRUE(sameAs(m, ref, keys));
        // Erase starting at a different run position each round.
        for (std::size_t i = 0; i < keys.size(); ++i) {
            std::uint64_t k = keys[(first + i) % keys.size()];
            ASSERT_TRUE(m.erase(k));
            ref.erase(k);
            ASSERT_TRUE(sameAs(m, ref, keys)) << "after erasing " << k;
        }
        EXPECT_FALSE(m.erase(keys[0]));
    }
}

TEST(FlatMap, MatchesUnorderedMapOnSeededOps)
{
    // Seeded find / emplace-if-absent / insert-or-assign / erase / clear
    // against std::unordered_map, compared on the whole key universe
    // after every step. The universe holds 0, ~0, keys sharing the first
    // table's last home slot (runs that wrap) and random keys; the map
    // grows from 16 slots past 128 before the first clear.
    std::vector<std::uint64_t> universe = keysHomedAt(15, 6);
    universe.push_back(0);
    universe.push_back(~std::uint64_t{0});
    sim::Rng rng(29, 7);
    while (universe.size() < 200)
        universe.push_back(rng.next64());
    sim::FlatMap<FlatVal> m;
    RefMap ref;
    std::size_t max_size = 0;
    for (std::uint32_t step = 0; step < 20000; ++step) {
        std::uint64_t k = universe[rng.uniform(universe.size())];
        FlatVal v{rng.next64(), step};
        std::uint64_t op = rng.uniform(100);
        if (step % 7000 == 6999) {
            m.clear();
            ref.clear();
        } else if (op < 45) {
            auto [pv, inserted] = m.emplace(k, v);
            auto [it, ref_inserted] = ref.try_emplace(k, v);
            ASSERT_EQ(inserted, ref_inserted) << "step " << step;
            ASSERT_EQ(*pv, it->second) << "step " << step;
        } else if (op < 60) {
            ASSERT_EQ(m.insertOrAssign(k, v), v);
            ref.insert_or_assign(k, v);
        } else if (op < 85) {
            ASSERT_EQ(m.erase(k), ref.erase(k) == 1) << "step " << step;
        }
        max_size = std::max(max_size, m.size());
        ASSERT_TRUE(sameAs(m, ref, universe)) << "step " << step;
    }
    EXPECT_GT(max_size, 96u); // more than 3/4 of 128 slots: 4 growths
}

TEST(FlatMap, ReserveHoldsThatManyKeysWithoutGrowing)
{
    // A value pointer moves only when the table grows, so one taken
    // before the inserts still reads its value after all of them.
    sim::FlatMap<FlatVal> m;
    m.reserve(1000);
    FlatVal *first = m.emplace(7, FlatVal{7, 7}).first;
    for (std::uint64_t k = 100; m.size() < 1000; ++k)
        m.emplace(k, FlatVal{k, 1});
    ASSERT_EQ(m.find(7), first);
    EXPECT_EQ(*first, (FlatVal{7, 7}));
    m.reserve(10); // never shrinks
    EXPECT_EQ(m.find(7), first);
}

namespace {

struct BtreeFixture : ::testing::Test
{
    TestbedConfig tcfg;
    std::unique_ptr<Testbed> tb;
    std::unique_ptr<BtreeIndex> index;

    void
    build(const SmartConfig &smart, std::uint32_t threads, bool spec,
          std::uint64_t keys)
    {
        tcfg.computeBlades = 1;
        tcfg.memoryBlades = 2;
        tcfg.threadsPerBlade = threads;
        tcfg.bladeBytes = 512ull << 20;
        tcfg.smart = smart;
        tb = std::make_unique<Testbed>(tcfg);
        std::vector<memblade::MemoryBlade *> blades;
        for (std::uint32_t i = 0; i < tb->numMemBlades(); ++i)
            blades.push_back(&tb->memBlade(i));
        BtreeConfig bcfg;
        bcfg.speculativeLookup = spec;
        index = std::make_unique<BtreeIndex>(blades, bcfg);
        if (keys)
            index->loadSequential(keys, 0xabcdull);
    }
};

} // namespace

TEST_F(BtreeFixture, BulkLoadBuildsMultiLevelTree)
{
    build(presets::full(), 1, false, 10000);
    EXPECT_GT(index->height(), 2u);
    EXPECT_EQ(index->hostCount(), 10000u);
    for (std::uint64_t k : {0ull, 1ull, 4999ull, 9999ull}) {
        std::uint64_t v = 0;
        ASSERT_TRUE(index->hostLookup(k, v)) << k;
        EXPECT_EQ(v, k ^ 0xabcdull);
    }
    std::uint64_t v = 0;
    EXPECT_FALSE(index->hostLookup(10000, v));
}

TEST_F(BtreeFixture, ClientLookupHitsAndMisses)
{
    build(presets::full(), 2, false, 5000);
    BtreeClient client(*index, tb->compute(0));
    int checked = 0;
    tb->compute(0).spawnWorker(0, [&](SmartCtx &ctx) -> Task {
        for (std::uint64_t k = 0; k < 500; ++k) {
            BtOpResult res;
            co_await client.lookup(ctx, k * 10, res);
            EXPECT_TRUE(res.ok) << k * 10;
            EXPECT_EQ(res.value, (k * 10) ^ 0xabcdull);
            ++checked;
        }
        BtOpResult res;
        co_await client.lookup(ctx, 999999, res);
        EXPECT_FALSE(res.ok);
    });
    tb->sim().runUntil(sim::msec(200));
    EXPECT_EQ(checked, 500);
    EXPECT_GT(client.cacheSize(), 0u); // internals got cached
}

TEST_F(BtreeFixture, InsertUpdateRemove)
{
    build(presets::full(), 2, false, 1000);
    BtreeClient client(*index, tb->compute(0));
    int done = 0;
    tb->compute(0).spawnWorker(0, [&](SmartCtx &ctx) -> Task {
        BtOpResult res;
        // Update an existing key in place.
        co_await client.insert(ctx, 500, 7777, res);
        EXPECT_TRUE(res.ok);
        BtOpResult l1;
        co_await client.lookup(ctx, 500, l1);
        EXPECT_TRUE(l1.ok);
        EXPECT_EQ(l1.value, 7777u);
        // Remove it.
        BtOpResult rm;
        co_await client.remove(ctx, 500, rm);
        EXPECT_TRUE(rm.ok);
        BtOpResult l2;
        co_await client.lookup(ctx, 500, l2);
        EXPECT_FALSE(l2.ok);
        // Reinsert.
        BtOpResult ins;
        co_await client.insert(ctx, 500, 8888, ins);
        EXPECT_TRUE(ins.ok);
        BtOpResult l3;
        co_await client.lookup(ctx, 500, l3);
        EXPECT_TRUE(l3.ok);
        EXPECT_EQ(l3.value, 8888u);
        ++done;
    });
    tb->sim().runUntil(sim::msec(100));
    EXPECT_EQ(done, 1);
}

TEST_F(BtreeFixture, InsertsTriggerLeafSplits)
{
    build(presets::full(), 2, false, 100);
    BtreeClient client(*index, tb->compute(0));
    int inserted = 0;
    tb->compute(0).spawnWorker(0, [&](SmartCtx &ctx) -> Task {
        // Dense inserts into the loaded range force splits (leaves were
        // loaded at 70% fill).
        for (std::uint64_t k = 0; k < 2000; ++k) {
            BtOpResult res;
            co_await client.insert(ctx, 1000 + k, k, res);
            EXPECT_TRUE(res.ok) << k;
            inserted += res.ok;
        }
    });
    tb->sim().runUntil(sim::sec(5));
    EXPECT_EQ(inserted, 2000);
    EXPECT_GT(client.splits(), 0u);
    // All keys reachable host-side.
    for (std::uint64_t k = 0; k < 2000; ++k) {
        std::uint64_t v = 0;
        ASSERT_TRUE(index->hostLookup(1000 + k, v)) << k;
        EXPECT_EQ(v, k);
    }
    // Pre-loaded keys below the inserted range survived.
    std::uint64_t v = 0;
    ASSERT_TRUE(index->hostLookup(50, v));
}

TEST_F(BtreeFixture, RootGrowsWhenNeeded)
{
    build(presets::full(), 2, false, 0); // empty tree: root is a leaf
    BtreeClient client(*index, tb->compute(0));
    int inserted = 0;
    tb->compute(0).spawnWorker(0, [&](SmartCtx &ctx) -> Task {
        for (std::uint64_t k = 0; k < 500; ++k) {
            BtOpResult res;
            co_await client.insert(ctx, k * 3, k, res);
            inserted += res.ok;
        }
    });
    tb->sim().runUntil(sim::sec(5));
    EXPECT_EQ(inserted, 500);
    EXPECT_EQ(index->hostCount(), 500u);
    for (std::uint64_t k = 0; k < 500; ++k) {
        std::uint64_t v = 0;
        ASSERT_TRUE(index->hostLookup(k * 3, v)) << k;
        EXPECT_EQ(v, k);
    }
}

TEST_F(BtreeFixture, ScanReturnsSortedRange)
{
    build(presets::full(), 2, false, 3000);
    BtreeClient client(*index, tb->compute(0));
    std::vector<Entry> out;
    tb->compute(0).spawnWorker(0, [&](SmartCtx &ctx) -> Task {
        BtOpResult res;
        co_await client.scan(ctx, 1500, 100, out, res);
        EXPECT_TRUE(res.ok);
    });
    tb->sim().runUntil(sim::msec(100));
    ASSERT_EQ(out.size(), 100u);
    for (std::size_t i = 0; i < out.size(); ++i) {
        EXPECT_EQ(out[i].key, 1500 + i);
        EXPECT_EQ(out[i].value, (1500 + i) ^ 0xabcdull);
    }
}

TEST_F(BtreeFixture, SpeculativeLookupHitsAfterFirstAccess)
{
    build(presets::full(), 2, true, 2000);
    BtreeClient client(*index, tb->compute(0));
    tb->compute(0).spawnWorker(0, [&](SmartCtx &ctx) -> Task {
        BtOpResult first;
        co_await client.lookup(ctx, 700, first);
        EXPECT_TRUE(first.ok);
        EXPECT_FALSE(first.specHit);
        BtOpResult second;
        co_await client.lookup(ctx, 700, second);
        EXPECT_TRUE(second.ok);
        EXPECT_TRUE(second.specHit);
        EXPECT_EQ(second.value, 700u ^ 0xabcdull);
        // The fast path is a single 64 B READ.
        EXPECT_EQ(second.rdmaOps, 1u);
    });
    tb->sim().runUntil(sim::msec(100));
    EXPECT_GE(client.specHits(), 1u);
}

TEST_F(BtreeFixture, SpeculativeLookupSeesFreshValues)
{
    build(presets::full(), 2, true, 2000);
    BtreeClient client(*index, tb->compute(0));
    tb->compute(0).spawnWorker(0, [&](SmartCtx &ctx) -> Task {
        BtOpResult warm;
        co_await client.lookup(ctx, 900, warm);
        BtOpResult up;
        co_await client.insert(ctx, 900, 31337, up);
        EXPECT_TRUE(up.ok);
        BtOpResult res;
        co_await client.lookup(ctx, 900, res);
        EXPECT_TRUE(res.ok);
        EXPECT_TRUE(res.specHit); // same slot, fresh value
        EXPECT_EQ(res.value, 31337u);
    });
    tb->sim().runUntil(sim::msec(100));
}

TEST_F(BtreeFixture, SpeculativeLookupFallsBackAfterDelete)
{
    build(presets::full(), 2, true, 2000);
    BtreeClient client(*index, tb->compute(0));
    tb->compute(0).spawnWorker(0, [&](SmartCtx &ctx) -> Task {
        BtOpResult warm;
        co_await client.lookup(ctx, 901, warm);
        BtOpResult rm;
        co_await client.remove(ctx, 901, rm);
        EXPECT_TRUE(rm.ok);
        BtOpResult res;
        co_await client.lookup(ctx, 901, res);
        EXPECT_FALSE(res.ok);
        EXPECT_FALSE(res.specHit);
    });
    tb->sim().runUntil(sim::msec(100));
}

TEST_F(BtreeFixture, ConcurrentInsertersKeepAllKeys)
{
    build(presets::full(), 4, false, 200);
    BtreeClient client(*index, tb->compute(0));
    int done = 0;
    for (std::uint32_t t = 0; t < 4; ++t) {
        tb->compute(0).spawnWorker(t, [&, t](SmartCtx &ctx) -> Task {
            for (std::uint64_t k = 0; k < 150; ++k) {
                BtOpResult res;
                co_await client.insert(ctx, 10000 + t * 1000 + k,
                                       t * 1000 + k, res);
                EXPECT_TRUE(res.ok);
            }
            ++done;
        });
    }
    tb->sim().runUntil(sim::sec(10));
    EXPECT_EQ(done, 4);
    for (std::uint32_t t = 0; t < 4; ++t) {
        for (std::uint64_t k = 0; k < 150; ++k) {
            std::uint64_t v = 0;
            ASSERT_TRUE(index->hostLookup(10000 + t * 1000 + k, v))
                << t << " " << k;
            EXPECT_EQ(v, t * 1000 + k);
        }
    }
}

TEST_F(BtreeFixture, HotLeafContentionSerializedByHocl)
{
    build(presets::full(), 4, false, 1000);
    BtreeClient client(*index, tb->compute(0));
    int done = 0;
    std::uint64_t retries = 0;
    for (std::uint32_t t = 0; t < 4; ++t) {
        tb->compute(0).spawnWorker(t, [&, t](SmartCtx &ctx) -> Task {
            for (int i = 0; i < 25; ++i) {
                BtOpResult res;
                co_await client.insert(ctx, 500, t * 100 + i, res);
                EXPECT_TRUE(res.ok);
                retries += res.retries;
            }
            ++done;
        });
    }
    tb->sim().runUntil(sim::sec(5));
    EXPECT_EQ(done, 4);
    // Same compute blade: the local HOCL table serializes writers, so
    // the remote lock CAS virtually never fails.
    EXPECT_EQ(retries, 0u);
    std::uint64_t v = 0;
    ASSERT_TRUE(index->hostLookup(500, v));
}

TEST_F(BtreeFixture, StaleLockLeaseBrokenInsteadOfDeadlock)
{
    // A writer on another compute blade died holding a leaf's HOCL lock
    // (simulated by setting the lock word directly in blade memory).
    // With a fault plane installed, a live writer spinning past the
    // lease must break the lock and complete instead of deadlocking.
    build(presets::full(), 1, false, 10);
    ASSERT_EQ(index->height(), 1u); // root is the one leaf
    std::uint64_t root_ptr = 0;
    std::memcpy(&root_ptr, tb->memBlade(0).bytesAt(index->rootPtrOffset()),
                8);
    std::uint64_t dead_lock = 1;
    std::memcpy(tb->memBlade(ptrBlade(root_ptr)).bytesAt(ptrOffset(root_ptr)),
                &dead_lock, 8);

    tb->faultPlane(9); // arms lease breaking; no faults scheduled
    BtreeClient client(*index, tb->compute(0));
    bool done = false;
    tb->compute(0).spawnWorker(0, [&](SmartCtx &ctx) -> Task {
        BtOpResult res;
        co_await client.insert(ctx, 4, 0xfeed, res);
        EXPECT_TRUE(res.ok);
        done = true;
    });
    tb->sim().runUntil(sim::msec(100));

    EXPECT_TRUE(done);
    EXPECT_GE(client.leaseBreaks(), 1u);
    std::uint64_t v = 0;
    ASSERT_TRUE(index->hostLookup(4, v));
    EXPECT_EQ(v, 0xfeedu);
    // The lock was released cleanly after the broken-lease acquisition.
    std::uint64_t lock_now = ~0ull;
    std::memcpy(&lock_now,
                tb->memBlade(ptrBlade(root_ptr)).bytesAt(ptrOffset(root_ptr)),
                8);
    EXPECT_EQ(lock_now, 0u);
}
