/**
 * @file
 * Unit tests for the RNIC hardware model: memory registration, one-sided
 * op execution semantics (READ/WRITE/CAS/FAA on real bytes), cache models,
 * traffic accounting, and the performance ceilings the paper's platform
 * exhibits.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "rnic/cache_model.hpp"
#include "rnic/rnic.hpp"
#include "sim/simulator.hpp"

using namespace smart;
using namespace smart::rnic;
using sim::Simulator;
using sim::Time;

namespace {

/** Captures completions for assertions. */
struct TestSink : CompletionSink
{
    std::vector<std::uint64_t> wrIds;
    std::vector<std::uint64_t> oldValues;
    Time lastCompletion = 0;
    Simulator *sim = nullptr;

    void
    complete(const WorkReq &wr, std::uint64_t old_value,
             WcStatus) override
    {
        wrIds.push_back(wr.wrId);
        oldValues.push_back(old_value);
        if (sim)
            lastCompletion = sim->now();
    }
};

struct RnicPair
{
    Simulator sim;
    RnicConfig cfg;
    Rnic initiator;
    Rnic target;
    std::vector<std::uint8_t> localMem;
    std::vector<std::uint8_t> remoteMem;
    const MrRecord *localMr;
    const MrRecord *remoteMr;
    TestSink sink;

    RnicPair()
        : initiator(sim, cfg, "cb"), target(sim, cfg, "mb"),
          localMem(4096, 0), remoteMem(8192, 0)
    {
        localMr = &initiator.registerMemory(localMem.data(), localMem.size());
        remoteMr = &target.registerMemory(remoteMem.data(), remoteMem.size());
        sink.sim = &sim;
    }

    WorkReq
    makeWr(Op op, std::uint64_t remote_off, std::uint8_t *local,
           std::uint32_t len)
    {
        WorkReq wr;
        wr.op = op;
        wr.rkey = remoteMr->rkey;
        wr.remoteOffset = remote_off;
        wr.localBuf = local;
        wr.length = len;
        wr.localTransKey = Rnic::transKey(localMr->id, 0);
        wr.sink = &sink;
        return wr;
    }
};

} // namespace

TEST(RnicMemory, RegisterAndFind)
{
    Simulator sim;
    RnicConfig cfg;
    Rnic rnic(sim, cfg, "r");
    std::vector<std::uint8_t> mem(1024);
    const MrRecord &mr = rnic.registerMemory(mem.data(), mem.size());
    EXPECT_EQ(rnic.findMr(mr.rkey), &mr);
    EXPECT_EQ(rnic.findMr(mr.rkey + 1), nullptr);
    EXPECT_EQ(mr.length, 1024u);
}

TEST(RnicMemory, DistinctMrIdsPerRegistration)
{
    Simulator sim;
    RnicConfig cfg;
    Rnic rnic(sim, cfg, "r");
    std::vector<std::uint8_t> mem(1024);
    const MrRecord &a = rnic.registerMemory(mem.data(), mem.size());
    const MrRecord &b = rnic.registerMemory(mem.data(), mem.size());
    EXPECT_NE(a.id, b.id);
    EXPECT_NE(a.rkey, b.rkey);
}

TEST(RnicMemory, TransKeySeparates2MbPages)
{
    EXPECT_EQ(Rnic::transKey(1, 0), Rnic::transKey(1, (1 << 21) - 1));
    EXPECT_NE(Rnic::transKey(1, 0), Rnic::transKey(1, 1 << 21));
    EXPECT_NE(Rnic::transKey(1, 0), Rnic::transKey(2, 0));
}

TEST(RnicOps, WriteThenReadRoundTrip)
{
    RnicPair p;
    const char msg[8] = "hi smar";
    std::memcpy(p.localMem.data(), msg, 8);

    WorkReq wr = p.makeWr(Op::Write, 256, p.localMem.data(), 8);
    p.initiator.postBatch(&p.target, {wr});
    p.sim.run();
    ASSERT_EQ(p.sink.wrIds.size(), 1u);
    EXPECT_EQ(std::memcmp(p.remoteMem.data() + 256, msg, 8), 0);

    WorkReq rd = p.makeWr(Op::Read, 256, p.localMem.data() + 64, 8);
    p.initiator.postBatch(&p.target, {rd});
    p.sim.run();
    EXPECT_EQ(std::memcmp(p.localMem.data() + 64, msg, 8), 0);
}

TEST(RnicOps, CasSucceedsOnMatch)
{
    RnicPair p;
    std::uint64_t initial = 42;
    std::memcpy(p.remoteMem.data() + 128, &initial, 8);

    std::uint64_t result = 0;
    WorkReq wr = p.makeWr(Op::Cas, 128,
                          reinterpret_cast<std::uint8_t *>(&result), 8);
    wr.compare = 42;
    wr.swap = 99;
    p.initiator.postBatch(&p.target, {wr});
    p.sim.run();

    EXPECT_EQ(result, 42u); // old value returned
    std::uint64_t now_val = 0;
    std::memcpy(&now_val, p.remoteMem.data() + 128, 8);
    EXPECT_EQ(now_val, 99u); // swapped
}

TEST(RnicOps, CasFailsOnMismatchAndDoesNotWrite)
{
    RnicPair p;
    std::uint64_t initial = 7;
    std::memcpy(p.remoteMem.data() + 128, &initial, 8);

    std::uint64_t result = 0;
    WorkReq wr = p.makeWr(Op::Cas, 128,
                          reinterpret_cast<std::uint8_t *>(&result), 8);
    wr.compare = 42; // wrong expectation
    wr.swap = 99;
    p.initiator.postBatch(&p.target, {wr});
    p.sim.run();

    EXPECT_EQ(result, 7u);
    std::uint64_t now_val = 0;
    std::memcpy(&now_val, p.remoteMem.data() + 128, 8);
    EXPECT_EQ(now_val, 7u); // unchanged
}

TEST(RnicOps, FaaAddsAndReturnsOld)
{
    RnicPair p;
    std::uint64_t initial = 100;
    std::memcpy(p.remoteMem.data() + 8, &initial, 8);

    std::uint64_t result = 0;
    WorkReq wr = p.makeWr(Op::Faa, 8,
                          reinterpret_cast<std::uint8_t *>(&result), 8);
    wr.compare = 5; // addend
    p.initiator.postBatch(&p.target, {wr});
    p.sim.run();

    EXPECT_EQ(result, 100u);
    std::uint64_t now_val = 0;
    std::memcpy(&now_val, p.remoteMem.data() + 8, 8);
    EXPECT_EQ(now_val, 105u);
}

TEST(RnicOps, ConcurrentCasOnlyOneWins)
{
    RnicPair p;
    std::uint64_t initial = 0;
    std::memcpy(p.remoteMem.data(), &initial, 8);

    std::vector<std::uint64_t> results(8, 0);
    std::vector<WorkReq> batch;
    for (int i = 0; i < 8; ++i) {
        WorkReq wr = p.makeWr(
            Op::Cas, 0, reinterpret_cast<std::uint8_t *>(&results[i]), 8);
        wr.compare = 0;
        wr.swap = 1000 + i;
        wr.wrId = i;
        batch.push_back(wr);
    }
    p.initiator.postBatch(&p.target, std::move(batch));
    p.sim.run();

    int winners = 0;
    for (int i = 0; i < 8; ++i) {
        if (results[i] == 0)
            ++winners;
    }
    EXPECT_EQ(winners, 1); // exactly one CAS observed the expected value
}

TEST(RnicOps, ReadSnapshotsAtTargetNotAtCompletion)
{
    // A READ must return bytes as they were at target-DMA time even if a
    // later WRITE lands before the READ's completion is delivered.
    RnicPair p;
    std::uint64_t v1 = 11;
    std::memcpy(p.remoteMem.data(), &v1, 8);

    std::uint64_t read_result = 0;
    WorkReq rd = p.makeWr(Op::Read, 0,
                          reinterpret_cast<std::uint8_t *>(&read_result), 8);
    p.initiator.postBatch(&p.target, {rd});
    p.sim.run();
    EXPECT_EQ(read_result, 11u);
}

TEST(RnicOps, CompletionLatencyIsMicrosecondScale)
{
    RnicPair p;
    WorkReq rd = p.makeWr(Op::Read, 0, p.localMem.data(), 8);
    p.initiator.postBatch(&p.target, {rd});
    p.sim.run();
    // Unloaded round-trip on the modelled platform: ~1-3 us.
    EXPECT_GT(p.sink.lastCompletion, 800u);
    EXPECT_LT(p.sink.lastCompletion, 4000u);
}

TEST(RnicOps, OwrAccountingReturnsToZero)
{
    RnicPair p;
    std::vector<WorkReq> batch;
    for (int i = 0; i < 16; ++i)
        batch.push_back(p.makeWr(Op::Read, 64 * i, p.localMem.data(), 8));
    p.initiator.postBatch(&p.target, std::move(batch));
    EXPECT_EQ(p.initiator.owrNow(), 16u);
    p.sim.run();
    EXPECT_EQ(p.initiator.owrNow(), 0u);
    EXPECT_EQ(p.initiator.perf().wrsCompleted.value(), 16u);
    EXPECT_EQ(p.target.perf().wrsServed.value(), 16u);
}

TEST(RnicOps, DramTrafficAccountedBothSides)
{
    RnicPair p;
    WorkReq rd = p.makeWr(Op::Read, 0, p.localMem.data(), 8);
    p.initiator.postBatch(&p.target, {rd});
    p.sim.run();
    // Initiator pays WQE fetch + CQE + payload landing; target pays the
    // payload DMA read.
    EXPECT_GT(p.initiator.perf().dramBytes.value(), 0u);
    EXPECT_GT(p.target.perf().dramBytes.value(), 0u);
    EXPECT_GT(p.initiator.dramBytesPerWr(), 64.0);
}

TEST(RnicOps, WqeHitProbDropsAboveCapacity)
{
    Simulator sim;
    RnicConfig cfg;
    Rnic rnic(sim, cfg, "r");
    EXPECT_DOUBLE_EQ(rnic.wqeHitProb(), 1.0);
    // wqeHitProb is a pure function of owrNow; exercise it via config.
    EXPECT_GT(cfg.wqeCacheCapacity, 0u);
}

// --------------------------------------------------------------- caches

TEST(LruCache, EvictsLeastRecentlyUsed)
{
    LruCache cache(3);
    EXPECT_FALSE(cache.access(1));
    EXPECT_FALSE(cache.access(2));
    EXPECT_FALSE(cache.access(3));
    EXPECT_TRUE(cache.access(1));  // 1 now MRU; order: 1,3,2
    EXPECT_FALSE(cache.access(4)); // evicts 2
    EXPECT_TRUE(cache.access(1));
    EXPECT_TRUE(cache.access(3));
    EXPECT_FALSE(cache.access(2)); // was evicted
}

// ------------------------------------------------------- platform limits

namespace {

/** Floods the RNIC pair with reads and measures completed WRs. */
double
floodMops(std::uint32_t outstanding, std::uint32_t block)
{
    RnicPair p;
    // Keep `outstanding` reads in flight by reposting from the sink.
    // Repost in batches of 8 (doorbell batching, as real initiators do —
    // singleton posts pay a whole WQE-fetch chunk per WR).
    struct Reposter : CompletionSink
    {
        RnicPair *pair;
        std::uint32_t block;
        std::uint64_t completed = 0;
        std::vector<WorkReq> pendingRepost;

        void
        complete(const WorkReq &wr, std::uint64_t, WcStatus) override
        {
            ++completed;
            WorkReq next = wr;
            next.sink = this;
            pendingRepost.push_back(next);
            if (pendingRepost.size() >= 8) {
                pair->initiator.postBatch(&pair->target,
                                          std::move(pendingRepost));
                pendingRepost.clear();
            }
        }
    } reposter;
    reposter.pair = &p;
    reposter.block = block;

    std::vector<WorkReq> batch;
    for (std::uint32_t i = 0; i < outstanding; ++i) {
        WorkReq wr = p.makeWr(Op::Read, 0, nullptr, block);
        wr.sink = &reposter;
        batch.push_back(wr);
    }
    p.initiator.postBatch(&p.target, std::move(batch));
    p.sim.runUntil(sim::msec(2));
    return static_cast<double>(reposter.completed) / 2000.0;
}

} // namespace

TEST(RnicLimits, SmallReadIopsCapsNear110Mops)
{
    double mops = floodMops(256, 8);
    EXPECT_GT(mops, 95.0);
    EXPECT_LT(mops, 120.0);
}

TEST(RnicLimits, LargeReadsAreBandwidthBound)
{
    double mops = floodMops(256, 1024);
    // PCIe 3.0 x16 (~16 GB/s) at the target: ~15 MOP/s of 1 KB reads.
    EXPECT_LT(mops, 17.0);
    EXPECT_GT(mops, 8.0);
}

TEST(RnicLimits, AtomicsCapBelowReads)
{
    RnicPair p;
    struct Reposter : CompletionSink
    {
        RnicPair *pair;
        std::uint64_t completed = 0;
        void
        complete(const WorkReq &wr, std::uint64_t, WcStatus) override
        {
            ++completed;
            WorkReq next = wr;
            next.sink = this;
            pair->initiator.postBatch(&pair->target, {next});
        }
    } reposter;
    reposter.pair = &p;
    std::vector<WorkReq> batch;
    for (int i = 0; i < 256; ++i) {
        WorkReq wr = p.makeWr(Op::Faa, 0, nullptr, 8);
        wr.compare = 1;
        wr.sink = &reposter;
        batch.push_back(wr);
    }
    p.initiator.postBatch(&p.target, std::move(batch));
    p.sim.runUntil(sim::msec(2));
    double mops = static_cast<double>(reposter.completed) / 2000.0;
    EXPECT_LT(mops, 70.0); // atomic units are the bottleneck
    EXPECT_GT(mops, 30.0);
}
