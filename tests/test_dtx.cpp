/**
 * @file
 * Tests for the FORD-style transaction layer: table load/addressing,
 * single-transaction commit semantics, OCC aborts under conflicts,
 * replica consistency, money conservation under heavy concurrency, and
 * both application benchmarks (SmallBank, TATP).
 */

#include <gtest/gtest.h>

#include "apps/ford/smallbank.hpp"
#include "apps/ford/tatp.hpp"
#include "harness/testbed.hpp"

using namespace smart;
using namespace smart::ford;
using namespace smart::harness;
using sim::Task;

namespace {

struct DtxFixture : ::testing::Test
{
    TestbedConfig tcfg;
    std::unique_ptr<Testbed> tb;
    std::unique_ptr<DtxSystem> sys;

    void
    build(const SmartConfig &smart, std::uint32_t threads)
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
        sys = std::make_unique<DtxSystem>(blades, threads);
    }
};

} // namespace

TEST_F(DtxFixture, TableLoadAndHostAccess)
{
    build(presets::full(), 1);
    DtxTable &t = sys->createTable(1024);
    std::uint64_t payload = 42;
    t.loadRecord(7, &payload, 8);
    Record *rec = t.hostRecord(7);
    ASSERT_NE(rec, nullptr);
    EXPECT_EQ(rec->key, 7u);
    EXPECT_EQ(rec->version, 1u);
    std::uint64_t read_back = 0;
    std::memcpy(&read_back, rec->payload, 8);
    EXPECT_EQ(read_back, 42u);
    // Backup replica matches.
    EXPECT_EQ(std::memcmp(rec, t.hostBackupRecord(7), sizeof(Record)), 0);
    // Distinct blades for the replicas.
    EXPECT_NE(t.primaryBlade(), t.backupBlade());
}

TEST_F(DtxFixture, CollidingKeysProbeToDistinctSlots)
{
    build(presets::full(), 1);
    DtxTable &t = sys->createTable(64);
    std::uint64_t p = 1;
    for (std::uint64_t k = 0; k < 40; ++k)
        t.loadRecord(k, &p, 8);
    std::set<std::uint64_t> offsets;
    for (std::uint64_t k = 0; k < 40; ++k)
        offsets.insert(t.slotOffset(k));
    EXPECT_EQ(offsets.size(), 40u);
}

TEST_F(DtxFixture, SimpleCommitUpdatesBothReplicas)
{
    build(presets::full(), 1);
    SmallBank bank(*sys, 100);
    int done = 0;
    tb->compute(0).spawnWorker(0, [&](SmartCtx &ctx) -> Task {
        DtxResult res;
        co_await bank.txDepositChecking(ctx, 5, 250, res);
        EXPECT_TRUE(res.committed);
        EXPECT_EQ(res.aborts, 0u);
        ++done;
    });
    tb->sim().runUntil(sim::msec(50));
    EXPECT_EQ(done, 1);
    EXPECT_EQ(recordBalance(*bank.checking().hostRecord(5)),
              SmallBank::kInitialBalance + 250);
    EXPECT_TRUE(bank.replicasConsistent(5));
    // Version bumped exactly once.
    EXPECT_EQ(bank.checking().hostRecord(5)->version, 2u);
    // Lock released.
    EXPECT_EQ(bank.checking().hostRecord(5)->lock, 0u);
}

TEST_F(DtxFixture, SendPaymentMovesMoney)
{
    build(presets::full(), 1);
    SmallBank bank(*sys, 100);
    tb->compute(0).spawnWorker(0, [&](SmartCtx &ctx) -> Task {
        DtxResult res;
        co_await bank.txSendPayment(ctx, 1, 2, 500, res);
        EXPECT_TRUE(res.committed);
    });
    tb->sim().runUntil(sim::msec(50));
    EXPECT_EQ(recordBalance(*bank.checking().hostRecord(1)),
              SmallBank::kInitialBalance - 500);
    EXPECT_EQ(recordBalance(*bank.checking().hostRecord(2)),
              SmallBank::kInitialBalance + 500);
}

TEST_F(DtxFixture, MoneyConservedUnderConcurrentPayments)
{
    build(presets::full(), 8);
    SmallBank bank(*sys, 50); // few accounts: plenty of conflicts
    std::int64_t before = bank.hostTotal();
    int done = 0;
    std::uint32_t total_aborts = 0;
    for (std::uint32_t t = 0; t < 8; ++t) {
        tb->compute(0).spawnWorker(t, [&, t](SmartCtx &ctx) -> Task {
            sim::Rng rng(t + 1);
            for (int i = 0; i < 30; ++i) {
                DtxResult res;
                std::uint64_t a = rng.uniform(50);
                std::uint64_t b = rng.uniform(50);
                co_await bank.txSendPayment(ctx, a, b, 7, res);
                EXPECT_TRUE(res.committed);
                total_aborts += res.aborts;
            }
            ++done;
        });
    }
    tb->sim().runUntil(sim::sec(5));
    EXPECT_EQ(done, 8);
    EXPECT_EQ(bank.hostTotal(), before);
    for (std::uint64_t a = 0; a < 50; ++a)
        EXPECT_TRUE(bank.replicasConsistent(a)) << a;
}

TEST_F(DtxFixture, AmalgamateKeepsTotalAndZeroesSource)
{
    build(presets::full(), 1);
    SmallBank bank(*sys, 100);
    std::int64_t before = bank.hostTotal();
    tb->compute(0).spawnWorker(0, [&](SmartCtx &ctx) -> Task {
        DtxResult res;
        co_await bank.txAmalgamate(ctx, 3, 4, res);
        EXPECT_TRUE(res.committed);
    });
    tb->sim().runUntil(sim::msec(50));
    EXPECT_EQ(bank.hostTotal(), before);
    EXPECT_EQ(recordBalance(*bank.savings().hostRecord(3)), 0);
    EXPECT_EQ(recordBalance(*bank.checking().hostRecord(3)), 0);
    EXPECT_EQ(recordBalance(*bank.checking().hostRecord(4)),
              3 * SmallBank::kInitialBalance);
}

TEST_F(DtxFixture, ConflictsCauseAbortsButEventualCommit)
{
    build(presets::full(), 8);
    SmallBank bank(*sys, 2); // two accounts: extreme contention
    std::uint32_t total_aborts = 0;
    int done = 0;
    for (std::uint32_t t = 0; t < 8; ++t) {
        tb->compute(0).spawnWorker(t, [&, t](SmartCtx &ctx) -> Task {
            for (int i = 0; i < 10; ++i) {
                DtxResult res;
                co_await bank.txSendPayment(ctx, 0, 1, 1, res);
                EXPECT_TRUE(res.committed);
                total_aborts += res.aborts;
            }
            ++done;
        });
    }
    tb->sim().runUntil(sim::sec(5));
    EXPECT_EQ(done, 8);
    EXPECT_GT(total_aborts, 0u);
    EXPECT_EQ(recordBalance(*bank.checking().hostRecord(0)),
              SmallBank::kInitialBalance - 80);
}

TEST_F(DtxFixture, ReadOnlyBalanceSeesConsistentSnapshots)
{
    build(presets::full(), 4);
    SmallBank bank(*sys, 4);
    bool stop = false;
    std::uint64_t balances_checked = 0;
    // Writers move money between savings and checking of account 0 in a
    // conserving way; readers must never observe a torn total.
    for (std::uint32_t t = 0; t < 2; ++t) {
        // t by value: the body first runs after this loop has ended.
        tb->compute(0).spawnWorker(t, [&, t](SmartCtx &ctx) -> Task {
            sim::Rng rng(t + 77);
            while (!stop) {
                DtxResult res;
                // amalgamate(0 -> 1) then payment back keeps totals.
                co_await bank.txSendPayment(ctx, 0, 1, 3, res);
            }
        });
    }
    tb->compute(0).spawnWorker(2, [&](SmartCtx &ctx) -> Task {
        for (int i = 0; i < 50; ++i) {
            DtxResult res;
            co_await bank.txBalance(ctx, 0, res);
            EXPECT_TRUE(res.committed);
            ++balances_checked;
        }
        stop = true;
    });
    tb->sim().runUntil(sim::sec(5));
    EXPECT_EQ(balances_checked, 50u);
}

TEST_F(DtxFixture, TatpMixRunsAndKeepsReplicas)
{
    build(presets::full(), 4);
    Tatp tatp(*sys, 256);
    int done = 0;
    for (std::uint32_t t = 0; t < 4; ++t) {
        tb->compute(0).spawnWorker(t, [&, t](SmartCtx &ctx) -> Task {
            sim::Rng rng(t + 5);
            for (int i = 0; i < 50; ++i) {
                DtxResult res;
                co_await tatp.runOne(ctx, rng, res);
                EXPECT_TRUE(res.committed);
            }
            ++done;
        });
    }
    tb->sim().runUntil(sim::sec(5));
    EXPECT_EQ(done, 4);
    for (std::uint64_t s = 0; s < 256; ++s)
        EXPECT_TRUE(tatp.replicasConsistent(s)) << s;
}

TEST_F(DtxFixture, BaselineConfigCommitsToo)
{
    build(presets::baseline(), 2);
    SmallBank bank(*sys, 16);
    int done = 0;
    tb->compute(0).spawnWorker(0, [&](SmartCtx &ctx) -> Task {
        DtxResult res;
        co_await bank.txWriteCheck(ctx, 3, 100, res);
        EXPECT_TRUE(res.committed);
        ++done;
    });
    tb->sim().runUntil(sim::msec(100));
    EXPECT_EQ(done, 1);
}
