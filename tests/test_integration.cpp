/**
 * @file
 * Integration tests: exercise the full bench harnesses at small scale
 * and assert the *directional* properties the paper's evaluation rests
 * on — each test pins down one headline claim at reduced size so the
 * suite stays fast.
 */

#include <gtest/gtest.h>

#include "harness/bt_bench.hpp"
#include "harness/dtx_bench.hpp"
#include "harness/ht_bench.hpp"
#include "harness/rdma_bench.hpp"

using namespace smart;
using namespace smart::harness;

namespace {

RdmaBenchResult
rawRead(QpPolicy policy, std::uint32_t threads, std::uint32_t depth,
        bool throttle = false)
{
    TestbedConfig cfg;
    cfg.computeBlades = 1;
    cfg.memoryBlades = 1;
    cfg.threadsPerBlade = threads;
    cfg.smart = throttle ? presets::workReqThrot() : presets::baseline();
    cfg.smart.qpPolicy = policy;
    cfg.smart.corosPerThread = 1;
    cfg.smart.withBenchTimescale();
    RdmaBenchParams p;
    p.depth = depth;
    p.warmupNs = throttle ? sim::msec(8) : sim::msec(1);
    p.measureNs = sim::msec(2);
    return runRdmaBench(cfg, p, {});
}

} // namespace

// --------------------------------------------------------- §3.1 doorbells

TEST(IntegrationDoorbell, PerThreadDbBeatsPerThreadQpAtHighThreads)
{
    double qp = rawRead(QpPolicy::PerThreadQp, 96, 8).mops;
    double db = rawRead(QpPolicy::PerThreadDb, 96, 8).mops;
    EXPECT_GT(db, qp * 1.5);
    EXPECT_GT(db, 100.0); // the hardware limit is reachable
}

TEST(IntegrationDoorbell, PoliciesEquivalentAtLowThreads)
{
    double qp = rawRead(QpPolicy::PerThreadQp, 8, 8).mops;
    double db = rawRead(QpPolicy::PerThreadDb, 8, 8).mops;
    EXPECT_NEAR(qp, db, qp * 0.05);
}

TEST(IntegrationDoorbell, SharedQpIsWorstEverywhere)
{
    for (std::uint32_t threads : {8u, 96u}) {
        double shared = rawRead(QpPolicy::SharedQp, threads, 8).mops;
        double db = rawRead(QpPolicy::PerThreadDb, threads, 8).mops;
        EXPECT_LT(shared, db / 4) << threads;
    }
}

TEST(IntegrationDoorbell, DoorbellWaitExplainsTheGap)
{
    RdmaBenchResult qp = rawRead(QpPolicy::PerThreadQp, 96, 8);
    RdmaBenchResult db = rawRead(QpPolicy::PerThreadDb, 96, 8);
    EXPECT_GT(qp.avgDoorbellWaitNs, 50 * db.avgDoorbellWaitNs + 100);
}

// ------------------------------------------------------ §3.2 cache thrash

TEST(IntegrationThrash, DeepOwrsDegradeThroughputAndRaiseTraffic)
{
    RdmaBenchResult shallow = rawRead(QpPolicy::PerThreadDb, 96, 8);
    RdmaBenchResult deep = rawRead(QpPolicy::PerThreadDb, 96, 32);
    EXPECT_LT(deep.mops, shallow.mops * 0.7);
    EXPECT_GT(deep.dramBytesPerWr, shallow.dramBytesPerWr * 1.5);
    EXPECT_LT(deep.wqeHitRatio, 0.6);
}

TEST(IntegrationThrash, ThrottlingRestoresDeepBatchThroughput)
{
    RdmaBenchResult unthrottled = rawRead(QpPolicy::PerThreadDb, 96, 32);
    RdmaBenchResult throttled =
        rawRead(QpPolicy::PerThreadDb, 96, 32, true);
    EXPECT_GT(throttled.mops, unthrottled.mops * 1.5);
    EXPECT_GT(throttled.mops, 100.0);
}

// --------------------------------------------------- §3.3 / §4.3 conflicts

namespace {

HtBenchResult
htRun(const SmartConfig &smart, std::uint32_t threads,
      const workload::YcsbMix &mix)
{
    TestbedConfig cfg;
    cfg.computeBlades = 1;
    cfg.memoryBlades = 2;
    cfg.threadsPerBlade = threads;
    cfg.bladeBytes = 1ull << 30;
    cfg.smart = smart;
    cfg.smart.withBenchTimescale();
    HtBenchParams p;
    p.numKeys = 100'000;
    p.mix = mix;
    p.warmupNs = sim::msec(8);
    p.measureNs = sim::msec(2);
    return runHtBench(cfg, p, {});
}

} // namespace

TEST(IntegrationConflict, BackoffCutsRetriesUnderSkewedUpdates)
{
    SmartConfig off = presets::workReqThrot();
    SmartConfig on = presets::full();
    HtBenchResult r_off = htRun(off, 48, workload::YcsbMix::updateOnly());
    HtBenchResult r_on = htRun(on, 48, workload::YcsbMix::updateOnly());
    EXPECT_GT(r_off.avgRetries, 2 * r_on.avgRetries);
}

TEST(IntegrationConflict, MostSmartUpdatesNeedNoRetry)
{
    HtBenchResult r =
        htRun(presets::full(), 48, workload::YcsbMix::updateOnly());
    std::uint64_t total = 0;
    for (int i = 0; i < 64; ++i)
        total += r.retryHist[i];
    ASSERT_GT(total, 0u);
    // Paper: 93.3% of SMART updates involve no extra roundtrips.
    EXPECT_GT(static_cast<double>(r.retryHist[0]) / total, 0.6);
}

TEST(IntegrationHt, SmartBeatsRaceAtHighThreads)
{
    HtBenchResult race =
        htRun(presets::baseline(), 96, workload::YcsbMix::writeHeavy());
    HtBenchResult smart_ht =
        htRun(presets::full(), 96, workload::YcsbMix::writeHeavy());
    EXPECT_GT(smart_ht.mops, race.mops * 2);
}

TEST(IntegrationHt, RaceThroughputPeaksEarlyThenFalls)
{
    HtBenchResult at8 =
        htRun(presets::baseline(), 8, workload::YcsbMix::updateOnly());
    HtBenchResult at96 =
        htRun(presets::baseline(), 96, workload::YcsbMix::updateOnly());
    EXPECT_LT(at96.mops, at8.mops); // paper Fig. 5a
}

TEST(IntegrationHt, LookupsCostThreeReads)
{
    HtBenchResult r =
        htRun(presets::full(), 8, workload::YcsbMix::readOnly());
    ASSERT_GT(r.mops, 0.0);
    EXPECT_NEAR(r.rdmaMops / r.mops, 3.0, 0.3);
}

// ----------------------------------------------------------- §6.2.3 btree

TEST(IntegrationBt, SpeculativeLookupCutsBytesAndBoostsThroughput)
{
    BtBenchParams p;
    p.numKeys = 100'000;
    p.threadsPerServer = 24;
    p.measureNs = sim::msec(2);
    p.variant = BtVariant::ShermanPlus;
    BtBenchResult plain = runBtBench(p, {});
    p.variant = BtVariant::ShermanPlusSl;
    BtBenchResult sl = runBtBench(p, {});
    EXPECT_GT(sl.mops, plain.mops * 1.3); // bandwidth -> IOPS bound
    EXPECT_GT(sl.specHitRate, 0.3);
}

TEST(IntegrationBt, SmartBtFixesTheHighThreadDip)
{
    BtBenchParams p;
    p.numKeys = 100'000;
    p.threadsPerServer = 94;
    p.measureNs = sim::msec(2);
    p.variant = BtVariant::ShermanPlusSl;
    BtBenchResult sl = runBtBench(p, {});
    p.variant = BtVariant::SmartBt;
    BtBenchResult sm = runBtBench(p, {});
    EXPECT_GT(sm.mops, sl.mops * 1.3); // thread-aware allocation wins
}

// ------------------------------------------------------------ §6.2.2 dtx

TEST(IntegrationDtx, SmartDtxScalesWhereFordDegrades)
{
    DtxBenchParams p;
    p.workload = DtxWorkload::SmallBank;
    p.numAccounts = 20'000;
    p.measureNs = sim::msec(2);

    p.threads = 24;
    p.smartOn = false;
    double ford24 = runDtxBench(p, {}).mtps;
    p.threads = 96;
    double ford96 = runDtxBench(p, {}).mtps;
    p.smartOn = true;
    double smart96 = runDtxBench(p, {}).mtps;

    EXPECT_LT(ford96, ford24);       // baseline collapses (Fig. 10)
    EXPECT_GT(smart96, 3 * ford96);  // SMART-DTX keeps scaling
}

TEST(IntegrationDtx, SmartCutsMedianLatencyAtMatchedLoad)
{
    DtxBenchParams p;
    p.workload = DtxWorkload::Tatp;
    p.numAccounts = 20'000;
    p.threads = 96;
    p.measureNs = sim::msec(2);
    p.interTxnDelayNs = sim::usec(300); // matched, sub-saturation load
    p.smartOn = false;
    DtxBenchResult ford = runDtxBench(p, {});
    p.smartOn = true;
    DtxBenchResult smart_dtx = runDtxBench(p, {});
    EXPECT_LT(smart_dtx.medianNs, ford.medianNs); // Fig. 11
}
