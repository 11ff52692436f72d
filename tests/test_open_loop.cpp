/**
 * @file
 * Open-loop driver tests: seeded arrival-process determinism and rate
 * fidelity, weighted-fair admission, bounded-queue shedding, SLO
 * accounting, and byte-identical reports for a repeated seed.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "harness/open_loop.hpp"
#include "harness/reporter.hpp"
#include "harness/testbed.hpp"
#include "smart/smart_ctx.hpp"

using namespace smart;
using namespace smart::harness;
using sim::Task;
using sim::Time;

namespace {

std::vector<Time>
arrivals(const ArrivalConfig &cfg, std::uint64_t seed, std::size_t n)
{
    ArrivalProcess p(cfg, seed);
    std::vector<Time> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        out.push_back(p.next());
    return out;
}

ArrivalConfig
kindConfig(ArrivalKind k)
{
    ArrivalConfig cfg;
    cfg.kind = k;
    cfg.ratePerUs = 2.0;
    return cfg;
}

/** Small testbed + driver around a pure-delay service. */
struct DriverFixture
{
    std::unique_ptr<Testbed> tb;
    std::unique_ptr<OpenLoopDriver> driver;

    DriverFixture(OpenLoopConfig ocfg, Time service_ns)
    {
        TestbedConfig cfg;
        cfg.computeBlades = 1;
        cfg.memoryBlades = 1;
        cfg.threadsPerBlade = 2;
        cfg.bladeBytes = 1ull << 20;
        cfg.smart = presets::full();
        cfg.smart.withBenchTimescale();
        cfg.smart.corosPerThread = 2;
        tb = std::make_unique<Testbed>(cfg);
        ServiceFn svc = [service_ns](SmartCtx &ctx,
                                     const workload::YcsbRequest &,
                                     std::uint32_t &) -> Task {
            co_await ctx.sim().delay(service_ns);
        };
        driver = std::make_unique<OpenLoopDriver>(*tb, std::move(ocfg), svc);
        driver->start(2);
    }
};

TenantConfig
poissonTenant(const std::string &name, double rate_per_us)
{
    TenantConfig t;
    t.name = name;
    t.arrival.kind = ArrivalKind::Poisson;
    t.arrival.ratePerUs = rate_per_us;
    t.sessions = 2;
    return t;
}

} // namespace

// ------------------------------------------------------ arrival processes

TEST(ArrivalProcess, SameSeedSameSequenceEveryKind)
{
    for (ArrivalKind k :
         {ArrivalKind::Poisson, ArrivalKind::Diurnal, ArrivalKind::Spike}) {
        ArrivalConfig cfg = kindConfig(k);
        EXPECT_EQ(arrivals(cfg, 42, 1000), arrivals(cfg, 42, 1000))
            << static_cast<int>(k);
        EXPECT_NE(arrivals(cfg, 42, 1000), arrivals(cfg, 43, 1000))
            << static_cast<int>(k);
    }
}

TEST(ArrivalProcess, ArrivalsStrictlyIncrease)
{
    for (ArrivalKind k :
         {ArrivalKind::Poisson, ArrivalKind::Diurnal, ArrivalKind::Spike}) {
        std::vector<Time> a = arrivals(kindConfig(k), 7, 5000);
        for (std::size_t i = 1; i < a.size(); ++i)
            ASSERT_LT(a[i - 1], a[i]) << static_cast<int>(k);
    }
}

TEST(ArrivalProcess, PoissonHitsConfiguredRate)
{
    // 2 req/us for 20k arrivals: the span should be ~10M ns within 5%.
    std::vector<Time> a = arrivals(kindConfig(ArrivalKind::Poisson), 3, 20000);
    double rate = static_cast<double>(a.size()) /
                  (static_cast<double>(a.back()) / 1000.0);
    EXPECT_NEAR(rate, 2.0, 0.1);
}

TEST(ArrivalProcess, DiurnalMeanIntegratesToBaseRate)
{
    // 40k arrivals at 2 req/us span ~20 ms: ten 2 ms periods.
    std::vector<Time> a =
        arrivals(kindConfig(ArrivalKind::Diurnal), 11, 40000);
    double rate = static_cast<double>(a.size()) /
                  (static_cast<double>(a.back()) / 1000.0);
    EXPECT_NEAR(rate, 2.0, 0.15);
}

TEST(ArrivalProcess, SpikeWindowsAreDenser)
{
    std::vector<Time> a = arrivals(kindConfig(ArrivalKind::Spike), 5, 20000);
    std::size_t in_burst = 0;
    for (Time t : a)
        in_burst += (t % kSpikePeriodNs) < kSpikeLenNs ? 1 : 0;
    // Burst windows hold 10% of the time but factor 6 the rate:
    // expected in-burst share 6*0.1 / (6*0.1 + 0.9) = 40%.
    double share = static_cast<double>(in_burst) /
                   static_cast<double>(a.size());
    EXPECT_GT(share, 0.30);
    EXPECT_LT(share, 0.50);
}

// A stalled model measures zero capacity, and a bench derives its rate
// from that: the run must end, not spin on an infinite gap, in every
// build type.
TEST(ArrivalProcessDeathTest, RejectsZeroAndNanRates)
{
    for (double rate : {0.0, std::nan("")}) {
        ArrivalConfig cfg = kindConfig(ArrivalKind::Poisson);
        cfg.ratePerUs = rate;
        EXPECT_DEATH({ ArrivalProcess p(cfg, 1); },
                     "must be finite and > 0")
            << rate;
    }
}

// Arrival loops and admission queues live on shard 0; workers on other
// shards would be parked and resumed across threads.
TEST(OpenLoopDriverDeathTest, RejectsShardedTestbed)
{
    OpenLoopConfig ocfg;
    ocfg.tenants = {poissonTenant("t", 1.0)};
    ocfg.numKeys = 100;
    EXPECT_DEATH(
        {
            TestbedConfig cfg;
            cfg.computeBlades = 1;
            cfg.memoryBlades = 1;
            cfg.bladeBytes = 1ull << 20;
            cfg.shards = 2;
            Testbed tb(cfg);
            ServiceFn svc = [](SmartCtx &, const workload::YcsbRequest &,
                               std::uint32_t &) -> Task { co_return; };
            OpenLoopDriver d(tb, ocfg, svc);
        },
        "requires a single-shard simulation");
}

// -------------------------------------------------------------- admission

TEST(OpenLoopDriver, WeightedFairSharesUnderSaturation)
{
    // Two saturating tenants at weight 2 : 1 over a service that can do
    // 4 workers / 3 us each: completions should split ~2:1.
    OpenLoopConfig ocfg;
    TenantConfig heavy = poissonTenant("heavy", 4.0);
    heavy.weight = 2.0;
    TenantConfig light = poissonTenant("light", 4.0);
    light.weight = 1.0;
    ocfg.tenants = {heavy, light};
    ocfg.numKeys = 1000;
    ocfg.queueCap = 64;
    ocfg.seed = 9;
    DriverFixture f(ocfg, 3000);
    f.tb->sim().runUntil(sim::msec(5));

    double done_h = static_cast<double>(f.driver->stats(0).completed.value());
    double done_l = static_cast<double>(f.driver->stats(1).completed.value());
    ASSERT_GT(done_l, 0);
    double ratio = done_h / done_l;
    EXPECT_GT(ratio, 1.7);
    EXPECT_LT(ratio, 2.3);
}

TEST(OpenLoopDriver, SpikingTenantCannotStarveOthers)
{
    // An aggressive spiking tenant saturates its own bounded queue; the
    // well-behaved tenant keeps completing near its offered rate.
    OpenLoopConfig ocfg;
    TenantConfig calm = poissonTenant("calm", 0.2);
    TenantConfig spiky = poissonTenant("spiky", 4.0);
    spiky.arrival.kind = ArrivalKind::Spike;
    ocfg.tenants = {calm, spiky};
    ocfg.numKeys = 1000;
    ocfg.queueCap = 32;
    ocfg.seed = 4;
    DriverFixture f(ocfg, 3000);
    f.tb->sim().runUntil(sim::msec(5));

    const OpenLoopDriver::TenantStats &c = f.driver->stats(0);
    const OpenLoopDriver::TenantStats &s = f.driver->stats(1);
    EXPECT_GT(s.rejected.value(), 0u); // the spiker sheds at its own queue
    EXPECT_EQ(c.rejected.value(), 0u); // the calm tenant never does
    // The calm tenant completes essentially everything it offered.
    EXPECT_GE(c.completed.value() + 5, c.offered.value());
}

TEST(OpenLoopDriver, BoundedQueueShedsBeyondCap)
{
    OpenLoopConfig ocfg;
    ocfg.tenants = {poissonTenant("hot", 8.0)};
    ocfg.numKeys = 1000;
    ocfg.queueCap = 16;
    ocfg.seed = 2;
    DriverFixture f(ocfg, 5000); // service far slower than arrivals
    f.tb->sim().runUntil(sim::msec(2));

    const OpenLoopDriver::TenantStats &s = f.driver->stats(0);
    EXPECT_GT(s.rejected.value(), 0u);
    EXPECT_LE(f.driver->queueDepth(0), 16u);
    EXPECT_EQ(s.offered.value(),
              s.admitted.value() + s.rejected.value());
    // Conservation: everything admitted is either done or still queued
    // or in flight on one of the 4 workers.
    EXPECT_LE(s.completed.value(), s.admitted.value());
    EXPECT_GE(s.completed.value() + f.driver->queueDepth(0) + 4,
              s.admitted.value());
}

TEST(OpenLoopDriver, SloAccountingJudgesEndToEndLatency)
{
    OpenLoopConfig ocfg;
    TenantConfig strict = poissonTenant("strict", 0.5);
    strict.sloP99Ns = 1; // impossible: every completion violates
    TenantConfig loose = poissonTenant("loose", 0.5);
    loose.sloP99Ns = sim::msec(100); // unmissable
    ocfg.tenants = {strict, loose};
    ocfg.numKeys = 1000;
    ocfg.queueCap = 64;
    ocfg.seed = 6;
    DriverFixture f(ocfg, 2000);
    f.tb->sim().runUntil(sim::msec(3));

    const OpenLoopDriver::TenantStats &st = f.driver->stats(0);
    const OpenLoopDriver::TenantStats &lo = f.driver->stats(1);
    ASSERT_GT(st.completed.value(), 0u);
    ASSERT_GT(lo.completed.value(), 0u);
    EXPECT_EQ(st.sloViolations.value(), st.completed.value());
    EXPECT_EQ(lo.sloViolations.value(), 0u);

    sim::Json slo = f.driver->sloJson();
    const sim::Json *s0 = slo.find("strict");
    const sim::Json *s1 = slo.find("loose");
    ASSERT_NE(s0, nullptr);
    ASSERT_NE(s1, nullptr);
    EXPECT_DOUBLE_EQ(s0->find("violation_fraction")->asDouble(), 1.0);
    EXPECT_DOUBLE_EQ(s1->find("violation_fraction")->asDouble(), 0.0);
}

TEST(OpenLoopDriver, ResetWindowZeroesTenantTallies)
{
    OpenLoopConfig ocfg;
    ocfg.tenants = {poissonTenant("t", 2.0)};
    ocfg.numKeys = 1000;
    ocfg.queueCap = 64;
    ocfg.seed = 1;
    DriverFixture f(ocfg, 1000);
    f.tb->sim().runUntil(sim::msec(1));
    ASSERT_GT(f.driver->stats(0).completed.value(), 0u);
    f.driver->resetWindow();
    EXPECT_EQ(f.driver->stats(0).offered.value(), 0u);
    EXPECT_EQ(f.driver->stats(0).completed.value(), 0u);
    EXPECT_EQ(f.driver->stats(0).latency.count(), 0u);
}

// ----------------------------------------------------------- determinism

namespace {

/** One full driver run -> report dump (no wall-clock perf block). */
std::string
runReport(std::size_t tenant_count, std::uint64_t seed)
{
    OpenLoopConfig ocfg;
    for (std::size_t i = 0; i < tenant_count; ++i) {
        TenantConfig t = poissonTenant("t" + std::to_string(i), 1.0);
        t.weight = static_cast<double>(i + 1);
        t.sloP99Ns = 50'000;
        if (i == 1)
            t.arrival.kind = ArrivalKind::Diurnal;
        if (i == 2)
            t.arrival.kind = ArrivalKind::Spike;
        ocfg.tenants.push_back(t);
    }
    ocfg.numKeys = 1000;
    ocfg.queueCap = 64;
    ocfg.seed = seed;
    DriverFixture f(ocfg, 2500);
    f.tb->sim().runUntil(sim::msec(4));

    Reporter rep("open_loop_test", true, seed);
    rep.setSlo(f.driver->sloJson());
    RunCapture cap;
    RunSpec spec;
    spec.label = "run";
    spec.capture = &cap;
    captureRun(*f.tb, spec);
    rep.addRun(cap);
    return rep.toJson().dump();
}

} // namespace

TEST(OpenLoopDriver, SameSeedByteIdenticalReportAcrossTenantCounts)
{
    for (std::size_t tenants : {std::size_t{1}, std::size_t{3}}) {
        std::string a = runReport(tenants, 7);
        std::string b = runReport(tenants, 7);
        EXPECT_EQ(a, b) << tenants << " tenants";
        EXPECT_NE(a, runReport(tenants, 8)) << tenants << " tenants";
    }
}
