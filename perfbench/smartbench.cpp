/**
 * @file
 * One repetition of one benchmark workload, driven from outside the
 * library: build a harness::Testbed, bulk-load an app, spawn closed-loop
 * workers over the app's public client, advance a fixed virtual span,
 * drain, verify the app's state host-side, and print one JSON object.
 *
 * Two kinds of time are reported and never mixed:
 *  - host:      wall/CPU seconds the simulator costs (the "host" block);
 *  - simulated: what the modelled cluster did (the "sim" block). These
 *    repeat exactly at a fixed seed and shard count, and "digest" hashes
 *    the Testbed::snapshot() taken at the end of the measure window.
 *
 * Usage: smartbench --workload NAME --seed N [--shards N] [--spans N]
 *                   [--setup-only]
 * perfbench/run.py runs this binary several times per measured run and
 * turns the output into the benchmark's metrics.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/ford/smallbank.hpp"
#include "apps/race/race.hpp"
#include "apps/sherman/btree.hpp"
#include "harness/ht_bench.hpp"
#include "harness/testbed.hpp"
#include "sim/json.hpp"
#include "sim/random.hpp"
#include "sim/span.hpp"
#include "smart/smart_ctx.hpp"
#include "workload/ycsb.hpp"

using namespace smart;

namespace {

using Clock = std::chrono::steady_clock;

// Same virtual span as the paper-figure benches: the warm-up covers one
// full Algorithm-1 C_max update phase at the bench timescale.
constexpr sim::Time kWarmupNs = sim::msec(8);
constexpr sim::Time kMeasureNs = sim::msec(4);
constexpr sim::Time kDrainStepNs = sim::usec(100);
constexpr sim::Time kDrainLimitNs = sim::msec(50);

constexpr std::uint64_t kRaceKeys = 1'000'000;
constexpr std::uint64_t kFordAccounts = 100'000;
constexpr std::uint64_t kShermanKeys = 1'000'000;
constexpr std::uint64_t kShermanValueMask = 0x5a5aull;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
cpuSeconds(const timeval &tv)
{
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
}

double
ratio(double num, double den)
{
    return den != 0 ? num / den : 0.0;
}

/** FNV-1a over the snapshot's JSON text. */
std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char ch : s) {
        h ^= ch;
        h *= 0x100000001b3ull;
    }
    return h;
}

/**
 * What the closed-loop workers of one compute blade saw. One per blade:
 * at shards > 1 each blade's workers run on their own host thread.
 */
struct OpLog
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t rdmaOps = 0;
    std::uint64_t aborts = 0;          ///< FORD validation/lock aborts
    std::uint64_t updateExhausted = 0; ///< RACE updates with ok == false
    std::uint64_t wrongValues = 0;     ///< Sherman lookups != key ^ mask
    std::vector<std::uint64_t> okLatencyNs;
    std::uint32_t active = 0; ///< workers not yet returned
};

/**
 * Worker control. The host flips these only between Testbed::runUntil()
 * calls, when every shard thread is parked at the phase barrier.
 */
struct Control
{
    bool measuring = false;
    bool stopped = false;
    std::vector<OpLog> logs; ///< per compute blade
};

/** Account one finished op; only ops finishing in the window count. */
void
finishOp(SmartCtx &ctx, const Control &c, OpLog &log, sim::Time start,
         bool ok, std::uint32_t retries, std::uint32_t rdma_ops)
{
    sim::Time lat = ctx.sim().now() - start;
    ctx.runtime().recordOp(lat, retries);
    if (!c.measuring)
        return;
    ++log.attempted;
    log.rdmaOps += rdma_ops;
    if (ok)
        log.okLatencyNs.push_back(lat);
    else
        ++log.failed;
}

sim::Task
raceWorker(SmartCtx &ctx, race::RaceClient &client, const Control &c,
           OpLog &log, std::uint64_t seed, double zetan)
{
    workload::YcsbGenerator gen(kRaceKeys, 0.99,
                                workload::YcsbMix::writeHeavy(), seed, zetan);
    std::uint64_t value = seed;
    while (!c.stopped) {
        workload::YcsbRequest req = gen.next();
        sim::Time start = ctx.sim().now();
        race::OpResult res;
        bool update = req.op != workload::YcsbOp::Lookup;
        if (update)
            co_await client.update(ctx, req.key, ++value, res);
        else
            co_await client.lookup(ctx, req.key, res);
        finishOp(ctx, c, log, start, res.ok, res.retries, res.rdmaOps);
        if (c.measuring && update && !res.ok)
            ++log.updateExhausted;
    }
    --log.active;
}

sim::Task
fordWorker(SmartCtx &ctx, ford::SmallBank &bank, const Control &c,
           OpLog &log, std::uint64_t seed, double zetan)
{
    sim::Rng rng(seed);
    sim::ZipfianGenerator accounts(kFordAccounts, 0.2, seed ^ 0xacc, zetan);
    while (!c.stopped) {
        sim::Time start = ctx.sim().now();
        ford::DtxResult res;
        co_await ctx.opBegin();
        co_await bank.runOne(ctx, rng, accounts, res);
        ctx.opEnd();
        finishOp(ctx, c, log, start, res.committed, res.aborts, res.rdmaOps);
        if (c.measuring)
            log.aborts += res.aborts;
    }
    --log.active;
}

sim::Task
shermanWorker(SmartCtx &ctx, sherman::BtreeClient &client, const Control &c,
              OpLog &log, std::uint64_t seed, double zetan)
{
    workload::YcsbGenerator gen(kShermanKeys, 0.99,
                                workload::YcsbMix::readOnly(), seed, zetan);
    while (!c.stopped) {
        workload::YcsbRequest req = gen.next();
        sim::Time start = ctx.sim().now();
        sherman::BtOpResult res;
        co_await client.lookup(ctx, req.key, res);
        bool ok = res.ok && res.value == (req.key ^ kShermanValueMask);
        finishOp(ctx, c, log, start, ok, res.retries, res.rdmaOps);
        if (c.measuring && !ok)
            ++log.wrongValues;
    }
    --log.active;
}

/** Cumulative layer counters, read host-side between runUntil() calls. */
struct Counters
{
    std::uint64_t events = 0;
    std::vector<std::uint64_t> shardEvents;
    std::uint64_t ringInserts = 0;
    std::uint64_t heapInserts = 0;
    // Compute-blade (initiator) RNICs.
    std::uint64_t wrs = 0;
    std::uint64_t wqeRefetches = 0;
    std::uint64_t doorbellWaitNs = 0;
    std::uint64_t doorbellRings = 0;
    // Every RNIC, initiators and responders.
    std::uint64_t mttRefetches = 0;
    std::uint64_t dramBytes = 0;
    std::vector<std::uint64_t> bladeServed; ///< per memory blade
    // SMART runtime.
    std::uint64_t casAttempts = 0;
    std::uint64_t casFails = 0;
    std::uint64_t wrErrors = 0;
    std::uint64_t appOps = 0;
    std::uint64_t appRetries = 0;

    static Counters
    read(harness::Testbed &tb)
    {
        Counters k;
        for (std::uint32_t s = 0; s < tb.shards(); ++s) {
            k.shardEvents.push_back(
                tb.shardGroup().shard(s).eventsProcessed());
            k.events += k.shardEvents.back();
        }
        sim::KernelPerf kp = sim::collectKernelPerf();
        k.ringInserts = kp.ringInserts;
        k.heapInserts = kp.heapInserts;
        for (std::uint32_t m = 0; m < tb.numMemBlades(); ++m) {
            const rnic::PerfCounters &p = tb.memBlade(m).rnic().perf();
            k.bladeServed.push_back(p.wrsServed.value());
            k.mttRefetches += p.mttRefetches.value();
            k.dramBytes += p.dramBytes.value();
        }
        for (std::uint32_t c = 0; c < tb.numComputeBlades(); ++c) {
            SmartRuntime &rt = tb.compute(c);
            const rnic::PerfCounters &p = rt.rnic().perf();
            k.wrs += p.wrsCompleted.value();
            k.wqeRefetches += p.wqeRefetches.value();
            k.doorbellWaitNs += p.doorbellWaitNs.value();
            k.doorbellRings += p.doorbellRings.value();
            k.mttRefetches += p.mttRefetches.value();
            k.dramBytes += p.dramBytes.value();
            k.appOps += rt.appOps.value();
            k.appRetries += rt.totalRetries.value();
            for (std::uint32_t t = 0; t < rt.numThreads(); ++t) {
                SmartThread &th = rt.thread(t);
                k.casAttempts += th.casAttempts.value();
                k.casFails += th.casFails.value();
                k.wrErrors += th.wrErrors.value();
            }
        }
        return k;
    }
};

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    std::uint32_t shards = 1;
    std::uint32_t spanEvery = 0;
    bool setupOnly = false;
};

/** Nearest-rank percentile of sorted @p v. */
std::uint64_t
percentile(const std::vector<std::uint64_t> &v, double p)
{
    if (v.empty())
        return 0;
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/**
 * Per-stage attribution summed over threads: share is exact (total self
 * time over total op time); p99_ns is the worst thread's p99, since
 * exact percentiles do not merge.
 */
sim::Json
spanSummary(harness::Testbed &tb)
{
    static const char *const kStages[] = {
        "gate_wait", "credit_wait", "doorbell_wait", "wqe_fetch",
        "dma",       "pcie",        "link",          "mtt_fetch",
        "atomic",    "cqe_poll",    "backoff_sleep", "unattributed"};
    sim::Json attr = tb.mergedSpanTracer()->attribution();
    const sim::Json *cov = attr.find("coverage");
    double op_total = cov->find("op_total_ns")->asDouble();
    std::map<std::string, std::pair<double, double>> agg; // total, p99
    for (const sim::Json &e : attr.find("stages")->asArray()) {
        auto &[total, p99] = agg[e.find("stage")->asString()];
        total += e.find("total_ns")->asDouble();
        p99 = std::max(p99, e.find("p99_ns")->asDouble());
    }
    sim::Json out = sim::Json::object();
    for (const char *st : kStages) {
        auto [total, p99] = agg[st];
        out.set(std::string("span.") + st + ".share", ratio(total, op_total));
        out.set(std::string("span.") + st + ".p99_ns", p99);
    }
    out.set("span.coverage_ratio", cov->find("ratio")->asDouble());
    return out;
}

/** Workload-specific app state: setup, workers, host-side checks. */
class App
{
  public:
    virtual ~App() = default;
    /** Build the app's remote state host-side (timed as load). */
    virtual void load(harness::Testbed &tb) = 0;
    /** Create clients and spawn every closed-loop worker. */
    virtual void spawn(harness::Testbed &tb, Control &c,
                       std::uint64_t seed) = 0;
    /** Host-side verification after the drain; appends violations. */
    virtual void check(const Control &c,
                       std::vector<std::string> &errors) = 0;
    /** App-specific simulated metrics over the measure window. */
    virtual void appMetrics(const Control &c, sim::Json &out) = 0;
    /** Called at the measure-window edges (per-client counters). */
    virtual void markWindow() {}
};

std::vector<memblade::MemoryBlade *>
bladesOf(harness::Testbed &tb)
{
    std::vector<memblade::MemoryBlade *> blades;
    for (std::uint32_t i = 0; i < tb.numMemBlades(); ++i)
        blades.push_back(&tb.memBlade(i));
    return blades;
}

/** Spawn corosPerThread workers on every thread of every compute blade. */
template <typename Body>
void
spawnAll(harness::Testbed &tb, Control &c, Body body)
{
    c.logs.resize(tb.numComputeBlades());
    for (std::uint32_t b = 0; b < tb.numComputeBlades(); ++b) {
        SmartRuntime &rt = tb.compute(b);
        OpLog *log = &c.logs[b];
        for (std::uint32_t t = 0; t < rt.numThreads(); ++t) {
            for (std::uint32_t k = 0; k < rt.config().corosPerThread; ++k) {
                ++log->active;
                rt.spawnWorker(t, [=, &c](SmartCtx &ctx) {
                    return body(ctx, c, *log, b, t, k);
                });
            }
        }
    }
}

/** Workload seed for one coroutine; --seed only ever enters here. */
std::uint64_t
coroSeed(std::uint64_t base, std::uint64_t seed, std::uint32_t blade,
         std::uint32_t t, std::uint32_t k)
{
    return base + blade * 1000003ull + t * 971ull + k * 13ull +
           seed * 0x9e3779b97f4a7c15ull;
}

class RaceApp : public App
{
  public:
    void
    load(harness::Testbed &tb) override
    {
        table_ = std::make_unique<race::RaceTable>(
            bladesOf(tb), harness::sizedRaceConfig(kRaceKeys));
        for (std::uint64_t k = 0; k < kRaceKeys; ++k)
            table_->loadInsert(k, k);
    }

    void
    spawn(harness::Testbed &tb, Control &c, std::uint64_t seed) override
    {
        double zetan = sim::ZipfianGenerator::zeta(kRaceKeys, 0.99);
        for (std::uint32_t b = 0; b < tb.numComputeBlades(); ++b)
            clients_.push_back(
                std::make_unique<race::RaceClient>(*table_, tb.compute(b)));
        spawnAll(tb, c,
                 [this, seed, zetan](SmartCtx &ctx, const Control &ctl,
                                     OpLog &log, std::uint32_t b,
                                     std::uint32_t t, std::uint32_t k) {
                     return raceWorker(ctx, *clients_[b], ctl, log,
                                       coroSeed(0xf00d, seed, b, t, k),
                                       zetan);
                 });
    }

    void
    check(const Control &, std::vector<std::string> &errors) override
    {
        std::uint64_t missing = 0;
        std::uint64_t v = 0;
        for (std::uint64_t k = 0; k < kRaceKeys; ++k)
            missing += table_->hostLookup(k, v) ? 0 : 1;
        if (missing != 0)
            errors.push_back("race: " + std::to_string(missing) +
                             " loaded keys not found by hostLookup");
    }

    void
    appMetrics(const Control &c, sim::Json &out) override
    {
        std::uint64_t exhausted = 0;
        for (const OpLog &l : c.logs)
            exhausted += l.updateExhausted;
        out.set("race.update_exhausted", exhausted);
    }

  private:
    std::unique_ptr<race::RaceTable> table_;
    std::vector<std::unique_ptr<race::RaceClient>> clients_;
};

class FordApp : public App
{
  public:
    void
    load(harness::Testbed &tb) override
    {
        sys_ = std::make_unique<ford::DtxSystem>(
            bladesOf(tb), tb.compute(0).numThreads());
        bank_ = std::make_unique<ford::SmallBank>(*sys_, kFordAccounts);
    }

    void
    spawn(harness::Testbed &tb, Control &c, std::uint64_t seed) override
    {
        double zetan = sim::ZipfianGenerator::zeta(kFordAccounts, 0.2);
        spawnAll(tb, c,
                 [this, seed, zetan](SmartCtx &ctx, const Control &ctl,
                                     OpLog &log, std::uint32_t b,
                                     std::uint32_t t, std::uint32_t k) {
                     return fordWorker(ctx, *bank_, ctl, log,
                                       coroSeed(0xd7, seed, b, t, k), zetan);
                 });
    }

    void
    check(const Control &, std::vector<std::string> &errors) override
    {
        std::uint64_t bad = 0;
        for (std::uint64_t a = 0; a < kFordAccounts; ++a)
            bad += bank_->replicasConsistent(a) ? 0 : 1;
        if (bad != 0)
            errors.push_back("ford: " + std::to_string(bad) +
                             " accounts with diverged replicas");
    }

    void
    appMetrics(const Control &c, sim::Json &out) override
    {
        std::uint64_t aborts = 0;
        std::uint64_t txns = 0;
        for (const OpLog &l : c.logs) {
            aborts += l.aborts;
            txns += l.attempted;
        }
        out.set("ford.aborts_per_txn", ratio(aborts, txns));
    }

  private:
    std::unique_ptr<ford::DtxSystem> sys_;
    std::unique_ptr<ford::SmallBank> bank_;
};

class ShermanApp : public App
{
  public:
    void
    load(harness::Testbed &tb) override
    {
        sherman::BtreeConfig cfg;
        cfg.speculativeLookup = true; // SMART-BT
        index_ = std::make_unique<sherman::BtreeIndex>(bladesOf(tb), cfg);
        index_->loadSequential(kShermanKeys, kShermanValueMask);
    }

    void
    spawn(harness::Testbed &tb, Control &c, std::uint64_t seed) override
    {
        double zetan = sim::ZipfianGenerator::zeta(kShermanKeys, 0.99);
        for (std::uint32_t b = 0; b < tb.numComputeBlades(); ++b)
            clients_.push_back(std::make_unique<sherman::BtreeClient>(
                *index_, tb.compute(b)));
        spawnAll(tb, c,
                 [this, seed, zetan](SmartCtx &ctx, const Control &ctl,
                                     OpLog &log, std::uint32_t b,
                                     std::uint32_t t, std::uint32_t k) {
                     return shermanWorker(ctx, *clients_[b], ctl, log,
                                          coroSeed(0xbee5, seed, b, t, k),
                                          zetan);
                 });
    }

    void
    check(const Control &c, std::vector<std::string> &errors) override
    {
        std::uint64_t n = index_->hostCount();
        if (n != kShermanKeys)
            errors.push_back("sherman: hostCount " + std::to_string(n) +
                             " != " + std::to_string(kShermanKeys));
        std::uint64_t wrong = 0;
        for (const OpLog &l : c.logs)
            wrong += l.wrongValues;
        if (wrong != 0)
            errors.push_back("sherman: " + std::to_string(wrong) +
                             " lookups did not return key ^ mask");
    }

    void
    markWindow() override
    {
        hits_.push_back(0);
        misses_.push_back(0);
        for (const auto &cl : clients_) {
            hits_.back() += cl->specHits();
            misses_.back() += cl->specMisses();
        }
    }

    void
    appMetrics(const Control &, sim::Json &out) override
    {
        double hits = static_cast<double>(hits_.back() - hits_.front());
        double misses =
            static_cast<double>(misses_.back() - misses_.front());
        out.set("sherman.spec_hit_frac", ratio(hits, hits + misses));
    }

  private:
    std::unique_ptr<sherman::BtreeIndex> index_;
    std::vector<std::unique_ptr<sherman::BtreeClient>> clients_;
    /** Summed client counters at each markWindow() (window edges). */
    std::vector<std::uint64_t> hits_;
    std::vector<std::uint64_t> misses_;
};

/** The three workloads' cluster shapes (see perfbench/README.md). */
bool
configure(const std::string &name, harness::TestbedConfig &cfg,
          std::unique_ptr<App> &app)
{
    cfg.smart = presets::full();
    cfg.smart.corosPerThread = 8;
    cfg.smart.withBenchTimescale();
    cfg.memoryBlades = 2;
    if (name == "race_write_skew") {
        cfg.computeBlades = 1;
        cfg.threadsPerBlade = 96;
        cfg.bladeBytes = 3ull << 30;
        app = std::make_unique<RaceApp>();
    } else if (name == "ford_smallbank") {
        cfg.computeBlades = 1;
        cfg.threadsPerBlade = 96;
        cfg.bladeBytes = 2ull << 30;
        app = std::make_unique<FordApp>();
    } else if (name == "sherman_read_scaleout") {
        cfg.computeBlades = 2;
        cfg.threadsPerBlade = 94;
        cfg.bladeBytes = 2ull << 30;
        app = std::make_unique<ShermanApp>();
    } else {
        return false;
    }
    return true;
}

bool
parseUint(const char *s, std::uint64_t &out)
{
    if (s == nullptr || *s == '\0')
        return false;
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(s, &end, 10);
    if (errno != 0 || *end != '\0' || s[0] == '-')
        return false;
    out = v;
    return true;
}

bool
parseArgs(int argc, char **argv, Options &o)
{
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        const char *val = i + 1 < argc ? argv[i + 1] : nullptr;
        std::uint64_t u = 0;
        if (a == "--setup-only") {
            o.setupOnly = true;
            continue;
        }
        if (val == nullptr)
            return false;
        ++i;
        if (a == "--workload") {
            o.workload = val;
        } else if (a == "--seed" && parseUint(val, u)) {
            o.seed = u;
        } else if (a == "--shards" && parseUint(val, u) && u >= 1 && u <= 64) {
            o.shards = static_cast<std::uint32_t>(u);
        } else if (a == "--spans" && parseUint(val, u) && u <= 1u << 20) {
            o.spanEvery = static_cast<std::uint32_t>(u);
        } else {
            return false;
        }
    }
    return !o.workload.empty();
}

int
run(const Options &opt)
{
    harness::TestbedConfig cfg;
    std::unique_ptr<App> app;
    if (!configure(opt.workload, cfg, app)) {
        std::fprintf(stderr, "smartbench: unknown workload '%s'\n",
                     opt.workload.c_str());
        return 2;
    }
    cfg.shards = opt.shards;
    cfg.spanSampleEvery = opt.spanEvery;

    // ---- setup: testbed, bulk load, clients + workers ----
    Control ctl; // outlives the testbed, whose workers reference it
    Clock::time_point t0 = Clock::now();
    harness::Testbed tb(cfg);
    double testbed_s = secondsSince(t0);
    Clock::time_point t1 = Clock::now();
    app->load(tb);
    double load_s = secondsSince(t1);
    app->spawn(tb, ctl, opt.seed);
    double setup_s = secondsSince(t0);

    sim::Json host = sim::Json::object();
    host.set("testbed_s", testbed_s);
    host.set("load_s", load_s);
    host.set("setup_s", setup_s);
    sim::Json out = sim::Json::object();
    out.set("workload", opt.workload);
    out.set("seed", opt.seed);
    out.set("shards", static_cast<std::uint64_t>(tb.shards()));
    if (opt.setupOnly) {
        out.set("host", std::move(host));
        std::printf("%s\n", out.dump().c_str());
        return 0;
    }

    // ---- the fixed virtual span: warm-up, then the measure window ----
    rusage ru0{};
    getrusage(RUSAGE_SELF, &ru0);
    Clock::time_point r0 = Clock::now();
    tb.runUntil(kWarmupNs);
    double warm_wall = secondsSince(r0);
    Counters k0 = Counters::read(tb);
    app->markWindow();
    ctl.measuring = true;
    Clock::time_point r1 = Clock::now();
    tb.runUntil(kWarmupNs + kMeasureNs);
    double run_s = warm_wall + secondsSince(r1);
    rusage ru1{};
    getrusage(RUSAGE_SELF, &ru1);
    ctl.measuring = false;
    Counters k1 = Counters::read(tb);
    app->markWindow();
    sim::MetricsSnapshot snap = tb.snapshot();

    std::uint64_t span_events = k1.events;
    std::uint64_t max_shard_events =
        *std::max_element(k1.shardEvents.begin(), k1.shardEvents.end());

    double user_s = cpuSeconds(ru1.ru_utime) - cpuSeconds(ru0.ru_utime);
    double sys_s = cpuSeconds(ru1.ru_stime) - cpuSeconds(ru0.ru_stime);
    host.set("run_s", run_s);
    host.set("peak_rss_mb", static_cast<double>(ru1.ru_maxrss) / 1024.0);
    host.set("sys_s", sys_s);
    host.set("cpu_per_wall", ratio(user_s + sys_s, run_s));
    host.set("ns_per_event", ratio(run_s * 1e9, span_events));

    // ---- drain: workers stop issuing, in-flight ops complete ----
    ctl.stopped = true;
    auto active = [&] {
        std::uint32_t n = 0;
        for (const OpLog &l : ctl.logs)
            n += l.active;
        return n;
    };
    sim::Time drain_end = kWarmupNs + kMeasureNs + kDrainLimitNs;
    for (sim::Time t = kWarmupNs + kMeasureNs; active() > 0 && t < drain_end;)
        tb.runUntil(t += kDrainStepNs);

    std::vector<std::string> errors;
    if (active() > 0)
        errors.push_back(std::to_string(active()) +
                         " workers still in flight after the drain limit");
    app->check(ctl, errors);

    // ---- simulated results over the measure window ----
    OpLog all;
    for (const OpLog &l : ctl.logs) {
        all.attempted += l.attempted;
        all.failed += l.failed;
        all.rdmaOps += l.rdmaOps;
        all.okLatencyNs.insert(all.okLatencyNs.end(), l.okLatencyNs.begin(),
                               l.okLatencyNs.end());
    }
    std::sort(all.okLatencyNs.begin(), all.okLatencyNs.end());
    double window_us = static_cast<double>(kMeasureNs) / 1000.0;
    double ok_ops = static_cast<double>(all.okLatencyNs.size());
    double wrs = static_cast<double>(k1.wrs - k0.wrs);
    double attempted = static_cast<double>(all.attempted);

    sim::Json simj = sim::Json::object();
    simj.set("attempted", all.attempted);
    simj.set("failed", all.failed);
    simj.set("sim_mops", ok_ops / window_us);
    simj.set("sim_p50_us", percentile(all.okLatencyNs, 50.0) / 1000.0);
    simj.set("sim_p999_us", percentile(all.okLatencyNs, 99.9) / 1000.0);
    simj.set("ops_ok_frac", ratio(ok_ops, attempted));
    simj.set("ops_failed_frac", ratio(all.failed, attempted));
    simj.set("app.ops_measured", all.okLatencyNs.size());
    simj.set("app.rdma_ops_per_op", ratio(all.rdmaOps, attempted));
    simj.set("sim.events", span_events);
    simj.set("sim.events_per_op", ratio(k1.events - k0.events, attempted));
    std::uint64_t peak = 0;
    for (std::uint32_t s = 0; s < tb.shards(); ++s)
        peak = std::max(peak, tb.shardGroup().shard(s).peakQueueDepth());
    simj.set("sim.peak_queue_depth", peak);
    simj.set("sim.heap_insert_frac",
             ratio(k1.heapInserts, k1.heapInserts + k1.ringInserts));
    simj.set("wire.max_shard_event_frac",
             ratio(max_shard_events, span_events));
    simj.set("rnic.wrs_per_op", ratio(wrs, attempted));
    simj.set("rnic.wqe_miss_per_wr",
             ratio(k1.wqeRefetches - k0.wqeRefetches, wrs));
    simj.set("rnic.mtt_miss_per_wr",
             ratio(k1.mttRefetches - k0.mttRefetches, wrs));
    simj.set("rnic.dram_bytes_per_wr", ratio(k1.dramBytes - k0.dramBytes, wrs));
    simj.set("rnic.doorbell_wait_ns_per_wr",
             ratio(k1.doorbellWaitNs - k0.doorbellWaitNs, wrs));
    std::uint64_t served = 0;
    std::uint64_t max_served = 0;
    for (std::size_t m = 0; m < k1.bladeServed.size(); ++m) {
        std::uint64_t d = k1.bladeServed[m] - k0.bladeServed[m];
        served += d;
        max_served = std::max(max_served, d);
    }
    simj.set("memblade.max_blade_wr_frac", ratio(max_served, served));
    simj.set("verbs.wrs_per_doorbell",
             ratio(wrs, k1.doorbellRings - k0.doorbellRings));
    simj.set("verbs.wr_errors", k1.wrErrors - k0.wrErrors);
    simj.set("smart.cas_fail_frac", ratio(k1.casFails - k0.casFails,
                                          k1.casAttempts - k0.casAttempts));
    simj.set("smart.retries_per_op", ratio(k1.appRetries - k0.appRetries,
                                           k1.appOps - k0.appOps));
    // Controller state at the end of the window, averaged over threads.
    double coro = 0, tmax = 0, credit = 0, threads = 0;
    for (std::uint32_t c = 0; c < tb.numComputeBlades(); ++c) {
        SmartRuntime &rt = tb.compute(c);
        for (std::uint32_t t = 0; t < rt.numThreads(); ++t) {
            SmartThread &th = rt.thread(t);
            coro += th.coroGate().capacity();
            tmax += static_cast<double>(th.conflictCtrl().tmaxCycles());
            credit += th.cmax();
            threads += 1;
        }
    }
    simj.set("smart.coro_cmax", ratio(coro, threads));
    simj.set("smart.tmax_cycles", ratio(tmax, threads));
    simj.set("smart.credit_cmax", ratio(credit, threads));
    app->appMetrics(ctl, simj);

    char digest[17];
    std::snprintf(digest, sizeof digest, "%016" PRIx64,
                  fnv1a(snap.toJson().dump()));
    out.set("digest", digest);
    out.set("host", std::move(host));
    out.set("sim", std::move(simj));
    if (opt.spanEvery > 0)
        out.set("spans", spanSummary(tb));
    sim::Json errs = sim::Json::array();
    for (const std::string &e : errors)
        errs.push(e);
    out.set("errors", std::move(errs));
    std::printf("%s\n", out.dump().c_str());
    return errors.empty() ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (!parseArgs(argc, argv, opt)) {
        std::fprintf(stderr,
                     "usage: smartbench --workload NAME --seed N "
                     "[--shards N] [--spans N] [--setup-only]\n");
        return 2;
    }
    return run(opt);
}
