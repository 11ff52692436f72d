/**
 * @file
 * Elasticity: throughput knee curve across live membership events. A
 * partitioned working set spreads over three memory blades; mid-run the
 * cluster (1) drains mb2 (graceful removal with live migration), (2)
 * joins a cold replacement blade mb3 (background rebalance), and (3)
 * loses mb1 to a crash (fenced failover + zero-fill recovery). Workers
 * resolve partition placement through the MembershipPlane on every
 * attempt; a fenced access surfaces VerbError::StaleView and is retried
 * against the re-placed partition, so no operation is ever surfaced to
 * the application as failed.
 *
 * Expected (gated by scripts/check_bench_json.py; the bench only
 * reports):
 *  - failed_ops == 0 (every op fenced/redirected, none lost)
 *  - post-crash throughput >= 0.9x pre-event steady state
 */

#include <iostream>
#include <string>
#include <vector>

#include "harness/bench_cli.hpp"
#include "harness/testbed.hpp"
#include "sim/fault.hpp"
#include "sim/random.hpp"
#include "sim/table.hpp"
#include "smart/cache/buffer_manager.hpp"
#include "smart/membership.hpp"
#include "smart/smart_ctx.hpp"

using namespace smart;
using namespace smart::harness;
using sim::Task;
using sim::Time;

namespace {

struct Shared
{
    std::uint64_t failedOps = 0;      ///< ops that exhausted the retry budget
    std::uint64_t fencedRetries = 0;  ///< StaleView -> re-resolve + retry
    std::uint64_t otherRetries = 0;   ///< timeouts/remote errors retried
    std::uint64_t migrationWaits = 0; ///< waits on a migrating partition
};

Task
elasticWorker(SmartCtx &ctx, MembershipPlane &plane, std::uint64_t seed,
              Shared &sh)
{
    SmartRuntime &rt = ctx.runtime();
    sim::Rng rng(seed);
    const std::uint64_t slots = plane.config().partBytes / 64;
    std::uint8_t *buf = ctx.scratch(64);
    for (;;) {
        std::uint32_t part =
            static_cast<std::uint32_t>(rng.uniform(plane.numPartitions()));
        std::uint64_t off = rng.uniform(slots) * 64;
        bool is_write = (rng.next32() & 3) == 0; // 25% writes
        Time start = ctx.sim().now();
        co_await ctx.opBegin();
        bool done = false;
        for (int attempt = 0; attempt < 256 && !done; ++attempt) {
            // Back off while the partition's bytes are in flight.
            while (plane.migrating(part)) {
                ++sh.migrationWaits;
                co_await ctx.sim().delay(
                    sim::cyclesToNs(8192 + rng.uniform(8192)));
            }
            std::uint32_t blade = plane.bladeOf(part);
            if (blade == MembershipPlane::kNoBlade) {
                co_await ctx.sim().delay(
                    sim::cyclesToNs(8192 + rng.uniform(8192)));
                continue;
            }
            RemotePtr p = rt.ptr(blade, plane.partitionOffset(part) + off);
            if (is_write)
                co_await ctx.access(p, AccessOp::write(ConstMemSpan{buf, 64}));
            else
                co_await ctx.access(p, AccessOp::read(MemSpan{buf, 64}));
            if (!ctx.failed()) {
                done = true;
                break;
            }
            if (ctx.lastError().kind == VerbError::Kind::StaleView)
                ++sh.fencedRetries;
            else
                ++sh.otherRetries;
            ctx.clearError();
        }
        ctx.opEnd();
        if (done)
            rt.recordOp(ctx.sim().now() - start, 0);
        else
            ++sh.failedOps;
    }
}

} // namespace

int
main(int argc, char **argv)
{
    BenchCli cli(argc, argv, "elasticity");
    bool quick = cli.quick();

    const std::uint32_t threads = quick ? 4 : 8;
    const std::uint32_t coros = 4;
    const std::uint32_t partitions = 24;
    const std::uint64_t part_bytes = 128ull << 10;

    TestbedConfig cfg;
    cfg.computeBlades = 1;
    cfg.memoryBlades = 3;
    cfg.threadsPerBlade = threads;
    cfg.bladeBytes = 8ull << 20;
    cfg.smart = presets::full();
    cfg.smart.withBenchTimescale();
    cfg.smart.withOverloadLadder();
    // +1 slot on thread 0 for the membership plane's migration worker.
    cfg.smart.corosPerThread = coros + 1;
    RunSpec spec = cli.spec("elasticity");
    observe(cfg, spec);
    Testbed tb(cfg);
    SmartRuntime &rt = tb.compute(0);

    // The replacement blade joins live at t=18 ms; built outside the
    // Testbed so it starts cold (no QPs, no MR traffic) like a real
    // hot-add would.
    memblade::MemoryBlade mb3(tb.sim(), cfg.hw, "mb3", cfg.bladeBytes);

    MembershipPlane::Config pc;
    pc.partitions = partitions;
    pc.partBytes = part_bytes;
    MembershipPlane plane(tb.sim(), pc, "elastic0");
    plane.addRuntime(rt);
    for (std::uint32_t m = 0; m < tb.numMemBlades(); ++m)
        plane.addBlade(tb.memBlade(m));
    plane.seedPartitions();
    plane.startHealthMonitor();

    // Membership event schedule: drain, join, crash.
    const Time drain_at = sim::msec(10);
    const Time join_at = sim::msec(18);
    const Time crash_at = sim::msec(26);
    const Time run_end = sim::msec(42);
    tb.sim().schedule(drain_at, [&plane] { plane.drain(2); });
    tb.sim().schedule(join_at, [&plane, &mb3] { plane.join(mb3); });
    sim::FaultPlane &fp = tb.faultPlane(0xe1a5 + spec.seed);
    fp.oneShot(crash_at, sim::FaultKind::Crash, "mb1", 0); // no restart

    Shared sh;
    for (std::uint32_t t = 0; t < threads; ++t) {
        for (std::uint32_t k = 0; k < coros; ++k) {
            std::uint64_t seed = 0xe1a57 + t * 131ull + k * 7ull +
                                 spec.seed * 0x9e3779b97f4a7c15ull;
            rt.spawnWorker(t, [&plane, &sh, seed](SmartCtx &ctx) {
                return elasticWorker(ctx, plane, seed, sh);
            });
        }
    }

    // 1 ms buckets across the whole run: the knee curve.
    const Time bucket = sim::msec(1);
    std::vector<std::uint64_t> opsPerMs;
    std::uint64_t prevOps = 0;
    for (Time t = bucket; t <= run_end; t += bucket) {
        tb.runUntil(t);
        std::uint64_t now = rt.appOps.value();
        opsPerMs.push_back(now - prevOps);
        prevOps = now;
    }

    auto window = [&](Time a, Time b) {
        std::uint64_t ops = 0;
        for (Time t = a; t < b; t += bucket)
            ops += opsPerMs[t / bucket];
        return static_cast<double>(ops) /
               (static_cast<double>(b - a) / 1000.0);
    };

    struct PhaseRow
    {
        const char *name;
        Time start, end;
    };
    std::vector<PhaseRow> phases = {
        {"pre", sim::msec(2), drain_at},
        {"drain", drain_at, join_at},
        {"join", join_at, crash_at},
        {"crash", crash_at, sim::msec(34)},
        {"post", sim::msec(34), run_end},
    };

    std::cout << "== Elasticity: drain + join + crash mid-run (" << threads
              << " threads x " << coros << " coros, " << partitions
              << " partitions) ==\n";
    sim::Table pt({"phase", "start_ms", "end_ms", "mops"});
    for (const PhaseRow &ph : phases) {
        pt.row()
            .cell(std::string(ph.name))
            .cell(static_cast<std::uint64_t>(ph.start / 1'000'000))
            .cell(static_cast<std::uint64_t>(ph.end / 1'000'000))
            .cell(window(ph.start, ph.end), 2);
    }
    cli.addTable("elasticity_phases", pt);

    sim::Table tl({"ms", "kops"});
    for (std::size_t i = 0; i < opsPerMs.size(); ++i)
        tl.row().cell(std::uint64_t(i)).cell(
            static_cast<double>(opsPerMs[i]) / 1000.0, 1);
    cli.addTable("elasticity_timeline", tl);

    sim::Table mt({"migrated_parts", "migrated_mb", "joins", "drains",
                   "failovers", "epoch", "fenced", "handoffs",
                   "chunked_posts", "op_delays"});
    double handoffs = 0;
    if (cache::BufferManager *bm = rt.cache())
        handoffs = static_cast<double>(bm->handoffCount());
    mt.row()
        .cell(plane.migratedPartitions())
        .cell(static_cast<double>(plane.migratedBytes()) / (1 << 20), 2)
        .cell(plane.joinCount())
        .cell(plane.drainCount())
        .cell(plane.failoverCount())
        .cell(plane.view().epoch())
        .cell(plane.view().fencedCount())
        .cell(static_cast<std::uint64_t>(handoffs))
        .cell(rt.chunkedPostCount())
        .cell(rt.opDelayCount());
    cli.addTable("elasticity_membership", mt);

    double pre = window(sim::msec(2), drain_at);
    double post = window(sim::msec(34), run_end);
    double ratio = pre > 0 ? post / pre : 0.0;
    sim::Table d({"pre_mops", "post_mops", "post_over_pre", "failed_ops",
                  "fenced_retries", "other_retries", "migration_waits"});
    d.row()
        .cell(pre, 2)
        .cell(post, 2)
        .cell(ratio, 3)
        .cell(sh.failedOps)
        .cell(sh.fencedRetries)
        .cell(sh.otherRetries)
        .cell(sh.migrationWaits);
    cli.addTable("elasticity_degradation", d);

    captureRun(tb, spec);

    cli.note("Expected shape: dips at drain (10 ms), join rebalance "
             "(18 ms) and crash (26 ms); zero failed ops because every "
             "affected access is fenced by the cluster view and retried "
             "after re-placement; post recovers to >=90% of pre on the "
             "surviving two-thirds capacity plus the joined blade.");
    return cli.finish();
}
