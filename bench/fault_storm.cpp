/**
 * @file
 * Fault storm: throughput before / during / after an injected memory
 * blade crash. Workers issue random 64 B READs alternating across two
 * memory blades; at t=12 ms blade mb1 crashes for 8 ms (taking half the
 * working set offline), restarts with a fresh rkey, and the runtime's
 * retry/reconnect machinery carries the workload back to its pre-fault
 * throughput. Reports per-phase throughput and the post/pre ratio —
 * the paper-style robustness claim is post_over_pre >= 0.9.
 *
 * A second scenario exercises membership churn: the FaultPlane fires
 * periodic faults at the membership plane's "drain.mb1" target, so the
 * blade gracefully drains (live migration out) and rejoins (rebalance
 * back) on a timer while readers keep running. Expected: zero failed
 * ops and post/pre >= 0.9 there as well. The bench only reports;
 * scripts/check_bench_json.py gates every threshold.
 */

#include <iostream>
#include <string>
#include <vector>

#include "harness/bench_cli.hpp"
#include "harness/testbed.hpp"
#include "sim/fault.hpp"
#include "sim/random.hpp"
#include "sim/table.hpp"
#include "smart/membership.hpp"
#include "smart/smart_ctx.hpp"

using namespace smart;
using namespace smart::harness;
using sim::Task;
using sim::Time;

namespace {

struct Shared
{
    std::uint64_t failedOps = 0; ///< ops that exhausted verb retries
};

Task
stormWorker(SmartCtx &ctx, std::uint32_t num_blades, std::uint64_t seed,
            std::uint64_t region_bytes, Shared &sh)
{
    SmartRuntime &rt = ctx.runtime();
    sim::Rng rng(seed);
    const std::uint64_t slots = region_bytes / 64;
    std::uint8_t *buf = ctx.scratch(64);
    for (;;) {
        std::uint32_t blade = static_cast<std::uint32_t>(
            rng.uniform(num_blades));
        std::uint64_t off = rng.uniform(slots) * 64;
        Time start = ctx.sim().now();
        co_await ctx.opBegin();
        co_await ctx.access(rt.ptr(blade, off),
                            AccessOp::read(MemSpan{buf, 64}));
        bool failed = ctx.failed();
        if (failed)
            ctx.clearError();
        ctx.opEnd();
        if (failed)
            ++sh.failedOps;
        else
            rt.recordOp(ctx.sim().now() - start, 0);
    }
}

struct Phase
{
    const char *name;
    Time start;
    Time end;
    std::uint64_t ops = 0;
    std::uint64_t failed = 0;

    double
    mops() const
    {
        return static_cast<double>(ops) /
               (static_cast<double>(end - start) / 1000.0);
    }
};

/**
 * Run @p tb through @p phases, counting each phase's ops and failed ops
 * (the gap before a phase is warm-up or settling time).
 */
void
runPhases(Testbed &tb, const Shared &sh, std::vector<Phase> &phases)
{
    SmartRuntime &rt = tb.compute(0);
    for (Phase &ph : phases) {
        tb.runUntil(ph.start);
        std::uint64_t ops0 = rt.appOps.value();
        std::uint64_t failed0 = sh.failedOps;
        tb.runUntil(ph.end);
        ph.ops = rt.appOps.value() - ops0;
        ph.failed = sh.failedOps - failed0;
    }
}

sim::Table
phaseTable(const std::vector<Phase> &phases)
{
    sim::Table t({"phase", "start_ms", "end_ms", "ops", "mops",
                  "failed_ops"});
    for (const Phase &ph : phases) {
        t.row()
            .cell(std::string(ph.name))
            .cell(static_cast<std::uint64_t>(ph.start / 1'000'000))
            .cell(static_cast<std::uint64_t>(ph.end / 1'000'000))
            .cell(ph.ops)
            .cell(ph.mops(), 2)
            .cell(ph.failed);
    }
    return t;
}

/** Membership-churn worker: placement re-resolved every attempt. */
Task
churnWorker(SmartCtx &ctx, MembershipPlane &plane, std::uint64_t seed,
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
        Time start = ctx.sim().now();
        co_await ctx.opBegin();
        bool done = false;
        for (int attempt = 0; attempt < 256 && !done; ++attempt) {
            while (plane.migrating(part))
                co_await ctx.sim().delay(
                    sim::cyclesToNs(8192 + rng.uniform(8192)));
            std::uint32_t blade = plane.bladeOf(part);
            if (blade == MembershipPlane::kNoBlade) {
                co_await ctx.sim().delay(
                    sim::cyclesToNs(8192 + rng.uniform(8192)));
                continue;
            }
            co_await ctx.access(rt.ptr(blade,
                                       plane.partitionOffset(part) + off),
                                AccessOp::read(MemSpan{buf, 64}));
            if (!ctx.failed()) {
                done = true;
                break;
            }
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
    BenchCli cli(argc, argv, "fault_storm");
    bool quick = cli.quick();

    const std::uint32_t threads = quick ? 4 : 8;
    const std::uint32_t coros = 4;
    const std::uint64_t region = 64ull << 20; // per-blade footprint

    TestbedConfig cfg;
    cfg.computeBlades = 1;
    cfg.memoryBlades = 2;
    cfg.threadsPerBlade = threads;
    cfg.bladeBytes = region;
    cfg.smart = presets::full();
    cfg.smart.withBenchTimescale();
    cfg.smart.corosPerThread = coros;
    RunSpec spec = cli.spec("storm");
    observe(cfg, spec);
    Testbed tb(cfg);

    // The fault schedule: mb1 crashes at 12 ms and restarts at 20 ms
    // (NVM contents survive; its rkey does not).
    const Time crash_at = sim::msec(12);
    const Time down_for = sim::msec(8);
    sim::FaultPlane &fp = tb.faultPlane(0xfa57 + spec.seed);
    fp.oneShot(crash_at, sim::FaultKind::Crash, "mb1", down_for);

    Shared sh;
    SmartRuntime &rt = tb.compute(0);
    for (std::uint32_t t = 0; t < threads; ++t) {
        for (std::uint32_t k = 0; k < coros; ++k) {
            std::uint64_t seed = 0x570a11 + t * 131ull + k * 7ull +
                                 spec.seed * 0x9e3779b97f4a7c15ull;
            rt.spawnWorker(t, [&rt, &sh, seed, region](SmartCtx &ctx) {
                return stormWorker(ctx, rt.numBlades(), seed, region, sh);
            });
        }
    }

    // warmup | pre-fault | crash+restart | settle | post-recovery
    std::vector<Phase> phases = {
        {"pre", sim::msec(2), crash_at},
        {"during", crash_at, crash_at + down_for + sim::msec(2)},
        {"post", sim::msec(24), sim::msec(34)},
    };

    runPhases(tb, sh, phases);

    std::cout << "== Fault storm: READ throughput across an mb1 crash ("
              << threads << " threads x " << coros << " coros) ==\n";
    cli.addTable("fault_storm_phases", phaseTable(phases));

    double pre = phases[0].mops();
    double during = phases[1].mops();
    double post = phases[2].mops();
    double ratio = pre > 0 ? post / pre : 0.0;
    sim::Table d({"pre_mops", "during_mops", "post_mops", "post_over_pre"});
    d.row().cell(pre, 2).cell(during, 2).cell(post, 2).cell(ratio, 3);
    cli.addTable("fault_storm_degradation", d);

    captureRun(tb, spec);

    cli.note("Expected shape: during_mops dips (ops on mb1 burn retry "
             "budget while it is down) but stays well above zero (mb0 "
             "unaffected); post_mops recovers to within 10% of pre_mops "
             "once mb1 restarts and clients pick up its new rkey.");

    // ---- scenario 2: membership churn -----------------------------------
    // A separate cluster where the FaultPlane drives periodic graceful
    // drain/rejoin cycles through the membership plane's "drain.mb1"
    // fault target: mb1 leaves at t=6 ms and t=16 ms for 3 ms each,
    // migrating its partitions out and rebalancing them back on rejoin.
    {
        const std::uint32_t cthreads = quick ? 2 : 4;
        const std::uint32_t ccoros = 4;
        TestbedConfig ccfg;
        ccfg.computeBlades = 1;
        ccfg.memoryBlades = 2;
        ccfg.threadsPerBlade = cthreads;
        ccfg.bladeBytes = 8ull << 20;
        ccfg.smart = presets::full();
        ccfg.smart.withBenchTimescale();
        ccfg.smart.corosPerThread = ccoros + 1; // +1 for migration worker
        RunSpec cspec = cli.spec();
        observe(ccfg, cspec);
        Testbed ctb(ccfg);
        SmartRuntime &crt = ctb.compute(0);

        MembershipPlane::Config pc;
        pc.partitions = 16;
        pc.partBytes = 64ull << 10;
        MembershipPlane plane(ctb.sim(), pc, "churn0");
        plane.addRuntime(crt);
        for (std::uint32_t m = 0; m < ctb.numMemBlades(); ++m)
            plane.addBlade(ctb.memBlade(m));
        plane.seedPartitions();
        plane.startHealthMonitor();
        plane.enableChurnTargets();

        sim::FaultPlane &cfp = ctb.faultPlane(0xc442 + cspec.seed);
        cfp.periodic(sim::msec(6), sim::msec(10), sim::FaultKind::Crash,
                     "drain.mb1", sim::msec(3));

        Shared csh;
        for (std::uint32_t t = 0; t < cthreads; ++t) {
            for (std::uint32_t k = 0; k < ccoros; ++k) {
                std::uint64_t seed = 0xc4a0 + t * 131ull + k * 7ull +
                                     cspec.seed * 0x9e3779b97f4a7c15ull;
                crt.spawnWorker(t, [&plane, &csh, seed](SmartCtx &ctx) {
                    return churnWorker(ctx, plane, seed, csh);
                });
            }
        }

        std::vector<Phase> cphases = {
            {"pre", sim::msec(2), sim::msec(6)},
            {"churn", sim::msec(6), sim::msec(21)},
            {"post", sim::msec(21), sim::msec(25)},
        };
        runPhases(ctb, csh, cphases);

        std::cout << "== Membership churn: periodic drain/rejoin of mb1 ("
                  << cthreads << " threads x " << ccoros << " coros) ==\n";
        cli.addTable("fault_storm_churn_phases", phaseTable(cphases));

        double cpre = cphases[0].mops();
        double cchurn = cphases[1].mops();
        double cpost = cphases[2].mops();
        double cratio = cpre > 0 ? cpost / cpre : 0.0;
        sim::Table cs({"pre_mops", "churn_mops", "post_mops",
                       "post_over_pre", "drains", "joins", "migrated_parts",
                       "epoch", "failed_ops"});
        cs.row()
            .cell(cpre, 2)
            .cell(cchurn, 2)
            .cell(cpost, 2)
            .cell(cratio, 3)
            .cell(plane.drainCount())
            .cell(plane.joinCount())
            .cell(plane.migratedPartitions())
            .cell(plane.view().epoch())
            .cell(csh.failedOps);
        cli.addTable("fault_storm_churn_summary", cs);

        plane.stopHealthMonitor();
    }
    return cli.finish();
}
