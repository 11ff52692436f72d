/**
 * @file
 * Quickstart: the SMART programming model in ~60 lines.
 *
 * Builds a tiny disaggregated cluster (one compute blade, two memory
 * blades), then runs a coroutine that uses the verbs-like API: stage
 * READ/WRITE/CAS/FAA work requests, post them, and sync. All three of
 * SMART's techniques (thread-aware resource allocation, adaptive work
 * request throttling, conflict avoidance) are on by default.
 *
 * Run:  ./examples/quickstart
 */

#include <cstdio>
#include <cstring>

#include "harness/testbed.hpp"
#include "smart/smart_ctx.hpp"

using namespace smart;
using namespace smart::harness;

namespace {

sim::Task
helloRemoteMemory(SmartCtx &ctx, Testbed &tb, bool &passed)
{
    SmartRuntime &rt = ctx.runtime();

    // Allocate 64 bytes on memory blade 0 (setup-time allocation).
    std::uint64_t off = tb.memBlade(0).alloc(64);
    RemotePtr p = rt.ptr(0, off);

    // One-sided WRITE then READ through the unified access API. With a
    // cache configured (SmartConfig::withCacheMb), Cached reads of hot
    // lines are served from the compute-side buffer pool.
    const char msg[] = "hello, disaggregated world";
    co_await ctx.access(p, AccessOp::write(ConstMemSpan{msg, sizeof(msg)}));
    char readback[64] = {};
    co_await ctx.access(p, AccessOp::read(MemSpan{readback, sizeof(msg)}));
    std::printf("READ back: \"%s\"\n", readback);

    // Batched ops: stage several verbs, one doorbell, one sync.
    std::uint64_t counter_off = tb.memBlade(1).alloc(8);
    std::memset(tb.memBlade(1).bytesAt(counter_off), 0, 8);
    RemotePtr counter = rt.ptr(1, counter_off);
    std::uint64_t faa_old = 0;
    ctx.write(p, ConstMemSpan{msg, sizeof(msg)}); // blade 0
    ctx.faa(counter, 5, &faa_old); // blade 1, same batch
    co_await ctx.postSend();
    co_await ctx.sync();
    std::printf("FAA returned old value %llu\n",
                static_cast<unsigned long long>(faa_old));

    // Conflict-avoiding CAS (truncated exponential backoff on failure).
    std::uint64_t old = 0;
    bool ok = false;
    co_await ctx.backoffCasSync(counter, 5, 42, old, ok);
    std::printf("CAS %s: counter was %llu, now 42\n",
                ok ? "succeeded" : "failed",
                static_cast<unsigned long long>(old));

    std::printf("completed %llu one-sided verbs in %.1f us of virtual "
                "time\n",
                static_cast<unsigned long long>(
                    rt.rnic().perf().wrsCompleted.value()),
                ctx.sim().now() / 1000.0);
    passed = ok; // reached the end, and the CAS won
}

} // namespace

int
main()
{
    TestbedConfig cfg;
    cfg.computeBlades = 1;
    cfg.memoryBlades = 2;
    cfg.threadsPerBlade = 1;
    cfg.bladeBytes = 1 << 20;
    cfg.smart = presets::full(); // all SMART techniques enabled

    Testbed tb(cfg);
    bool passed = false;
    tb.compute(0).spawnWorker(0, [&](SmartCtx &ctx) {
        return helloRemoteMemory(ctx, tb, passed);
    });
    tb.sim().runUntil(sim::msec(10));
    return passed ? 0 : 1;
}
