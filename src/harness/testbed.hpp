/**
 * @file
 * Testbed: builds a simulated cluster (memory blades + SMART compute
 * blades) mirroring the paper's evaluation setup — dual-socket 96-core
 * compute blades, 200 Gbps ConnectX-6-class fabric, two memory blades
 * unless stated otherwise.
 */

#ifndef SMART_HARNESS_TESTBED_HPP
#define SMART_HARNESS_TESTBED_HPP

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "memblade/memory_blade.hpp"
#include "rnic/rnic_config.hpp"
#include "sim/fault.hpp"
#include "sim/json.hpp"
#include "sim/metrics.hpp"
#include "sim/simulator.hpp"
#include "sim/span.hpp"
#include "sim/timeline.hpp"
#include "smart/cache/buffer_manager.hpp"
#include "smart/smart_config.hpp"
#include "smart/smart_runtime.hpp"

namespace smart::harness {

/** Cluster shape + per-blade configuration. */
struct TestbedConfig
{
    rnic::RnicConfig hw;
    SmartConfig smart;
    std::uint32_t computeBlades = 1;
    std::uint32_t threadsPerBlade = 96;
    std::uint32_t memoryBlades = 2;
    std::uint64_t bladeBytes = 1ull << 30; // 1 GB registered per blade

    /**
     * Simulation shards (host threads): blades are distributed round-
     * robin over this many Simulators, synchronized conservatively with
     * the wire propagation latency as lookahead (see sim/wire.hpp).
     * Clamped to the blade count; 1 (the default) is the classic
     * single-threaded engine. Seeded results are byte-identical at any
     * value. Incompatible with the fault plane and the membership plane
     * (those hold cross-blade state on one shard).
     */
    std::uint32_t shards = 1;

    /**
     * Span recording cadence: every Nth application op per coroutine is
     * traced through the full stack (sim/span.hpp); 0 disables the
     * tracer entirely (untraced runs pay one pointer load per op).
     */
    std::uint32_t spanSampleEvery = 0;
    /** Hard cap on span records (bounds memory; excess is dropped). */
    std::size_t spanMaxRecords = 1u << 20;

    /**
     * Windowed time-series sampling cadence (sim/timeline.hpp); 0
     * disables the plane entirely. Works at any shard count: sampling
     * happens at runUntil() barrier points (no simulation events), so
     * the simulated run — and the exported block — is byte-identical at
     * any --shards N.
     */
    sim::Time tsWindowNs = 0;
};

/** A fully wired cluster: every compute blade connected to every blade. */
class Testbed
{
  public:
    explicit Testbed(const TestbedConfig &cfg)
        : cfg_(cfg),
          group_(effectiveShards(cfg), rnic::kPropagationNs)
    {
        const std::uint32_t shards = group_.size();
        if (cfg.spanSampleEvery > 0) {
            for (std::uint32_t s = 0; s < shards; ++s)
                spans_.push_back(std::make_unique<sim::SpanTracer>(
                    group_.shard(s), cfg.spanSampleEvery,
                    cfg.spanMaxRecords));
        }
        std::uint32_t next_shard = 0;
        auto pick = [&]() -> sim::Simulator & {
            return group_.shard(next_shard++ % shards);
        };
        for (std::uint32_t m = 0; m < cfg.memoryBlades; ++m) {
            memBlades_.push_back(std::make_unique<memblade::MemoryBlade>(
                pick(), cfg.hw, "mb" + std::to_string(m), cfg.bladeBytes));
        }
        for (std::uint32_t c = 0; c < cfg.computeBlades; ++c) {
            computeBlades_.push_back(std::make_unique<SmartRuntime>(
                pick(), cfg.hw, cfg.smart, cfg.threadsPerBlade,
                "cb" + std::to_string(c)));
            for (auto &mb : memBlades_)
                computeBlades_.back()->connect(*mb);
        }
        if (cfg.tsWindowNs > 0) {
            timeline_ =
                std::make_unique<sim::Timeline>(cfg.tsWindowNs, shards);
            for (std::uint32_t s = 0; s < shards; ++s)
                timeline_->attach(group_.shard(s));
        }
    }

    /**
     * Shard 0's Simulator: where setup-time scheduling belongs, and — at
     * one shard (the default) — the whole cluster. Code that touches a
     * specific blade's virtual time should use that blade's own sim().
     */
    sim::Simulator &sim() { return group_.shard(0); }
    const sim::Simulator &sim() const { return group_.shard(0); }
    const TestbedConfig &config() const { return cfg_; }

    /** Number of simulation shards actually built. */
    std::uint32_t shards() const { return group_.size(); }

    /** The shard group driving every blade's Simulator. */
    sim::ShardGroup &shardGroup() { return group_; }

    /**
     * Advance the whole cluster to virtual time @p deadline (all shard
     * clocks equal on return). The only way to advance time on a sharded
     * testbed; equivalent to sim().runUntil(deadline) at one shard.
     *
     * When the time-series plane is on, the advance is chunked at window
     * boundaries: each sample happens at a barrier point where every
     * shard clock equals the window edge, so sampling adds no simulation
     * events and the run stays byte-identical with the plane off.
     */
    void
    runUntil(sim::Time deadline)
    {
        if (timeline_) {
            while (timeline_->nextSampleAt() <= deadline) {
                sim::Time b = timeline_->nextSampleAt();
                group_.runUntil(b);
                timeline_->sampleAt(b);
            }
        }
        group_.runUntil(deadline);
    }

    std::uint32_t numMemBlades() const { return memBlades_.size(); }
    memblade::MemoryBlade &memBlade(std::uint32_t i) { return *memBlades_[i]; }

    /** Every memory blade, in index order (what the apps shard over). */
    std::vector<memblade::MemoryBlade *>
    memBlades()
    {
        std::vector<memblade::MemoryBlade *> out;
        for (auto &mb : memBlades_)
            out.push_back(mb.get());
        return out;
    }

    std::uint32_t numComputeBlades() const { return computeBlades_.size(); }
    SmartRuntime &compute(std::uint32_t i) { return *computeBlades_[i]; }
    const SmartRuntime &compute(std::uint32_t i) const
    {
        return *computeBlades_[i];
    }

    /** @return the time-series plane (nullptr unless tsWindowNs > 0). */
    sim::Timeline *timeline() { return timeline_.get(); }

    /** @return shard 0's span tracer (nullptr unless spans are on). */
    sim::SpanTracer *spanTracer()
    {
        return spans_.empty() ? nullptr : spans_[0].get();
    }

    /**
     * Fold every shard's span records into shard 0's tracer and return
     * it (nullptr unless spans are on). Call between phases, at capture
     * time; repeated calls absorb only records added since.
     */
    sim::SpanTracer *
    mergedSpanTracer()
    {
        if (spans_.empty())
            return nullptr;
        std::vector<sim::SpanTracer *> others;
        for (std::size_t s = 1; s < spans_.size(); ++s)
            others.push_back(spans_[s].get());
        spans_[0]->absorb(others);
        return spans_[0].get();
    }

    /**
     * Lazily create (and install) the cluster's fault-injection plane.
     * Never called => no plane installed => zero overhead anywhere.
     * Single-shard only (the plane's constructor enforces it).
     */
    sim::FaultPlane &
    faultPlane(std::uint64_t seed = 0x5eedfa17)
    {
        if (!faultPlane_)
            faultPlane_ = std::make_unique<sim::FaultPlane>(sim(), seed);
        return *faultPlane_;
    }

    /**
     * Snapshot every registered metric at the current virtual time.
     * Entries merge across shards in registration-stamp order, so the
     * result is byte-identical at any shard count.
     */
    sim::MetricsSnapshot
    snapshot() const
    {
        std::vector<const sim::MetricsRegistry *> regs;
        regs.reserve(group_.size());
        for (std::uint32_t s = 0; s < group_.size(); ++s)
            regs.push_back(&group_.shard(s).metrics());
        return sim::MetricsRegistry::mergedSnapshot(sim().now(), regs);
    }

  private:
    static std::uint32_t
    effectiveShards(const TestbedConfig &cfg)
    {
        std::uint32_t blades = cfg.memoryBlades + cfg.computeBlades;
        std::uint32_t n = cfg.shards == 0 ? 1 : cfg.shards;
        return n < blades ? n : (blades == 0 ? 1 : blades);
    }

    TestbedConfig cfg_;
    // Declared first: the group owns every shard Simulator, which all
    // members below reference — it must outlive (and so be built before)
    // all of them.
    sim::ShardGroup group_;
    std::vector<std::unique_ptr<memblade::MemoryBlade>> memBlades_;
    std::vector<std::unique_ptr<SmartRuntime>> computeBlades_;
    // Declared after group_: the plane unregisters on destruction.
    std::unique_ptr<sim::FaultPlane> faultPlane_;
    // Declared after group_: tracers uninstall themselves on destruction.
    std::vector<std::unique_ptr<sim::SpanTracer>> spans_;
    // Declared after group_: uninstalls itself from every shard.
    std::unique_ptr<sim::Timeline> timeline_;
};

/**
 * Everything a bench captures about one measured run: the final metrics
 * snapshot plus whatever the observers it asked for recorded (spans, the
 * windowed time series — including the controller timelines).
 */
struct RunCapture
{
    std::string label;
    sim::MetricsSnapshot metrics;
    /** Per-stage latency attribution (null unless spans were recorded). */
    sim::Json spans;
    /** Chrome/Perfetto trace JSON text (empty unless spans recorded). */
    std::string spanTrace;
    /** Collapsed-stack flamegraph lines (empty unless spans recorded). */
    std::string spanFolded;
    /** Windowed time-series block (null unless the plane was on). */
    sim::Json timeseries;
};

/**
 * Everything the command line sets about one run (BenchCli::spec hands
 * one out per run). observe() applies it to the run's TestbedConfig; the
 * run functions also seed their workload streams from it. An arm that
 * cannot take a value overrides it at its call site, saying why.
 */
struct RunSpec
{
    /** Names the run's capture (empty for a run that is not captured). */
    std::string label;
    /** Where captureRun() stores the run (nullptr = not captured). */
    RunCapture *capture = nullptr;
    /** Perturbs every workload RNG stream (same seed => same run). */
    std::uint64_t seed = 0;
    /** Simulation shards (TestbedConfig::shards). */
    std::uint32_t shards = 1;
    /** Cache-tier frame pool in MiB, replacing the bench's own setting
     *  (0 turns the tier off); empty keeps the bench's setting. */
    std::optional<std::uint32_t> cacheMb;
    /** Observers of a captured run (0 keeps the config's own value). */
    std::uint32_t spanSampleEvery = 0;
    sim::Time tsWindowNs = 0;
};

/** Apply @p spec to @p cfg (call before building the testbed). */
inline void
observe(TestbedConfig &cfg, const RunSpec &spec)
{
    cfg.shards = spec.shards;
    if (spec.cacheMb)
        cfg.smart.withCacheMb(*spec.cacheMb);
    if (spec.spanSampleEvery > 0)
        cfg.spanSampleEvery = spec.spanSampleEvery;
    if (spec.tsWindowNs > 0)
        cfg.tsWindowNs = spec.tsWindowNs;
}

/** Fill @p spec's capture (if any) from @p tb after a finished run. */
inline void
captureRun(Testbed &tb, const RunSpec &spec)
{
    RunCapture *cap = spec.capture;
    if (cap == nullptr)
        return;
    cap->label = spec.label;
    cap->metrics = tb.snapshot();
    sim::Timeline *tl = tb.timeline();
    if (tb.mergedSpanTracer() != nullptr) {
        sim::SpanTracer &sp = *tb.mergedSpanTracer();
        cap->spans = sp.attribution();
        if (tl != nullptr) {
            // Merge Timeline counter tracks + annotation instants into
            // the span trace so one Perfetto load shows both.
            sim::Json root = sp.chromeTrace();
            for (auto &[k, v] : root.asObject())
                if (k == "traceEvents")
                    tl->appendChromeEvents(v);
            cap->spanTrace = root.dump(1);
        } else {
            cap->spanTrace = sp.chromeTraceString();
        }
        cap->spanFolded = sp.collapsedStacks();
    } else if (tl != nullptr && tl->windows() > 0) {
        // No spans: emit a standalone counter-track trace.
        sim::Json events = sim::Json::array();
        tl->appendChromeEvents(events);
        sim::Json root = sim::Json::object();
        root.set("traceEvents", std::move(events));
        root.set("displayTimeUnit", "ns");
        cap->spanTrace = root.dump(1);
    }
    if (tl != nullptr && tl->windows() > 0)
        cap->timeseries = tl->toJson();
}

/**
 * What one measure window saw, summed over the compute blades: each
 * counter's growth while the window was open, and every blade's
 * opLatency merged.
 */
struct Measured
{
    double us = 0; ///< window length in microseconds
    std::uint64_t appOps = 0;
    std::uint64_t retries = 0;
    /** retryHist[n] = ops that needed n retries (63 = "63 or more"). */
    std::vector<std::uint64_t> retryHist = std::vector<std::uint64_t>(64, 0);
    std::uint64_t wrs = 0;
    std::uint64_t dramBytes = 0;
    std::uint64_t doorbellRings = 0;
    std::uint64_t doorbellWaitNs = 0;
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
    std::uint64_t cacheEvictions = 0;
    /** Degradation-ladder engagements: chunked posts + delayed ops. */
    std::uint64_t ladder = 0;
    sim::LatencyHistogram latency;

    /** @p n over the window, per microsecond. */
    double perUs(std::uint64_t n) const { return static_cast<double>(n) / us; }

    /** @p num / @p den, or 0 when @p den is 0. */
    static double
    ratio(std::uint64_t num, std::uint64_t den)
    {
        return den ? static_cast<double>(num) / static_cast<double>(den)
                   : 0.0;
    }
};

/**
 * The measured part of a run: open it after warm-up (which resets every
 * compute blade's opLatency), close() it at the end.
 */
class MeasureWindow
{
  public:
    explicit MeasureWindow(Testbed &tb)
        : tb_(tb), openedAt_(tb.sim().now()), start_(sum(tb))
    {
        for (std::uint32_t c = 0; c < tb.numComputeBlades(); ++c)
            tb.compute(c).opLatency.reset();
    }

    /** @return what the compute blades did since the window opened. */
    Measured
    close() const
    {
        Measured m = sum(tb_);
        m.us = static_cast<double>(tb_.sim().now() - openedAt_) / 1000.0;
        m.appOps -= start_.appOps;
        m.retries -= start_.retries;
        for (std::size_t i = 0; i < m.retryHist.size(); ++i)
            m.retryHist[i] -= start_.retryHist[i];
        m.wrs -= start_.wrs;
        m.dramBytes -= start_.dramBytes;
        m.doorbellRings -= start_.doorbellRings;
        m.doorbellWaitNs -= start_.doorbellWaitNs;
        m.cacheHits -= start_.cacheHits;
        m.cacheMisses -= start_.cacheMisses;
        m.cacheEvictions -= start_.cacheEvictions;
        m.ladder -= start_.ladder;
        return m;
    }

  private:
    static Measured
    sum(Testbed &tb)
    {
        Measured m;
        for (std::uint32_t c = 0; c < tb.numComputeBlades(); ++c) {
            SmartRuntime &rt = tb.compute(c);
            const rnic::PerfCounters &perf = rt.rnic().perf();
            m.appOps += rt.appOps.value();
            m.retries += rt.totalRetries.value();
            for (std::size_t i = 0; i < m.retryHist.size(); ++i)
                m.retryHist[i] += rt.retryHist[i];
            m.wrs += perf.wrsCompleted.value();
            m.dramBytes += perf.dramBytes.value();
            m.doorbellRings += perf.doorbellRings.value();
            m.doorbellWaitNs += perf.doorbellWaitNs.value();
            if (const cache::BufferManager *bm = rt.cache()) {
                m.cacheHits += bm->hitCount();
                m.cacheMisses += bm->missCount();
                m.cacheEvictions += bm->evictionCount();
            }
            m.ladder += rt.chunkedPostCount() + rt.opDelayCount();
            m.latency.merge(rt.opLatency);
        }
        return m;
    }

    Testbed &tb_;
    sim::Time openedAt_;
    Measured start_;
};

} // namespace smart::harness

#endif // SMART_HARNESS_TESTBED_HPP
