/**
 * @file
 * SpanTracer: per-operation virtual-time span recording for latency
 * attribution (where does a p99 op spend its time?).
 *
 * Design goals, in order:
 *   1. Near-zero cost when disabled. The tracer is an install-pointer on
 *      the Simulator (like FaultPlane): a plane-free run pays exactly one
 *      pointer load per opBegin and nothing anywhere else. No kernel
 *      (EventQueue / Task) code is touched at all.
 *   2. No hot-path allocation when enabled. Records live in one vector
 *      reserved up-front; a SpanId is index+1 into it. When the cap is
 *      reached, recording stops and a drop counter ticks — the run keeps
 *      its determinism and its allocation-free property either way.
 *   3. Determinism. Records depend only on virtual time and the seeded
 *      workload, so a fixed seed yields byte-identical exports (tests
 *      assert this).
 *
 * Span model. Every span belongs to a *track* (one per application
 * coroutine, or one per device). Spans on a coroutine track are properly
 * nested — the coroutine is sequential, so `op > verb > doorbell_wait`
 * form a stack and export as Chrome "X" (complete) events. Device-side
 * spans (DMA, wire, WQE refetch) overlap freely and export as Chrome
 * async "b"/"e" pairs on their device's track, cross-parented to the
 * verb span that issued them (WorkReq::traceSpan carries the parent id
 * through the flusher, the verbs layer and the RNIC pipeline).
 *
 * Attribution. The per-stage table reports *self* (exclusive) time of
 * coroutine-track spans: a stage's duration minus its same-track direct
 * children. Op self time is reported as the synthetic "unattributed"
 * stage, so the per-stage totals sum to the measured op total by
 * construction (coverage ~= 1.0, and honest about what was not broken
 * down). Device-track spans overlap coroutine time that is already
 * attributed (mostly verb wait), so they are listed with overlap = true
 * and excluded from the coverage sum. The same applies to stages another
 * actor records about a coroutine (the flusher's credit_wait, the QP's
 * doorbell_wait): they run concurrently with the coroutine's own poll
 * spans, so they are breakdown-only too.
 */

#ifndef SMART_SIM_SPAN_HPP
#define SMART_SIM_SPAN_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "sim/json.hpp"
#include "sim/types.hpp"

namespace smart::sim {

class Simulator;

/** Stage taxonomy; names are stable (reports and tests rely on them). */
enum class Stage : std::uint8_t
{
    Op,           ///< one application-level operation (lookup/txn/...)
    GateWait,     ///< waiting on the coroutine admission gate (c_max)
    Verb,         ///< stage+post+sync of one verb round
    CreditWait,   ///< Algorithm-1 credit throttling in the flusher
    DoorbellWait, ///< UAR spinlock arbitration before the MMIO ring
    WqeFetch,     ///< WQE DMA fetch / WQE-cache miss refetch
    Dma,          ///< responder-side payload DMA
    Pcie,         ///< initiator-side CQE + payload landing
    Link,         ///< request/response wire time
    MttFetch,     ///< ICM / MTT translation miss refetch
    Atomic,       ///< responder atomic-unit service (CAS/FAA)
    CqePoll,      ///< CPU cost of draining this coroutine's CQEs
    BackoffSleep, ///< s4.3 truncated-exponential conflict backoff
    RetryRound,   ///< one failure-retry round (re-stage + re-post + wait)
    Cpu,          ///< explicit application compute() time
    Cache,        ///< compute-side cache tier service (hit copy-out)
    AdmissionWait, ///< open-loop admission-queue wait (arrival -> dispatch)
    Unattributed, ///< synthetic: op self time not covered by any child
};

/** Number of stages (array sizing). */
inline constexpr std::size_t kNumStages =
    static_cast<std::size_t>(Stage::Unattributed) + 1;

/** @return stable lower_snake name of @p s ("doorbell_wait", ...). */
const char *stageName(Stage s);

/** Index into the tracer's record pool, plus one. 0 means "no span". */
using SpanId = std::uint32_t;

/** Index into the tracer's track table, plus one. 0 means "no track". */
using TrackId = std::uint16_t;

/** One recorded span. Plain data; 24 bytes. */
struct SpanRecord
{
    Time start = 0;
    Time end = 0;
    SpanId parent = 0;
    TrackId track = 0;
    Stage stage = Stage::Op;
    bool open = false;
};

/**
 * Span records one tracer keeps before it drops (and counts) the rest:
 * 24 MiB of records. perfbench/run.py's traced-pass stride is sized to
 * stay under it on every workload.
 */
inline constexpr std::size_t kSpanMaxRecords = std::size_t{1} << 20;

/**
 * Records spans for one Simulator. Construction installs the tracer on
 * the simulator; destruction uninstalls it. Components read
 * sim.spans() and do nothing when it is null.
 */
class SpanTracer
{
  public:
    /**
     * @param sample_every record every Nth application op (>= 1)
     * @param max_records  record-pool cap; recording stops (and drops
     *                     are counted) once reached
     */
    SpanTracer(Simulator &sim, std::uint32_t sample_every = 1,
               std::size_t max_records = kSpanMaxRecords);
    ~SpanTracer();

    SpanTracer(const SpanTracer &) = delete;
    SpanTracer &operator=(const SpanTracer &) = delete;

    /** @return the op sampling stride (callers skip unsampled ops). */
    std::uint32_t sampleEvery() const { return sampleEvery_; }

    /**
     * Intern a track. @p thread groups tracks for the attribution table
     * (e.g. "cb0/t17"); device tracks set @p device and are attributed
     * to the thread of their spans' cross-track parents.
     * Interning allocates — do it at setup, not on the hot path.
     */
    TrackId internTrack(std::string name, std::string thread,
                        bool device = false);

    /** Open a span now. @return its id, or 0 when the pool is full. */
    SpanId begin(TrackId track, Stage stage, SpanId parent);

    /** Close span @p id now. id 0 is ignored. */
    void end(SpanId id);

    /**
     * Record an already-finished span (wrap-around timing sites).
     * @p parent_owner is the tracer @p parent belongs to when that is
     * another shard's tracer (a responder recording about a remote
     * initiator's verb); absorb() resolves such links. nullptr or this
     * means @p parent is one of ours.
     */
    void record(TrackId track, Stage stage, SpanId parent, Time start,
                Time end_time, const SpanTracer *parent_owner = nullptr);

    /**
     * Move every track and record of each of @p others into this tracer,
     * remapping track ids and parent links, cross-tracer parents among
     * this tracer and @p others included. Used at capture time to fold
     * the per-shard tracers of a ShardGroup into shard 0's tracer; each
     * of @p others is left empty (and may keep recording afterwards).
     * Call only between phases. May exceed this tracer's record cap —
     * absorbing is a report-time operation, not a hot-path one.
     */
    void absorb(const std::vector<SpanTracer *> &others);

    /** @return the track of span @p id (0 for id 0). */
    TrackId
    trackOf(SpanId id) const
    {
        return id == 0 ? 0 : records_[id - 1].track;
    }

    // ---- introspection (tests, exporters) ----
    std::size_t size() const { return records_.size(); }
    std::uint64_t dropped() const { return dropped_; }
    const SpanRecord &at(SpanId id) const { return records_[id - 1]; }
    bool trackIsDevice(TrackId t) const { return tracks_[t - 1].device; }

    // ---- exports ----

    /** Chrome/Perfetto trace-event JSON ({"traceEvents": [...]}). */
    Json chromeTrace() const;

    /** chromeTrace() serialized (the trace.json artifact). */
    std::string chromeTraceString() const;

    /**
     * Collapsed-stack flamegraph lines ("thr;op;verb;stage N\n").
     * Weights are self times of coroutine-track spans, so the flame sums
     * to total op time. @p prefix (if non-empty) heads every stack.
     */
    std::string collapsedStacks(const std::string &prefix = "") const;

    /**
     * Per-stage / per-thread attribution summary with exact
     * p50/p99/p999 over (self) durations, plus a coverage block
     * relating attributed time to total op time. See file comment.
     */
    Json attribution() const;

  private:
    struct Track
    {
        std::string name;
        std::string thread;
        bool device = false;
    };

    /** A record whose parent lives in another tracer (see record()). */
    struct ForeignParent
    {
        SpanId child;
        SpanId parent;
        const SpanTracer *owner;
    };

    /** Thread label a record attributes to (parent hop for devices). */
    const std::string &threadOf(const SpanRecord &r) const;

    Simulator &sim_;
    std::uint32_t sampleEvery_;
    std::size_t maxRecords_;
    std::vector<SpanRecord> records_;
    std::vector<Track> tracks_;
    std::vector<ForeignParent> foreign_;
    std::uint64_t dropped_ = 0;
};

} // namespace smart::sim

#endif // SMART_SIM_SPAN_HPP
