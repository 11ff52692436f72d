/**
 * @file
 * Compute-side buffer-managed cache tier (ScaleStore-style BufferManager).
 *
 * A fixed pool of line-sized frames fronts the remote blades: reads that
 * hit a resident line are served locally for kHitNs instead of a full
 * wire round-trip (~1.3 us modeled). The page table is a hash map keyed
 * by (blade, line) pairs; eviction is CLOCK second-chance; dirty frames
 * are written back asynchronously on the evicting coroutine's doorbell
 * batch.
 *
 * Coherence rules (DESIGN.md §11):
 *  - CAS/FAA always go to the wire and invalidate the covering line when
 *    their completion lands (WorkReq::cacheCookie routing), so lock words
 *    and commit points are never served stale.
 *  - A CAS on a line with dirty cached data forces a write-back round
 *    first (write-back ordering vs. FORD-style commit points).
 *  - Bypass WRITEs patch resident lines at staging time; lines mid-fill
 *    record pending patches applied when the fill lands.
 *  - A blade crash/restart (MR invalidation, incarnation bump) drops
 *    every line of that blade before the next cached access.
 *
 * Determinism: all state lives in index-addressed vectors; the hash map
 * is only probed/erased, never iterated, so cached runs are as
 * byte-deterministic as cache-less ones. With the cache disabled
 * (SmartConfig::cacheBytes == 0) no BufferManager exists at all and every
 * event stream is byte-identical to earlier builds.
 */

#ifndef SMART_CACHE_BUFFER_MANAGER_HPP
#define SMART_CACHE_BUFFER_MANAGER_HPP

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "rnic/rnic.hpp"
#include "sim/resource.hpp"
#include "sim/stats.hpp"
#include "sim/task.hpp"
#include "smart/access.hpp"
#include "smart/smart_config.hpp"
#include "verbs/mem_span.hpp"

namespace smart {

class SmartCtx;
class SmartRuntime;

namespace cache {

/** Sentinel frame index ("no frame": the line is read off the wire). */
inline constexpr std::uint32_t kNoFrame = 0xffffffffu;

/** Cache line (frame) size; remote offsets are line-aligned. */
inline constexpr std::uint32_t kLineBytes = 256;

/** Largest access, in lines, served through the cache (larger ops
 *  bypass to the wire: streaming transfers must not thrash it). */
inline constexpr std::uint32_t kMaxSpanLines = 8;

/** Modeled CPU cost per line serviced by the cache (lookup + copy). */
inline constexpr sim::Time kHitNs = 60;

/** Most parts one accessMany() batch may carry through the cache. */
inline constexpr std::uint32_t kMaxParts = 16;

/** Most lines one accessMany() batch may touch (parts x span lines). */
inline constexpr std::uint32_t kMaxBatchLines = 64;

/**
 * The buffer pool. One instance per SmartRuntime (created only when
 * SmartConfig::cacheBytes != 0); shared by every thread and coroutine of
 * the runtime, which is safe because the whole simulation is one OS
 * thread and all cache state changes happen between co_awaits.
 */
class BufferManager
{
  public:
    /** A pool of @p pool_bytes / kLineBytes frames. */
    BufferManager(SmartRuntime &rt, std::uint64_t pool_bytes);
    ~BufferManager();

    BufferManager(const BufferManager &) = delete;
    BufferManager &operator=(const BufferManager &) = delete;

    /** Frame pool storage (the runtime registers it as a local MR). */
    MemSpan
    pool()
    {
        return MemSpan{pool_.data(), static_cast<std::uint32_t>(pool_.size())};
    }

    /** @return true when a @p len -byte access at @p offset may be
     *  served through the cache (fits the span-lines budget). */
    bool
    cacheable(std::uint64_t offset, std::uint32_t len) const
    {
        if (len == 0)
            return false;
        std::uint64_t first = offset / kLineBytes;
        std::uint64_t last = (offset + len - 1) / kLineBytes;
        return last - first + 1 <= kMaxSpanLines;
    }

    /**
     * Serve a batch of reads through the cache: hits copy out locally,
     * misses fill frames over the wire (one doorbell batch + one sync for
     * the whole batch), concurrent fills of the same line coalesce.
     * Every line's frame stays pinned until the batch's sync() returns;
     * lines beyond the free frames are read straight off the wire.
     * On verb failure ctx.failed() is set and destinations are
     * unspecified, exactly like the bypass path.
     */
    sim::Task readParts(SmartCtx &ctx, const ReadPart *parts,
                        std::uint32_t nparts);

    /**
     * Write-back write: if the covering line is resident and the span
     * does not cross lines, the frame is updated locally and marked
     * dirty.
     * @return true when absorbed (no wire op); false -> caller must
     *         write through.
     */
    bool tryCachedWrite(std::uint32_t blade, const RemotePtr &dst,
                        ConstMemSpan src);

    // ---- coherence hooks (called from SmartCtx staging verbs) ----

    /** A Bypass WRITE is being staged: patch/schedule-patch resident
     *  state so cached readers never see older bytes than the wire. */
    void noteBypassWrite(std::uint32_t blade, std::uint64_t offset,
                         ConstMemSpan src);

    /** @return cacheCookie for a staged CAS/FAA on @p offset: its
     *  completion invalidates the covering line. */
    std::uint64_t atomicCookie(std::uint32_t blade, std::uint64_t offset);

    /** @return true when the line covering @p offset holds dirty
     *  (not yet written back) cached data. */
    bool lineDirty(std::uint32_t blade, std::uint64_t offset) const;

    /** Write back the line covering @p offset and wait until it is
     *  clean (ordering barrier ahead of an atomic on the same line). */
    sim::Task flushLine(SmartCtx &ctx, std::uint32_t blade,
                        std::uint64_t offset);

    /** Write back every dirty frame (commit barrier / orderly drain). */
    sim::Task flushAll(SmartCtx &ctx);

    /** Drop every line of @p blade (crash-restart MR invalidation). */
    void flushBlade(std::uint32_t blade);

    /**
     * Blade-drain handoff: re-key every resident line of
     * [@p offset, @p offset + @p len) from @p from_blade to the same
     * offsets on @p to_blade (the membership plane migrates partition
     * regions to identical offsets, so only the blade half of the key
     * changes). The frame bytes do not move and pins survive: a batch
     * holding the line mid-flight copies it out intact. Dirty frames stay
     * dirty under the new key, so their eventual write-back targets the
     * destination; a write-back already in flight to the source is
     * re-dirtied (its bytes never reached the destination). Lines
     * mid-fill from the source are invalidated instead (the fill bytes
     * may predate the migration copy).
     * @return number of lines handed off
     */
    std::uint32_t handoffRange(std::uint32_t from_blade,
                               std::uint32_t to_blade, std::uint64_t offset,
                               std::uint64_t len);

    /** Lines re-keyed by handoffRange so far. */
    std::uint64_t handoffCount() const { return handoffs_.value(); }

    /** Compare @p blade's incarnation against the last one seen and
     *  flush its lines after a crash/restart cycle. */
    void checkIncarnation(std::uint32_t blade);

    /** CQE routing from SmartRuntime::dispatchCqe (wr.cacheCookie != 0).
     *  Also invoked for CQEs of abandoned sync rounds: cookies carry
     *  their own generation so stale ones are rejected here. */
    void onCqe(const rnic::WorkReq &wr, rnic::WcStatus status);

    // ---- introspection (benches, tests) ----
    std::uint64_t hitCount() const { return hits_.value(); }
    std::uint64_t missCount() const { return misses_.value(); }
    std::uint64_t evictionCount() const { return evictions_.value(); }
    std::uint64_t writebackCount() const { return writebacks_.value(); }
    std::uint64_t invalidationCount() const { return invalidations_.value(); }
    std::uint32_t
    numFrames() const
    {
        return static_cast<std::uint32_t>(frames_.size());
    }
    std::uint32_t residentLines() const;
    std::uint32_t dirtyLines() const;
    /** Frame pool exhaustion fallbacks (reads bypassed to the wire). */
    std::uint64_t poolExhausted() const { return exhausted_.value(); }

  private:
    /** Hash key of one cache line: (blade << 46) | line index. */
    using LineKey = std::uint64_t;

    enum class FrameState : std::uint8_t { Free, Loading, Ready };

    /** A pending Bypass-WRITE patch against a line that is mid-fill. */
    struct Patch
    {
        std::uint32_t off = 0;
        std::vector<std::uint8_t> bytes;
    };

    struct Frame
    {
        explicit Frame(sim::Simulator &sim) : waiters(sim) {}

        LineKey key = 0;
        /** Coroutines waiting for the fill or write-back to settle. */
        sim::WaitQueue waiters;
        std::vector<Patch> patches;
        std::uint32_t seq = 0;      ///< bumped at free; stale-CQE guard
        std::uint32_t dirtyGen = 0; ///< bumped per cached write
        std::uint32_t wbGen = 0;    ///< dirtyGen captured at WB stage
        std::uint16_t pins = 0;
        FrameState state = FrameState::Free;
        bool refBit = false;
        bool dirty = false;
        bool wbInFlight = false;
        bool staleOnFill = false; ///< invalidated while mid-fill
        bool detached = false;    ///< no page-table entry; zombie
        bool abandoned = false;   ///< fill WR abandoned (timeout)
    };

    static LineKey
    makeKey(std::uint32_t blade, std::uint64_t line)
    {
        return (static_cast<LineKey>(blade) << 46) | line;
    }
    static std::uint32_t keyBlade(LineKey k) { return k >> 46; }
    static std::uint64_t keyLine(LineKey k) { return k & ((1ull << 46) - 1); }

    std::uint8_t *
    frameBytes(std::uint32_t idx)
    {
        return pool_.data() + static_cast<std::size_t>(idx) * kLineBytes;
    }

    // Cookie layout: kind in bits 62..63; fill/write-back carry
    // (seq << 32) | frame+1, invalidation carries the line key.
    static constexpr std::uint64_t kCookieFill = 1ull << 62;
    static constexpr std::uint64_t kCookieWriteBack = 2ull << 62;
    static constexpr std::uint64_t kCookieInvalidate = 3ull << 62;

    std::uint64_t
    fillCookie(std::uint32_t frame) const
    {
        return kCookieFill |
               (static_cast<std::uint64_t>(frames_[frame].seq & 0x3fffffff)
                << 32) |
               (frame + 1);
    }

    std::uint64_t
    wbCookie(std::uint32_t frame) const
    {
        return kCookieWriteBack |
               (static_cast<std::uint64_t>(frames_[frame].seq & 0x3fffffff)
                << 32) |
               (frame + 1);
    }

    /**
     * Resolve the line @p key to a pinned frame: hit pins immediately,
     * a concurrent fill is awaited (posting our own staged WRs first so
     * fill chains cannot deadlock), a miss allocates a frame and stages
     * a fill into the caller's round. frame == kNoFrame -> pool
     * exhausted, caller bypasses.
     */
    sim::Task ensureLinePinned(SmartCtx &ctx, const RemotePtr &line_ptr,
                               LineKey key, std::uint32_t &frame,
                               bool &staged);

    /** Grab a frame: free list first, then the eviction hand (staging
     *  write-backs for dirty victims). kNoFrame when nothing is
     *  evictable within two sweeps. */
    std::uint32_t allocFrame(SmartCtx &ctx, bool &staged);

    /** Stage an async write-back of @p frame into @p ctx's round. */
    void stageWriteBack(SmartCtx &ctx, std::uint32_t frame);

    /** Release one batch pin; a detached frame is reclaimed once its
     *  last pin goes. */
    void unpin(std::uint32_t frame);

    /** Drop the page-table entry (frame becomes a zombie until quiet). */
    void detach(Frame &f);

    /** Free a detached frame once nothing references it any more. */
    void tryReclaim(std::uint32_t idx);

    /** Invalidate the line holding @p key, if resident (atomic CQE). */
    void invalidateKey(LineKey key);

    /** Our staged fill failed permanently: unwind the Loading frame. */
    void abortFill(std::uint32_t idx, bool straggler_possible);

    SmartRuntime &rt_;
    std::vector<std::uint8_t> pool_;
    std::vector<Frame> frames_;
    std::vector<std::uint32_t> freeList_;
    std::unordered_map<LineKey, std::uint32_t> table_;
    std::uint32_t hand_ = 0;
    std::vector<std::uint64_t> seenIncarnation_;

    sim::Counter hits_;
    sim::Counter misses_;
    sim::Counter evictions_;
    sim::Counter writebacks_;
    sim::Counter invalidations_;
    sim::Counter exhausted_;
    sim::Counter handoffs_;
};

} // namespace cache
} // namespace smart

#endif // SMART_CACHE_BUFFER_MANAGER_HPP
