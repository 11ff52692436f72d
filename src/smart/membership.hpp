/**
 * @file
 * Cluster membership plane: partitioned placement with live blade join,
 * drain, and crash failover, fenced by a shared ClusterView epoch.
 *
 * The plane owns a fixed-size partition map (partition -> blade index)
 * plus the ClusterView that SmartCtx::access consults before touching a
 * blade. Membership events are serialized through one long-lived
 * migration worker coroutine so that at most one reconfiguration runs at
 * a time — the event *requests* (join/drain/failover) are asynchronous
 * and cheap, the data movement happens in virtual time on the worker.
 *
 * Data movement contract:
 *  - every member blade allocates the partition region as its first
 *    allocation, so a partition lives at the same byte offset on every
 *    blade and migration is a straight offset-preserving copy;
 *  - drain/join copy partition bytes src->dst with chunked raw verbs,
 *    then call BufferManager::handoffRange on every runtime: resident
 *    frames (including pinned and dirty ones) are re-keyed to the
 *    destination blade, so a dirty cached line that raced the copy
 *    writes its newer bytes back to the *destination* afterwards and the
 *    copy can never resurrect stale data;
 *  - crash failover cannot copy; it drops the dead blade's cached lines,
 *    re-places its partitions on survivors, and invokes the app-supplied
 *    RecoverFn (default: zero-fill) to rebuild them.
 *
 * Each event bumps the ClusterView epoch; a blade in Dead state is
 * fenced at SmartCtx::access, so applications see VerbError::StaleView
 * (or a transparent wait-and-retry) instead of verbs into a corpse.
 */

#ifndef SMART_SMART_MEMBERSHIP_HPP
#define SMART_SMART_MEMBERSHIP_HPP

#include <coroutine>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "memblade/memory_blade.hpp"
#include "sim/fault.hpp"
#include "sim/metrics.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"
#include "smart/cluster_view.hpp"
#include "smart/smart_runtime.hpp"

namespace smart {

class MembershipPlane
{
  public:
    struct Config
    {
        /** Number of fixed-size placement partitions. */
        std::uint32_t partitions = 16;
        /** Bytes per partition (region size = partitions * partBytes). */
        std::uint64_t partBytes = 64 * 1024;
    };

    /** Chunk size for migration copies and recovery zero-fills. */
    static constexpr std::uint32_t kCopyChunkBytes = 2048;
    // A chunk is read into, then written from, one coroutine's scratch.
    static_assert(kCopyChunkBytes * 2 <= kScratchBytesPerCoro);
    /** Quiesce window before a partition's bytes are copied; also the
     *  pause between failed copy attempts (a rejoin poll waits 4x). */
    static constexpr sim::Time kSettleNs = sim::usec(100);
    /** Poll period of the crash health monitor. */
    static constexpr sim::Time kHealthCheckNs = sim::usec(200);

    /** App hook re-creating @p part on @p dst_blade after a crash. */
    using RecoverFn = std::function<sim::Task(SmartCtx &, std::uint32_t part,
                                              std::uint32_t dst_blade)>;

    static constexpr std::uint32_t kNoBlade = ~0u;

    MembershipPlane(sim::Simulator &sim, Config cfg,
                    std::string name = "cluster0");
    ~MembershipPlane();

    MembershipPlane(const MembershipPlane &) = delete;
    MembershipPlane &operator=(const MembershipPlane &) = delete;

    ClusterView &view() { return view_; }
    const Config &config() const { return cfg_; }

    /** Register a compute runtime; installs the shared ClusterView. */
    void addRuntime(SmartRuntime &rt);

    /**
     * Register an initial Active member blade. Must be called after
     * every runtime already connect()ed the blade (Testbed does this),
     * and allocates the partition region on the blade — callers must not
     * allocate from the blade before addBlade so the region base matches
     * across members. @return the blade index.
     */
    std::uint32_t addBlade(memblade::MemoryBlade &blade);

    /** Place partitions round-robin over current Active blades. */
    void seedPartitions();

    // ---- placement queries (used by app workers per attempt) ----
    std::uint32_t numPartitions() const { return cfg_.partitions; }
    std::uint32_t bladeOf(std::uint32_t part) const { return partBlade_[part]; }
    bool migrating(std::uint32_t part) const { return partMigrating_[part] != 0; }
    std::uint64_t
    partitionOffset(std::uint32_t part) const
    {
        return partBase_ + std::uint64_t(part) * cfg_.partBytes;
    }
    /** @return count of partitions currently placed on @p blade_idx. */
    std::uint32_t partsOn(std::uint32_t blade_idx) const;

    // ---- membership events (asynchronous; serialized internally) ----

    /**
     * Bring a brand-new blade into the cluster: connects it on every
     * runtime, allocates the partition region, then rebalances a fair
     * share of partitions onto it in the background.
     * @return the new blade index
     */
    std::uint32_t join(memblade::MemoryBlade &blade);

    /** Re-admit a previously drained (Dead but uncrashed) blade. */
    void rejoin(std::uint32_t blade_idx);

    /**
     * Gracefully remove a blade: stop new placement, migrate all of its
     * partitions out, then mark it Dead. If no destination exists the
     * drain aborts and the blade returns to Active.
     */
    void drain(std::uint32_t blade_idx);

    /** Start the crash health monitor (idempotent). */
    void startHealthMonitor();

    /**
     * Ask the health monitor to exit at its next wake-up. Needed before
     * Simulator::run() can drain: the monitor otherwise keeps one timer
     * event outstanding forever.
     */
    void stopHealthMonitor() { healthStop_ = true; }

    /** Install the post-crash partition rebuild hook. */
    void setRecoverFn(RecoverFn fn) { recover_ = std::move(fn); }

    /**
     * Register one FaultTarget per member blade named "drain.<blade>":
     * a Crash fault on it drains the blade and, when the fault has a
     * finite duration, rejoins it afterwards. Lets FaultPlane schedules
     * drive deterministic membership churn.
     */
    void enableChurnTargets();

    // ---- statistics ----
    std::uint64_t migratedPartitions() const { return migratedParts_.value(); }
    std::uint64_t migratedBytes() const { return migratedBytes_.value(); }
    std::uint64_t joinCount() const { return joins_.value(); }
    std::uint64_t drainCount() const { return drains_.value(); }
    std::uint64_t failoverCount() const { return failovers_.value(); }
    /** @return true while membership work is queued or running. */
    bool busy() const { return !queue_.empty() || running_; }

  private:
    struct PendingOp
    {
        enum class Kind : std::uint8_t { Join, Drain, Failover };
        Kind kind;
        std::uint32_t idx;
    };

    struct ChurnTarget : sim::FaultTarget
    {
        MembershipPlane *plane = nullptr;
        std::uint32_t idx = 0;
        std::string name;

        const std::string &faultTargetName() const override { return name; }
        void applyFault(sim::FaultKind kind, sim::Time duration) override;
        /** Never down itself: the blade a churn fault crashes is its own
         *  target and reports the outage. */
        bool faultedNow() const override { return false; }
    };

    void enqueue(PendingOp op);
    void ensureRunner();
    sim::Task runnerLoop(SmartCtx &ctx);
    sim::Task joinTask(SmartCtx &ctx, std::uint32_t idx);
    sim::Task drainTask(SmartCtx &ctx, std::uint32_t idx);
    sim::Task failoverTask(SmartCtx &ctx, std::uint32_t idx);
    sim::Task migratePartition(SmartCtx &ctx, std::uint32_t part,
                               std::uint32_t dst, bool &ok);
    sim::Task copyPartition(SmartCtx &ctx, std::uint32_t part,
                            std::uint32_t src, std::uint32_t dst, bool &ok);
    sim::Task defaultRecover(SmartCtx &ctx, std::uint32_t part,
                             std::uint32_t dst);
    sim::Task healthLoop();
    void churnFault(std::uint32_t idx, sim::Time duration);
    void scheduleRejoinPoll(std::uint32_t idx);
    /** Active blade with fewest partitions (lowest index breaks ties). */
    std::uint32_t pickDest(std::uint32_t exclude) const;
    std::uint64_t allocRegion(memblade::MemoryBlade &blade);

    sim::Simulator &sim_;
    Config cfg_;
    std::string name_;
    ClusterView view_;

    std::vector<SmartRuntime *> runtimes_;
    std::vector<memblade::MemoryBlade *> blades_;
    std::vector<std::uint32_t> partBlade_;
    std::vector<std::uint8_t> partMigrating_;
    std::uint64_t partBase_ = ~0ull;

    std::deque<PendingOp> queue_;
    std::coroutine_handle<> runnerWaiter_{};
    bool runnerStarted_ = false;
    bool running_ = false;
    bool healthStarted_ = false;
    bool healthStop_ = false;
    RecoverFn recover_;

    std::vector<std::unique_ptr<ChurnTarget>> churnTargets_;

    sim::Counter migratedParts_, migratedBytes_;
    sim::Counter joins_, drains_, failovers_, aborts_;
};

} // namespace smart

#endif // SMART_SMART_MEMBERSHIP_HPP
