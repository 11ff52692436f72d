/**
 * @file
 * Sherman-style disaggregated B+Tree (Wang et al., SIGMOD'22), refactored
 * the way the paper does (§5.2, §6.2.3):
 *
 *  - internal nodes cached on compute blades, leaves fetched over RDMA;
 *  - HOCL-style hierarchical locks: a local per-blade lock table funnels
 *    writers so only one per blade spins on the remote CAS lock;
 *  - FaRM-style per-cacheline versions instead of Sherman's two-level
 *    versions (our "RNIC" is not guaranteed to write in address order);
 *  - B-link next pointers + fence keys for lock-free readers;
 *  - the paper's *speculative lookup*: a client-side key -> entry-line
 *    cache turns 1 KB leaf reads into 64 B entry reads, making the
 *    workload IOPS-bound instead of bandwidth-bound.
 *
 * Sherman+ (baseline), Sherman+ w/ SL, and SMART-BT are all this code:
 * they differ only in BtreeConfig::speculativeLookup and the SmartConfig
 * of the runtime underneath.
 */

#ifndef SMART_APPS_SHERMAN_BTREE_HPP
#define SMART_APPS_SHERMAN_BTREE_HPP

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "apps/sherman/btree_layout.hpp"
#include "memblade/memory_blade.hpp"
#include "sim/resource.hpp"
#include "smart/smart_ctx.hpp"
#include "smart/smart_runtime.hpp"

namespace smart::sherman {

/** Entries in the speculative key -> line cache. */
inline constexpr std::uint32_t kSpecCacheCapacity = 1u << 20;
/** Node-arena bytes carved per client thread (for splits). */
inline constexpr std::uint64_t kNodeArenaPerThread = 8ull << 20;
/** Leaf fill fraction for bulk loading. */
inline constexpr double kLoadFill = 0.7;
/**
 * Lock lease: a writer spinning on a remote node lock for longer than
 * this assumes the holder died (crashed blade / lost client) and breaks
 * the lock. Only consulted when a FaultPlane is installed; must exceed
 * the longest healthy backoff (~1.75 ms at t0=4096 cycles,
 * t_M=1024*t0) so live holders are never preempted.
 */
inline constexpr sim::Time kLockLeaseNs = sim::msec(4);

/** Client-side knobs. */
struct BtreeConfig
{
    /** Enable the paper's speculative lookup fast path. */
    bool speculativeLookup = false;
};

/** Per-operation outcome. */
struct BtOpResult
{
    bool ok = false;
    std::uint64_t value = 0;
    std::uint32_t rdmaOps = 0;
    std::uint32_t retries = 0;  ///< lock CAS retries
    bool specHit = false;       ///< served by the speculative fast path
};

/**
 * Shared tree metadata + host-side bulk build and verification.
 */
class BtreeIndex
{
  public:
    BtreeIndex(std::vector<memblade::MemoryBlade *> blades,
               const BtreeConfig &cfg);

    const BtreeConfig &config() const { return cfg_; }
    std::vector<memblade::MemoryBlade *> &blades() { return blades_; }

    /** Byte offset of the root-pointer word on blade 0. */
    std::uint64_t rootPtrOffset() const { return rootPtrOffset_; }

    /**
     * Bulk-load keys 0..n-1 with values computed by value(key) = key ^
     * mask; builds packed sorted leaves and internal levels bottom-up.
     */
    void loadSequential(std::uint64_t num_keys, std::uint64_t value_mask);

    /** Host-side lookup for verification. */
    bool hostLookup(std::uint64_t key, std::uint64_t &value) const;

    /** Host-side count of reachable (non-tombstone) entries. */
    std::uint64_t hostCount() const;

    /** Tree height (levels; 1 = root is a leaf). */
    std::uint32_t height() const { return height_; }

    /** Carve a node arena for one client thread. */
    memblade::RemoteArena carveArena(std::uint32_t &blade_out);

  private:
    friend class BtreeClient;

    std::uint64_t allocNodeHost(std::uint32_t &blade_out);
    NodeImage *nodeAt(std::uint64_t ptr) const;
    std::uint64_t readRootPtr() const;

    BtreeConfig cfg_;
    std::vector<memblade::MemoryBlade *> blades_;
    std::uint64_t rootPtrOffset_ = 0;
    std::uint32_t height_ = 1;
    std::uint32_t nextBlade_ = 0;
    std::uint32_t nextArenaBlade_ = 0;
};

/**
 * Per-compute-blade client: cached internal nodes, the HOCL local lock
 * table, the speculative-lookup cache, and the RDMA operation protocols.
 */
class BtreeClient
{
  public:
    BtreeClient(BtreeIndex &index, SmartRuntime &rt);

    /** Point lookup. */
    sim::Task lookup(SmartCtx &ctx, std::uint64_t key, BtOpResult &res);

    /** Upsert. */
    sim::Task insert(SmartCtx &ctx, std::uint64_t key, std::uint64_t value,
                     BtOpResult &res);

    /** Delete (tombstone). */
    sim::Task remove(SmartCtx &ctx, std::uint64_t key, BtOpResult &res);

    /**
     * Range scan: up to @p max_count entries with key >= @p start, in
     * key order, appended to @p out.
     */
    sim::Task scan(SmartCtx &ctx, std::uint64_t start,
                   std::uint32_t max_count,
                   std::vector<Entry> &out, BtOpResult &res);

    /**
     * Drop the cached root and internal-node images. Call after a
     * membership event (subtree re-rooted on another blade) so traversals
     * re-read the root pointer instead of descending via stale addresses.
     */
    void
    invalidateRootCache()
    {
        cachedRoot_ = 0;
        nodeCache_.clear();
    }

    /** Cached-internal-node count (introspection). */
    std::size_t cacheSize() const { return nodeCache_.size(); }

    /** Speculative-lookup hits/misses. */
    std::uint64_t specHits() const { return specHits_; }
    std::uint64_t specMisses() const { return specMisses_; }

    /** Leaf splits performed by this client. */
    std::uint64_t splits() const { return splits_; }

    /** Stale lock leases broken (fault recovery; 0 in healthy runs). */
    std::uint64_t leaseBreaks() const { return leaseBreaks_; }

  private:
    struct SpecEntry
    {
        std::uint64_t leafPtr = 0;
        std::uint32_t line = 0;
        std::uint32_t slot = 0;
    };

    RemotePtr rptr(std::uint64_t packed) const;
    RemotePtr rptr(std::uint32_t blade, std::uint64_t off) const;

    /** Walk cached internals to the leaf covering @p key. */
    sim::Task traverse(SmartCtx &ctx, std::uint64_t key,
                       std::uint64_t &leaf_ptr,
                       std::vector<std::uint64_t> &path, BtOpResult &res);

    /** RDMA-read a whole node with version validation. The first attempt
     *  may hit the compute-side cache tier; validation retries bypass it
     *  so a stale or torn cached image cannot starve the loop. */
    sim::Task readNode(SmartCtx &ctx, std::uint64_t ptr, NodeImage &img,
                       BtOpResult &res,
                       CachePolicy pol = CachePolicy::Cached);

    /** Refresh the root pointer and drop all cached internals. */
    sim::Task refreshRoot(SmartCtx &ctx, BtOpResult &res);

    /** HOCL acquire/release of a node lock. */
    sim::Task hoclAcquire(SmartCtx &ctx, std::uint64_t ptr,
                          BtOpResult &res);
    sim::Task hoclRelease(SmartCtx &ctx, std::uint64_t ptr,
                          BtOpResult &res);

    /** Split a full locked leaf; updates the parent (recursively). */
    sim::Task splitNode(SmartCtx &ctx, std::uint64_t ptr, NodeImage img,
                        std::vector<std::uint64_t> path, BtOpResult &res);

    /** Insert (sep, new child) at @p target_level after a split below. */
    sim::Task insertUpwards(SmartCtx &ctx, std::uint64_t target_level,
                            std::uint64_t sep, std::uint64_t new_ptr,
                            std::vector<std::uint64_t> path,
                            std::uint64_t old_child, BtOpResult &res);

    BtreeIndex &index_;
    SmartRuntime &rt_;

    std::uint64_t cachedRoot_ = 0;
    std::unordered_map<std::uint64_t, NodeImage> nodeCache_;
    /** HOCL level 1: one capacity-1 lock per node this blade writes. */
    std::unordered_map<std::uint64_t, sim::Resource> localLocks_;
    std::unordered_map<std::uint64_t, SpecEntry> specCache_;

    struct ThreadArena
    {
        std::uint32_t blade = 0;
        memblade::RemoteArena arena;
    };
    std::vector<ThreadArena> arenas_;

    std::uint64_t specHits_ = 0;
    std::uint64_t specMisses_ = 0;
    std::uint64_t splits_ = 0;
    std::uint64_t leaseBreaks_ = 0;
};

} // namespace smart::sherman

#endif // SMART_APPS_SHERMAN_BTREE_HPP
