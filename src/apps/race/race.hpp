/**
 * @file
 * RACE-style lock-free extendible hash table on disaggregated memory
 * (Zuo et al., ATC'21 / TOS'22), the workload of paper §6.2.1.
 *
 * The RACE authors' code is closed; like the SMART paper we implement the
 * scheme from scratch: client-cached directory, two-choice combined
 * bucket groups, fingerprinted 8-byte CAS-able slots pointing at KV
 * blocks in client-managed arenas, and extendible splits.
 *
 * The same implementation serves as the RACE baseline *and* as SMART-HT:
 * the difference is only the SmartConfig of the runtime it runs on
 * (exactly how the paper refactors RACE with 44 lines changed).
 */

#ifndef SMART_APPS_RACE_RACE_HPP
#define SMART_APPS_RACE_RACE_HPP

#include <cstdint>
#include <memory>
#include <vector>

#include "apps/race/race_layout.hpp"
#include "memblade/memory_blade.hpp"
#include "smart/smart_ctx.hpp"
#include "smart/smart_runtime.hpp"

namespace smart::race {

/** Sizing of one hash table instance. */
struct RaceConfig
{
    /** log2 of the initial segment count. */
    std::uint32_t initialDepth = 4;
    /** log2 of the maximum directory size (pre-allocated). */
    std::uint32_t maxDepth = 16;
    /** Bucket groups per segment. */
    std::uint32_t groupsPerSegment = 64;
    /** KV arena bytes carved per client thread. */
    std::uint64_t arenaBytesPerThread = 4ull << 20;
    /** Segment-heap bytes reserved per blade for runtime splits. */
    std::uint64_t segmentHeapBytes = 64ull << 20;
};

/** Outcome of a client operation (retry counts feed Fig. 14). */
struct OpResult
{
    bool ok = false;
    std::uint64_t value = 0;
    std::uint32_t retries = 0; ///< unsuccessful CAS retries
    std::uint32_t rdmaOps = 0; ///< one-sided verbs issued
};

/**
 * Shared table metadata plus host-side (setup-time) creation, bulk
 * loading and verification. Bulk loading writes blade memory directly —
 * the paper also loads 100 M records before measuring.
 */
class RaceTable
{
  public:
    RaceTable(std::vector<memblade::MemoryBlade *> blades,
              const RaceConfig &cfg);

    const RaceConfig &config() const { return cfg_; }
    std::vector<memblade::MemoryBlade *> &blades() { return blades_; }

    /** Directory byte offset on blade 0. */
    std::uint64_t dirOffset() const { return dirOffset_; }
    /** Global-depth word byte offset on blade 0. */
    std::uint64_t gdOffset() const { return gdOffset_; }
    /** Directory-lock word byte offset on blade 0. */
    std::uint64_t dirLockOffset() const { return dirLockOffset_; }
    /** Segment-heap bump-pointer word for @p blade (on that blade). */
    std::uint64_t segBrkOffset(std::uint32_t blade) const
    {
        return segBrkOffsets_[blade];
    }

    /** Current global depth (host view). */
    std::uint32_t globalDepth() const;

    /** Host-side insert for bulk loading (splits handled host-side).
     *  Fastest when keys arrive in ascending order (k, k + 1, ...). */
    void loadInsert(std::uint64_t key, std::uint64_t value);

    /** Host-side lookup for verification. Non-const: it shares
     *  loadInsert's key-stream state. */
    bool hostLookup(std::uint64_t key, std::uint64_t &value);

    /** Count of host-side splits performed during loading. */
    std::uint32_t loadSplits() const { return loadSplits_; }

    /** Carve a per-thread KV arena (setup time). */
    memblade::RemoteArena carveArena(std::uint32_t &blade_out);

  private:
    friend class RaceClient;

    DirEntry readDir(std::uint64_t idx) const;
    void writeDir(std::uint64_t idx, DirEntry e);
    std::uint8_t *segBytes(const DirEntry &e, std::uint64_t off) const;
    std::uint64_t allocSegmentHost(std::uint32_t &blade_out);
    void initSegment(std::uint32_t blade, std::uint64_t seg_off,
                     std::uint32_t local_depth, std::uint64_t suffix);
    void hostSplit(std::uint64_t dir_idx);
    bool hostTryPlace(std::uint64_t key, std::uint64_t value);

    /** One read of a key's two candidate groups (host view). */
    struct HostScan
    {
        std::uint8_t *kv = nullptr; ///< KV block holding the key, if any
        std::uint8_t *group[2] = {nullptr, nullptr};
        std::uint32_t freeCount[2] = {0, 0};
        std::uint32_t firstFree[2] = {0, 0}; ///< valid if freeCount > 0
    };
    HostScan hostScan(std::uint64_t key) const;
    /** Bases of @p key's two candidate groups in host memory. */
    void hostGroups(std::uint64_t key, std::uint8_t *group[2]) const;
    /** On a key stream (key == previous key + 1), prefetch the groups
     *  of a key further down the stream. */
    void prefetchStream(std::uint64_t key);

    RaceConfig cfg_;
    std::vector<memblade::MemoryBlade *> blades_;
    std::uint64_t dirOffset_ = 0;
    std::uint64_t gdOffset_ = 0;
    std::uint64_t dirLockOffset_ = 0;
    std::vector<std::uint64_t> segBrkOffsets_;
    std::vector<std::uint64_t> segHeapEnds_;
    std::uint64_t loadArenaBlade_ = 0;
    std::uint32_t loadSplits_ = 0;
    std::uint32_t nextArenaBlade_ = 0;
    std::uint32_t nextSegBlade_ = 0;
    /** Last key passed to loadInsert/hostLookup (stream detection). */
    std::uint64_t lastHostKey_ = 0;
};

/**
 * Per-compute-blade client: cached directory + per-thread KV arenas +
 * the one-sided operation protocols (3-READ lookups, CAS-slot updates
 * with retries, extendible splits over RDMA).
 */
class RaceClient
{
  public:
    RaceClient(RaceTable &table, SmartRuntime &rt);

    /** Lookup @p key; 2 group READs + 1 KV READ on the common path. */
    sim::Task lookup(SmartCtx &ctx, std::uint64_t key, OpResult &res);

    /**
     * Insert a new key (or overwrite if present): 1 KV WRITE + 2 group
     * READs in one doorbell batch, then a slot CAS; CAS failures re-read
     * the group and retry (3 extra verbs per retry, §3.3).
     */
    sim::Task insert(SmartCtx &ctx, std::uint64_t key, std::uint64_t value,
                     OpResult &res);

    /** Update an existing key's value via CAS on its slot. */
    sim::Task update(SmartCtx &ctx, std::uint64_t key, std::uint64_t value,
                     OpResult &res);

    /** Remove @p key (CAS its slot to empty). */
    sim::Task remove(SmartCtx &ctx, std::uint64_t key, OpResult &res);

    /** Number of client-side (RDMA) splits this client performed. */
    std::uint64_t clientSplits() const { return clientSplits_; }

  private:
    struct GroupRef
    {
        DirEntry seg;
        std::uint32_t groupIdx = 0;
        std::uint64_t bladeOffset = 0; ///< group base within the blade MR
    };

    /** A parsed 128 B combined group. */
    struct GroupImage
    {
        BucketHeader header[kBucketsPerGroup];
        Slot slots[kSlotsPerGroup];
    };

    RemotePtr bladePtr(std::uint32_t blade, std::uint64_t off) const;
    GroupRef locate(std::uint64_t h, std::uint64_t dir_idx) const;
    static GroupImage parseGroup(const std::uint8_t *bytes);

    /** Refresh the cached directory + global depth (1-2 READs). */
    sim::Task refreshDirectory(SmartCtx &ctx, OpResult &res);

    /** READ both candidate groups (and optionally WRITE a KV) in one go.
     *  @p pol lets retry attempts bypass the cache tier: a retry caused
     *  by a stale cached group must observe fresh bytes to converge. */
    sim::Task readGroups(SmartCtx &ctx, const GroupRef &g1,
                         const GroupRef &g2, GroupImage &i1, GroupImage &i2,
                         OpResult &res, CachePolicy pol = CachePolicy::Cached);

    /** Client-side extendible split of the segment covering @p dir_idx. */
    sim::Task splitSegment(SmartCtx &ctx, std::uint64_t dir_idx,
                           OpResult &res, bool &did_split);

    /** Find @p key among fp-matching slots; fills slot index/value. */
    sim::Task findKey(SmartCtx &ctx, std::uint64_t key,
                      const GroupRef &gref, const GroupImage &img,
                      int &slot_idx, std::uint64_t &cur_value,
                      Slot &cur_slot, OpResult &res);

    RaceTable &table_;
    SmartRuntime &rt_;

    struct DirCache
    {
        std::uint32_t globalDepth = 0;
        std::vector<DirEntry> entries;
    };
    DirCache dir_;

    struct ThreadArena
    {
        std::uint32_t blade = 0;
        memblade::RemoteArena arena;
    };
    std::vector<ThreadArena> arenas_; // per thread

    std::uint64_t clientSplits_ = 0;
};

} // namespace smart::race

#endif // SMART_APPS_RACE_RACE_HPP
