/**
 * @file
 * RACE-style hash table implementation: host-side creation/loading and
 * the one-sided RDMA client protocols.
 */

#include "apps/race/race.hpp"

#include <cassert>
#include <cstring>

namespace smart::race {

using sim::Task;

namespace {

constexpr std::uint64_t
mask(std::uint32_t bits)
{
    return (1ull << bits) - 1;
}

/** Bucket group index of hash @p h (independent of directory bits). */
std::uint32_t
groupIndex(std::uint64_t h, std::uint32_t groups)
{
    return static_cast<std::uint32_t>((h >> 20) % groups);
}

/** Byte offset of slot @p s inside a group. */
std::uint64_t
slotOffset(std::uint32_t s)
{
    std::uint32_t bucket = s / kSlotsPerBucket;
    std::uint32_t pos = s % kSlotsPerBucket;
    return static_cast<std::uint64_t>(bucket) * kBucketBytes + 8 + pos * 8;
}

} // namespace

// ============================================================ RaceTable

RaceTable::RaceTable(std::vector<memblade::MemoryBlade *> blades,
                     const RaceConfig &cfg)
    : cfg_(cfg), blades_(std::move(blades))
{
    assert(!blades_.empty());
    memblade::MemoryBlade &b0 = *blades_[0];
    gdOffset_ = b0.alloc(8);
    dirLockOffset_ = b0.alloc(8);
    dirOffset_ = b0.alloc(8ull << cfg_.maxDepth);
    std::memset(b0.bytesAt(gdOffset_), 0, 8);
    std::memset(b0.bytesAt(dirLockOffset_), 0, 8);
    std::memset(b0.bytesAt(dirOffset_), 0, 8ull << cfg_.maxDepth);

    for (std::uint32_t b = 0; b < blades_.size(); ++b) {
        std::uint64_t brk_word = blades_[b]->alloc(8);
        std::uint64_t heap = blades_[b]->alloc(cfg_.segmentHeapBytes);
        std::memcpy(blades_[b]->bytesAt(brk_word), &heap, 8);
        segBrkOffsets_.push_back(brk_word);
        segHeapEnds_.push_back(heap + cfg_.segmentHeapBytes);
    }

    // Initial segments: one per directory entry at the initial depth.
    std::uint32_t gd = cfg_.initialDepth;
    std::memcpy(b0.bytesAt(gdOffset_), &gd, 4);
    for (std::uint64_t s = 0; s < (1ull << gd); ++s) {
        std::uint32_t blade = 0;
        std::uint64_t off = allocSegmentHost(blade);
        initSegment(blade, off, gd, s);
        writeDir(s, DirEntry::make(gd, blade, off));
    }
}

std::uint32_t
RaceTable::globalDepth() const
{
    std::uint32_t gd = 0;
    std::memcpy(&gd, blades_[0]->bytesAt(gdOffset_), 4);
    return gd;
}

DirEntry
RaceTable::readDir(std::uint64_t idx) const
{
    DirEntry e;
    std::memcpy(&e.raw, blades_[0]->bytesAt(dirOffset_ + idx * 8), 8);
    return e;
}

void
RaceTable::writeDir(std::uint64_t idx, DirEntry e)
{
    std::memcpy(blades_[0]->bytesAt(dirOffset_ + idx * 8), &e.raw, 8);
}

std::uint8_t *
RaceTable::segBytes(const DirEntry &e, std::uint64_t off) const
{
    return blades_[e.blade()]->bytesAt(e.offset() + off);
}

std::uint64_t
RaceTable::allocSegmentHost(std::uint32_t &blade_out)
{
    // Round-robin blades; bump that blade's segment-heap pointer.
    static_assert(sizeof(std::uint64_t) == 8);
    std::uint32_t b = nextSegBlade_;
    nextSegBlade_ = (nextSegBlade_ + 1) % blades_.size();
    std::uint64_t brk = 0;
    std::memcpy(&brk, blades_[b]->bytesAt(segBrkOffsets_[b]), 8);
    std::uint64_t bytes = segmentBytes(cfg_.groupsPerSegment);
    assert(brk + bytes <= segHeapEnds_[b] && "segment heap exhausted");
    std::uint64_t next = brk + bytes;
    std::memcpy(blades_[b]->bytesAt(segBrkOffsets_[b]), &next, 8);
    blade_out = b;
    return brk;
}

void
RaceTable::initSegment(std::uint32_t blade, std::uint64_t seg_off,
                       std::uint32_t local_depth, std::uint64_t suffix)
{
    std::uint8_t *base = blades_[blade]->bytesAt(seg_off);
    std::memset(base, 0, segmentBytes(cfg_.groupsPerSegment));
    BucketHeader h = BucketHeader::make(local_depth, false, suffix);
    for (std::uint32_t g = 0; g < cfg_.groupsPerSegment; ++g) {
        for (std::uint32_t b = 0; b < kBucketsPerGroup; ++b) {
            std::memcpy(base + groupOffset(g) + b * kBucketBytes, &h.raw,
                        8);
        }
    }
}

void
RaceTable::hostGroups(std::uint64_t key, std::uint8_t *group[2]) const
{
    std::uint64_t h1 = hash1(key);
    DirEntry e = readDir(h1 & mask(globalDepth()));
    std::uint32_t groups = cfg_.groupsPerSegment;
    group[0] = segBytes(e, groupOffset(groupIndex(h1, groups)));
    group[1] = segBytes(e, groupOffset(groupIndex(hash2(key), groups)));
}

RaceTable::HostScan
RaceTable::hostScan(std::uint64_t key) const
{
    HostScan sc;
    hostGroups(key, sc.group);
    std::uint8_t fp = fingerprint(key);
    // Group 0 before group 1, slots in order: with the tie rule in
    // hostTryPlace this order fixes where every key lands, and the
    // simulated results depend on that layout.
    for (int gi = 0; gi < 2; ++gi) {
        for (std::uint32_t s = 0; s < kSlotsPerGroup; ++s) {
            Slot slot;
            std::memcpy(&slot.raw, sc.group[gi] + slotOffset(s), 8);
            if (slot.empty()) {
                if (sc.freeCount[gi]++ == 0)
                    sc.firstFree[gi] = s;
                continue;
            }
            if (slot.fp() != fp)
                continue;
            std::uint8_t *kv = blades_[slot.blade()]->bytesAt(slot.offset());
            std::uint64_t k = 0;
            std::memcpy(&k, kv, 8);
            if (k == key) {
                sc.kv = kv;
                return sc;
            }
        }
    }
    return sc;
}

void
RaceTable::prefetchStream(std::uint64_t key)
{
    // Bulk loads and verification sweeps walk keys in order, and each
    // key's groups sit at random offsets: fetch them a few keys ahead so
    // the scan finds them in cache instead of stalling on each one.
    constexpr std::uint64_t kDistance = 16;
    bool stream = key == lastHostKey_ + 1;
    lastHostKey_ = key;
    if (!stream)
        return;
    std::uint8_t *group[2];
    hostGroups(key + kDistance, group);
    for (std::uint8_t *g : group) {
        // The blade's host buffer is only guaranteed 16 B alignment, so
        // a 128 B group may span three cache lines.
        __builtin_prefetch(g);
        __builtin_prefetch(g + 64);
        __builtin_prefetch(g + kGroupBytes - 1);
    }
}

bool
RaceTable::hostTryPlace(std::uint64_t key, std::uint64_t value)
{
    HostScan sc = hostScan(key);
    if (sc.kv != nullptr) {
        std::memcpy(sc.kv + 8, &value, 8); // overwrite in place
        return true;
    }

    // Choose the emptier group (group 0 on a tie); place in its first
    // empty slot.
    int gi = sc.freeCount[0] >= sc.freeCount[1] ? 0 : 1;
    if (sc.freeCount[gi] == 0)
        return false; // both groups full -> split

    std::uint32_t lb = loadArenaBlade_;
    loadArenaBlade_ = (loadArenaBlade_ + 1) % blades_.size();
    std::uint64_t kv_off = blades_[lb]->alloc(kKvBytes);
    std::memcpy(blades_[lb]->bytesAt(kv_off), &key, 8);
    std::memcpy(blades_[lb]->bytesAt(kv_off) + 8, &value, 8);
    Slot nv = Slot::make(fingerprint(key), kKvBytes / 8, lb, kv_off);
    std::memcpy(sc.group[gi] + slotOffset(sc.firstFree[gi]), &nv.raw, 8);
    return true;
}

void
RaceTable::loadInsert(std::uint64_t key, std::uint64_t value)
{
    prefetchStream(key);
    while (!hostTryPlace(key, value)) {
        std::uint64_t dir_idx = hash1(key) & mask(globalDepth());
        hostSplit(dir_idx);
    }
}

void
RaceTable::hostSplit(std::uint64_t dir_idx)
{
    ++loadSplits_;
    std::uint32_t gd = globalDepth();
    DirEntry e = readDir(dir_idx & mask(gd));
    std::uint32_t ld = e.localDepth();
    std::uint64_t suffix = dir_idx & mask(ld);

    if (ld == gd) {
        // Double the directory.
        assert(gd + 1 <= cfg_.maxDepth && "directory capacity exceeded");
        for (std::uint64_t j = 0; j < (1ull << gd); ++j)
            writeDir(j + (1ull << gd), readDir(j));
        ++gd;
        std::memcpy(blades_[0]->bytesAt(gdOffset_), &gd, 4);
    }

    std::uint32_t nb = 0;
    std::uint64_t new_off = allocSegmentHost(nb);
    std::uint64_t new_suffix = suffix | (1ull << ld);
    initSegment(nb, new_off, ld + 1, new_suffix);
    DirEntry ne = DirEntry::make(ld + 1, nb, new_off);

    // Migrate entries whose bit `ld` of hash1(key) is set.
    for (std::uint32_t g = 0; g < cfg_.groupsPerSegment; ++g) {
        for (std::uint32_t s = 0; s < kSlotsPerGroup; ++s) {
            std::uint8_t *sp = segBytes(e, groupOffset(g) + slotOffset(s));
            Slot slot;
            std::memcpy(&slot.raw, sp, 8);
            if (slot.empty())
                continue;
            std::uint64_t k = 0;
            std::memcpy(&k, blades_[slot.blade()]->bytesAt(slot.offset()),
                        8);
            if (((hash1(k) >> ld) & 1) == 0)
                continue;
            // Move to the same group index in the new segment.
            for (std::uint32_t t = 0; t < kSlotsPerGroup; ++t) {
                std::uint8_t *np = blades_[nb]->bytesAt(
                    new_off + groupOffset(g) + slotOffset(t));
                Slot dst;
                std::memcpy(&dst.raw, np, 8);
                if (dst.empty()) {
                    std::memcpy(np, &slot.raw, 8);
                    break;
                }
            }
            std::uint64_t zero = 0;
            std::memcpy(sp, &zero, 8);
        }
    }

    // Bump the old segment's bucket headers to ld+1 (suffix unchanged).
    BucketHeader oh = BucketHeader::make(ld + 1, false, suffix);
    for (std::uint32_t g = 0; g < cfg_.groupsPerSegment; ++g)
        for (std::uint32_t b = 0; b < kBucketsPerGroup; ++b)
            std::memcpy(segBytes(e, groupOffset(g) + b * kBucketBytes),
                        &oh.raw, 8);

    // Repoint directory entries.
    DirEntry oe = DirEntry::make(ld + 1, e.blade(), e.offset());
    for (std::uint64_t j = 0; j < (1ull << gd); ++j) {
        if ((j & mask(ld)) != suffix)
            continue;
        writeDir(j, ((j >> ld) & 1) ? ne : oe);
    }
}

bool
RaceTable::hostLookup(std::uint64_t key, std::uint64_t &value)
{
    prefetchStream(key);
    HostScan sc = hostScan(key);
    if (sc.kv == nullptr)
        return false;
    std::memcpy(&value, sc.kv + 8, 8);
    return true;
}

memblade::RemoteArena
RaceTable::carveArena(std::uint32_t &blade_out)
{
    std::uint32_t b = nextArenaBlade_;
    nextArenaBlade_ = (nextArenaBlade_ + 1) % blades_.size();
    std::uint64_t base = blades_[b]->alloc(cfg_.arenaBytesPerThread);
    blade_out = b;
    return memblade::RemoteArena(base, cfg_.arenaBytesPerThread);
}

// =========================================================== RaceClient

RaceClient::RaceClient(RaceTable &table, SmartRuntime &rt)
    : table_(table), rt_(rt)
{
    assert(rt_.numBlades() == table_.blades().size() &&
           "runtime must connect to the table's blades, in order");
    for (std::uint32_t t = 0; t < rt_.numThreads(); ++t) {
        ThreadArena ta;
        ta.arena = table_.carveArena(ta.blade);
        arenas_.push_back(ta);
    }
    // Connect-time directory bootstrap (host-side copy of the initial
    // directory; afterwards the cache refreshes over RDMA).
    dir_.globalDepth = table_.globalDepth();
    dir_.entries.resize(1ull << dir_.globalDepth);
    for (std::uint64_t i = 0; i < dir_.entries.size(); ++i)
        dir_.entries[i] = table_.readDir(i);
}

RemotePtr
RaceClient::bladePtr(std::uint32_t blade, std::uint64_t off) const
{
    return const_cast<SmartRuntime &>(rt_).ptr(blade, off);
}

RaceClient::GroupRef
RaceClient::locate(std::uint64_t h, std::uint64_t dir_idx) const
{
    GroupRef ref;
    ref.seg = dir_.entries[dir_idx];
    ref.groupIdx = groupIndex(h, table_.config().groupsPerSegment);
    ref.bladeOffset = ref.seg.offset() + groupOffset(ref.groupIdx);
    return ref;
}

RaceClient::GroupImage
RaceClient::parseGroup(const std::uint8_t *bytes)
{
    GroupImage img;
    for (std::uint32_t b = 0; b < kBucketsPerGroup; ++b) {
        std::memcpy(&img.header[b].raw, bytes + b * kBucketBytes, 8);
        for (std::uint32_t s = 0; s < kSlotsPerBucket; ++s) {
            std::memcpy(&img.slots[b * kSlotsPerBucket + s].raw,
                        bytes + b * kBucketBytes + 8 + s * 8, 8);
        }
    }
    return img;
}

Task
RaceClient::refreshDirectory(SmartCtx &ctx, OpResult &res)
{
    // Directory metadata must be fresh: always bypass the cache tier.
    std::uint64_t gd_word = 0;
    co_await ctx.access(bladePtr(0, table_.gdOffset()),
                        AccessOp::read(MemSpan::of(gd_word)),
                        CachePolicy::Bypass);
    ++res.rdmaOps;
    if (ctx.failed()) {
        // Directory blade unreachable: keep the stale cache; the
        // caller's attempt loop retries after the error clears.
        ctx.clearError();
        co_return;
    }
    std::uint32_t gd = static_cast<std::uint32_t>(gd_word & 0xffffffff);
    // One big READ of the live prefix of the directory.
    std::vector<std::uint64_t> raw(1ull << gd);
    co_await ctx.access(bladePtr(0, table_.dirOffset()),
                        AccessOp::read(MemSpan::ofArray(raw.data(),
                                                        raw.size())),
                        CachePolicy::Bypass);
    ++res.rdmaOps;
    if (ctx.failed()) {
        ctx.clearError();
        co_return;
    }
    dir_.globalDepth = gd;
    dir_.entries.resize(1ull << gd);
    for (std::uint64_t i = 0; i < raw.size(); ++i)
        dir_.entries[i].raw = raw[i];
}

Task
RaceClient::readGroups(SmartCtx &ctx, const GroupRef &g1, const GroupRef &g2,
                       GroupImage &i1, GroupImage &i2, OpResult &res,
                       CachePolicy pol)
{
    std::uint8_t *buf = ctx.scratch(2 * kGroupBytes);
    ReadPart parts[2] = {
        {bladePtr(g1.seg.blade(), g1.bladeOffset), {buf, kGroupBytes}},
        {bladePtr(g2.seg.blade(), g2.bladeOffset),
         {buf + kGroupBytes, kGroupBytes}},
    };
    res.rdmaOps += 2;
    co_await ctx.accessMany(parts, 2, pol);
    i1 = parseGroup(buf);
    i2 = parseGroup(buf + kGroupBytes);
}

Task
RaceClient::findKey(SmartCtx &ctx, std::uint64_t key, const GroupRef &gref,
                    const GroupImage &img, int &slot_idx,
                    std::uint64_t &cur_value, Slot &cur_slot, OpResult &res)
{
    slot_idx = -1;
    std::uint8_t fp = fingerprint(key);
    for (std::uint32_t s = 0; s < kSlotsPerGroup; ++s) {
        const Slot &slot = img.slots[s];
        if (slot.empty() || slot.fp() != fp)
            continue;
        // Fetch the KV block to confirm (fingerprints can collide). KV
        // blocks are written out of place (a fresh block per insert), so
        // cached copies can never go stale.
        std::uint8_t kv[kKvBytes] = {};
        co_await ctx.access(bladePtr(slot.blade(), slot.offset()),
                            AccessOp::read(MemSpan{kv, kKvBytes}));
        ++res.rdmaOps;
        if (ctx.failed()) {
            // KV blade unreachable: skip this candidate (the bytes never
            // landed); the caller's loop re-reads the group and retries.
            ctx.clearError();
            continue;
        }
        std::uint64_t k = 0;
        std::memcpy(&k, kv, 8);
        if (k == key) {
            slot_idx = static_cast<int>(s);
            std::memcpy(&cur_value, kv + 8, 8);
            cur_slot = slot;
            co_return;
        }
    }
    (void)gref;
}

Task
RaceClient::lookup(SmartCtx &ctx, std::uint64_t key, OpResult &res)
{
    co_await ctx.opBegin();
    std::uint64_t h1 = hash1(key);
    std::uint64_t h2 = hash2(key);

    for (int attempt = 0; attempt < 64; ++attempt) {
        std::uint64_t dir_idx = h1 & mask(dir_.globalDepth);
        if (!dir_.entries[dir_idx].valid()) {
            co_await refreshDirectory(ctx, res);
            continue;
        }
        GroupRef g1 = locate(h1, dir_idx);
        GroupRef g2 = locate(h2, dir_idx);
        GroupImage i1, i2;
        co_await readGroups(ctx, g1, g2, i1, i2, res,
                            attempt == 0 ? CachePolicy::Cached
                                         : CachePolicy::Bypass);
        if (ctx.failed()) {
            // Segment read failed after retries (e.g. blade restarted):
            // the cached directory may be stale; re-read it and retry.
            ctx.clearError();
            co_await refreshDirectory(ctx, res);
            continue;
        }

        BucketHeader hdr = i1.header[0];
        if (hdr.splitting()) {
            // Split in progress: wait about a round-trip and retry.
            co_await ctx.sim().delay(sim::cyclesToNs(4096));
            continue;
        }
        if ((dir_idx & mask(hdr.localDepth())) != hdr.suffix()) {
            co_await refreshDirectory(ctx, res);
            continue;
        }

        int slot_idx = -1;
        Slot cur;
        co_await findKey(ctx, key, g1, i1, slot_idx, res.value, cur, res);
        if (slot_idx < 0)
            co_await findKey(ctx, key, g2, i2, slot_idx, res.value, cur,
                             res);
        res.ok = slot_idx >= 0;
        ctx.opEnd();
        co_return;
    }
    res.ok = false;
    ctx.opEnd();
}

Task
RaceClient::insert(SmartCtx &ctx, std::uint64_t key, std::uint64_t value,
                   OpResult &res)
{
    co_await ctx.opBegin();
    std::uint64_t h1 = hash1(key);
    std::uint64_t h2 = hash2(key);
    std::uint8_t fp = fingerprint(key);
    ThreadArena &ta = arenas_[ctx.thread().id()];

    // Write the KV block once; retries reuse it.
    std::uint64_t kv_off = ta.arena.alloc(kKvBytes);
    std::uint8_t kv[kKvBytes];
    std::memcpy(kv, &key, 8);
    std::memcpy(kv + 8, &value, 8);
    Slot nv = Slot::make(fp, kKvBytes / 8, ta.blade, kv_off);
    bool kv_written = false;

    for (int attempt = 0; attempt < 64; ++attempt) {
        std::uint64_t dir_idx = h1 & mask(dir_.globalDepth);
        GroupRef g1 = locate(h1, dir_idx);
        GroupRef g2 = locate(h2, dir_idx);

        // RACE pipelines the KV write with the two bucket READs in one
        // doorbell batch.
        if (!kv_written) {
            ctx.write(bladePtr(ta.blade, kv_off), ConstMemSpan{kv, kKvBytes});
            ++res.rdmaOps;
            kv_written = true;
        }
        GroupImage i1, i2;
        co_await readGroups(ctx, g1, g2, i1, i2, res,
                            attempt == 0 ? CachePolicy::Cached
                                         : CachePolicy::Bypass);
        if (ctx.failed()) {
            ctx.clearError();
            kv_written = false; // the batched KV write may have failed too
            co_await refreshDirectory(ctx, res);
            continue;
        }

        BucketHeader hdr = i1.header[0];
        if (hdr.splitting()) {
            co_await ctx.sim().delay(sim::cyclesToNs(4096));
            continue;
        }
        if ((dir_idx & mask(hdr.localDepth())) != hdr.suffix()) {
            co_await refreshDirectory(ctx, res);
            continue;
        }

        // Overwrite semantics: if the key exists, CAS its slot.
        int slot_idx = -1;
        std::uint64_t old_value = 0;
        Slot cur;
        const GroupRef *owner = &g1;
        const GroupImage *img = &i1;
        co_await findKey(ctx, key, g1, i1, slot_idx, old_value, cur, res);
        if (slot_idx < 0) {
            co_await findKey(ctx, key, g2, i2, slot_idx, old_value, cur,
                             res);
            owner = &g2;
            img = &i2;
        }

        std::uint64_t expect = 0;
        if (slot_idx < 0) {
            // Fresh insert: emptier group, first empty slot.
            int free1 = 0, free2 = 0;
            for (std::uint32_t s = 0; s < kSlotsPerGroup; ++s) {
                free1 += i1.slots[s].empty();
                free2 += i2.slots[s].empty();
            }
            if (free1 == 0 && free2 == 0) {
                bool did_split = false;
                co_await splitSegment(ctx, dir_idx, res, did_split);
                continue;
            }
            owner = free1 >= free2 ? &g1 : &g2;
            img = free1 >= free2 ? &i1 : &i2;
            for (std::uint32_t s = 0; s < kSlotsPerGroup; ++s) {
                if (img->slots[s].empty()) {
                    slot_idx = static_cast<int>(s);
                    break;
                }
            }
            expect = 0;
        } else {
            expect = cur.raw;
        }

        // CAS the slot; on failure re-read the group, re-write the KV and
        // retry (the 3 wasted verbs per retry of §3.3).
        RemotePtr slot_ptr = bladePtr(
            owner->seg.blade(),
            owner->bladeOffset + slotOffset(static_cast<std::uint32_t>(
                                     slot_idx)));
        std::uint64_t old_raw = 0;
        bool cas_ok = false;
        co_await ctx.backoffCasSync(slot_ptr, expect, nv.raw, old_raw,
                                    cas_ok);
        ++res.rdmaOps;
        if (cas_ok) {
            res.ok = true;
            ctx.opEnd();
            co_return;
        }
        ++res.retries;
        // Paper: a retry re-reads the bucket, re-writes the KV entry and
        // tries the CAS again; re-enter the loop to do exactly that.
        kv_written = false;
    }
    res.ok = false;
    ctx.opEnd();
}

Task
RaceClient::update(SmartCtx &ctx, std::uint64_t key, std::uint64_t value,
                   OpResult &res)
{
    // RACE updates are insert-with-overwrite: new KV block, CAS the slot
    // from the old block pointer to the new one.
    co_await insert(ctx, key, value, res);
}

Task
RaceClient::remove(SmartCtx &ctx, std::uint64_t key, OpResult &res)
{
    co_await ctx.opBegin();
    std::uint64_t h1 = hash1(key);
    std::uint64_t h2 = hash2(key);

    for (int attempt = 0; attempt < 64; ++attempt) {
        std::uint64_t dir_idx = h1 & mask(dir_.globalDepth);
        GroupRef g1 = locate(h1, dir_idx);
        GroupRef g2 = locate(h2, dir_idx);
        GroupImage i1, i2;
        co_await readGroups(ctx, g1, g2, i1, i2, res,
                            attempt == 0 ? CachePolicy::Cached
                                         : CachePolicy::Bypass);
        if (ctx.failed()) {
            ctx.clearError();
            co_await refreshDirectory(ctx, res);
            continue;
        }

        BucketHeader hdr = i1.header[0];
        if (hdr.splitting()) {
            co_await ctx.sim().delay(sim::cyclesToNs(4096));
            continue;
        }
        if ((dir_idx & mask(hdr.localDepth())) != hdr.suffix()) {
            co_await refreshDirectory(ctx, res);
            continue;
        }

        int slot_idx = -1;
        std::uint64_t old_value = 0;
        Slot cur;
        const GroupRef *owner = &g1;
        co_await findKey(ctx, key, g1, i1, slot_idx, old_value, cur, res);
        if (slot_idx < 0) {
            co_await findKey(ctx, key, g2, i2, slot_idx, old_value, cur,
                             res);
            owner = &g2;
        }
        if (slot_idx < 0) {
            res.ok = false;
            ctx.opEnd();
            co_return;
        }

        RemotePtr slot_ptr = bladePtr(
            owner->seg.blade(),
            owner->bladeOffset + slotOffset(static_cast<std::uint32_t>(
                                     slot_idx)));
        std::uint64_t old_raw = 0;
        bool cas_ok = false;
        co_await ctx.backoffCasSync(slot_ptr, cur.raw, 0, old_raw, cas_ok);
        ++res.rdmaOps;
        if (cas_ok) {
            res.ok = true;
            ctx.opEnd();
            co_return;
        }
        ++res.retries;
    }
    res.ok = false;
    ctx.opEnd();
}

Task
RaceClient::splitSegment(SmartCtx &ctx, std::uint64_t dir_idx, OpResult &res,
                         bool &did_split)
{
    did_split = false;
    const RaceConfig &cfg = table_.config();

    // Authoritative directory entry.
    co_await refreshDirectory(ctx, res);
    dir_idx &= mask(dir_.globalDepth);
    DirEntry e = dir_.entries[dir_idx];
    std::uint32_t ld = e.localDepth();
    std::uint64_t suffix = dir_idx & mask(ld);

    // 1. Segment split lock.
    RemotePtr lock_ptr =
        bladePtr(e.blade(), e.offset() + kSegmentLockOffset);
    std::uint64_t old_raw = 0;
    bool got = false;
    co_await ctx.backoffCasSync(lock_ptr, 0, 1, old_raw, got);
    ++res.rdmaOps;
    if (!got)
        co_return; // someone else is splitting; caller re-loops

    // 2. Directory doubling if this segment is at global depth.
    std::uint64_t gd_word = 0;
    co_await ctx.access(bladePtr(0, table_.gdOffset()),
                        AccessOp::read(MemSpan::of(gd_word)),
                        CachePolicy::Bypass);
    ++res.rdmaOps;
    std::uint32_t gd = static_cast<std::uint32_t>(gd_word);
    if (ld == gd) {
        bool dir_locked = false;
        while (!dir_locked) {
            std::uint64_t o = 0;
            co_await ctx.backoffCasSync(bladePtr(0, table_.dirLockOffset()),
                                        0, 1, o, dir_locked);
            ++res.rdmaOps;
        }
        co_await ctx.access(bladePtr(0, table_.gdOffset()),
                            AccessOp::read(MemSpan::of(gd_word)),
                            CachePolicy::Bypass);
        gd = static_cast<std::uint32_t>(gd_word);
        if (ld == gd) {
            assert(gd + 1 <= cfg.maxDepth && "directory capacity");
            std::vector<std::uint64_t> raw(1ull << gd);
            co_await ctx.access(bladePtr(0, table_.dirOffset()),
                                AccessOp::read(MemSpan::ofArray(raw.data(),
                                                                raw.size())),
                                CachePolicy::Bypass);
            // Mirror the lower half into the upper half, chunked to fit
            // coroutine scratch.
            std::uint64_t upper = table_.dirOffset() + (8ull << gd);
            std::uint32_t chunk = 512; // entries per WRITE (4 KB)
            for (std::uint64_t i = 0; i < raw.size(); i += chunk) {
                std::uint32_t n = static_cast<std::uint32_t>(
                    std::min<std::uint64_t>(chunk, raw.size() - i));
                co_await ctx.access(
                    bladePtr(0, upper + i * 8),
                    AccessOp::write(ConstMemSpan::ofArray(raw.data() + i, n)),
                    CachePolicy::Bypass);
                ++res.rdmaOps;
            }
            std::uint64_t new_gd = gd + 1;
            co_await ctx.access(bladePtr(0, table_.gdOffset()),
                                AccessOp::write(ConstMemSpan::of(new_gd)),
                                CachePolicy::Bypass);
            ++res.rdmaOps;
            gd = static_cast<std::uint32_t>(new_gd);
        }
        std::uint64_t zero = 0;
        co_await ctx.access(bladePtr(0, table_.dirLockOffset()),
                            AccessOp::write(ConstMemSpan::of(zero)),
                            CachePolicy::Bypass);
        ++res.rdmaOps;
    }

    // 3. Allocate + initialize the new segment (FAA on the blade's brk).
    std::uint32_t nb = (e.blade() + 1) % table_.blades().size();
    std::uint64_t seg_bytes = segmentBytes(cfg.groupsPerSegment);
    std::uint64_t new_off = 0;
    {
        std::uint64_t faa_res = 0;
        ctx.faa(bladePtr(nb, table_.segBrkOffset(nb)), seg_bytes, &faa_res);
        ++res.rdmaOps;
        co_await ctx.postSend();
        co_await ctx.sync();
        new_off = faa_res;
    }
    std::uint64_t new_suffix = suffix | (1ull << ld);
    {
        // Zeroed group images with fresh headers, written group by group.
        std::vector<std::uint8_t> gbuf(kGroupBytes, 0);
        BucketHeader nh = BucketHeader::make(ld + 1, false, new_suffix);
        std::memcpy(gbuf.data(), &nh.raw, 8);
        std::memcpy(gbuf.data() + kBucketBytes, &nh.raw, 8);
        std::vector<std::uint8_t> hdr_zero(kSegmentHeaderBytes, 0);
        co_await ctx.access(
            bladePtr(nb, new_off),
            AccessOp::write(ConstMemSpan{hdr_zero.data(),
                                         kSegmentHeaderBytes}),
            CachePolicy::Bypass);
        ++res.rdmaOps;
        for (std::uint32_t g = 0; g < cfg.groupsPerSegment; ++g) {
            ctx.write(bladePtr(nb, new_off + groupOffset(g)),
                      ConstMemSpan{gbuf.data(), kGroupBytes});
            ++res.rdmaOps;
            if ((g & 15) == 15 || g + 1 == cfg.groupsPerSegment) {
                co_await ctx.postSend();
                co_await ctx.sync();
            }
        }
    }

    // 4. Mark the old segment as splitting (headers first, then migrate:
    // concurrent clients back off when they see the flag).
    BucketHeader splitting_hdr = BucketHeader::make(ld + 1, true, suffix);
    for (std::uint32_t g = 0; g < cfg.groupsPerSegment; ++g) {
        for (std::uint32_t b = 0; b < kBucketsPerGroup; ++b) {
            ctx.write(bladePtr(e.blade(), e.offset() + groupOffset(g) +
                                              b * kBucketBytes),
                      ConstMemSpan::of(splitting_hdr.raw));
            ++res.rdmaOps;
        }
        if ((g & 15) == 15 || g + 1 == cfg.groupsPerSegment) {
            co_await ctx.postSend();
            co_await ctx.sync();
        }
    }

    // 5. Migrate matching entries; rescan until a clean pass.
    std::vector<std::uint32_t> new_fill(cfg.groupsPerSegment, 0);
    bool moved_any = true;
    while (moved_any) {
        moved_any = false;
        for (std::uint32_t g = 0; g < cfg.groupsPerSegment; ++g) {
            std::uint8_t *buf = ctx.scratch(kGroupBytes);
            co_await ctx.access(
                bladePtr(e.blade(), e.offset() + groupOffset(g)),
                AccessOp::read(MemSpan{buf, kGroupBytes}),
                CachePolicy::Bypass);
            ++res.rdmaOps;
            GroupImage img = parseGroup(buf);
            for (std::uint32_t s = 0; s < kSlotsPerGroup; ++s) {
                Slot slot = img.slots[s];
                if (slot.empty())
                    continue;
                std::uint64_t k = 0;
                co_await ctx.access(bladePtr(slot.blade(), slot.offset()),
                                    AccessOp::read(MemSpan::of(k)),
                                    CachePolicy::Bypass);
                ++res.rdmaOps;
                if (((hash1(k) >> ld) & 1) == 0)
                    continue;
                // Copy into the new (private) segment, then clear the old
                // slot; a failed clear means a racing update -> rescan.
                std::uint32_t t = new_fill[g]++;
                assert(t < kSlotsPerGroup);
                co_await ctx.access(
                    bladePtr(nb, new_off + groupOffset(g) + slotOffset(t)),
                    AccessOp::write(ConstMemSpan::of(slot.raw)),
                    CachePolicy::Bypass);
                ++res.rdmaOps;
                std::uint64_t o = 0;
                bool cleared = false;
                co_await ctx.access(
                    bladePtr(e.blade(),
                             e.offset() + groupOffset(g) + slotOffset(s)),
                    AccessOp::cas(slot.raw, 0, o, cleared));
                ++res.rdmaOps;
                moved_any = true;
                if (!cleared)
                    --new_fill[g]; // racing update: slot value changed;
                                   // the rescan pass will redo it
            }
        }
    }

    // 6. Repoint directory entries for both halves.
    DirEntry ne = DirEntry::make(ld + 1, nb, new_off);
    DirEntry oe = DirEntry::make(ld + 1, e.blade(), e.offset());
    for (std::uint64_t j = 0; j < (1ull << gd); ++j) {
        if ((j & mask(ld)) != suffix)
            continue;
        DirEntry v = ((j >> ld) & 1) ? ne : oe;
        ctx.write(bladePtr(0, table_.dirOffset() + j * 8),
                  ConstMemSpan::of(v.raw));
        ++res.rdmaOps;
    }
    co_await ctx.postSend();
    co_await ctx.sync();

    // 7. Clear the splitting flag (old segment now at depth ld+1).
    BucketHeader final_hdr = BucketHeader::make(ld + 1, false, suffix);
    for (std::uint32_t g = 0; g < cfg.groupsPerSegment; ++g) {
        for (std::uint32_t b = 0; b < kBucketsPerGroup; ++b) {
            ctx.write(bladePtr(e.blade(), e.offset() + groupOffset(g) +
                                              b * kBucketBytes),
                      ConstMemSpan::of(final_hdr.raw));
            ++res.rdmaOps;
        }
        if ((g & 15) == 15 || g + 1 == cfg.groupsPerSegment) {
            co_await ctx.postSend();
            co_await ctx.sync();
        }
    }

    // 8. Release the split lock.
    std::uint64_t zero = 0;
    co_await ctx.access(lock_ptr, AccessOp::write(ConstMemSpan::of(zero)),
                        CachePolicy::Bypass);
    ++res.rdmaOps;

    co_await refreshDirectory(ctx, res);
    ++clientSplits_;
    did_split = true;
}

} // namespace smart::race
