/**
 * @file
 * Sherman-style B+Tree implementation.
 */

#include "apps/sherman/btree.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace smart::sherman {

using sim::Task;

namespace {

/** Gather the live entries of a node, sorted by key. */
std::vector<Entry>
liveEntries(const NodeImage &img)
{
    std::vector<Entry> out;
    for (std::uint32_t l = 0; l < kEntryLines; ++l) {
        for (std::uint32_t s = 0; s < kEntriesPerLine; ++s) {
            const Entry &e = img.lines[l].entries[s];
            if (e.key != kEmptyKey)
                out.push_back(e);
        }
    }
    std::sort(out.begin(), out.end(),
              [](const Entry &a, const Entry &b) { return a.key < b.key; });
    return out;
}

/** Fill a node image with @p entries (packed), versions set to @p ver. */
void
packEntries(NodeImage &img, const std::vector<Entry> &entries,
            std::uint64_t ver)
{
    for (std::uint32_t l = 0; l < kEntryLines; ++l) {
        img.lines[l].version = ver;
        for (std::uint32_t s = 0; s < kEntriesPerLine; ++s) {
            std::uint32_t idx = l * kEntriesPerLine + s;
            img.lines[l].entries[s] =
                idx < entries.size() ? entries[idx] : Entry{};
        }
    }
    img.header.count = static_cast<std::uint32_t>(entries.size());
    img.header.version = ver;
}

/** Child pointer for @p key in a sorted internal node. */
std::uint64_t
findChild(const NodeImage &img, std::uint64_t key)
{
    std::uint64_t child = 0;
    for (std::uint32_t l = 0; l < kEntryLines; ++l) {
        for (std::uint32_t s = 0; s < kEntriesPerLine; ++s) {
            const Entry &e = img.lines[l].entries[s];
            if (e.key == kEmptyKey)
                continue;
            if (e.key <= key)
                child = e.value;
            else
                return child;
        }
    }
    return child;
}

} // namespace

// ============================================================ BtreeIndex

BtreeIndex::BtreeIndex(std::vector<memblade::MemoryBlade *> blades,
                       const BtreeConfig &cfg)
    : cfg_(cfg), blades_(std::move(blades))
{
    assert(!blades_.empty());
    rootPtrOffset_ = blades_[0]->alloc(8);
    // Start with one empty leaf as the root.
    std::uint32_t b = 0;
    std::uint64_t off = allocNodeHost(b);
    NodeImage *img = nodeAt(packPtr(b, off));
    *img = NodeImage{};
    img->header.lowFence = 0;
    img->header.highFence = kInfinity;
    std::uint64_t root = packPtr(b, off);
    std::memcpy(blades_[0]->bytesAt(rootPtrOffset_), &root, 8);
}

std::uint64_t
BtreeIndex::allocNodeHost(std::uint32_t &blade_out)
{
    blade_out = nextBlade_;
    nextBlade_ = (nextBlade_ + 1) % blades_.size();
    return blades_[blade_out]->alloc(kNodeBytes, kNodeBytes);
}

NodeImage *
BtreeIndex::nodeAt(std::uint64_t ptr) const
{
    return reinterpret_cast<NodeImage *>(
        blades_[ptrBlade(ptr)]->bytesAt(ptrOffset(ptr)));
}

std::uint64_t
BtreeIndex::readRootPtr() const
{
    std::uint64_t root = 0;
    std::memcpy(&root, blades_[0]->bytesAt(rootPtrOffset_), 8);
    return root;
}

void
BtreeIndex::loadSequential(std::uint64_t num_keys, std::uint64_t value_mask)
{
    std::uint32_t fill = std::max<std::uint32_t>(
        1, static_cast<std::uint32_t>(kLoadFill * kNodeCapacity));

    // Build the leaf level.
    struct Sep
    {
        std::uint64_t low;
        std::uint64_t ptr;
    };
    std::vector<Sep> level;
    std::vector<std::uint64_t> ptrs;
    for (std::uint64_t k = 0; k < num_keys; k += fill) {
        std::uint32_t b = 0;
        std::uint64_t off = allocNodeHost(b);
        ptrs.push_back(packPtr(b, off));
    }
    for (std::size_t i = 0; i < ptrs.size(); ++i) {
        std::uint64_t first = i * fill;
        std::uint64_t last = std::min(num_keys, first + fill);
        NodeImage *img = nodeAt(ptrs[i]);
        *img = NodeImage{};
        img->header.level = 0;
        img->header.lowFence = i == 0 ? 0 : first;
        img->header.highFence =
            i + 1 < ptrs.size() ? last : kInfinity;
        img->header.next = i + 1 < ptrs.size() ? ptrs[i + 1] : 0;
        std::vector<Entry> entries;
        for (std::uint64_t k = first; k < last; ++k)
            entries.push_back(Entry{k, k ^ value_mask});
        packEntries(*img, entries, 1);
        level.push_back(Sep{img->header.lowFence, ptrs[i]});
    }

    // Build internal levels bottom-up.
    std::uint32_t lvl = 1;
    while (level.size() > 1) {
        std::vector<Sep> upper;
        std::vector<std::uint64_t> node_ptrs;
        for (std::size_t i = 0; i < level.size(); i += fill) {
            std::uint32_t b = 0;
            std::uint64_t off = allocNodeHost(b);
            node_ptrs.push_back(packPtr(b, off));
        }
        for (std::size_t n = 0; n < node_ptrs.size(); ++n) {
            std::size_t first = n * fill;
            std::size_t last = std::min(level.size(), first + fill);
            NodeImage *img = nodeAt(node_ptrs[n]);
            *img = NodeImage{};
            img->header.level = lvl;
            img->header.lowFence = n == 0 ? 0 : level[first].low;
            img->header.highFence =
                n + 1 < node_ptrs.size() ? level[last].low : kInfinity;
            img->header.next =
                n + 1 < node_ptrs.size() ? node_ptrs[n + 1] : 0;
            std::vector<Entry> entries;
            for (std::size_t i = first; i < last; ++i)
                entries.push_back(Entry{level[i].low, level[i].ptr});
            packEntries(*img, entries, 1);
            upper.push_back(Sep{img->header.lowFence, node_ptrs[n]});
        }
        level = std::move(upper);
        ++lvl;
    }
    height_ = lvl;
    std::memcpy(blades_[0]->bytesAt(rootPtrOffset_), &level[0].ptr, 8);
}

bool
BtreeIndex::hostLookup(std::uint64_t key, std::uint64_t &value) const
{
    std::uint64_t ptr = readRootPtr();
    for (int guard = 0; guard < 64; ++guard) {
        const NodeImage *img = nodeAt(ptr);
        if (key >= img->header.highFence && img->header.next != 0) {
            ptr = img->header.next;
            continue;
        }
        if (img->header.level > 0) {
            ptr = findChild(*img, key);
            if (ptr == 0)
                return false;
            continue;
        }
        for (std::uint32_t l = 0; l < kEntryLines; ++l) {
            for (std::uint32_t s = 0; s < kEntriesPerLine; ++s) {
                const Entry &e = img->lines[l].entries[s];
                if (e.key == key) {
                    value = e.value;
                    return true;
                }
            }
        }
        return false;
    }
    return false;
}

std::uint64_t
BtreeIndex::hostCount() const
{
    // Find the leftmost leaf, then walk the B-link chain.
    std::uint64_t ptr = readRootPtr();
    while (nodeAt(ptr)->header.level > 0)
        ptr = findChild(*nodeAt(ptr), 0);
    std::uint64_t n = 0;
    while (ptr != 0) {
        const NodeImage *img = nodeAt(ptr);
        for (std::uint32_t l = 0; l < kEntryLines; ++l)
            for (std::uint32_t s = 0; s < kEntriesPerLine; ++s)
                n += img->lines[l].entries[s].key != kEmptyKey;
        ptr = img->header.next;
    }
    return n;
}

memblade::RemoteArena
BtreeIndex::carveArena(std::uint32_t &blade_out)
{
    std::uint32_t b = nextArenaBlade_;
    nextArenaBlade_ = (nextArenaBlade_ + 1) % blades_.size();
    std::uint64_t base =
        blades_[b]->alloc(kNodeArenaPerThread, kNodeBytes);
    blade_out = b;
    return memblade::RemoteArena(base, kNodeArenaPerThread);
}

// =========================================================== BtreeClient

BtreeClient::BtreeClient(BtreeIndex &index, SmartRuntime &rt)
    : index_(index), rt_(rt)
{
    assert(rt_.numBlades() == index_.blades().size());
    for (std::uint32_t t = 0; t < rt_.numThreads(); ++t) {
        ThreadArena ta;
        ta.arena = index_.carveArena(ta.blade);
        arenas_.push_back(ta);
    }
    cachedRoot_ = index_.readRootPtr(); // connect-time bootstrap
}

RemotePtr
BtreeClient::rptr(std::uint64_t packed) const
{
    return const_cast<SmartRuntime &>(rt_).ptr(ptrBlade(packed),
                                               ptrOffset(packed));
}

RemotePtr
BtreeClient::rptr(std::uint32_t blade, std::uint64_t off) const
{
    return const_cast<SmartRuntime &>(rt_).ptr(blade, off);
}

Task
BtreeClient::refreshRoot(SmartCtx &ctx, BtOpResult &res)
{
    // The root pointer is the tree's coherence anchor: never cached.
    std::uint64_t root = 0;
    co_await ctx.access(rptr(0, index_.rootPtrOffset()),
                        AccessOp::read(MemSpan::of(root)),
                        CachePolicy::Bypass);
    ++res.rdmaOps;
    cachedRoot_ = root;
    nodeCache_.clear();
}

Task
BtreeClient::readNode(SmartCtx &ctx, std::uint64_t ptr, NodeImage &img,
                      BtOpResult &res, CachePolicy pol)
{
    for (int attempt = 0; attempt < 16; ++attempt) {
        co_await ctx.access(rptr(ptr), AccessOp::read(MemSpan::of(img)),
                            attempt == 0 ? pol : CachePolicy::Bypass);
        ++res.rdmaOps;
        if (versionsConsistent(img))
            co_return;
        // Torn read during a concurrent split rewrite: retry.
    }
}

Task
BtreeClient::traverse(SmartCtx &ctx, std::uint64_t key,
                      std::uint64_t &leaf_ptr,
                      std::vector<std::uint64_t> &path, BtOpResult &res)
{
    for (int attempt = 0; attempt < 64; ++attempt) {
        path.clear();
        if (cachedRoot_ == 0)
            co_await refreshRoot(ctx, res);
        std::uint64_t ptr = cachedRoot_;
        bool restart = false;
        for (int depth = 0; depth < 32 && !restart; ++depth) {
            auto it = nodeCache_.find(ptr);
            if (it == nodeCache_.end()) {
                NodeImage img;
                co_await readNode(ctx, ptr, img, res);
                if (key >= img.header.highFence) {
                    if (img.header.next != 0) {
                        ptr = img.header.next;
                        continue; // B-link right walk
                    }
                    co_await refreshRoot(ctx, res);
                    restart = true;
                    break;
                }
                if (key < img.header.lowFence) {
                    co_await refreshRoot(ctx, res);
                    restart = true;
                    break;
                }
                if (img.header.level == 0) {
                    leaf_ptr = ptr;
                    co_return;
                }
                it = nodeCache_.emplace(ptr, img).first;
            }
            const NodeImage &node = it->second;
            if (key < node.header.lowFence ||
                key >= node.header.highFence) {
                // Stale cached image: drop and re-read next attempt.
                nodeCache_.erase(it);
                restart = true;
                break;
            }
            if (node.header.level == 0) {
                leaf_ptr = ptr;
                co_return;
            }
            std::uint64_t child = findChild(node, key);
            if (child == 0) {
                nodeCache_.erase(it);
                restart = true;
                break;
            }
            path.push_back(ptr);
            ptr = child;
        }
    }
    leaf_ptr = 0; // unreachable in practice; callers treat as failure
}

Task
BtreeClient::hoclAcquire(SmartCtx &ctx, std::uint64_t ptr, BtOpResult &res)
{
    // Level 1: the local (on-blade) lock table — only one thread per
    // compute blade proceeds to the remote lock (HOCL's hierarchy).
    // A release hands the lock straight to the oldest local waiter.
    co_await localLocks_.try_emplace(ptr, rt_.sim(), 1)
        .first->second.acquire();

    // Level 2: the remote lock word (contended only across blades).
    // Under a FaultPlane, a holder that died (blade crash wiped its
    // lock-release WRITE, or the client blade reset) would deadlock
    // every later writer of this node; a lease bounds the wait.
    sim::Time wait_start = ctx.sim().now();
    for (;;) {
        std::uint64_t old = 0;
        bool ok = false;
        co_await ctx.backoffCasSync(rptr(ptr), 0, 1, old, ok);
        ++res.rdmaOps;
        if (ctx.failed()) {
            // CAS never landed (blade down); keep trying — the lease
            // timer below still bounds the total wait.
            ctx.clearError();
        } else if (ok) {
            co_return;
        }
        ++res.retries;
        if (ctx.sim().faultPlane() != nullptr &&
            ctx.sim().now() - wait_start > kLockLeaseNs) {
            // Stale lease: break the lock and re-contend for it.
            std::uint64_t zero = 0;
            co_await ctx.access(rptr(ptr),
                                AccessOp::write(ConstMemSpan::of(zero)),
                                CachePolicy::Bypass);
            ++res.rdmaOps;
            if (ctx.failed())
                ctx.clearError();
            else
                ++leaseBreaks_;
            wait_start = ctx.sim().now();
        }
    }
}

Task
BtreeClient::hoclRelease(SmartCtx &ctx, std::uint64_t ptr, BtOpResult &res)
{
    std::uint64_t zero = 0;
    co_await ctx.access(rptr(ptr), AccessOp::write(ConstMemSpan::of(zero)),
                        CachePolicy::Bypass);
    ++res.rdmaOps;
    if (ctx.failed()) {
        // Unlock lost (blade down): another writer's lease break will
        // clear the word once the blade is back.
        ctx.clearError();
    }
    localLocks_.at(ptr).release();
}

Task
BtreeClient::lookup(SmartCtx &ctx, std::uint64_t key, BtOpResult &res)
{
    co_await ctx.opBegin();

    // Speculative fast path (§5.2): read just the cached 64 B entry line.
    if (index_.config().speculativeLookup) {
        auto it = specCache_.find(key);
        if (it != specCache_.end()) {
            SpecEntry spec = it->second;
            EntryLine line;
            co_await ctx.access(rptr(spec.leafPtr) + lineOffset(spec.line),
                                AccessOp::read(MemSpan::of(line)));
            ++res.rdmaOps;
            const Entry &e = line.entries[spec.slot];
            if (e.key == key) {
                res.ok = true;
                res.value = e.value;
                res.specHit = true;
                ++specHits_;
                ctx.opEnd();
                co_return;
            }
            // Entry moved (split/delete): fall back and repopulate.
            specCache_.erase(key);
        }
        ++specMisses_;
    }

    std::vector<std::uint64_t> path;
    for (int attempt = 0; attempt < 64; ++attempt) {
        std::uint64_t leaf_ptr = 0;
        co_await traverse(ctx, key, leaf_ptr, path, res);
        if (leaf_ptr == 0)
            break;

        NodeImage img;
        bool moved = false;
        for (int hop = 0; hop < 32; ++hop) {
            co_await readNode(ctx, leaf_ptr, img, res);
            if (key >= img.header.highFence && img.header.next != 0) {
                leaf_ptr = img.header.next; // B-link right walk
                continue;
            }
            if (key < img.header.lowFence) {
                moved = true; // stale traversal; retry from the top
            }
            break;
        }
        if (moved)
            continue;

        for (std::uint32_t l = 0; l < kEntryLines; ++l) {
            for (std::uint32_t s = 0; s < kEntriesPerLine; ++s) {
                const Entry &e = img.lines[l].entries[s];
                if (e.key == key) {
                    res.ok = true;
                    res.value = e.value;
                    if (index_.config().speculativeLookup) {
                        if (specCache_.size() >= kSpecCacheCapacity)
                            specCache_.clear();
                        specCache_[key] = SpecEntry{leaf_ptr, l, s};
                    }
                    ctx.opEnd();
                    co_return;
                }
            }
        }
        res.ok = false;
        ctx.opEnd();
        co_return;
    }
    res.ok = false;
    ctx.opEnd();
}

Task
BtreeClient::insert(SmartCtx &ctx, std::uint64_t key, std::uint64_t value,
                    BtOpResult &res)
{
    co_await ctx.opBegin();
    std::vector<std::uint64_t> path;
    for (int attempt = 0; attempt < 64; ++attempt) {
        std::uint64_t leaf_ptr = 0;
        co_await traverse(ctx, key, leaf_ptr, path, res);
        if (leaf_ptr == 0)
            break;

        co_await hoclAcquire(ctx, leaf_ptr, res);
        NodeImage img;
        co_await readNode(ctx, leaf_ptr, img, res);

        if (key >= img.header.highFence || key < img.header.lowFence) {
            // The leaf split or moved under us: release and retry.
            co_await hoclRelease(ctx, leaf_ptr, res);
            continue;
        }

        // In-place update: one 16 B write inside a single cacheline
        // (per-cacheline versions make this safe without a bump, §5.2).
        int free_line = -1;
        int free_slot = -1;
        for (std::uint32_t l = 0; l < kEntryLines; ++l) {
            for (std::uint32_t s = 0; s < kEntriesPerLine; ++s) {
                Entry &e = img.lines[l].entries[s];
                if (e.key == key) {
                    Entry updated{key, value};
                    co_await ctx.access(
                        rptr(leaf_ptr) + lineOffset(l) + 8 +
                            s * sizeof(Entry),
                        AccessOp::write(ConstMemSpan::of(updated)),
                        CachePolicy::Bypass);
                    ++res.rdmaOps;
                    co_await hoclRelease(ctx, leaf_ptr, res);
                    res.ok = true;
                    ctx.opEnd();
                    co_return;
                }
                if (e.key == kEmptyKey && free_line < 0) {
                    free_line = static_cast<int>(l);
                    free_slot = static_cast<int>(s);
                }
            }
        }

        if (free_line >= 0) {
            Entry fresh{key, value};
            co_await ctx.access(rptr(leaf_ptr) + lineOffset(free_line) + 8 +
                                    free_slot * sizeof(Entry),
                                AccessOp::write(ConstMemSpan::of(fresh)),
                                CachePolicy::Bypass);
            ++res.rdmaOps;
            co_await hoclRelease(ctx, leaf_ptr, res);
            res.ok = true;
            ctx.opEnd();
            co_return;
        }

        // Leaf full: split (releases the lock), then retry.
        co_await splitNode(ctx, leaf_ptr, img, path, res);
    }
    res.ok = false;
    ctx.opEnd();
}

Task
BtreeClient::remove(SmartCtx &ctx, std::uint64_t key, BtOpResult &res)
{
    co_await ctx.opBegin();
    std::vector<std::uint64_t> path;
    for (int attempt = 0; attempt < 64; ++attempt) {
        std::uint64_t leaf_ptr = 0;
        co_await traverse(ctx, key, leaf_ptr, path, res);
        if (leaf_ptr == 0)
            break;
        co_await hoclAcquire(ctx, leaf_ptr, res);
        NodeImage img;
        co_await readNode(ctx, leaf_ptr, img, res);
        if (key >= img.header.highFence || key < img.header.lowFence) {
            co_await hoclRelease(ctx, leaf_ptr, res);
            continue;
        }
        for (std::uint32_t l = 0; l < kEntryLines; ++l) {
            for (std::uint32_t s = 0; s < kEntriesPerLine; ++s) {
                if (img.lines[l].entries[s].key == key) {
                    Entry tomb{}; // kEmptyKey
                    co_await ctx.access(
                        rptr(leaf_ptr) + lineOffset(l) + 8 +
                            s * sizeof(Entry),
                        AccessOp::write(ConstMemSpan::of(tomb)),
                        CachePolicy::Bypass);
                    ++res.rdmaOps;
                    co_await hoclRelease(ctx, leaf_ptr, res);
                    specCache_.erase(key);
                    res.ok = true;
                    ctx.opEnd();
                    co_return;
                }
            }
        }
        co_await hoclRelease(ctx, leaf_ptr, res);
        res.ok = false;
        ctx.opEnd();
        co_return;
    }
    res.ok = false;
    ctx.opEnd();
}

Task
BtreeClient::scan(SmartCtx &ctx, std::uint64_t start,
                  std::uint32_t max_count, std::vector<Entry> &out,
                  BtOpResult &res)
{
    co_await ctx.opBegin();
    std::vector<std::uint64_t> path;
    std::uint64_t leaf_ptr = 0;
    co_await traverse(ctx, start, leaf_ptr, path, res);
    while (leaf_ptr != 0 && out.size() < max_count) {
        NodeImage img;
        co_await readNode(ctx, leaf_ptr, img, res);
        std::vector<Entry> entries = liveEntries(img);
        for (const Entry &e : entries) {
            if (e.key >= start && out.size() < max_count)
                out.push_back(e);
        }
        leaf_ptr = img.header.next;
    }
    res.ok = true;
    ctx.opEnd();
}

Task
BtreeClient::splitNode(SmartCtx &ctx, std::uint64_t ptr, NodeImage img,
                       std::vector<std::uint64_t> path, BtOpResult &res)
{
    (void)path;
    std::vector<Entry> entries = liveEntries(img);
    assert(entries.size() >= 2);
    std::size_t mid = entries.size() / 2;
    std::uint64_t sep = entries[mid].key;

    ThreadArena &ta = arenas_[ctx.thread().id()];
    std::uint64_t right_off = ta.arena.alloc(kNodeBytes, kNodeBytes);
    std::uint64_t right_ptr = packPtr(ta.blade, right_off);
    std::uint64_t new_ver = img.header.version + 1;

    NodeImage right{};
    right.header.level = img.header.level;
    right.header.lowFence = sep;
    right.header.highFence = img.header.highFence;
    right.header.next = img.header.next;
    packEntries(right,
                std::vector<Entry>(entries.begin() + mid, entries.end()),
                new_ver);
    co_await ctx.access(rptr(right_ptr),
                        AccessOp::write(ConstMemSpan::of(right)),
                        CachePolicy::Bypass);
    ++res.rdmaOps;

    NodeImage left{};
    left.header.lock = 1; // still held
    left.header.level = img.header.level;
    left.header.lowFence = img.header.lowFence;
    left.header.highFence = sep;
    left.header.next = right_ptr;
    packEntries(left,
                std::vector<Entry>(entries.begin(), entries.begin() + mid),
                new_ver);
    co_await ctx.access(rptr(ptr), AccessOp::write(ConstMemSpan::of(left)),
                        CachePolicy::Bypass);
    ++res.rdmaOps;

    nodeCache_.erase(ptr);
    co_await hoclRelease(ctx, ptr, res);
    ++splits_;

    co_await insertUpwards(ctx, img.header.level + 1, sep, right_ptr,
                           path, ptr, res);
}

Task
BtreeClient::insertUpwards(SmartCtx &ctx, std::uint64_t target_level,
                           std::uint64_t sep, std::uint64_t new_ptr,
                           std::vector<std::uint64_t> path,
                           std::uint64_t old_child, BtOpResult &res)
{
    (void)path;
    for (int attempt = 0; attempt < 64; ++attempt) {
        // Fresh root view.
        co_await refreshRoot(ctx, res);
        std::uint64_t root = cachedRoot_;
        NodeImage root_img;
        co_await readNode(ctx, root, root_img, res);

        if (root_img.header.level < target_level) {
            // Grow the tree: new root referencing the old root and the
            // new right node.
            ThreadArena &ta = arenas_[ctx.thread().id()];
            std::uint64_t off = ta.arena.alloc(kNodeBytes, kNodeBytes);
            std::uint64_t new_root = packPtr(ta.blade, off);
            NodeImage img{};
            img.header.level =
                static_cast<std::uint32_t>(target_level);
            img.header.lowFence = 0;
            img.header.highFence = kInfinity;
            packEntries(img, {Entry{0, root}, Entry{sep, new_ptr}}, 1);
            co_await ctx.access(rptr(new_root),
                                AccessOp::write(ConstMemSpan::of(img)),
                                CachePolicy::Bypass);
            ++res.rdmaOps;
            std::uint64_t old_val = 0;
            bool ok = false;
            co_await ctx.backoffCasSync(rptr(0, index_.rootPtrOffset()),
                                        root, new_root, old_val, ok);
            ++res.rdmaOps;
            if (ok) {
                cachedRoot_ = new_root;
                co_return;
            }
            res.retries++;
            continue; // another client changed the root; re-evaluate
        }

        // Walk down to the target level (fresh reads; right-walks).
        std::uint64_t ptr = root;
        NodeImage img = root_img;
        bool restart = false;
        while (img.header.level > target_level) {
            std::uint64_t child = findChild(img, sep);
            if (child == 0) {
                restart = true;
                break;
            }
            ptr = child;
            co_await readNode(ctx, ptr, img, res);
            while (sep >= img.header.highFence && img.header.next != 0) {
                ptr = img.header.next;
                co_await readNode(ctx, ptr, img, res);
            }
        }
        if (restart)
            continue;

        co_await hoclAcquire(ctx, ptr, res);
        co_await readNode(ctx, ptr, img, res);
        if (sep >= img.header.highFence || sep < img.header.lowFence ||
            img.header.level != target_level) {
            co_await hoclRelease(ctx, ptr, res);
            continue;
        }

        std::vector<Entry> entries = liveEntries(img);
        if (entries.size() >= kNodeCapacity) {
            co_await splitNode(ctx, ptr, img, {}, res);
            continue; // parent split; retry the insert
        }
        bool dup = false;
        for (const Entry &e : entries)
            dup |= e.key == sep;
        if (!dup) {
            entries.push_back(Entry{sep, new_ptr});
            std::sort(entries.begin(), entries.end(),
                      [](const Entry &a, const Entry &b) {
                          return a.key < b.key;
                      });
            NodeImage updated = img;
            updated.header.lock = 1;
            packEntries(updated, entries, img.header.version + 1);
            co_await ctx.access(rptr(ptr),
                                AccessOp::write(ConstMemSpan::of(updated)),
                                CachePolicy::Bypass);
            ++res.rdmaOps;
            nodeCache_.erase(ptr);
        }
        co_await hoclRelease(ctx, ptr, res);
        co_return;
        (void)old_child;
    }
}

} // namespace smart::sherman
