/**
 * @file
 * FORD-style transaction implementation.
 */

#include "apps/ford/dtx.hpp"

#include <cassert>

#include "apps/race/race_layout.hpp" // mix64
#include "smart/cache/buffer_manager.hpp"

namespace smart::ford {

using sim::Task;

namespace {

std::uint64_t g_next_txid = 1;

std::uint64_t
slotHash(std::uint64_t key)
{
    return race::mix64(key * 2654435761ull + 11);
}

} // namespace

// ------------------------------------------------------------- DtxTable

DtxTable::DtxTable(std::vector<memblade::MemoryBlade *> &blades,
                   std::uint32_t table_id, std::uint32_t primary,
                   std::uint32_t backup, std::uint64_t capacity)
    : blades_(blades), id_(table_id), primary_(primary), backup_(backup),
      capacity_(capacity)
{
    assert((capacity & (capacity - 1)) == 0 && "capacity must be 2^k");
    basePrimary_ = blades_[primary_]->alloc(capacity * sizeof(Record), 64);
    baseBackup_ = blades_[backup_]->alloc(capacity * sizeof(Record), 64);
    for (std::uint64_t s = 0; s < capacity; ++s) {
        Record empty;
        empty.key = kNoKey;
        std::memcpy(blades_[primary_]->bytesAt(basePrimary_ +
                                               s * sizeof(Record)),
                    &empty, sizeof(Record));
        std::memcpy(blades_[backup_]->bytesAt(baseBackup_ +
                                              s * sizeof(Record)),
                    &empty, sizeof(Record));
    }
}

void
DtxTable::loadRecord(std::uint64_t key, const void *payload,
                     std::uint32_t len)
{
    assert(len <= sizeof(Record::payload));
    std::uint64_t slot = slotHash(key) & (capacity_ - 1);
    for (std::uint64_t probe = 0; probe < capacity_; ++probe) {
        std::uint64_t off = basePrimary_ +
                            ((slot + probe) & (capacity_ - 1)) *
                                sizeof(Record);
        Record *rec = reinterpret_cast<Record *>(
            blades_[primary_]->bytesAt(off));
        if (rec->key != kNoKey && rec->key != key)
            continue;
        rec->key = key;
        rec->version = 1;
        rec->lock = 0;
        std::memcpy(rec->payload, payload, len);
        std::uint64_t boff = baseBackup_ +
                             ((slot + probe) & (capacity_ - 1)) *
                                 sizeof(Record);
        std::memcpy(blades_[backup_]->bytesAt(boff), rec, sizeof(Record));
        return;
    }
    assert(false && "table full");
}

std::uint64_t
DtxTable::slotOffset(std::uint64_t key) const
{
    std::uint64_t slot = slotHash(key) & (capacity_ - 1);
    for (std::uint64_t probe = 0; probe < capacity_; ++probe) {
        std::uint64_t idx = (slot + probe) & (capacity_ - 1);
        const Record *rec = reinterpret_cast<const Record *>(
            blades_[primary_]->bytesAt(basePrimary_ +
                                       idx * sizeof(Record)));
        if (rec->key == key)
            return idx * sizeof(Record);
        if (rec->key == kNoKey)
            break;
    }
    assert(false && "key not loaded");
    return 0;
}

bool
DtxTable::isLoaded(std::uint64_t key) const
{
    std::uint64_t slot = slotHash(key) & (capacity_ - 1);
    for (std::uint64_t probe = 0; probe < capacity_; ++probe) {
        std::uint64_t idx = (slot + probe) & (capacity_ - 1);
        const Record *rec = reinterpret_cast<const Record *>(
            blades_[primary_]->bytesAt(basePrimary_ +
                                       idx * sizeof(Record)));
        if (rec->key == key)
            return true;
        if (rec->key == kNoKey)
            return false;
    }
    return false;
}

Record *
DtxTable::hostRecord(std::uint64_t key)
{
    return reinterpret_cast<Record *>(
        blades_[primary_]->bytesAt(basePrimary_ + slotOffset(key)));
}

Record *
DtxTable::hostBackupRecord(std::uint64_t key)
{
    return reinterpret_cast<Record *>(
        blades_[backup_]->bytesAt(baseBackup_ + slotOffset(key)));
}

// ------------------------------------------------------------ DtxSystem

DtxSystem::DtxSystem(std::vector<memblade::MemoryBlade *> blades,
                     std::uint32_t num_client_threads)
    : blades_(std::move(blades)), numThreads_(num_client_threads)
{
    for (auto *blade : blades_) {
        std::uint64_t base =
            blade->alloc(kLogRingBytes * num_client_threads, 64);
        // NVM log rings must start zeroed: recovery distinguishes valid
        // entries from never-written space by txid != 0.
        std::memset(blade->bytesAt(base), 0,
                    kLogRingBytes * num_client_threads);
        logBase_.push_back(base);
    }
}

std::uint32_t
DtxSystem::recover()
{
    // 1. Gather complete transactions from every log ring.
    struct Pending
    {
        std::uint32_t nparts = 0;
        std::vector<LogEntry> parts;
    };
    std::unordered_map<std::uint64_t, Pending> txns;
    for (std::size_t b = 0; b < blades_.size(); ++b) {
        for (std::uint32_t t = 0; t < numThreads_; ++t) {
            std::uint64_t base = logOffset(static_cast<std::uint32_t>(b), t);
            for (std::uint64_t off = 0;
                 off + sizeof(LogEntry) <= kLogRingBytes;
                 off += sizeof(LogEntry)) {
                LogEntry e;
                std::memcpy(&e, blades_[b]->bytesAt(base + off),
                            sizeof(LogEntry));
                if (e.txid == 0 || e.nparts == 0 || e.nparts > 16 ||
                    e.tableId >= tables_.size() ||
                    !tables_[e.tableId]->isLoaded(e.key))
                    continue;
                Pending &p = txns[e.txid];
                p.nparts = e.nparts;
                bool dup = false;
                for (const LogEntry &seen : p.parts)
                    dup |= seen.part == e.part && seen.key == e.key;
                if (!dup)
                    p.parts.push_back(e);
            }
        }
    }

    // 2. Redo complete transactions whose effects are missing. The log
    // carries post-images, so redo is idempotent: apply only where the
    // live version is older.
    std::uint32_t redone = 0;
    for (auto &[txid, p] : txns) {
        if (p.parts.size() != p.nparts)
            continue; // incomplete log: transaction never committed
        bool applied_any = false;
        for (const LogEntry &e : p.parts) {
            DtxTable &tab = *tables_[e.tableId];
            Record *primary = tab.hostRecord(e.key);
            Record *backup = tab.hostBackupRecord(e.key);
            if (primary->version < e.img.version) {
                *primary = e.img;
                applied_any = true;
            }
            if (backup->version < e.img.version)
                *backup = e.img;
        }
        redone += applied_any;
    }

    // 3. Break locks left by transactions that crashed before their log
    // completed (their data writes never started: old values stand).
    for (auto &tab : tables_) {
        tab->forEachRecord([](Record &r) {
            r.lock = 0;
        });
    }
    return redone;
}

DtxTable &
DtxSystem::createTable(std::uint64_t capacity)
{
    std::uint32_t id = tables_.size();
    std::uint32_t primary = id % blades_.size();
    std::uint32_t backup = (id + 1) % blades_.size();
    tables_.push_back(std::make_unique<DtxTable>(blades_, id, primary,
                                                 backup, capacity));
    return *tables_.back();
}

// ------------------------------------------------------------------ Dtx

Dtx::Dtx(DtxSystem &sys, SmartCtx &ctx)
    : sys_(sys), ctx_(ctx), txid_(g_next_txid++)
{
}

RemotePtr
Dtx::primaryPtr(const Item &it) const
{
    // it.offset is the slot offset addRead/addWrite looked up once.
    return const_cast<SmartCtx &>(ctx_).runtime().ptr(
        it.table->primaryBlade(), it.table->primaryOffset(it.offset));
}

RemotePtr
Dtx::backupPtr(const Item &it) const
{
    return const_cast<SmartCtx &>(ctx_).runtime().ptr(
        it.table->backupBlade(), it.table->backupOffset(it.offset));
}

void
Dtx::addRead(DtxTable &table, std::uint64_t key)
{
    reads_.push_back(Item{&table, key, table.slotOffset(key), {}, false});
}

void
Dtx::addWrite(DtxTable &table, std::uint64_t key)
{
    writes_.push_back(Item{&table, key, table.slotOffset(key), {}, false});
}

Task
Dtx::fetch(DtxResult &res)
{
    // Execution phase: all READs ride one doorbell batch. Execute-phase
    // images may be served by the cache tier: staleness is caught by the
    // validate phase exactly like any other stale snapshot, and commit
    // writes / lock CASes keep resident lines coherent.
    res.rdmaOps += reads_.size() + writes_.size();
    if (reads_.size() + writes_.size() <= cache::kMaxParts) {
        ReadPart parts[cache::kMaxParts];
        std::uint32_t n = 0;
        for (Item &it : reads_)
            parts[n++] = {primaryPtr(it), MemSpan::of(it.img)};
        for (Item &it : writes_)
            parts[n++] = {primaryPtr(it), MemSpan::of(it.img)};
        co_await ctx_.accessMany(parts, n, CachePolicy::Cached);
    } else {
        for (Item &it : reads_)
            ctx_.read(primaryPtr(it), MemSpan::of(it.img));
        for (Item &it : writes_)
            ctx_.read(primaryPtr(it), MemSpan::of(it.img));
        co_await ctx_.postSend();
        co_await ctx_.sync();
    }
    if (ctx_.failed()) {
        // Verb retries exhausted (e.g. blade down): the images are not
        // trustworthy. Abort; the caller re-runs the transaction.
        ctx_.clearError();
        aborted_ = true;
        ++res.aborts;
    }
}

Task
Dtx::releaseLocks(DtxResult &res)
{
    std::uint64_t zero = 0;
    bool any = false;
    for (Item &it : writes_) {
        if (it.locked) {
            ctx_.write(primaryPtr(it), ConstMemSpan::of(zero));
            ++res.rdmaOps;
            it.locked = false;
            any = true;
        }
    }
    if (any) {
        co_await ctx_.postSend();
        co_await ctx_.sync();
        // Unlock writes can themselves fail if the blade died; recovery
        // breaks stale locks, so give up rather than block the abort.
        if (ctx_.failed())
            ctx_.clearError();
    }
}

Task
Dtx::commit(DtxResult &res)
{
    // ---- Lock phase: CAS every write-set record's lock word ----
    for (Item &it : writes_) {
        std::uint64_t old = 0;
        bool ok = false;
        co_await ctx_.backoffCasSync(primaryPtr(it), 0, txid_, old, ok);
        ++res.rdmaOps;
        if (ctx_.failed()) {
            // Verb failure (not a lock conflict): ok is already false;
            // fall through to the abort path below.
            ctx_.clearError();
            aborted_ = true;
        }
        if (!ok) {
            co_await releaseLocks(res);
            ++res.aborts;
            res.committed = false;
            co_return;
        }
        it.locked = true;
    }

    // ---- Validate phase: versions of everything must be unchanged ----
    std::vector<Record> current(reads_.size() + writes_.size());
    {
        // Validation must observe live versions: bypass the cache tier.
        std::size_t i = 0;
        for (Item &it : reads_) {
            ctx_.read(primaryPtr(it), MemSpan::of(current[i++]));
            ++res.rdmaOps;
        }
        for (Item &it : writes_) {
            ctx_.read(primaryPtr(it), MemSpan::of(current[i++]));
            ++res.rdmaOps;
        }
        co_await ctx_.postSend();
        co_await ctx_.sync();
        if (ctx_.failed()) {
            ctx_.clearError();
            aborted_ = true;
            co_await releaseLocks(res);
            ++res.aborts;
            res.committed = false;
            co_return;
        }
        i = 0;
        bool valid = true;
        for (Item &it : reads_)
            valid &= current[i++].version == it.img.version;
        for (Item &it : writes_)
            valid &= current[i++].version == it.img.version;
        if (!valid) {
            co_await releaseLocks(res);
            ++res.aborts;
            res.committed = false;
            co_return;
        }
    }

    // Prepare the final (post-commit) images once: the redo log carries
    // exactly what the data write will install, so recovery is a pure,
    // idempotent redo.
    for (Item &it : writes_) {
        it.img.lock = 0;
        it.img.version++;
    }

    // ---- Log phase: self-describing redo entries to both replicas ----
    // Each coroutine owns a disjoint region of its thread's ring, so no
    // concurrent commit can tear another transaction's log.
    std::uint32_t tid = ctx_.thread().id();
    std::uint64_t region = DtxSystem::kLogRingBytes /
                           ctx_.runtime().config().corosPerThread;
    std::uint64_t region_base = ctx_.coroIndex() * region;
    // Entry-granular ring slotting: writes always land on the same
    // 96-byte grid the recovery scan reads, so a wrapped ring can only
    // ever overwrite whole entries, never tear them.
    std::uint64_t entries_per_region = region / sizeof(LogEntry);
    std::uint64_t start_idx =
        txid_ % (entries_per_region - writes_.size());
    std::uint64_t log_slot = region_base + start_idx * sizeof(LogEntry);
    std::uint32_t part = 0;
    for (Item &it : writes_) {
        LogEntry entry;
        entry.txid = txid_;
        entry.part = part++;
        entry.nparts = static_cast<std::uint32_t>(writes_.size());
        entry.tableId = it.table->id();
        entry.key = it.key;
        entry.img = it.img;
        ctx_.write(ctx_.runtime().ptr(it.table->primaryBlade(),
                                      sys_.logOffset(
                                          it.table->primaryBlade(), tid) +
                                          log_slot),
                   ConstMemSpan::of(entry));
        ctx_.write(ctx_.runtime().ptr(it.table->backupBlade(),
                                      sys_.logOffset(
                                          it.table->backupBlade(), tid) +
                                          log_slot),
                   ConstMemSpan::of(entry));
        res.rdmaOps += 2;
        log_slot += sizeof(LogEntry);
    }
    co_await ctx_.postSend();
    co_await ctx_.sync();
    if (ctx_.failed()) {
        // Log may be torn across replicas: recovery treats an incomplete
        // redo log as "never committed" and discards it, so aborting
        // here preserves failure atomicity.
        ctx_.clearError();
        aborted_ = true;
        co_await releaseLocks(res);
        ++res.aborts;
        res.committed = false;
        co_return;
    }

    // ---- Commit-write phase: the same final images, both replicas ----
    for (Item &it : writes_) {
        ctx_.write(primaryPtr(it), ConstMemSpan::of(it.img));
        ctx_.write(backupPtr(it), ConstMemSpan::of(it.img));
        res.rdmaOps += 2;
        it.locked = false;
    }
    co_await ctx_.postSend();
    co_await ctx_.sync();
    if (ctx_.failed()) {
        // Past the commit point: the redo log is complete on both
        // replicas, so the transaction is durable. recover() re-applies
        // any data write that did not land and clears stale locks.
        ctx_.clearError();
        res.committed = true;
        co_return;
    }

    // Persistence barrier on the NVM media.
    co_await ctx_.sim().delay(rnic::kNvmPersistNs);

    res.committed = true;
}

Task
Dtx::validateReadOnly(DtxResult &res, bool &consistent)
{
    if (reads_.size() <= 1) {
        consistent = true; // single READ is an atomic snapshot
        co_return;
    }
    // Read-only validation also needs live versions: no cache.
    std::vector<Record> current(reads_.size());
    std::size_t i = 0;
    for (Item &it : reads_) {
        ctx_.read(primaryPtr(it), MemSpan::of(current[i++]));
        ++res.rdmaOps;
    }
    co_await ctx_.postSend();
    co_await ctx_.sync();
    if (ctx_.failed()) {
        ctx_.clearError();
        aborted_ = true;
        ++res.aborts;
        consistent = false;
        co_return;
    }
    consistent = true;
    i = 0;
    for (Item &it : reads_)
        consistent &= current[i++].version == it.img.version;
}

} // namespace smart::ford
