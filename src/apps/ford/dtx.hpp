/**
 * @file
 * FORD-style distributed transactions on disaggregated persistent memory
 * (Zhang et al., FAST'22), the workload of paper §6.2.2.
 *
 * Records live in hash-addressed tables replicated on two memory blades
 * (primary + backup, both "NVM"). Transactions run one-sided OCC:
 *
 *   execute   - doorbell-batched READs of the read/write set
 *   lock      - CAS the lock word of every write-set record
 *   validate  - re-READ versions of all records; abort on change
 *   log       - WRITE redo entries to per-thread NVM log rings (both
 *               replicas, persisted)
 *   commit    - WRITE full record images (version+1, lock cleared) to
 *               primary and backup; the data write doubles as unlock
 *
 * FORD+ (the paper's strengthened baseline) and SMART-DTX are the same
 * code on different SmartConfigs — the paper's 16-line refactor.
 */

#ifndef SMART_APPS_FORD_DTX_HPP
#define SMART_APPS_FORD_DTX_HPP

#include <cstdint>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <vector>

#include "memblade/memory_blade.hpp"
#include "smart/smart_ctx.hpp"
#include "smart/smart_runtime.hpp"

namespace smart::ford {

/** Fixed 64 B record: lock, version, key, 40 B payload. */
struct Record
{
    std::uint64_t lock = 0;
    std::uint64_t version = 0;
    std::uint64_t key = 0;
    std::uint8_t payload[40] = {};
};
static_assert(sizeof(Record) == 64);

/** Sentinel for an empty hash slot. */
constexpr std::uint64_t kNoKey = ~std::uint64_t{0};

/** One replicated hash-addressed table. */
class DtxTable
{
  public:
    /**
     * @param primary/backup blade indices for the two replicas
     * @param capacity slots (power of two; sized ~2x the record count)
     */
    DtxTable(std::vector<memblade::MemoryBlade *> &blades,
             std::uint32_t table_id, std::uint32_t primary,
             std::uint32_t backup, std::uint64_t capacity);

    std::uint32_t id() const { return id_; }
    std::uint32_t primaryBlade() const { return primary_; }
    std::uint32_t backupBlade() const { return backup_; }

    /** Host-side load (writes both replicas). */
    void loadRecord(std::uint64_t key, const void *payload,
                    std::uint32_t len);

    /**
     * Byte offset of @p key's slot (deterministic open addressing; the
     * key must have been loaded). Identical on host and clients.
     */
    std::uint64_t slotOffset(std::uint64_t key) const;

    /** Blade offsets of slot offset @p slot_off on each replica. */
    std::uint64_t primaryOffset(std::uint64_t slot_off) const
    {
        return basePrimary_ + slot_off;
    }
    std::uint64_t backupOffset(std::uint64_t slot_off) const
    {
        return baseBackup_ + slot_off;
    }

    /** @return true if @p key was loaded into this table. */
    bool isLoaded(std::uint64_t key) const;

    /** Host-side record pointer (primary replica) for verification. */
    Record *hostRecord(std::uint64_t key);

    /** Host-side record pointer on the backup replica. */
    Record *hostBackupRecord(std::uint64_t key);

    /** Host-side sweep over every live record on both replicas. */
    template <typename Fn>
    void
    forEachRecord(Fn &&fn)
    {
        for (std::uint64_t s = 0; s < capacity_; ++s) {
            auto *p = reinterpret_cast<Record *>(blades_[primary_]->bytesAt(
                basePrimary_ + s * sizeof(Record)));
            auto *b = reinterpret_cast<Record *>(blades_[backup_]->bytesAt(
                baseBackup_ + s * sizeof(Record)));
            if (p->key != kNoKey) {
                fn(*p);
                fn(*b);
            }
        }
    }

  private:
    std::vector<memblade::MemoryBlade *> &blades_;
    std::uint32_t id_;
    std::uint32_t primary_;
    std::uint32_t backup_;
    std::uint64_t capacity_;
    std::uint64_t basePrimary_;
    std::uint64_t baseBackup_;
};

/**
 * One persisted redo-log entry: self-describing so that recovery can
 * decide whether a transaction's log is complete (all `nparts` present)
 * and therefore must be redone, or incomplete and must be discarded.
 */
struct LogEntry
{
    std::uint64_t txid = 0;
    std::uint32_t part = 0;
    std::uint32_t nparts = 0;
    std::uint32_t tableId = 0;
    std::uint32_t pad = 0;
    std::uint64_t key = 0;
    Record img{};
};
static_assert(sizeof(LogEntry) == 96);

/** The shared transaction system: tables + per-thread NVM log rings. */
class DtxSystem
{
  public:
    DtxSystem(std::vector<memblade::MemoryBlade *> blades,
              std::uint32_t num_client_threads);

    /** Create a table; replicas placed round-robin across blades. */
    DtxTable &createTable(std::uint64_t capacity);

    DtxTable &table(std::uint32_t id) { return *tables_[id]; }
    std::vector<memblade::MemoryBlade *> &blades() { return blades_; }

    /** Per-(blade, thread) log ring byte offset. */
    std::uint64_t
    logOffset(std::uint32_t blade, std::uint32_t thread) const
    {
        return logBase_[blade] + thread * kLogRingBytes;
    }

    static constexpr std::uint64_t kLogRingBytes = 64 * 1024;

    /**
     * Crash recovery (FORD's failure-atomicity guarantee): scan every
     * log ring on the surviving blades; transactions whose redo log is
     * complete are re-applied to both replicas, incomplete ones are
     * discarded and their stale locks broken. Runs host-side, as a
     * restarted compute blade would before admitting new transactions.
     *
     * @return number of transactions redone
     */
    std::uint32_t recover();

    std::uint32_t numThreads() const { return numThreads_; }

  private:
    friend class Dtx;

    std::vector<memblade::MemoryBlade *> blades_;
    std::vector<std::unique_ptr<DtxTable>> tables_;
    std::vector<std::uint64_t> logBase_; // per blade
    std::uint32_t numThreads_;
};

/** Statistics of one transaction attempt chain. */
struct DtxResult
{
    bool committed = false;
    std::uint32_t aborts = 0;   ///< validation/lock aborts before commit
    std::uint32_t rdmaOps = 0;
};

/**
 * One transaction. Usage:
 *   Dtx tx(system, ctx);
 *   co_await tx.fetch(...);           // fill read/write set (batched)
 *   ... mutate tx.writeImage(i) ...
 *   co_await tx.commit(res);
 */
class Dtx
{
  public:
    Dtx(DtxSystem &sys, SmartCtx &ctx);

    /** Add a record to the read set (fetched by fetch()). */
    void addRead(DtxTable &table, std::uint64_t key);

    /** Add a record to the write set (fetched + locked + written). */
    void addWrite(DtxTable &table, std::uint64_t key);

    /** Fetch every staged record in one doorbell-batched round. */
    sim::Task fetch(DtxResult &res);

    /** @return fetched image of read-set entry @p i. */
    const Record &readImage(std::size_t i) const { return reads_[i].img; }

    /** @return mutable image of write-set entry @p i (edit, then commit). */
    Record &writeImage(std::size_t i) { return writes_[i].img; }

    /**
     * Run lock -> validate -> log -> commit-write. On failure the
     * transaction is rolled back (locks released) and `committed` is
     * false; the caller re-runs the whole transaction.
     */
    sim::Task commit(DtxResult &res);

    /** Read-only transactions: validate that read versions still hold. */
    sim::Task validateReadOnly(DtxResult &res, bool &consistent);

    /**
     * @return true if a verb-level failure (retries exhausted / timeout)
     * aborted this transaction. The caller must not use fetched images
     * and should re-run the transaction (typically after recover()).
     */
    bool aborted() const { return aborted_; }

  private:
    struct Item
    {
        DtxTable *table = nullptr;
        std::uint64_t key = 0;
        std::uint64_t offset = 0;
        Record img{};
        bool locked = false;
    };

    RemotePtr primaryPtr(const Item &it) const;
    RemotePtr backupPtr(const Item &it) const;

    sim::Task releaseLocks(DtxResult &res);

    DtxSystem &sys_;
    SmartCtx &ctx_;
    std::uint64_t txid_;
    std::vector<Item> reads_;
    std::vector<Item> writes_;
    std::uint32_t logPos_ = 0;
    bool aborted_ = false;
};

} // namespace smart::ford

#endif // SMART_APPS_FORD_DTX_HPP
