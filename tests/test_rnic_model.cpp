/**
 * @file
 * Unit tests for the RNIC hardware model: memory registration, one-sided
 * op execution semantics (READ/WRITE/CAS/FAA on real bytes), cache models,
 * traffic accounting, and the performance ceilings the paper's platform
 * exhibits.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <list>
#include <map>
#include <unordered_map>
#include <vector>

#include "rnic/cache_model.hpp"
#include "rnic/rnic.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/span.hpp"

using namespace smart;
using namespace smart::rnic;
using sim::Simulator;
using sim::Time;

namespace {

/** Captures completions for assertions. */
struct TestSink : CompletionSink
{
    std::vector<std::uint64_t> wrIds;
    std::vector<std::uint64_t> oldValues;
    Time lastCompletion = 0;
    Simulator *sim = nullptr;

    void
    complete(const WorkReq &wr, std::uint64_t old_value,
             WcStatus) override
    {
        wrIds.push_back(wr.wrId);
        oldValues.push_back(old_value);
        if (sim)
            lastCompletion = sim->now();
    }
};

struct RnicPair
{
    Simulator sim;
    RnicConfig cfg;
    Rnic initiator;
    Rnic target;
    std::vector<std::uint8_t> localMem;
    std::vector<std::uint8_t> remoteMem;
    const MrRecord *localMr;
    const MrRecord *remoteMr;
    TestSink sink;

    explicit RnicPair(std::size_t local_bytes = 4096,
                      std::size_t remote_bytes = 8192,
                      const RnicConfig &c = {})
        : cfg(c), initiator(sim, cfg, "cb"), target(sim, cfg, "mb"),
          localMem(local_bytes, 0), remoteMem(remote_bytes, 0)
    {
        localMr = &initiator.registerMemory(localMem.data(), localMem.size());
        remoteMr = &target.registerMemory(remoteMem.data(), remoteMem.size());
        sink.sim = &sim;
    }

    WorkReq
    makeWr(Op op, std::uint64_t remote_off, std::uint8_t *local,
           std::uint32_t len)
    {
        WorkReq wr;
        wr.op = op;
        wr.rkey = remoteMr->rkey;
        wr.remoteOffset = remote_off;
        wr.localBuf = local;
        wr.length = len;
        wr.localTransKey = Rnic::transKey(localMr->id, 0);
        wr.sink = &sink;
        return wr;
    }
};

} // namespace

TEST(RnicMemory, RegisterAndFind)
{
    Simulator sim;
    RnicConfig cfg;
    Rnic rnic(sim, cfg, "r");
    std::vector<std::uint8_t> mem(1024);
    const MrRecord &mr = rnic.registerMemory(mem.data(), mem.size());
    EXPECT_EQ(rnic.findMr(mr.rkey), &mr);
    EXPECT_EQ(rnic.findMr(mr.rkey + 1), nullptr);
    EXPECT_EQ(mr.length, 1024u);
}

TEST(RnicMemory, DistinctMrIdsPerRegistration)
{
    Simulator sim;
    RnicConfig cfg;
    Rnic rnic(sim, cfg, "r");
    std::vector<std::uint8_t> mem(1024);
    const MrRecord &a = rnic.registerMemory(mem.data(), mem.size());
    const MrRecord &b = rnic.registerMemory(mem.data(), mem.size());
    EXPECT_NE(a.id, b.id);
    EXPECT_NE(a.rkey, b.rkey);
}

TEST(RnicMemory, TransKeySeparates2MbPages)
{
    EXPECT_EQ(Rnic::transKey(1, 0), Rnic::transKey(1, (1 << 21) - 1));
    EXPECT_NE(Rnic::transKey(1, 0), Rnic::transKey(1, 1 << 21));
    EXPECT_NE(Rnic::transKey(1, 0), Rnic::transKey(2, 0));
}

TEST(RnicOps, WriteThenReadRoundTrip)
{
    RnicPair p;
    const char msg[8] = "hi smar";
    std::memcpy(p.localMem.data(), msg, 8);

    WorkReq wr = p.makeWr(Op::Write, 256, p.localMem.data(), 8);
    p.initiator.postBatch(&p.target, {wr});
    p.sim.run();
    ASSERT_EQ(p.sink.wrIds.size(), 1u);
    EXPECT_EQ(std::memcmp(p.remoteMem.data() + 256, msg, 8), 0);

    WorkReq rd = p.makeWr(Op::Read, 256, p.localMem.data() + 64, 8);
    p.initiator.postBatch(&p.target, {rd});
    p.sim.run();
    EXPECT_EQ(std::memcmp(p.localMem.data() + 64, msg, 8), 0);
}

TEST(RnicOps, CasSucceedsOnMatch)
{
    RnicPair p;
    std::uint64_t initial = 42;
    std::memcpy(p.remoteMem.data() + 128, &initial, 8);

    std::uint64_t result = 0;
    WorkReq wr = p.makeWr(Op::Cas, 128,
                          reinterpret_cast<std::uint8_t *>(&result), 8);
    wr.compare = 42;
    wr.swap = 99;
    p.initiator.postBatch(&p.target, {wr});
    p.sim.run();

    EXPECT_EQ(result, 42u); // old value returned
    std::uint64_t now_val = 0;
    std::memcpy(&now_val, p.remoteMem.data() + 128, 8);
    EXPECT_EQ(now_val, 99u); // swapped
}

TEST(RnicOps, CasFailsOnMismatchAndDoesNotWrite)
{
    RnicPair p;
    std::uint64_t initial = 7;
    std::memcpy(p.remoteMem.data() + 128, &initial, 8);

    std::uint64_t result = 0;
    WorkReq wr = p.makeWr(Op::Cas, 128,
                          reinterpret_cast<std::uint8_t *>(&result), 8);
    wr.compare = 42; // wrong expectation
    wr.swap = 99;
    p.initiator.postBatch(&p.target, {wr});
    p.sim.run();

    EXPECT_EQ(result, 7u);
    std::uint64_t now_val = 0;
    std::memcpy(&now_val, p.remoteMem.data() + 128, 8);
    EXPECT_EQ(now_val, 7u); // unchanged
}

TEST(RnicOps, FaaAddsAndReturnsOld)
{
    RnicPair p;
    std::uint64_t initial = 100;
    std::memcpy(p.remoteMem.data() + 8, &initial, 8);

    std::uint64_t result = 0;
    WorkReq wr = p.makeWr(Op::Faa, 8,
                          reinterpret_cast<std::uint8_t *>(&result), 8);
    wr.compare = 5; // addend
    p.initiator.postBatch(&p.target, {wr});
    p.sim.run();

    EXPECT_EQ(result, 100u);
    std::uint64_t now_val = 0;
    std::memcpy(&now_val, p.remoteMem.data() + 8, 8);
    EXPECT_EQ(now_val, 105u);
}

TEST(RnicOps, ConcurrentCasOnlyOneWins)
{
    RnicPair p;
    std::uint64_t initial = 0;
    std::memcpy(p.remoteMem.data(), &initial, 8);

    std::vector<std::uint64_t> results(8, 0);
    std::vector<WorkReq> batch;
    for (int i = 0; i < 8; ++i) {
        WorkReq wr = p.makeWr(
            Op::Cas, 0, reinterpret_cast<std::uint8_t *>(&results[i]), 8);
        wr.compare = 0;
        wr.swap = 1000 + i;
        wr.wrId = i;
        batch.push_back(wr);
    }
    p.initiator.postBatch(&p.target, std::move(batch));
    p.sim.run();

    int winners = 0;
    for (int i = 0; i < 8; ++i) {
        if (results[i] == 0)
            ++winners;
    }
    EXPECT_EQ(winners, 1); // exactly one CAS observed the expected value
}

TEST(RnicOps, ReadSnapshotsAtTargetNotAtCompletion)
{
    // A READ must return bytes as they were at target-DMA time even if a
    // later WRITE lands before the READ's completion is delivered.
    RnicPair p;
    std::uint64_t v1 = 11;
    std::memcpy(p.remoteMem.data(), &v1, 8);

    std::uint64_t read_result = 0;
    WorkReq rd = p.makeWr(Op::Read, 0,
                          reinterpret_cast<std::uint8_t *>(&read_result), 8);
    p.initiator.postBatch(&p.target, {rd});
    p.sim.run();
    EXPECT_EQ(read_result, 11u);
}

TEST(RnicOps, CompletionLatencyIsMicrosecondScale)
{
    RnicPair p;
    WorkReq rd = p.makeWr(Op::Read, 0, p.localMem.data(), 8);
    p.initiator.postBatch(&p.target, {rd});
    p.sim.run();
    // Unloaded round-trip on the modelled platform: ~1-3 us.
    EXPECT_GT(p.sink.lastCompletion, 800u);
    EXPECT_LT(p.sink.lastCompletion, 4000u);
}

TEST(RnicOps, OwrAccountingReturnsToZero)
{
    RnicPair p;
    std::vector<WorkReq> batch;
    for (int i = 0; i < 16; ++i)
        batch.push_back(p.makeWr(Op::Read, 64 * i, p.localMem.data(), 8));
    p.initiator.postBatch(&p.target, std::move(batch));
    EXPECT_EQ(p.initiator.owrNow(), 16u);
    p.sim.run();
    EXPECT_EQ(p.initiator.owrNow(), 0u);
    EXPECT_EQ(p.initiator.perf().wrsCompleted.value(), 16u);
    EXPECT_EQ(p.target.perf().wrsServed.value(), 16u);
}

TEST(RnicOps, DramTrafficAccountedBothSides)
{
    RnicPair p;
    WorkReq rd = p.makeWr(Op::Read, 0, p.localMem.data(), 8);
    p.initiator.postBatch(&p.target, {rd});
    p.sim.run();
    // Initiator pays WQE fetch + CQE + payload landing; target pays the
    // payload DMA read.
    EXPECT_GT(p.initiator.perf().dramBytes.value(), 0u);
    EXPECT_GT(p.target.perf().dramBytes.value(), 0u);
    EXPECT_GT(p.initiator.dramBytesPerWr(), 64.0);
}

TEST(RnicOps, WqeHitProbDropsAboveCapacity)
{
    Simulator sim;
    RnicConfig cfg;
    Rnic rnic(sim, cfg, "r");
    EXPECT_DOUBLE_EQ(rnic.wqeHitProb(), 1.0);
    // wqeHitProb is a pure function of owrNow; exercise it via config.
    EXPECT_GT(cfg.wqeCacheCapacity, 0u);
}

// --------------------------------------------------------------- caches

TEST(LruCache, EvictsLeastRecentlyUsed)
{
    LruCache cache(3);
    EXPECT_FALSE(cache.access(1));
    EXPECT_FALSE(cache.access(2));
    EXPECT_FALSE(cache.access(3));
    EXPECT_TRUE(cache.access(1));  // 1 now MRU; order: 1,3,2
    EXPECT_FALSE(cache.access(4)); // evicts 2
    EXPECT_TRUE(cache.access(1));
    EXPECT_TRUE(cache.access(3));
    EXPECT_FALSE(cache.access(2)); // was evicted
}

namespace {

/** Textbook LRU (list + map): the reference LruCache must match. */
class ReferenceLru
{
  public:
    explicit ReferenceLru(std::uint32_t capacity) : capacity_(capacity) {}

    bool
    access(std::uint64_t key)
    {
        auto it = index_.find(key);
        if (it != index_.end()) {
            order_.splice(order_.begin(), order_, it->second);
            return true;
        }
        if (order_.size() >= capacity_) {
            index_.erase(order_.back());
            order_.pop_back();
        }
        order_.push_front(key);
        index_[key] = order_.begin();
        return false;
    }

  private:
    std::uint32_t capacity_;
    std::list<std::uint64_t> order_;
    std::unordered_map<std::uint64_t, std::list<std::uint64_t>::iterator>
        index_;
};

} // namespace

TEST(LruCache, MatchesReferenceModelOnSeededStream)
{
    // Equal hit/miss answers on every access mean equal resident sets at
    // every step, i.e. the same eviction order. Keys mix small ids with
    // the RNIC's tagged ICM keys and 2 MB-page translation keys.
    for (std::uint32_t capacity : {1u, 3u, 64u, 1024u}) {
        LruCache cache(capacity);
        ReferenceLru ref(capacity);
        sim::Rng rng(capacity);
        std::uint64_t universe = 3ull * capacity + 5;
        for (int i = 0; i < 200000; ++i) {
            std::uint64_t k = rng.uniform(universe);
            switch (rng.uniform(3)) {
            case 0:
                break;
            case 1:
                k |= 1ull << 62; // ICM tag
                break;
            default:
                k = Rnic::transKey(static_cast<std::uint32_t>(k % 7),
                                   (k / 7) << 21);
                break;
            }
            ASSERT_EQ(cache.access(k), ref.access(k))
                << "capacity " << capacity << " access " << i;
        }
    }
}

// ------------------------------------------------------------ the wire

namespace {

/** Link spans @p sp holds on @p nic's device track, in start order. */
std::vector<sim::SpanRecord>
linkSpans(sim::SpanTracer &sp, Rnic &nic)
{
    std::vector<sim::SpanRecord> out;
    for (sim::SpanId id = 1; id <= sp.size(); ++id) {
        const sim::SpanRecord &r = sp.at(id);
        if (r.stage == sim::Stage::Link && r.track == nic.spanTrack(sp))
            out.push_back(r);
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const sim::SpanRecord &a, const sim::SpanRecord &b) {
                         return a.start < b.start;
                     });
    return out;
}

} // namespace

TEST(RnicWire, BackToBackSendsQueueOnTheEgressLink)
{
    RnicPair p;
    // Warm the ICM entries (16 per context) and the translations so the
    // measured batch runs on hits only.
    std::vector<WorkReq> warm;
    for (int i = 0; i < 16; ++i)
        warm.push_back(p.makeWr(Op::Read, 0, p.localMem.data(), 8));
    p.initiator.postBatch(&p.target, std::move(warm));
    p.sim.run();

    sim::SpanTracer sp(p.sim);
    sim::SpanId parent =
        sp.begin(sp.internTrack("app", "t0"), sim::Stage::Verb, 0);
    // 30 B header + 1970 B payload = 2000 B: 80 ns on a 25 B/ns link.
    constexpr std::uint32_t kPayload = 1970;
    constexpr Time kSer = 80;
    std::vector<WorkReq> batch;
    for (std::uint64_t i = 0; i < 4; ++i) {
        WorkReq wr = p.makeWr(Op::Write, 2048 * i, p.localMem.data(),
                              kPayload);
        wr.wrId = 100 + i;
        wr.traceSpan = parent;
        batch.push_back(wr);
    }
    p.sink.wrIds.clear();
    p.initiator.postBatch(&p.target, std::move(batch));
    p.sim.run();

    // The issue pipeline hands the link one request every 5 ns, faster
    // than it drains: request i leaves at serEnd_i = max(t_i,
    // serEnd_{i-1}) + 80 and arrives a propagation delay later.
    std::vector<sim::SpanRecord> req = linkSpans(sp, p.initiator);
    ASSERT_EQ(req.size(), 4u);
    Time free_at = 0;
    for (std::size_t i = 0; i < req.size(); ++i) {
        if (i > 0) {
            EXPECT_EQ(req[i].start, req[i - 1].start + kPipeIssueNs);
        }
        free_at = std::max(free_at, req[i].start) + kSer;
        EXPECT_EQ(req[i].end, free_at + kPropagationNs) << "request " << i;
        EXPECT_EQ(req[i].end,
                  req[0].start + kSer * (i + 1) + kPropagationNs);
    }
    EXPECT_EQ(p.sink.wrIds,
              (std::vector<std::uint64_t>{100, 101, 102, 103}));
}

namespace {

/** Records each completion's time, status and the initiator's WQE
 *  refetch count at that moment. */
struct TimedSink : CompletionSink
{
    Simulator *sim = nullptr;
    Rnic *nic = nullptr;
    struct Seen
    {
        std::uint64_t wrId;
        WcStatus status;
        Time at;
        std::uint64_t refetches;
    };
    std::vector<Seen> seen;

    void
    complete(const WorkReq &wr, std::uint64_t, WcStatus status) override
    {
        seen.push_back({wr.wrId, status, sim->now(),
                        nic->perf().wqeRefetches.value()});
    }
};

} // namespace

TEST(RnicWire, CrashedResponderLegBeatsSameTimeEgressLeg)
{
    // One READ's response leaves the responder's egress at t1 and needs
    // 19750 ns to serialize (30 B + 493720 B at 25 B/ns), so it lands at
    // t1 + 20000. A second WR reaches the responder at t1, after the
    // responder crashed: its retry-expired return leg also lands at
    // t1 + kTransportRetryNs = t1 + 20000, from the same responder. When
    // the egress stage was an event, the response drew its wire sequence
    // number at serialization end, after the crash leg's, so the crash
    // leg is delivered first; it must still be.
    constexpr std::uint32_t kBig = 493720;
    static_assert((kHeaderBytes + kBig) % 25 == 0 &&
                  (kHeaderBytes + kBig) / 25 + kPropagationNs ==
                      kTransportRetryNs);
    RnicConfig cfg;
    cfg.wqeCacheCapacity = 0; // every completion refetches its WQE
    auto bigRead = [](RnicPair &p, CompletionSink *sink) {
        WorkReq wr = p.makeWr(Op::Read, 0, p.localMem.data(), kBig);
        wr.wrId = 1;
        wr.sink = sink;
        return wr;
    };
    auto smallRead = [](RnicPair &p, CompletionSink *sink) {
        WorkReq wr = p.makeWr(Op::Read, 1 << 20, nullptr, 8);
        wr.wrId = 2;
        wr.sink = sink;
        return wr;
    };

    // Probe the two legs' timing on healthy pairs.
    Time t1 = 0;
    {
        RnicPair p(kBig, 2 << 20, cfg);
        sim::SpanTracer sp(p.sim);
        WorkReq wr = bigRead(p, &p.sink);
        wr.traceSpan = sp.begin(sp.internTrack("app", "t0"),
                                sim::Stage::Verb, 0);
        p.initiator.postBatch(&p.target, {wr});
        p.sim.run();
        std::vector<sim::SpanRecord> resp = linkSpans(sp, p.target);
        ASSERT_EQ(resp.size(), 1u);
        t1 = resp[0].start;
        ASSERT_EQ(resp[0].end, t1 + kTransportRetryNs);
    }
    Time small_arrival = 0;
    {
        RnicPair p(kBig, 2 << 20, cfg);
        sim::SpanTracer sp(p.sim);
        WorkReq wr = smallRead(p, &p.sink);
        wr.traceSpan = sp.begin(sp.internTrack("app", "t0"),
                                sim::Stage::Verb, 0);
        p.initiator.postBatch(&p.target, {wr});
        p.sim.run();
        std::vector<sim::SpanRecord> req = linkSpans(sp, p.initiator);
        ASSERT_EQ(req.size(), 1u);
        small_arrival = req[0].end;
    }
    ASSERT_GT(t1, small_arrival + 1000);

    RnicPair p(kBig, 2 << 20, cfg);
    TimedSink sink;
    sink.sim = &p.sim;
    sink.nic = &p.initiator;
    p.initiator.postBatch(&p.target, {bigRead(p, &sink)});
    p.sim.scheduleAt(t1 - small_arrival, [&p, &sink, smallRead] {
        p.initiator.postBatch(&p.target, {smallRead(p, &sink)});
    });
    // Down after the small READ left the initiator, before it arrives.
    p.sim.scheduleAt(t1 - 100, [&p] { p.target.setDown(true); });
    p.sim.run();

    ASSERT_EQ(sink.seen.size(), 2u);
    EXPECT_EQ(sink.seen[0].wrId, 2u);
    EXPECT_EQ(sink.seen[0].status, WcStatus::RetryExceeded);
    EXPECT_EQ(sink.seen[0].at, t1 + kTransportRetryNs);
    // The response's completion half had not started: its WQE refetch
    // (the first thing it does on delivery) is not counted yet.
    EXPECT_EQ(sink.seen[0].refetches, 0u);
    EXPECT_EQ(sink.seen[1].wrId, 1u);
    EXPECT_EQ(sink.seen[1].status, WcStatus::Success);
    EXPECT_EQ(sink.seen[1].refetches, 1u);
}

TEST(RnicFault, CrashWithDurationComesBackAndStillChecksMrs)
{
    // Crash with a duration: the responder is down for kDown, then the
    // scheduled setDown(false) brings it back. WRs posted inside the
    // window give up after the transport retry budget. After it, good WRs
    // succeed, and a stale rkey or an out-of-bounds offset still NAKs:
    // the responder forms no pointer into memory (a prefetch included)
    // before the MR check passes.
    constexpr Time kDown = sim::usec(100);
    RnicPair p;
    TimedSink sink;
    sink.sim = &p.sim;
    sink.nic = &p.initiator;
    const char msg[8] = "crashed";
    std::memcpy(p.remoteMem.data() + 128, msg, 8);
    std::memcpy(p.localMem.data() + 512, msg, 8);

    auto post = [&p, &sink](std::uint64_t id, Op op, std::uint64_t off,
                            std::uint8_t *local) {
        WorkReq wr = p.makeWr(op, off, local, 8);
        wr.wrId = id;
        wr.sink = &sink;
        return wr;
    };
    p.target.applyFault(sim::FaultKind::Crash, kDown);
    ASSERT_TRUE(p.target.down());
    // Inside the window: a READ and a WRITE at once, a READ half-way.
    p.initiator.postBatch(&p.target,
                          {post(1, Op::Read, 128, p.localMem.data()),
                           post(2, Op::Write, 256, p.localMem.data() + 512)});
    p.sim.scheduleAt(kDown / 2, [&] {
        p.initiator.postBatch(&p.target,
                              {post(3, Op::Read, 128, p.localMem.data())});
    });
    // After the window: two good WRs, a stale rkey, a span running off
    // the MR's end, and an offset far past it.
    p.sim.scheduleAt(kDown + sim::usec(1), [&] {
        EXPECT_FALSE(p.target.down());
        WorkReq stale = post(6, Op::Read, 128, p.localMem.data() + 64);
        stale.rkey = p.remoteMr->rkey + (1u << 12); // no such MR id
        p.initiator.postBatch(
            &p.target,
            {post(4, Op::Read, 128, p.localMem.data() + 64),
             post(5, Op::Write, 256, p.localMem.data() + 512), stale,
             post(7, Op::Read, p.remoteMem.size() - 4,
                  p.localMem.data() + 64),
             post(8, Op::Write, std::uint64_t{1} << 40,
                  p.localMem.data() + 512)});
    });
    p.sim.run();

    std::map<std::uint64_t, WcStatus> status;
    for (const TimedSink::Seen &s : sink.seen) {
        EXPECT_TRUE(status.emplace(s.wrId, s.status).second);
        if (s.wrId <= 3) {
            EXPECT_GE(s.at, kTransportRetryNs);
        }
    }
    ASSERT_EQ(status.size(), 8u);
    for (std::uint64_t id : {1, 2, 3})
        EXPECT_EQ(status[id], WcStatus::RetryExceeded) << "wr " << id;
    for (std::uint64_t id : {4, 5})
        EXPECT_EQ(status[id], WcStatus::Success) << "wr " << id;
    for (std::uint64_t id : {6, 7, 8})
        EXPECT_EQ(status[id], WcStatus::RemoteAccessError) << "wr " << id;
    EXPECT_EQ(std::memcmp(p.localMem.data() + 64, msg, 8), 0);
    EXPECT_EQ(std::memcmp(p.remoteMem.data() + 256, msg, 8), 0);
    EXPECT_EQ(p.initiator.owrNow(), 0u);
}

// ------------------------------------------------------- platform limits

namespace {

/** Floods the RNIC pair with reads and measures completed WRs. */
double
floodMops(std::uint32_t outstanding, std::uint32_t block)
{
    RnicPair p;
    // Keep `outstanding` reads in flight by reposting from the sink.
    // Repost in batches of 8 (doorbell batching, as real initiators do —
    // singleton posts pay a whole WQE-fetch chunk per WR).
    struct Reposter : CompletionSink
    {
        RnicPair *pair;
        std::uint32_t block;
        std::uint64_t completed = 0;
        std::vector<WorkReq> pendingRepost;

        void
        complete(const WorkReq &wr, std::uint64_t, WcStatus) override
        {
            ++completed;
            WorkReq next = wr;
            next.sink = this;
            pendingRepost.push_back(next);
            if (pendingRepost.size() >= 8) {
                pair->initiator.postBatch(&pair->target,
                                          std::move(pendingRepost));
                pendingRepost.clear();
            }
        }
    } reposter;
    reposter.pair = &p;
    reposter.block = block;

    std::vector<WorkReq> batch;
    for (std::uint32_t i = 0; i < outstanding; ++i) {
        WorkReq wr = p.makeWr(Op::Read, 0, nullptr, block);
        wr.sink = &reposter;
        batch.push_back(wr);
    }
    p.initiator.postBatch(&p.target, std::move(batch));
    p.sim.runUntil(sim::msec(2));
    return static_cast<double>(reposter.completed) / 2000.0;
}

} // namespace

TEST(RnicLimits, SmallReadIopsCapsNear110Mops)
{
    double mops = floodMops(256, 8);
    EXPECT_GT(mops, 95.0);
    EXPECT_LT(mops, 120.0);
}

TEST(RnicLimits, LargeReadsAreBandwidthBound)
{
    double mops = floodMops(256, 1024);
    // PCIe 3.0 x16 (~16 GB/s) at the target: ~15 MOP/s of 1 KB reads.
    EXPECT_LT(mops, 17.0);
    EXPECT_GT(mops, 8.0);
}

TEST(RnicLimits, AtomicsCapBelowReads)
{
    RnicPair p;
    struct Reposter : CompletionSink
    {
        RnicPair *pair;
        std::uint64_t completed = 0;
        void
        complete(const WorkReq &wr, std::uint64_t, WcStatus) override
        {
            ++completed;
            WorkReq next = wr;
            next.sink = this;
            pair->initiator.postBatch(&pair->target, {next});
        }
    } reposter;
    reposter.pair = &p;
    std::vector<WorkReq> batch;
    for (int i = 0; i < 256; ++i) {
        WorkReq wr = p.makeWr(Op::Faa, 0, nullptr, 8);
        wr.compare = 1;
        wr.sink = &reposter;
        batch.push_back(wr);
    }
    p.initiator.postBatch(&p.target, std::move(batch));
    p.sim.runUntil(sim::msec(2));
    double mops = static_cast<double>(reposter.completed) / 2000.0;
    EXPECT_LT(mops, 70.0); // atomic units are the bottleneck
    EXPECT_GT(mops, 30.0);
}
