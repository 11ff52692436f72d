/**
 * @file
 * TATP (telecom application transaction processing) over the FORD-style
 * transaction layer: 80% read-only, matching the paper's setup (§6.2.2).
 * Three tables: subscriber, access_info (4 rows per subscriber),
 * call_forwarding (3 rows per subscriber).
 */

#ifndef SMART_APPS_FORD_TATP_HPP
#define SMART_APPS_FORD_TATP_HPP

#include <cstdint>
#include <cstring>

#include "apps/ford/dtx.hpp"
#include "sim/random.hpp"

namespace smart::ford {

/** The TATP schema + transaction profiles. */
class Tatp
{
  public:
    Tatp(DtxSystem &sys, std::uint64_t num_subscribers)
        : sys_(sys), numSubs_(num_subscribers),
          subscriber_(sys.createTable(roundPow2(num_subscribers * 2))),
          accessInfo_(sys.createTable(roundPow2(num_subscribers * 8))),
          callFwd_(sys.createTable(roundPow2(num_subscribers * 8)))
    {
        std::uint64_t blob[5] = {};
        for (std::uint64_t s = 0; s < num_subscribers; ++s) {
            blob[0] = s * 13 + 7; // vlr_location etc.
            subscriber_.loadRecord(s, blob, 40);
            for (std::uint64_t i = 0; i < 4; ++i)
                accessInfo_.loadRecord(s * 4 + i, blob, 40);
            for (std::uint64_t i = 0; i < 3; ++i)
                callFwd_.loadRecord(s * 3 + i, blob, 40);
        }
    }

    /** GET_SUBSCRIBER_DATA: read one subscriber row (35%). */
    sim::Task
    txGetSubscriberData(SmartCtx &ctx, std::uint64_t s, DtxResult &res)
    {
        Dtx tx(sys_, ctx);
        tx.addRead(subscriber_, s);
        co_await tx.fetch(res);
        res.committed = true; // single-record read: atomic snapshot
    }

    /** GET_ACCESS_DATA: read one access_info row (35%). */
    sim::Task
    txGetAccessData(SmartCtx &ctx, std::uint64_t s, std::uint64_t ai,
                    DtxResult &res)
    {
        Dtx tx(sys_, ctx);
        tx.addRead(accessInfo_, s * 4 + (ai & 3));
        co_await tx.fetch(res);
        res.committed = true;
    }

    /** GET_NEW_DESTINATION: subscriber + call_forwarding rows (10%). */
    sim::Task
    txGetNewDestination(SmartCtx &ctx, std::uint64_t s, std::uint64_t f,
                        DtxResult &res)
    {
        for (int attempt = 0; attempt < 4096; ++attempt) {
            Dtx tx(sys_, ctx);
            tx.addRead(subscriber_, s);
            tx.addRead(callFwd_, s * 3 + (f % 3));
            co_await tx.fetch(res);
            bool consistent = false;
            co_await tx.validateReadOnly(res, consistent);
            if (consistent) {
                res.committed = true;
                co_return;
            }
            ++res.aborts;
        }
    }

    /** UPDATE_LOCATION: RW subscriber (14%). */
    sim::Task
    txUpdateLocation(SmartCtx &ctx, std::uint64_t s,
                     std::uint64_t location, DtxResult &res)
    {
        for (int attempt = 0; attempt < 4096; ++attempt) {
            Dtx tx(sys_, ctx);
            tx.addWrite(subscriber_, s);
            co_await tx.fetch(res);
            std::memcpy(tx.writeImage(0).payload, &location, 8);
            co_await tx.commit(res);
            if (res.committed)
                co_return;
        }
    }

    /** UPDATE_SUBSCRIBER_DATA: RW subscriber + access_info (6%). */
    sim::Task
    txUpdateSubscriberData(SmartCtx &ctx, std::uint64_t s,
                           std::uint64_t bits, DtxResult &res)
    {
        for (int attempt = 0; attempt < 4096; ++attempt) {
            Dtx tx(sys_, ctx);
            tx.addWrite(subscriber_, s);
            tx.addWrite(accessInfo_, s * 4 + (bits & 3));
            co_await tx.fetch(res);
            std::memcpy(tx.writeImage(0).payload + 8, &bits, 8);
            std::memcpy(tx.writeImage(1).payload + 8, &bits, 8);
            co_await tx.commit(res);
            if (res.committed)
                co_return;
        }
    }

    /** Run one transaction from the (simplified) TATP mix: 80% reads. */
    sim::Task
    runOne(SmartCtx &ctx, sim::Rng &rng, DtxResult &res)
    {
        std::uint64_t s = rng.uniform(numSubs_);
        std::uint64_t aux = rng.next64();
        double p = rng.uniformDouble();
        if (p < 0.35)
            co_await txGetSubscriberData(ctx, s, res);
        else if (p < 0.70)
            co_await txGetAccessData(ctx, s, aux, res);
        else if (p < 0.80)
            co_await txGetNewDestination(ctx, s, aux, res);
        else if (p < 0.94)
            co_await txUpdateLocation(ctx, s, aux, res);
        else
            co_await txUpdateSubscriberData(ctx, s, aux, res);
    }

    /** Host-side check: subscriber replicas agree. */
    bool
    replicasConsistent(std::uint64_t s)
    {
        return std::memcmp(subscriber_.hostRecord(s)->payload,
                           subscriber_.hostBackupRecord(s)->payload,
                           40) == 0;
    }

    DtxTable &subscriber() { return subscriber_; }

  private:
    static std::uint64_t
    roundPow2(std::uint64_t v)
    {
        std::uint64_t p = 1;
        while (p < v)
            p <<= 1;
        return p;
    }

    DtxSystem &sys_;
    std::uint64_t numSubs_;
    DtxTable &subscriber_;
    DtxTable &accessInfo_;
    DtxTable &callFwd_;
};

} // namespace smart::ford

#endif // SMART_APPS_FORD_TATP_HPP
