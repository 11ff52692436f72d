/**
 * @file
 * MetricsRegistry / MetricsSnapshot implementation.
 */

#include "sim/metrics.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>

namespace smart::sim {

const std::string &
MetricId::label(const std::string &key) const
{
    static const std::string kEmpty;
    for (const auto &[k, v] : labels) {
        if (k == key)
            return v;
    }
    return kEmpty;
}

const char *
metricKindName(MetricKind k)
{
    switch (k) {
      case MetricKind::Counter: return "counter";
      case MetricKind::Gauge: return "gauge";
      case MetricKind::Histogram: return "histogram";
    }
    return "?";
}

HistogramSummary
HistogramSummary::of(const LatencyHistogram &h)
{
    HistogramSummary s;
    s.count = h.count();
    s.mean = h.mean();
    s.min = h.min();
    s.max = h.max();
    s.p50 = h.p50();
    s.p90 = h.percentile(90);
    s.p99 = h.p99();
    s.p999 = h.p999();
    return s;
}

// ------------------------------------------------------------- snapshot

const SnapshotEntry *
MetricsSnapshot::find(const std::string &name, const Labels &labels) const
{
    for (const SnapshotEntry &e : entries) {
        if (e.id.name == name && e.id.labels == labels)
            return &e;
    }
    return nullptr;
}

const SnapshotEntry *
MetricsSnapshot::find(const std::string &name) const
{
    for (const SnapshotEntry &e : entries) {
        if (e.id.name == name)
            return &e;
    }
    return nullptr;
}

std::uint64_t
MetricsSnapshot::sumCounters(const std::string &name) const
{
    std::uint64_t sum = 0;
    for (const SnapshotEntry &e : entries) {
        if (e.kind == MetricKind::Counter && e.id.name == name)
            sum += e.counter;
    }
    return sum;
}

Json
MetricsSnapshot::toJson() const
{
    Json arr = Json::array();
    for (const SnapshotEntry &e : entries) {
        Json labels = Json::object();
        for (const auto &[k, v] : e.id.labels)
            labels.set(k, v);
        Json m = Json::object();
        m.set("name", e.id.name);
        m.set("labels", std::move(labels));
        m.set("kind", metricKindName(e.kind));
        switch (e.kind) {
          case MetricKind::Counter:
            m.set("value", e.counter);
            break;
          case MetricKind::Gauge:
            m.set("value", e.gauge);
            break;
          case MetricKind::Histogram: {
            Json h = Json::object();
            h.set("count", e.hist.count);
            h.set("mean", e.hist.mean);
            h.set("min", e.hist.min);
            h.set("max", e.hist.max);
            h.set("p50", e.hist.p50);
            h.set("p90", e.hist.p90);
            h.set("p99", e.hist.p99);
            h.set("p999", e.hist.p999);
            m.set("value", std::move(h));
            break;
          }
        }
        arr.push(std::move(m));
    }
    return arr;
}

// ------------------------------------------------------------- registry

void
MetricsRegistry::add(Entry e)
{
    std::sort(e.id.labels.begin(), e.id.labels.end());
    // Duplicate ids would make snapshots ambiguous; registrations come
    // from constructors, so any collision is a wiring bug.
    assert(std::none_of(entries_.begin(), entries_.end(),
                        [&](const Entry &o) { return o.id == e.id; }));
    // Construction always happens on the setup thread (between phases of
    // a sharded run), so the stamp order is the single-threaded
    // construction order regardless of how blades map to shards.
    static std::atomic<std::uint64_t> next{1};
    e.stamp = next.fetch_add(1, std::memory_order_relaxed);
    // Counters may carry history from before registration (a component
    // re-registering after a reset window, or registered mid-run): the
    // baseline anchors windowed deltas at the registration point.
    if (e.kind == MetricKind::Counter)
        e.baseline = e.counter->value();
    entries_.push_back(std::move(e));
}

void
MetricsRegistry::registerCounter(const void *owner, std::string name,
                                 Labels labels, const Counter *c)
{
    Entry e;
    e.owner = owner;
    e.id = {std::move(name), std::move(labels)};
    e.kind = MetricKind::Counter;
    e.counter = c;
    add(std::move(e));
}

void
MetricsRegistry::registerGauge(const void *owner, std::string name,
                               Labels labels, std::function<double()> read)
{
    Entry e;
    e.owner = owner;
    e.id = {std::move(name), std::move(labels)};
    e.kind = MetricKind::Gauge;
    e.gauge = std::move(read);
    add(std::move(e));
}

void
MetricsRegistry::registerHistogram(const void *owner, std::string name,
                                   Labels labels, const LatencyHistogram *h)
{
    Entry e;
    e.owner = owner;
    e.id = {std::move(name), std::move(labels)};
    e.kind = MetricKind::Histogram;
    e.hist = h;
    add(std::move(e));
}

void
MetricsRegistry::unregisterOwner(const void *owner)
{
    entries_.erase(std::remove_if(entries_.begin(), entries_.end(),
                                  [owner](const Entry &e) {
                                      return e.owner == owner;
                                  }),
                   entries_.end());
}

SnapshotEntry
MetricsRegistry::sample(const Entry &e)
{
    SnapshotEntry s;
    s.id = e.id;
    s.kind = e.kind;
    switch (e.kind) {
      case MetricKind::Counter:
        s.counter = e.counter->value();
        break;
      case MetricKind::Gauge:
        s.gauge = e.gauge();
        break;
      case MetricKind::Histogram:
        s.hist = HistogramSummary::of(*e.hist);
        break;
    }
    return s;
}

MetricsSnapshot
MetricsRegistry::snapshot(Time now) const
{
    MetricsSnapshot snap;
    snap.at = now;
    snap.entries.reserve(entries_.size());
    for (const Entry &e : entries_)
        snap.entries.push_back(sample(e));
    return snap;
}

MetricsSnapshot
MetricsRegistry::mergedSnapshot(Time now,
                                const std::vector<const MetricsRegistry *> &regs)
{
    std::vector<std::pair<std::uint64_t, SnapshotEntry>> keyed;
    std::size_t total = 0;
    for (const MetricsRegistry *r : regs)
        total += r->entries_.size();
    keyed.reserve(total);
    for (const MetricsRegistry *r : regs)
        for (const Entry &e : r->entries_)
            keyed.emplace_back(e.stamp, sample(e));
    std::sort(keyed.begin(), keyed.end(),
              [](const auto &a, const auto &b) { return a.first < b.first; });
    MetricsSnapshot snap;
    snap.at = now;
    snap.entries.reserve(keyed.size());
    for (auto &[stamp, s] : keyed)
        snap.entries.push_back(std::move(s));
    return snap;
}

void
MetricsRegistry::forEachRaw(
    const std::function<void(const RawMetric &)> &fn) const
{
    for (const Entry &e : entries_) {
        RawMetric r;
        r.id = &e.id;
        r.kind = e.kind;
        r.stamp = e.stamp;
        r.baseline = e.baseline;
        r.counter = e.counter;
        r.gauge = e.kind == MetricKind::Gauge ? &e.gauge : nullptr;
        r.hist = e.hist;
        fn(r);
    }
}

} // namespace smart::sim
