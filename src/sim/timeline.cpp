/**
 * @file
 * Timeline implementation: windowed sampling, annotation merge, exports.
 */

#include "sim/timeline.hpp"

#include <algorithm>
#include <cassert>
#include <tuple>

#include "sim/simulator.hpp"

namespace smart::sim {

namespace {

/** @return whether @p id gets a series: per-thread metrics only for
 *  thread 0 (see sampleAt()). */
bool
sampled(const MetricId &id)
{
    const std::string &thread = id.label("thread");
    return thread.empty() || thread == "0";
}

std::string
labelsText(const Labels &labels)
{
    std::string out;
    for (const auto &[k, v] : labels) {
        if (!out.empty())
            out += ';';
        out += k;
        out += '=';
        out += v;
    }
    return out;
}

} // namespace

Timeline::Timeline(Time window_ns, std::uint32_t num_shards)
    : window_(window_ns)
{
    assert(window_ > 0 && "timeline window must be positive");
    annotations_.resize(num_shards == 0 ? 1 : num_shards);
}

Timeline::~Timeline()
{
    for (Simulator *s : sims_) {
        if (s->timeline() == this)
            s->installTimeline(nullptr);
    }
}

void
Timeline::attach(Simulator &sim)
{
    sim.installTimeline(this);
    sims_.push_back(&sim);
    registries_.push_back(&sim.metrics());
    if (annotations_.size() <= sim.shardIndex())
        annotations_.resize(sim.shardIndex() + 1);
}

void
Timeline::annotate(const Simulator &sim, std::string kind,
                   std::string target, std::string detail)
{
    assert(sim.shardIndex() < annotations_.size());
    annotations_[sim.shardIndex()].push_back(Annotation{
        sim.now(), std::move(kind), std::move(target), std::move(detail)});
}

void
Timeline::annotateAt(Time at, std::string kind, std::string target,
                     std::string detail)
{
    annotations_[0].push_back(
        Annotation{at, std::move(kind), std::move(target),
                   std::move(detail)});
}

void
Timeline::sampleAt(Time now)
{
    if (now <= lastSample_ && !t_.empty())
        return; // idempotent at a boundary already taken
    for (const WindowHook &hook : hooks_)
        hook(now);
    const std::size_t window_idx = t_.size();
    t_.push_back(now);
    lastSample_ = now;

    // Gather every registration from every shard, then walk them in
    // registration-stamp order: the same cluster built at any shard
    // count visits metrics in the same sequence, so series creation
    // order — and every exported byte — is shard-count independent.
    std::vector<MetricsRegistry::RawMetric> raw;
    for (const MetricsRegistry *reg : registries_) {
        reg->forEachRaw([&raw](const MetricsRegistry::RawMetric &m) {
            raw.push_back(m);
        });
    }
    std::sort(raw.begin(), raw.end(),
              [](const auto &a, const auto &b) { return a.stamp < b.stamp; });

    for (const MetricsRegistry::RawMetric &m : raw) {
        if (!sampled(*m.id))
            continue;
        auto [it, created] = series_.try_emplace(m.stamp);
        Series &s = it->second;
        if (created) {
            s.id = *m.id;
            s.kind = m.kind;
            s.start = window_idx;
            if (m.kind == MetricKind::Counter)
                s.prevCounter = m.baseline;
            else if (m.kind == MetricKind::Histogram)
                s.win = std::make_unique<HistogramWindow>();
        }
        switch (m.kind) {
          case MetricKind::Counter: {
            std::uint64_t cur = m.counter->value();
            // A reset mid-window (value went backwards) restarts the
            // delta from zero instead of wrapping.
            s.counterPoints.push_back(
                cur < s.prevCounter ? cur : cur - s.prevCounter);
            s.prevCounter = cur;
            break;
          }
          case MetricKind::Gauge:
            s.gaugePoints.push_back((*m.gauge)());
            break;
          case MetricKind::Histogram:
            s.histPoints.push_back(s.win->advance(*m.hist));
            break;
        }
    }
}

std::vector<Annotation>
Timeline::sortedAnnotations() const
{
    std::vector<Annotation> all;
    std::size_t total = 0;
    for (const auto &buf : annotations_)
        total += buf.size();
    all.reserve(total);
    for (const auto &buf : annotations_)
        all.insert(all.end(), buf.begin(), buf.end());
    // Full-tuple sort: events that collide on every field are
    // interchangeable, so the merged order is identical no matter which
    // shard buffer each event landed in.
    std::sort(all.begin(), all.end(),
              [](const Annotation &a, const Annotation &b) {
                  return std::tie(a.at, a.kind, a.target, a.detail) <
                         std::tie(b.at, b.kind, b.target, b.detail);
              });
    return all;
}

Json
Timeline::toJson() const
{
    Json out = Json::object();
    out.set("window_ns", static_cast<std::uint64_t>(window_));
    Json times = Json::array();
    for (Time t : t_)
        times.push(static_cast<std::uint64_t>(t));
    out.set("t_ns", std::move(times));

    Json series = Json::array();
    for (const auto &[stamp, s] : series_) {
        Json labels = Json::object();
        for (const auto &[k, v] : s.id.labels)
            labels.set(k, v);
        Json js = Json::object();
        js.set("name", s.id.name);
        js.set("labels", std::move(labels));
        js.set("kind", metricKindName(s.kind));
        js.set("start", static_cast<std::uint64_t>(s.start));
        // Scalar points are built in place: moving a scalar Json
        // temporary in here draws a false -Wmaybe-uninitialized from
        // GCC 12 at -O2.
        Json points = Json::array();
        switch (s.kind) {
          case MetricKind::Counter:
            for (std::uint64_t v : s.counterPoints)
                points.asArray().emplace_back(v);
            break;
          case MetricKind::Gauge:
            for (double v : s.gaugePoints)
                points.asArray().emplace_back(v);
            break;
          case MetricKind::Histogram:
            for (const WindowSummary &w : s.histPoints) {
                Json h = Json::object();
                h.set("count", w.count);
                h.set("mean", w.mean);
                h.set("min", w.min);
                h.set("max", w.max);
                h.set("p50", w.p50);
                h.set("p99", w.p99);
                h.set("p999", w.p999);
                points.push(std::move(h));
            }
            break;
        }
        js.set("points", std::move(points));
        series.push(std::move(js));
    }
    out.set("series", std::move(series));

    Json anns = Json::array();
    for (const Annotation &a : sortedAnnotations()) {
        Json ja = Json::object();
        ja.set("t_ns", static_cast<std::uint64_t>(a.at));
        ja.set("kind", a.kind);
        ja.set("target", a.target);
        ja.set("detail", a.detail);
        anns.push(std::move(ja));
    }
    out.set("annotations", std::move(anns));
    return out;
}

void
Timeline::appendChromeEvents(Json &events) const
{
    assert(events.isArray());
    for (const auto &[stamp, s] : series_) {
        // Counter tracks are worthwhile for the application-facing
        // series; the full per-component set would drown the span view.
        if (s.id.name.rfind("smart.tenant.", 0) != 0 &&
            s.id.name.rfind("smart.slo.", 0) != 0 &&
            s.id.name.rfind("app.", 0) != 0)
            continue;
        std::string track = s.id.name;
        const std::string labels = labelsText(s.id.labels);
        if (!labels.empty())
            track += "[" + labels + "]";
        const std::size_t n = s.kind == MetricKind::Counter
                                  ? s.counterPoints.size()
                                  : s.kind == MetricKind::Gauge
                                        ? s.gaugePoints.size()
                                        : s.histPoints.size();
        for (std::size_t i = 0; i < n; ++i) {
            double v = 0;
            switch (s.kind) {
              case MetricKind::Counter:
                v = static_cast<double>(s.counterPoints[i]);
                break;
              case MetricKind::Gauge:
                v = s.gaugePoints[i];
                break;
              case MetricKind::Histogram:
                v = static_cast<double>(s.histPoints[i].p99);
                break;
            }
            Json e = Json::object();
            e.set("name", track);
            e.set("ph", "C");
            e.set("ts", static_cast<double>(t_[s.start + i]) / 1000.0);
            e.set("pid", 0);
            e.set("tid", 0);
            Json args = Json::object();
            args.set("value", v);
            e.set("args", std::move(args));
            events.push(std::move(e));
        }
    }
    for (const Annotation &a : sortedAnnotations()) {
        Json e = Json::object();
        e.set("name", a.kind + ": " + a.target);
        e.set("ph", "i");
        e.set("ts", static_cast<double>(a.at) / 1000.0);
        e.set("pid", 0);
        e.set("tid", 0);
        e.set("s", "g");
        Json args = Json::object();
        args.set("detail", a.detail);
        e.set("args", std::move(args));
        events.push(std::move(e));
    }
}

} // namespace smart::sim
