/**
 * @file
 * Statistics primitives: counters and log-bucketed latency histograms with
 * percentile queries (HdrHistogram-style, fixed memory).
 */

#ifndef SMART_SIM_STATS_HPP
#define SMART_SIM_STATS_HPP

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>

namespace smart::sim {

/** A monotonically growing event counter. */
class Counter
{
  public:
    void add(std::uint64_t v = 1) { value_ += v; }
    std::uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

  private:
    std::uint64_t value_ = 0;
};

/**
 * Log-linear histogram for nanosecond latencies.
 *
 * 64 buckets per octave over values up to 2^40 ns (~18 minutes), giving a
 * relative error below ~1.6% — ample for percentile plots.
 */
class LatencyHistogram
{
  public:
    static constexpr int kSubBits = 6; // 64 sub-buckets per octave
    static constexpr int kOctaves = 40;
    static constexpr int kBuckets = (kOctaves << kSubBits);

    LatencyHistogram() { counts_.fill(0); }

    /** Record one sample (nanoseconds). */
    void
    record(std::uint64_t ns)
    {
        ++total_;
        sum_ += ns;
        max_ = std::max(max_, ns);
        min_ = std::min(min_, ns);
        counts_[bucketOf(ns)]++;
    }

    /** @return number of recorded samples. */
    std::uint64_t count() const { return total_; }

    /** @return arithmetic mean (0 if empty). */
    double
    mean() const
    {
        return total_ ? static_cast<double>(sum_) / total_ : 0.0;
    }

    /** @return largest recorded sample. */
    std::uint64_t max() const { return total_ ? max_ : 0; }

    /** @return smallest recorded sample. */
    std::uint64_t min() const { return total_ ? min_ : 0; }

    /**
     * @param p percentile in [0, 100]
     * @return approximate value at percentile @p p (0 if empty). The
     *         result is clamped to [min(), max()]: a bucket midpoint can
     *         exceed the largest recorded sample (top bucket) or undercut
     *         the smallest (low percentiles), and reports must never
     *         quote a p999 above the observed maximum.
     */
    std::uint64_t
    percentile(double p) const
    {
        if (total_ == 0)
            return 0;
        std::uint64_t rank = static_cast<std::uint64_t>(
            p / 100.0 * static_cast<double>(total_ - 1)) + 1;
        std::uint64_t seen = 0;
        for (int b = 0; b < kBuckets; ++b) {
            seen += counts_[b];
            if (seen >= rank)
                return std::clamp(bucketMid(b), min_, max_);
        }
        return max_;
    }

    // Named percentiles every report quotes; one spelling repo-wide
    // instead of each bench re-deriving its own percentile() calls.
    std::uint64_t p50() const { return percentile(50); }
    std::uint64_t p99() const { return percentile(99); }
    std::uint64_t p999() const { return percentile(99.9); }

    /** Forget all samples. */
    void
    reset()
    {
        counts_.fill(0);
        total_ = 0;
        sum_ = 0;
        max_ = 0;
        min_ = ~std::uint64_t{0};
    }

    /** Merge another histogram into this one. */
    void
    merge(const LatencyHistogram &o)
    {
        for (int b = 0; b < kBuckets; ++b)
            counts_[b] += o.counts_[b];
        total_ += o.total_;
        sum_ += o.sum_;
        max_ = std::max(max_, o.max_);
        min_ = std::min(min_, o.min_);
    }

    /** @return sum of all recorded samples (windowed-delta support). */
    std::uint64_t sum() const { return sum_; }

    /** Raw bucket counts (windowed-delta support; see HistogramWindow). */
    const std::array<std::uint64_t, (kOctaves << kSubBits)> &
    buckets() const
    {
        return counts_;
    }

    /** Bucket index of value @p ns (public for serialization and tests). */
    static int
    bucketOf(std::uint64_t ns)
    {
        if (ns < (1ull << kSubBits))
            return static_cast<int>(ns); // exact in the first octave
        int msb = 63 - __builtin_clzll(ns);
        int shift = msb - kSubBits; // 0 for the second octave
        // The last representable octave has shift == kOctaves - 2 (its
        // top bucket is index kBuckets - 1). Values beyond it saturate
        // into that top bucket; extracting sub-bucket bits with a
        // clamped shift would fold them onto arbitrary lower buckets.
        if (shift > kOctaves - 2)
            return kBuckets - 1;
        std::uint64_t sub = (ns >> shift) & ((1ull << kSubBits) - 1);
        return (1 << kSubBits) + (shift << kSubBits) + static_cast<int>(sub);
    }

    /** Lower edge of bucket @p b. */
    static std::uint64_t
    bucketLo(int b)
    {
        if (b < (1 << kSubBits))
            return static_cast<std::uint64_t>(b);
        int idx = b - (1 << kSubBits);
        int shift = idx >> kSubBits;
        std::uint64_t sub = idx & ((1 << kSubBits) - 1);
        return ((1ull << kSubBits) + sub) << shift;
    }

    /** Representative midpoint of bucket @p b. */
    static std::uint64_t
    bucketMid(int b)
    {
        if (b < (1 << kSubBits))
            return static_cast<std::uint64_t>(b);
        int idx = b - (1 << kSubBits);
        int shift = idx >> kSubBits;
        std::uint64_t sub = idx & ((1 << kSubBits) - 1);
        std::uint64_t lo = ((1ull << kSubBits) + sub) << shift;
        std::uint64_t width = 1ull << shift;
        return lo + width / 2;
    }

  private:
    std::array<std::uint64_t, kBuckets> counts_{};
    std::uint64_t total_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t max_ = 0;
    std::uint64_t min_ = ~std::uint64_t{0};
};

/** Fixed-size summary of one *window* of histogram samples. min/max are
 *  bucket-edge approximations (the histogram only tracks lifetime
 *  extremes); percentiles are exact nearest-rank over the window's own
 *  delta buckets. */
struct WindowSummary
{
    std::uint64_t count = 0;
    double mean = 0;
    std::uint64_t min = 0;
    std::uint64_t max = 0;
    std::uint64_t p50 = 0;
    std::uint64_t p99 = 0;
    std::uint64_t p999 = 0;

    bool operator==(const WindowSummary &) const = default;
};

/**
 * Windowed view over a cumulative LatencyHistogram: remembers the bucket
 * array at the previous window boundary and summarizes only the samples
 * recorded since. This is the correct per-window percentile — computing
 * p99 from the cumulative histogram reports the lifetime distribution,
 * which hides latency regime shifts mid-run entirely.
 */
class HistogramWindow
{
  public:
    /**
     * Summarize @p cur's growth since the previous advance() (since
     * construction on the first call), then rebase onto @p cur. A
     * histogram reset mid-window (count or sum went backwards) is
     * detected and the previous state treated as empty, so the summary
     * reports the post-reset samples instead of wrapping.
     */
    WindowSummary
    advance(const LatencyHistogram &cur)
    {
        const auto &buckets = cur.buckets();
        if (cur.count() < prevCount_ || cur.sum() < prevSum_) {
            prev_.fill(0);
            prevCount_ = 0;
            prevSum_ = 0;
        }
        WindowSummary s;
        s.count = cur.count() - prevCount_;
        std::uint64_t dsum = cur.sum() - prevSum_;
        s.mean = s.count ? static_cast<double>(dsum) /
                               static_cast<double>(s.count)
                         : 0.0;
        if (s.count > 0) {
            int first = -1;
            int last = -1;
            for (int b = 0; b < LatencyHistogram::kBuckets; ++b) {
                if (buckets[b] > prev_[b]) {
                    if (first < 0)
                        first = b;
                    last = b;
                }
            }
            std::uint64_t lo = LatencyHistogram::bucketLo(first);
            std::uint64_t hi = LatencyHistogram::bucketMid(last);
            s.min = lo;
            s.max = hi;
            s.p50 = deltaPercentile(buckets, 50.0, s.count, lo, hi);
            s.p99 = deltaPercentile(buckets, 99.0, s.count, lo, hi);
            s.p999 = deltaPercentile(buckets, 99.9, s.count, lo, hi);
        }
        prev_ = buckets;
        prevCount_ = cur.count();
        prevSum_ = cur.sum();
        return s;
    }

  private:
    /** Nearest-rank percentile over (buckets - prev_), clamped to the
     *  window's own bucket-edge extremes like
     *  LatencyHistogram::percentile clamps to lifetime min/max. */
    std::uint64_t
    deltaPercentile(
        const std::array<std::uint64_t, LatencyHistogram::kBuckets> &cur,
        double p, std::uint64_t total, std::uint64_t lo,
        std::uint64_t hi) const
    {
        std::uint64_t rank = static_cast<std::uint64_t>(
            p / 100.0 * static_cast<double>(total - 1)) + 1;
        std::uint64_t seen = 0;
        for (int b = 0; b < LatencyHistogram::kBuckets; ++b) {
            seen += cur[b] - prev_[b];
            if (seen >= rank)
                return std::clamp(LatencyHistogram::bucketMid(b), lo, hi);
        }
        return hi;
    }

    std::array<std::uint64_t, LatencyHistogram::kBuckets> prev_{};
    std::uint64_t prevCount_ = 0;
    std::uint64_t prevSum_ = 0;
};

} // namespace smart::sim

#endif // SMART_SIM_STATS_HPP
