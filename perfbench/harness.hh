/**
 * @file
 * Measurement helpers of the end-to-end benchmark (perfbench.cc):
 * order statistics, a nanosecond latency histogram, an in-memory span
 * recorder with self-time and residual accounting, and result JSON
 * output. Header-only so selftest.cc
 * checks exactly the code the benchmark runs.
 */

#ifndef FAIRCO2_PERFBENCH_HARNESS_HH
#define FAIRCO2_PERFBENCH_HARNESS_HH

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace perfbench
{

/** Samples a timing percentile needs strictly beyond it. */
constexpr std::size_t kTailSamples = 10;

inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Nearest-rank percentile (p in (0, 1]) of @p values. */
inline double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        throw std::invalid_argument("percentile of no samples");
    if (!(p > 0.0 && p <= 1.0))
        throw std::invalid_argument("percentile outside (0, 1]");
    std::sort(values.begin(), values.end());
    const auto n = static_cast<double>(values.size());
    auto rank = static_cast<std::size_t>(std::ceil(p * n));
    rank = std::clamp<std::size_t>(rank, 1, values.size());
    return values[rank - 1];
}

/** Samples strictly above the nearest-rank @p p percentile of @p n. */
inline std::size_t
samplesBeyond(std::size_t n, double p)
{
    const auto rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(n)));
    return n > rank ? n - rank : 0;
}

/** True when @p n samples leave at least kTailSamples beyond @p p:
 *  only then may the benchmark report that percentile. */
inline bool
percentileSupported(std::size_t n, double p)
{
    return samplesBeyond(n, p) >= kTailSamples;
}

/** Percentile that throws unless percentileSupported() holds. */
inline double
tailPercentile(const std::vector<double> &values, double p)
{
    if (!percentileSupported(values.size(), p))
        throw std::runtime_error(
            "too few samples (" + std::to_string(values.size()) +
            ") for a p" + std::to_string(p * 100.0) + " with " +
            std::to_string(kTailSamples) + " beyond it");
    return percentile(values, p);
}

/** Arithmetic mean of @p values. */
inline double
mean(const std::vector<double> &values)
{
    if (values.empty())
        throw std::invalid_argument("mean of no samples");
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

/** Median plus the quartiles of Python's statistics.quantiles(n=4)
 *  (its default 'exclusive' method), so the spread the benchmark
 *  reports is the spread its users compute. */
struct Summary
{
    double median = 0.0;
    double q1 = 0.0;
    double q3 = 0.0;
    std::size_t count = 0;

    double iqr() const { return q3 - q1; }
};

inline Summary
summarize(std::vector<double> values)
{
    if (values.empty())
        throw std::invalid_argument("summary of no samples");
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    Summary s;
    s.count = n;
    s.median = n % 2 == 1
        ? values[n / 2]
        : 0.5 * (values[n / 2 - 1] + values[n / 2]);
    if (n == 1) {
        s.q1 = s.q3 = values[0];
        return s;
    }
    // statistics.quantiles(method='exclusive'), step for step: the
    // i-th cut point sits at j = i*(n+1) // 4, clamped to 1..n-1,
    // interpolated by delta = i*(n+1) - 4j quarters.
    const auto cut = [&](std::int64_t i) {
        const auto ld = static_cast<std::int64_t>(n);
        const std::int64_t m = ld + 1;
        const std::int64_t j =
            std::clamp<std::int64_t>(i * m / 4, 1, ld - 1);
        const auto delta = static_cast<double>(i * m - j * 4);
        return (values[static_cast<std::size_t>(j - 1)] *
                    (4.0 - delta) +
                values[static_cast<std::size_t>(j)] * delta) /
            4.0;
    };
    s.q1 = cut(1);
    s.q3 = cut(3);
    return s;
}

inline double
median(const std::vector<double> &values)
{
    return summarize(values).median;
}

/**
 * Latency histogram with 1 ns buckets up to kLinearNs and one
 * overflow bucket whose samples are kept verbatim, so percentiles are
 * exact at nanosecond resolution without storing every read.
 */
class LatencyHistogram
{
  public:
    static constexpr std::size_t kLinearNs = 1u << 16;

    LatencyHistogram() : buckets_(kLinearNs, 0) {}

    void
    record(std::int64_t ns)
    {
        ++count_;
        if (ns < 0)
            ns = 0;
        if (static_cast<std::uint64_t>(ns) < kLinearNs)
            ++buckets_[static_cast<std::size_t>(ns)];
        else
            overflow_.push_back(static_cast<double>(ns));
    }

    void
    merge(const LatencyHistogram &other)
    {
        for (std::size_t i = 0; i < kLinearNs; ++i)
            buckets_[i] += other.buckets_[i];
        overflow_.insert(overflow_.end(), other.overflow_.begin(),
                         other.overflow_.end());
        count_ += other.count_;
    }

    std::uint64_t count() const { return count_; }

    /**
     * Nearest-rank percentile in ns; needs kTailSamples beyond. A
     * reading of i ns stands for [i, i+1) ns, so the k-th of the c
     * samples in the rank's bucket is placed at i + (k - 0.5) / c
     * rather than reported as the integer the clock returned.
     */
    double
    percentileNs(double p) const
    {
        if (!percentileSupported(count_, p))
            throw std::runtime_error(
                "too few reads for a latency percentile");
        const auto rank = static_cast<std::uint64_t>(
            std::ceil(p * static_cast<double>(count_)));
        std::uint64_t seen = 0;
        for (std::size_t i = 0; i < kLinearNs; ++i) {
            if (seen + buckets_[i] >= rank)
                return static_cast<double>(i) +
                    (static_cast<double>(rank - seen) - 0.5) /
                    static_cast<double>(buckets_[i]);
            seen += buckets_[i];
        }
        std::vector<double> over = overflow_;
        std::sort(over.begin(), over.end());
        return over[static_cast<std::size_t>(rank - seen - 1)];
    }

  private:
    std::vector<std::uint64_t> buckets_;
    std::vector<double> overflow_;
    std::uint64_t count_ = 0;
};

/** One recorded span; parent is an index into the recorder or -1. */
struct Span
{
    const char *name;
    int parent;
    std::int64_t startNs;
    std::int64_t endNs;
};

/**
 * In-memory span recorder for one thread. Spans nest by scope
 * (begin/end or the Scope guard); nothing is written until the
 * benchmark ends.
 */
class SpanRecorder
{
  public:
    void reserve(std::size_t n) { spans_.reserve(n); }

    int
    begin(const char *name)
    {
        spans_.push_back(Span{name, open_, nowNs(), 0});
        open_ = static_cast<int>(spans_.size() - 1);
        return open_;
    }

    void
    end(int index)
    {
        assert(index == open_ && "spans close innermost first");
        spans_[static_cast<std::size_t>(index)].endNs = nowNs();
        open_ = spans_[static_cast<std::size_t>(index)].parent;
    }

    /** RAII span. */
    class Scope
    {
      public:
        Scope(SpanRecorder &rec, const char *name)
            : rec_(rec), index_(rec.begin(name))
        {
        }
        ~Scope() { rec_.end(index_); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanRecorder &rec_;
        int index_;
    };

    const std::vector<Span> &spans() const { return spans_; }
    void clear()
    {
        spans_.clear();
        open_ = -1;
    }

    /** Test support: add a finished span with explicit times. */
    int
    add(const char *name, int parent, std::int64_t start,
        std::int64_t end)
    {
        spans_.push_back(Span{name, parent, start, end});
        return static_cast<int>(spans_.size() - 1);
    }

  private:
    std::vector<Span> spans_;
    int open_ = -1;
};

/** Per-layer self times and the residual of a traced wall time. */
struct Accounting
{
    /** Span name -> summed self time (duration minus the part its
     *  children cover), ns. */
    std::map<std::string, double> selfNs;
    double wallNs = 0.0;
    /** Wall time no span's self time covers: root self times of
     *  unnamed orchestration plus gaps between roots. */
    double residualNs = 0.0;
};

/**
 * Self time of every span name, and the residual that makes the
 * layer self times add up to @p wall_ns exactly. Spans named
 * @p residual_name (the orchestration roots) contribute their self
 * time to the residual instead of a layer. Throws when the spans do
 * not nest (a child outside its parent, a negative self time) or
 * cover more than the wall time: such a trace cannot account for
 * the wall time and must fail the run.
 */
inline Accounting
accountResidual(const std::vector<Span> &spans, double wall_ns,
                const std::string &residual_name)
{
    std::vector<double> child_ns(spans.size(), 0.0);
    for (const Span &s : spans) {
        if (s.endNs < s.startNs)
            throw std::runtime_error(std::string("span ") + s.name +
                                     " ends before it starts");
        if (s.parent >= 0) {
            const Span &p = spans[static_cast<std::size_t>(s.parent)];
            if (s.startNs < p.startNs || s.endNs > p.endNs)
                throw std::runtime_error(std::string("span ") +
                                         s.name +
                                         " escapes its parent " +
                                         p.name);
            child_ns[static_cast<std::size_t>(s.parent)] +=
                static_cast<double>(s.endNs - s.startNs);
        }
    }
    Accounting acc;
    acc.wallNs = wall_ns;
    double layers = 0.0;
    double roots = 0.0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        const double dur = static_cast<double>(s.endNs - s.startNs);
        const double self = dur - child_ns[i];
        if (self < 0.0)
            throw std::runtime_error(std::string("span ") + s.name +
                                     " has children longer than "
                                     "itself");
        if (s.parent < 0)
            roots += dur;
        if (residual_name == s.name)
            continue;
        acc.selfNs[s.name] += self;
        layers += self;
    }
    if (roots > wall_ns)
        throw std::runtime_error(
            "root spans cover more than the traced wall time");
    acc.residualNs = wall_ns - layers;
    return acc;
}

/** Ordered metric set. Names and units are checked against
 *  BENCHMARK.json by run.py; here only that each metric is set once
 *  and is a finite number, so the JSON stays valid. */
class Metrics
{
  public:
    void
    set(const std::string &name, double value, const std::string &unit)
    {
        if (!std::isfinite(value))
            throw std::invalid_argument("non-finite metric " + name);
        for (auto &entry : entries_)
            if (entry.name == name)
                throw std::invalid_argument("metric set twice: " +
                                            name);
        entries_.push_back(Entry{name, value, unit});
    }

    /** {"name": {"value": v, "unit": "u"}, ...} with 17 significant
     *  digits, i.e. every digit as measured. */
    std::string
    json() const
    {
        std::string out = "{";
        char buf[64];
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            std::snprintf(buf, sizeof buf, "%.17g", entries_[i].value);
            out += (i ? ", \"" : "\"") + entries_[i].name +
                "\": {\"value\": " + buf + ", \"unit\": \"" +
                entries_[i].unit + "\"}";
        }
        return out + "}";
    }

  private:
    struct Entry
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Entry> entries_;
};

/** Minimal JSON string escaping for metadata values. */
inline std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

} // namespace perfbench

#endif // FAIRCO2_PERFBENCH_HARNESS_HH
