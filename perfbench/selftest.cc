/**
 * @file
 * Self-tests of the benchmark's own helpers (harness.hh): percentile
 * selection with the ten-beyond rule, mean, median and quartiles
 * against Python's statistics.quantiles, the latency histogram, residual
 * accounting of nested spans, and the metric set's JSON. Exits
 * non-zero on any failure; perfbench/run.py runs it before every
 * measurement. Metric names and units are validated in run.py, which
 * tests that validation itself.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness.hh"

namespace
{

int failures = 0;

void
expect(bool ok, const char *what)
{
    if (!ok) {
        std::fprintf(stderr, "selftest FAILED: %s\n", what);
        ++failures;
    }
}

bool
throws(const std::function<void()> &f)
{
    try {
        f();
    } catch (const std::exception &) {
        return true;
    }
    return false;
}

bool
near(double a, double b)
{
    return std::fabs(a - b) <= 1e-12 * std::max(1.0, std::fabs(b));
}

std::vector<double>
iota(std::size_t n)
{
    std::vector<double> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = static_cast<double>(n - i); // descending: sort matters
    return v;
}

void
testPercentiles()
{
    using namespace perfbench;
    // Nearest rank: p90 of 1..100 is 90, with 10 samples beyond.
    expect(percentile(iota(100), 0.9) == 90.0, "p90 of 1..100");
    expect(percentile(iota(100), 0.5) == 50.0, "p50 of 1..100");
    expect(percentile(iota(1), 0.99) == 1.0, "p99 of one sample");
    expect(samplesBeyond(100, 0.9) == 10, "ten beyond p90 at n=100");
    expect(percentileSupported(100, 0.9), "p90 allowed at n=100");
    expect(!percentileSupported(99, 0.9), "p90 refused at n=99");
    expect(percentileSupported(1000, 0.99), "p99 allowed at n=1000");
    expect(!percentileSupported(999, 0.99), "p99 refused at n=999");
    expect(throws([] { (void)tailPercentile(iota(50), 0.9); }),
           "tailPercentile throws on too few samples");
    expect(tailPercentile(iota(200), 0.9) == 180.0, "p90 of 1..200");
    expect(throws([] { (void)percentile({}, 0.5); }),
           "percentile of nothing throws");
}

void
testSummary()
{
    using namespace perfbench;
    // Reference values from Python:
    //   statistics.quantiles([1..10], n=4)  -> [2.75, 5.5, 8.25]
    //   statistics.quantiles([1,2,4,8,16], n=4) -> [1.5, 4.0, 12.0]
    //   statistics.quantiles([3, 7], n=4) -> [2.0, 5.0, 8.0]
    Summary s = summarize(iota(10));
    expect(near(s.q1, 2.75) && near(s.q3, 8.25) && near(s.median, 5.5),
           "quartiles of 1..10");
    expect(near(s.iqr(), 5.5), "iqr of 1..10");
    s = summarize({16, 1, 8, 2, 4});
    expect(near(s.q1, 1.5) && near(s.q3, 12.0) && near(s.median, 4.0),
           "quartiles of 1,2,4,8,16");
    s = summarize({7, 3});
    expect(near(s.q1, 2.0) && near(s.q3, 8.0) && near(s.median, 5.0),
           "quartiles of two samples");
    s = summarize({42});
    expect(s.median == 42.0 && s.iqr() == 0.0, "single sample");
    expect(median({5, 1, 3, 2}) == 2.5, "even-count median");
    expect(mean({1, 2, 6}) == 3.0, "mean of 1,2,6");
    expect(throws([] { (void)mean({}); }), "mean of nothing throws");
}

void
testHistogram()
{
    using namespace perfbench;
    LatencyHistogram h;
    for (int i = 1; i <= 1000; ++i)
        h.record(i);
    expect(h.percentileNs(0.99) == 990.5, "histogram p99 of 1..1000");
    expect(h.percentileNs(0.5) == 500.5, "histogram p50 of 1..1000");
    LatencyHistogram flat;
    for (int i = 0; i < 1000; ++i)
        flat.record(i < 500 ? 40 : 41);
    // Rank 990 is the 490th of 500 samples reading 41 ns.
    expect(near(flat.percentileNs(0.99), 41.0 + 489.5 / 500.0),
           "percentile interpolates within its 1 ns bucket");
    LatencyHistogram big;
    for (int i = 0; i < 1000; ++i)
        big.record(i < 985 ? 100 : 1'000'000 + i);
    // Rank 990 falls among the overflow samples, kept verbatim.
    expect(big.percentileNs(0.99) == 1'000'000.0 + 989,
           "overflow samples stay exact");
    LatencyHistogram merged;
    merged.merge(h);
    merged.merge(big);
    expect(merged.count() == 2000, "merge adds counts");
    LatencyHistogram few;
    for (int i = 0; i < 50; ++i)
        few.record(i);
    expect(throws([&] { (void)few.percentileNs(0.99); }),
           "histogram refuses an unsupported percentile");
}

void
testResidual()
{
    using namespace perfbench;
    // root [0,100) with children a [10,40) and b [50,90); a has its
    // own child c [20,30). Wall 120 leaves 20 ns outside the root.
    SpanRecorder rec;
    const int root = rec.add("root", -1, 0, 100);
    const int a = rec.add("a", root, 10, 40);
    rec.add("c", a, 20, 30);
    rec.add("b", root, 50, 90);
    Accounting acc = accountResidual(rec.spans(), 120.0, "root");
    expect(acc.selfNs["a"] == 20.0, "self time of a excludes c");
    expect(acc.selfNs["c"] == 10.0 && acc.selfNs["b"] == 40.0,
           "leaf self times");
    expect(acc.selfNs.count("root") == 0, "residual root not a layer");
    // root self (30) + the gap after it (20).
    expect(acc.residualNs == 50.0, "residual = root self + gaps");
    double sum = acc.residualNs;
    for (const auto &[name, ns] : acc.selfNs)
        sum += ns;
    expect(sum == acc.wallNs, "layers plus residual equal the wall");

    SpanRecorder bad;
    const int p = bad.add("p", -1, 0, 10);
    bad.add("q", p, 5, 15);
    expect(throws([&] { (void)accountResidual(bad.spans(), 20.0, "p"); }),
           "a child escaping its parent is refused");
    SpanRecorder over;
    over.add("p", -1, 0, 10);
    expect(throws([&] { (void)accountResidual(over.spans(), 5.0, "p"); }),
           "spans longer than the wall are refused");

    // Scope guards nest and close in order.
    SpanRecorder live;
    {
        const SpanRecorder::Scope outer(live, "outer");
        const SpanRecorder::Scope inner(live, "inner");
    }
    expect(live.spans().size() == 2 && live.spans()[1].parent == 0 &&
               live.spans()[0].endNs >= live.spans()[1].endNs,
           "scope guards nest");
}

void
testMetrics()
{
    using namespace perfbench;
    Metrics m;
    m.set("x", 1.5, "ms");
    expect(throws([&] { m.set("x", 2.0, "ms"); }), "duplicate metric");
    expect(throws([&] { m.set("y", NAN, "ms"); }), "non-finite value");
    expect(m.json() == "{\"x\": {\"value\": 1.5, \"unit\": \"ms\"}}",
           "metrics JSON");
}

} // namespace

int
main()
{
    testPercentiles();
    testSummary();
    testHistogram();
    testResidual();
    testMetrics();
    if (failures != 0) {
        std::fprintf(stderr, "selftest: %d failure(s)\n", failures);
        return EXIT_FAILURE;
    }
    std::fprintf(stderr, "selftest: ok\n");
    return EXIT_SUCCESS;
}
