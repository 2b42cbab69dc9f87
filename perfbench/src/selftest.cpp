// Self-tests for the benchmark's own arithmetic (perfbench/src/stats.hpp):
// exact percentiles, Zipf draw frequencies, span self time, and the
// windows the end-to-end medians are taken over.
// Exits 0 when every check passes; prints each failure otherwise.
#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.hpp"

namespace {

int failures = 0;

void expect_near(const char* what, double got, double want, double tolerance) {
    if (std::fabs(got - want) > tolerance) {
        std::printf("FAIL %s: got %.9g, want %.9g (+/- %.3g)\n", what, got, want, tolerance);
        ++failures;
    }
}

void percentiles() {
    std::vector<double> empty;
    expect_near("percentile of nothing", perfbench::percentile(empty, 0.5), 0, 0);

    std::vector<double> one{7};
    expect_near("percentile of one value", perfbench::percentile(one, 0.99), 7, 0);

    // Order statistics of 1..100: rank q*(n-1) interpolates between them.
    std::vector<double> v;
    for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted input
    expect_near("p0", perfbench::percentile(v, 0.0), 1, 0);
    expect_near("p50 of 1..100", perfbench::percentile(v, 0.5), 50.5, 1e-12);
    expect_near("p99 of 1..100", perfbench::percentile(v, 0.99), 99.01, 1e-9);
    expect_near("p100", perfbench::percentile(v, 1.0), 100, 0);

    // Exact, not bucketed: nanosecond-apart values stay apart.
    std::vector<double> close{126.101, 126.102, 126.103};
    expect_near("p50 of close values", perfbench::percentile(close, 0.5), 126.102, 1e-12);

    expect_near("median of even count", perfbench::median({4, 1, 3, 2}), 2.5, 1e-12);
}

void zipf() {
    const std::size_t n = 50;
    const double s = 1.1;
    perfbench::Zipf z(n, s);
    double harmonic = 0;
    for (std::size_t k = 1; k <= n; ++k) harmonic += 1.0 / std::pow(static_cast<double>(k), s);
    expect_near("zipf P(rank 0)", z.probability(0), 1.0 / harmonic, 1e-12);
    expect_near("zipf P(rank 9)", z.probability(9), 1.0 / std::pow(10.0, s) / harmonic, 1e-12);

    agenp::util::Rng rng(42);
    const std::size_t draws = 400000;
    std::vector<std::size_t> counts(n, 0);
    for (std::size_t i = 0; i < draws; ++i) ++counts[z.draw(rng)];
    for (std::size_t k : {0, 1, 4, 19, 49}) {
        double p = z.probability(k);
        double sd = std::sqrt(p * (1 - p) / static_cast<double>(draws));
        char what[64];
        std::snprintf(what, sizeof(what), "zipf frequency of rank %zu", k);
        expect_near(what, static_cast<double>(counts[k]) / static_cast<double>(draws), p, 5 * sd);
    }
    // Same seed, same stream.
    agenp::util::Rng a(7), b(7);
    bool same = true;
    for (int i = 0; i < 1000; ++i) same = same && z.draw(a) == z.draw(b);
    expect_near("zipf draws repeat for a seed", same ? 1 : 0, 1, 0);
}

void self_time() {
    using perfbench::Span;
    // root [0,100) with children [10,30) and [50,60), grandchild [12,20).
    std::vector<Span> spans{
        {"root", 0, 100, -1},
        {"a", 10, 20, 0},
        {"a.x", 12, 8, 1},
        {"b", 50, 10, 0},
    };
    auto self = perfbench::self_times(spans);
    expect_near("root self = 100 - 20 - 10", static_cast<double>(self[0]), 70, 0);
    expect_near("child self = 20 - 8", static_cast<double>(self[1]), 12, 0);
    expect_near("leaf self = duration", static_cast<double>(self[2]), 8, 0);
    expect_near("second child", static_cast<double>(self[3]), 10, 0);

    // Overlapping children are merged: [10,40) and [30,50) cover 40.
    std::vector<Span> overlap{{"root", 0, 100, -1}, {"a", 10, 30, 0}, {"b", 30, 20, 0}};
    expect_near("overlap counted once", static_cast<double>(perfbench::self_times(overlap)[0]), 60, 0);

    // A child running past its parent's end covers only the parent's part.
    std::vector<Span> spill{{"root", 0, 10, -1}, {"a", 5, 20, 0}};
    expect_near("spill clipped", static_cast<double>(perfbench::self_times(spill)[0]), 5, 0);

    // Self times of a tree add up to the root's duration.
    double sum = 0;
    for (auto t : self) sum += static_cast<double>(t);
    expect_near("self times sum to root", sum, 100, 0);
}

void windows() {
    // 10 s at 1000 completions/s; latency 1 us everywhere except 5 us in
    // the fourth second, so that window's percentiles move and the medians
    // over windows do not.
    std::vector<perfbench::Completion> run;
    for (int i = 1; i <= 10000; ++i) {
        double t = i / 1000.0;
        run.push_back({t, t > 3.0 && t <= 4.0 ? 5.0 : 1.0});
    }
    auto w = perfbench::split_windows(run, 1.0, 500);
    expect_near("ten one-second windows", static_cast<double>(w.size()), 10, 0);
    expect_near("window rate", w[0].rate, 1000, 1e-6);
    expect_near("stalled window p50", w[3].p50, 5, 0);
    std::vector<double> p50;
    for (const auto& x : w) p50.push_back(x.p50);
    expect_near("median over windows", perfbench::median(p50), 1, 0);

    // The count floor stretches windows: 2500 completions per window.
    auto w2 = perfbench::split_windows(run, 1.0, 2500);
    expect_near("count-bound windows", static_cast<double>(w2.size()), 4, 0);
    expect_near("count-bound window size", static_cast<double>(w2[0].count), 2500, 0);

    // Too few completions to close a window: the whole run is one window.
    std::vector<perfbench::Completion> few{{0.5, 3}, {1.5, 1}, {2.5, 2}};
    auto w3 = perfbench::split_windows(few, 1.0, 2000);
    expect_near("single window", static_cast<double>(w3.size()), 1, 0);
    expect_near("single window rate", w3[0].rate, 3 / 2.5, 1e-12);
    expect_near("single window p50", w3[0].p50, 2, 0);
}

}  // namespace

int main() {
    percentiles();
    zipf();
    self_time();
    windows();
    if (failures == 0) std::printf("perfbench selftest: all checks passed\n");
    return failures == 0 ? 0 : 1;
}
