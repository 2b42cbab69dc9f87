// The benchmark's own arithmetic: exact order-statistic percentiles, a
// seeded Zipf sampler, and span self time. Header-only; it uses only the
// header-only util/rng.hpp of the library, so perfbench/src/selftest.cpp
// checks it without linking the library.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace perfbench {

// Exact percentile of `values` (q in [0, 1]), by linear interpolation
// between the order statistics at rank q * (n - 1). Sorts `values` in
// place; returns 0 for an empty sample.
inline double percentile(std::vector<double>& values, double q) {
    if (values.empty()) return 0;
    std::sort(values.begin(), values.end());
    double rank = q * static_cast<double>(values.size() - 1);
    auto lo = static_cast<std::size_t>(std::floor(rank));
    std::size_t hi = std::min(lo + 1, values.size() - 1);
    double frac = rank - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double median(std::vector<double> values) { return percentile(values, 0.5); }

// One completed operation: when it completed (seconds since the measured
// window opened) and how long it took.
struct Completion {
    double done_s = 0;
    double latency = 0;
};

// Rate and exact latency percentiles of one stretch of a run.
struct Window {
    std::size_t count = 0;
    double rate = 0;  // completions per second
    double p50 = 0;
    double p99 = 0;
};

// Cuts a run into consecutive windows, each the shortest stretch that
// lasts at least `min_seconds` and holds at least `min_count` completions,
// so every window's p99 has min_count / 100 samples beyond it. The first
// window opens at 0; a trailing stretch too short to close is dropped
// unless no window closed at all, in which case the whole run is one
// window. Reporting the median over windows keeps a stall in one part of
// a run from moving the run's figures.
inline std::vector<Window> split_windows(std::vector<Completion> samples, double min_seconds,
                                         std::size_t min_count) {
    std::sort(samples.begin(), samples.end(),
              [](const Completion& a, const Completion& b) { return a.done_s < b.done_s; });
    std::vector<Window> out;
    auto close = [&](std::size_t begin, std::size_t end, double opened) {
        std::vector<double> latencies;
        for (std::size_t i = begin; i < end; ++i) latencies.push_back(samples[i].latency);
        Window w;
        w.count = end - begin;
        double span = samples[end - 1].done_s - opened;
        w.rate = span > 0 ? static_cast<double>(w.count) / span : 0;
        w.p50 = percentile(latencies, 0.50);
        w.p99 = percentile(latencies, 0.99);
        out.push_back(w);
    };
    double opened = 0;
    std::size_t begin = 0;
    for (std::size_t i = 0; i < samples.size(); ++i) {
        if (samples[i].done_s - opened >= min_seconds && i + 1 - begin >= min_count) {
            close(begin, i + 1, opened);
            opened = samples[i].done_s;
            begin = i + 1;
        }
    }
    if (out.empty() && !samples.empty()) close(0, samples.size(), 0);
    return out;
}

// Zipf(s) over ranks 0..n-1: P(rank k) is proportional to 1 / (k + 1)^s.
// Draws by binary search over the cumulative weights.
class Zipf {
public:
    Zipf(std::size_t n, double s) : cdf_(n) {
        double total = 0;
        for (std::size_t k = 0; k < n; ++k) {
            total += 1.0 / std::pow(static_cast<double>(k + 1), s);
            cdf_[k] = total;
        }
        for (double& c : cdf_) c /= total;
    }
    [[nodiscard]] std::size_t size() const { return cdf_.size(); }
    [[nodiscard]] double probability(std::size_t rank) const {
        return rank == 0 ? cdf_[0] : cdf_[rank] - cdf_[rank - 1];
    }
    std::size_t draw(agenp::util::Rng& rng) const {
        double u = rng.uniform01();
        auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
        return it == cdf_.end() ? cdf_.size() - 1 : static_cast<std::size_t>(it - cdf_.begin());
    }

private:
    std::vector<double> cdf_;
};

// One span of a request's tree, as obs::RequestSpan records it.
struct Span {
    std::string name;
    std::uint64_t start_us = 0;
    std::uint64_t duration_us = 0;
    std::int32_t parent = -1;
};

// Self time of each span: its duration minus the part of its interval
// that its direct children cover. Children that overlap each other are
// merged first, so overlapping time is subtracted once.
inline std::vector<std::uint64_t> self_times(const std::vector<Span>& spans) {
    std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> children(spans.size());
    for (const Span& s : spans) {
        if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size()) {
            children[static_cast<std::size_t>(s.parent)].push_back(
                {s.start_us, s.start_us + s.duration_us});
        }
    }
    std::vector<std::uint64_t> out(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        std::uint64_t begin = spans[i].start_us;
        std::uint64_t end = begin + spans[i].duration_us;
        auto& kids = children[i];
        std::sort(kids.begin(), kids.end());
        std::uint64_t covered = 0;
        std::uint64_t cursor = begin;
        for (auto [kb, ke] : kids) {
            kb = std::max(kb, cursor);
            ke = std::min(ke, end);
            if (ke > kb) {
                covered += ke - kb;
                cursor = ke;
            }
        }
        out[i] = spans[i].duration_us > covered ? spans[i].duration_us - covered : 0;
    }
    return out;
}

}  // namespace perfbench
