// RollingWindow: bucket rotation across ring boundaries, empty-window
// quantiles, window-vs-cumulative consistency, concurrent writers
// (exercised under TSan in CI), the per-check cost ranking derived from
// windowed `<check>.time_us` deltas, and the phases that feed those
// histograms.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/window.hpp"

namespace obs = agenp::obs;
using std::chrono::seconds;

namespace {

// A local registry keeps these tests independent of everything else the
// process has instrumented.
struct WindowFixture {
    obs::MetricsRegistry registry;
    obs::WindowOptions options;
    explicit WindowFixture(std::size_t buckets = 8) { options.buckets = buckets; }
};

}  // namespace

TEST(RollingWindow, EmptyWindowBeforeAnyTick) {
    WindowFixture f;
    obs::RollingWindow window(f.registry, f.options);
    obs::WindowDelta delta = window.window_at(seconds(10), 1000);
    EXPECT_FALSE(delta.complete);
    EXPECT_DOUBLE_EQ(delta.seconds, 0.0);
    EXPECT_EQ(delta.counter("anything"), 0u);
    EXPECT_EQ(delta.histogram("anything"), nullptr);
    EXPECT_DOUBLE_EQ(delta.rate("anything"), 0.0);
}

TEST(RollingWindow, CounterDeltaAndRate) {
    WindowFixture f;
    obs::RollingWindow window(f.registry, f.options);
    obs::Counter& c = f.registry.counter("w.requests");
    c.add(100);
    window.tick_at(0);
    c.add(50);
    obs::WindowDelta delta = window.window_at(seconds(10), 10000);
    EXPECT_TRUE(delta.complete);
    EXPECT_DOUBLE_EQ(delta.seconds, 10.0);
    EXPECT_EQ(delta.counter("w.requests"), 50u);
    EXPECT_DOUBLE_EQ(delta.rate("w.requests"), 5.0);
}

TEST(RollingWindow, PicksNewestBucketAtLeastSpanOld) {
    WindowFixture f;
    obs::RollingWindow window(f.registry, f.options);
    obs::Counter& c = f.registry.counter("w.requests");
    // Buckets at t=0s (c=0), t=5s (c=10), t=10s (c=30).
    window.tick_at(0);
    c.add(10);
    window.tick_at(5000);
    c.add(20);
    window.tick_at(10000);
    c.add(5);
    // A 10s window at t=15s must subtract the t=5s bucket (newest >= 10s
    // old), not t=0 and not t=10s.
    obs::WindowDelta delta = window.window_at(seconds(10), 15000);
    EXPECT_TRUE(delta.complete);
    EXPECT_DOUBLE_EQ(delta.seconds, 10.0);
    EXPECT_EQ(delta.counter("w.requests"), 25u);
}

TEST(RollingWindow, BucketRotationEvictsOldestAcrossRingBoundary) {
    WindowFixture f(/*buckets=*/4);
    obs::RollingWindow window(f.registry, f.options);
    obs::Counter& c = f.registry.counter("w.requests");
    // 10 ticks through a 4-slot ring: only t=6s..9s survive.
    for (int t = 0; t < 10; ++t) {
        window.tick_at(static_cast<std::uint64_t>(t) * 1000);
        c.add(1);
    }
    EXPECT_EQ(window.bucket_count(), 4u);
    // A 60s window at t=9.5s wants a bucket >= 60s old; the oldest left is
    // t=6s (counter was 6), so the window is marked incomplete.
    obs::WindowDelta delta = window.window_at(seconds(60), 9500);
    EXPECT_FALSE(delta.complete);
    EXPECT_DOUBLE_EQ(delta.seconds, 3.5);
    EXPECT_EQ(delta.counter("w.requests"), 4u);
}

TEST(RollingWindow, WarmupFallsBackToOldestBucket) {
    WindowFixture f;
    obs::RollingWindow window(f.registry, f.options);
    obs::Counter& c = f.registry.counter("w.requests");
    window.tick_at(1000);
    c.add(7);
    // 5 minutes of history requested, 2 seconds exist.
    obs::WindowDelta delta = window.window_at(seconds(300), 3000);
    EXPECT_FALSE(delta.complete);
    EXPECT_DOUBLE_EQ(delta.seconds, 2.0);
    EXPECT_EQ(delta.counter("w.requests"), 7u);
    EXPECT_DOUBLE_EQ(delta.rate("w.requests"), 3.5);
}

TEST(RollingWindow, HistogramDeltaQuantilesReflectOnlyTheWindow) {
    WindowFixture f;
    obs::RollingWindow window(f.registry, f.options);
    obs::Histogram& h = f.registry.histogram("w.latency_us");
    // Old traffic: fast requests, outside the window.
    for (int i = 0; i < 1000; ++i) h.observe(4);
    window.tick_at(0);
    // Window traffic: slow requests only.
    for (int i = 0; i < 100; ++i) h.observe(5000);
    obs::WindowDelta delta = window.window_at(seconds(10), 10000);
    const obs::Histogram::Snapshot* snap = delta.histogram("w.latency_us");
    ASSERT_NE(snap, nullptr);
    EXPECT_EQ(snap->count, 100u);
    EXPECT_EQ(snap->sum, 100u * 5000u);
    // The cumulative p50 is ~4us (1000 fast vs 100 slow); the windowed p50
    // must land in the slow bucket.
    EXPECT_GT(snap->quantile(0.5), 1000.0);
    obs::Histogram::Snapshot cumulative = h.snapshot();
    EXPECT_LT(cumulative.quantile(0.5), 100.0);
}

TEST(RollingWindow, EmptyWindowHistogramHasNoQuantiles) {
    WindowFixture f;
    obs::RollingWindow window(f.registry, f.options);
    obs::Histogram& h = f.registry.histogram("w.latency_us");
    for (int i = 0; i < 50; ++i) h.observe(123);
    window.tick_at(0);
    // No observations since the tick: histogram() filters count==0 deltas.
    obs::WindowDelta delta = window.window_at(seconds(10), 10000);
    EXPECT_EQ(delta.histogram("w.latency_us"), nullptr);
    // The underlying delta row still exists with zero count.
    bool found = false;
    for (const auto& [key, snap] : delta.histograms) {
        if (key == "w.latency_us") {
            found = true;
            EXPECT_EQ(snap.count, 0u);
            EXPECT_DOUBLE_EQ(snap.quantile(0.5), 0.0);
        }
    }
    EXPECT_TRUE(found);
}

TEST(RollingWindow, InstrumentRegisteredMidWindowCountsFromZero) {
    WindowFixture f;
    obs::RollingWindow window(f.registry, f.options);
    window.tick_at(0);
    obs::Counter& late = f.registry.counter("w.late");
    late.add(9);
    obs::WindowDelta delta = window.window_at(seconds(10), 10000);
    EXPECT_EQ(delta.counter("w.late"), 9u);
}

TEST(RollingWindow, ResetClampsToLiveValueInsteadOfWrapping) {
    WindowFixture f;
    obs::RollingWindow window(f.registry, f.options);
    obs::Counter& c = f.registry.counter("w.requests");
    c.add(1000);
    window.tick_at(0);
    c.reset();
    c.add(3);
    obs::WindowDelta delta = window.window_at(seconds(10), 10000);
    EXPECT_EQ(delta.counter("w.requests"), 3u);
}

TEST(RollingWindow, WindowVsCumulativeConsistency) {
    // A window spanning the whole process lifetime must agree with the
    // cumulative registry exactly.
    WindowFixture f;
    obs::RollingWindow window(f.registry, f.options);
    window.tick_at(0);  // before any traffic
    obs::Counter& c = f.registry.counter("w.requests");
    obs::Histogram& h = f.registry.histogram("w.latency_us");
    for (int i = 1; i <= 500; ++i) {
        c.add(1);
        h.observe(static_cast<std::uint64_t>(i));
    }
    obs::WindowDelta delta = window.window_at(seconds(1), 60000);
    obs::Histogram::Snapshot cumulative = h.snapshot();
    EXPECT_EQ(delta.counter("w.requests"), c.value());
    const obs::Histogram::Snapshot* windowed = delta.histogram("w.latency_us");
    ASSERT_NE(windowed, nullptr);
    EXPECT_EQ(windowed->count, cumulative.count);
    EXPECT_EQ(windowed->sum, cumulative.sum);
    EXPECT_DOUBLE_EQ(windowed->quantile(0.5), cumulative.quantile(0.5));
    EXPECT_DOUBLE_EQ(windowed->quantile(0.99), cumulative.quantile(0.99));
}

TEST(RollingWindow, ConcurrentWritersAndTickers) {
    // Writers hammer instruments while a ticker rotates buckets and a
    // reader takes windows — the TSan CI job runs this for data races.
    WindowFixture f(/*buckets=*/16);
    obs::RollingWindow window(f.registry, f.options);
    obs::Counter& c = f.registry.counter("w.requests");
    obs::Histogram& h = f.registry.histogram("w.latency_us");
    std::atomic<bool> stop{false};

    std::vector<std::thread> writers;
    writers.reserve(4);
    for (int t = 0; t < 4; ++t) {
        writers.emplace_back([&] {
            while (!stop.load(std::memory_order_relaxed)) {
                c.add(1);
                h.observe(42);
            }
        });
    }
    std::thread ticker([&] {
        for (int i = 0; i < 50; ++i) window.tick();
    });
    std::uint64_t last = 0;
    for (int i = 0; i < 50; ++i) {
        obs::WindowDelta delta = window.window(seconds(1));
        std::uint64_t seen = delta.counter("w.requests");
        (void)last;
        last = seen;
    }
    ticker.join();
    stop.store(true, std::memory_order_relaxed);
    for (std::thread& w : writers) w.join();
    EXPECT_GE(window.bucket_count(), 1u);
}

TEST(WindowTicker, TicksAndRunsCallback) {
    WindowFixture f;
    obs::RollingWindow window(f.registry, f.options);
    {
        obs::WindowTicker ticker(window);
        // Constructor tick lands immediately; destructor joins cleanly
        // even when no interval has elapsed.
        EXPECT_GE(window.bucket_count(), 1u);
    }
    SUCCEED();
}

namespace {

const obs::PhaseCost* find_cost(const std::vector<obs::PhaseCost>& costs,
                                const std::string& check) {
    for (const obs::PhaseCost& cost : costs) {
        if (cost.check == check) return &cost;
    }
    return nullptr;
}

}  // namespace

TEST(PhaseCosts, EntriesEqualHistogramDeltaOverWindowSeconds) {
    WindowFixture f;
    obs::RollingWindow window(f.registry, f.options);
    obs::Histogram& solve = f.registry.histogram("asp.solve.time_us");
    obs::Histogram& probe = f.registry.histogram("srv.cache_probe.time_us");
    // Observations before the base bucket are outside the window.
    for (int i = 0; i < 7; ++i) solve.observe(9000);
    probe.observe(1);
    window.tick_at(0);
    for (int i = 0; i < 20; ++i) solve.observe(300);  // 20 calls, 6000 us
    for (int i = 0; i < 400; ++i) probe.observe(2);   // 400 calls, 800 us
    probe.observe(5);                                  // 401 calls, 805 us
    obs::WindowDelta delta = window.window_at(seconds(10), 10000);
    ASSERT_DOUBLE_EQ(delta.seconds, 10.0);
    std::vector<obs::PhaseCost> costs = obs::phase_costs(delta);
    ASSERT_EQ(costs.size(), 2u);

    const obs::PhaseCost* s = find_cost(costs, "asp.solve");
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->calls, 20u);
    EXPECT_EQ(s->total_us, 6000u);
    EXPECT_DOUBLE_EQ(s->mean_us, 300.0);
    EXPECT_DOUBLE_EQ(s->hz, 2.0);
    EXPECT_DOUBLE_EQ(s->us_per_s, 600.0);

    const obs::PhaseCost* p = find_cost(costs, "srv.cache_probe");
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->calls, 401u);
    EXPECT_EQ(p->total_us, 805u);
    EXPECT_DOUBLE_EQ(p->mean_us, 805.0 / 401.0);
    EXPECT_DOUBLE_EQ(p->hz, 40.1);
    EXPECT_DOUBLE_EQ(p->us_per_s, 80.5);

    // The same numbers as the window's own histogram delta.
    const obs::Histogram::Snapshot* d = delta.histogram("asp.solve.time_us");
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(s->calls, d->count);
    EXPECT_EQ(s->total_us, d->sum);
}

TEST(PhaseCosts, SortedByWallTimeShareThenName) {
    WindowFixture f;
    obs::RollingWindow window(f.registry, f.options);
    // Frequent and cheap outranks rare and expensive when it uses more of
    // the second; equal shares fall back to name order.
    obs::Histogram& rare = f.registry.histogram("z.rare.time_us");
    obs::Histogram& frequent = f.registry.histogram("y.frequent.time_us");
    obs::Histogram& tie_b = f.registry.histogram("b.tie.time_us");
    obs::Histogram& tie_a = f.registry.histogram("a.tie.time_us");
    window.tick_at(0);
    rare.observe(1000);                                  // 100 us/s
    for (int i = 0; i < 500; ++i) frequent.observe(4);   // 200 us/s
    tie_b.observe(50);                                   // 5 us/s
    tie_a.observe(50);                                   // 5 us/s
    std::vector<obs::PhaseCost> costs = obs::phase_costs(window.window_at(seconds(10), 10000));
    ASSERT_EQ(costs.size(), 4u);
    EXPECT_EQ(costs[0].check, "y.frequent");
    EXPECT_EQ(costs[1].check, "z.rare");
    EXPECT_EQ(costs[2].check, "a.tie");
    EXPECT_EQ(costs[3].check, "b.tie");
    for (std::size_t i = 1; i < costs.size(); ++i) {
        EXPECT_GE(costs[i - 1].us_per_s, costs[i].us_per_s);
    }
}

TEST(PhaseCosts, IdleCheckListedAtZeroRate) {
    WindowFixture f;
    obs::RollingWindow window(f.registry, f.options);
    obs::Histogram& busy = f.registry.histogram("w.busy.time_us");
    obs::Histogram& idle = f.registry.histogram("w.idle.time_us");
    for (int i = 0; i < 30; ++i) idle.observe(77);  // all before the window
    window.tick_at(0);
    busy.observe(10);
    std::vector<obs::PhaseCost> costs = obs::phase_costs(window.window_at(seconds(10), 10000));
    const obs::PhaseCost* cost = find_cost(costs, "w.idle");
    ASSERT_NE(cost, nullptr);
    EXPECT_EQ(cost->calls, 0u);
    EXPECT_EQ(cost->total_us, 0u);
    EXPECT_DOUBLE_EQ(cost->mean_us, 0.0);
    EXPECT_DOUBLE_EQ(cost->hz, 0.0);
    EXPECT_DOUBLE_EQ(cost->us_per_s, 0.0);
    EXPECT_EQ(costs.back().check, "w.idle");
}

TEST(PhaseCosts, ListsOnlyTimeUsHistograms) {
    WindowFixture f;
    obs::RollingWindow window(f.registry, f.options);
    window.tick_at(0);
    f.registry.histogram("w.phase.time_us").observe(10);
    f.registry.histogram("srv.latency_us").observe(10);
    f.registry.histogram("w.time_us_total").observe(10);
    f.registry.counter("w.counter.time_us").add(1);
    std::vector<obs::PhaseCost> costs = obs::phase_costs(window.window_at(seconds(10), 10000));
    ASSERT_EQ(costs.size(), 1u);
    EXPECT_EQ(costs[0].check, "w.phase");
}

TEST(PhaseCosts, EmptyWindowHasNoRates) {
    WindowFixture f;
    obs::RollingWindow window(f.registry, f.options);
    f.registry.histogram("w.phase.time_us").observe(10);
    // No tick yet: the window covers no time.
    std::vector<obs::PhaseCost> costs = obs::phase_costs(window.window_at(seconds(10), 1000));
    EXPECT_TRUE(costs.empty());
    window.tick_at(1000);
    costs = obs::phase_costs(window.window_at(seconds(10), 1000));
    ASSERT_EQ(costs.size(), 1u);
    EXPECT_EQ(costs[0].calls, 0u);
    EXPECT_DOUBLE_EQ(costs[0].hz, 0.0);
    EXPECT_DOUBLE_EQ(costs[0].us_per_s, 0.0);
}

TEST(Phase, ObservesElapsedTimeIntoItsHistogram) {
    obs::PhaseSite site("test.window.timed");
    obs::Histogram& hist = obs::metrics().histogram("test.window.timed.time_us");
    obs::Histogram::Snapshot before = hist.snapshot();
    {
        obs::Phase phase(site);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    obs::Histogram::Snapshot after = hist.snapshot();
    EXPECT_EQ(after.count, before.count + 1);
    EXPECT_GE(after.sum - before.sum, 1000u);
}

TEST(Phase, DisabledMetricsSkipObservation) {
    obs::PhaseSite site("test.window.gated");
    obs::Histogram& hist = obs::metrics().histogram("test.window.gated.time_us");
    std::uint64_t calls = hist.snapshot().count;
    std::uint64_t elapsed = 0;
    obs::set_metrics_enabled(false);
    {
        obs::Phase phase(site);
    }
    {
        // A caller that keeps the interval itself still gets it.
        obs::Phase phase(site, &elapsed);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    obs::set_metrics_enabled(true);
    EXPECT_EQ(hist.snapshot().count, calls);
    EXPECT_GE(elapsed, 1000u);
}

TEST(Phase, ConcurrentPhasesFeedOneSiteConsistently) {
    static const obs::PhaseSite site("test.window.contended");
    obs::Histogram& hist = obs::metrics().histogram("test.window.contended.time_us");
    // A window over the process registry, ticked and read while the phases
    // run, the way serve's WindowTicker and /statz do.
    obs::RollingWindow window(obs::metrics(), obs::WindowOptions{});
    window.tick();
    obs::Histogram::Snapshot before = hist.snapshot();
    std::vector<std::thread> threads;
    threads.reserve(4);
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([] {
            for (int i = 0; i < 2000; ++i) obs::Phase phase(site);
        });
    }
    std::thread ticker([&window] {
        for (int i = 0; i < 100; ++i) window.tick();
    });
    for (int i = 0; i < 20; ++i) (void)obs::phase_costs(window.window(seconds(10)));
    for (std::thread& t : threads) t.join();
    ticker.join();
    obs::Histogram::Snapshot after = hist.snapshot();
    EXPECT_EQ(after.count - before.count, 8000u);
    // All ticks fall inside 10s, so the window still subtracts the first
    // bucket, taken before any phase ran: its cost entry is that delta.
    std::vector<obs::PhaseCost> costs = obs::phase_costs(window.window(seconds(10)));
    const obs::PhaseCost* cost = find_cost(costs, "test.window.contended");
    ASSERT_NE(cost, nullptr);
    EXPECT_EQ(cost->calls, 8000u);
    EXPECT_EQ(cost->total_us, after.sum - before.sum);
}
