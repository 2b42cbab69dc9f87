// Per-check cost attribution: EWMA cost x observed frequency per named
// check/phase (DESIGN.md section 7.5).
//
// The rspamd symbols_cache idiom: every named check keeps an exponentially
// weighted moving average of its per-call cost (updated on each
// observation) and of its call frequency (updated by a 1 Hz tick). Their
// product — expected microseconds of wall time consumed per second — is a
// live "where does the CPU budget go" ranking, and exactly the signal the
// profile-guided adaptive-scheduling ROADMAP item needs to reorder checks
// and pick strategies.
//
// Hot path: observe() is two relaxed atomic adds plus one CAS loop on a
// bit-cast double — no locks. Every obs::Phase (obs/trace.hpp) feeds the
// cell named after it, held by its PhaseSite, while metrics are enabled.
// tick() and snapshot() take the registration mutex; both run at human
// rates.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"

namespace agenp::obs {

class CostCell {
public:
    // Records one call that took `elapsed_us`. Lock-free, callable from
    // any thread.
    void observe(std::uint64_t elapsed_us);

    [[nodiscard]] std::uint64_t calls() const {
        return calls_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t total_us() const {
        return total_us_.load(std::memory_order_relaxed);
    }
    // EWMA per-call cost in microseconds (0 before the first observation).
    [[nodiscard]] double ewma_us() const;
    // EWMA call frequency in Hz (0 before the first two ticks).
    [[nodiscard]] double frequency_hz() const;

private:
    friend class CostTable;
    void tick(std::uint64_t now_ns);  // single writer: the table's ticker

    std::atomic<std::uint64_t> calls_{0};
    std::atomic<std::uint64_t> total_us_{0};
    std::atomic<std::uint64_t> ewma_us_bits_{0};   // bit-cast double
    std::atomic<std::uint64_t> freq_hz_bits_{0};   // bit-cast double
    // Ticker-private state, guarded by the table mutex.
    std::uint64_t last_calls_ = 0;
    std::uint64_t last_tick_ns_ = 0;
};

struct CostEntry {
    std::string check;
    std::uint64_t calls = 0;
    std::uint64_t total_us = 0;
    double ewma_us = 0.0;
    double frequency_hz = 0.0;
    double us_per_s = 0.0;  // ewma_us * frequency_hz: expected wall-time share
};

class CostTable {
public:
    // Smoothing factors: cost reacts per observation, frequency per tick.
    static constexpr double kCostAlpha = 0.2;
    static constexpr double kFreqAlpha = 0.3;

    // Stable reference for the life of the table; same name -> same cell.
    CostCell& cell(std::string_view check);

    // Folds call-count deltas into each cell's frequency EWMA. Call about
    // once per second (serve's WindowTicker does).
    void tick();

    // All cells, sorted by us_per_s descending (the scheduling order).
    [[nodiscard]] std::vector<CostEntry> snapshot() const;

    // [{"check":"asp.solve","calls":..,"ewma_us":..,"hz":..,"us_per_s":..},...]
    [[nodiscard]] std::string render_json() const;
    // Aligned human-readable table, same order.
    [[nodiscard]] std::string render_text() const;

    // Zeroes every cell (names stay registered). Benchmarks use this to
    // isolate rows.
    void reset();

    CostTable();
    ~CostTable();
    CostTable(const CostTable&) = delete;
    CostTable& operator=(const CostTable&) = delete;

private:
    struct Impl;
    Impl* impl_;
};

// The process-wide cost table used by instrumentation call sites.
CostTable& costs();

}  // namespace agenp::obs
