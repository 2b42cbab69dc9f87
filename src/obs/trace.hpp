// Phases: the one way a layer times its work (DESIGN.md section 7).
//
// A phase is a named interval, timed at exactly one site: the entry point
// of the work it names. The site registers once (a function-local static,
// so no lock and no string allocation per call):
//
//   static const obs::PhaseSite kSolve("asp.solve");
//   obs::Phase phase(kSolve);
//
// A Phase reads monotonic_ns() once on entry and once on exit, and only
// when some sink is live at entry. That one interval goes to every live
// sink:
//   - the process-wide TraceRecorder below, when it is enabled;
//   - the request trace installed on this thread (obs::current_trace()),
//     as a span nested under the innermost open one;
//   - the histogram `<name>.time_us`, when metrics are enabled. The
//     per-check cost ranking (obs::phase_costs in obs/window.hpp) is read
//     from that histogram's windowed delta, so it needs no write of its own.
//
// The TraceRecorder keeps one complete ("ph":"X") event per phase,
// exported as Chrome trace-event JSON (open in chrome://tracing or
// https://ui.perfetto.dev), plus a flat profile aggregated by name whose
// self time excludes nested phases (tracked on a per-thread stack).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace agenp::obs {

class Histogram;
class TraceContext;

struct SpanEvent {
    std::string name;
    std::uint64_t start_us = 0;  // since the process-local trace epoch
    std::uint64_t duration_us = 0;
    std::uint64_t self_us = 0;  // duration minus time spent in nested phases
    std::uint32_t thread = 0;   // dense per-process thread index
    std::uint32_t depth = 0;    // nesting level at record time
};

class TraceRecorder {
public:
    [[nodiscard]] bool enabled() const { return enabled_; }
    void set_enabled(bool enabled);

    void clear();

    [[nodiscard]] std::vector<SpanEvent> events() const;

    // Chrome trace-event JSON object: {"traceEvents":[...],"displayTimeUnit":"ms"}.
    [[nodiscard]] std::string chrome_trace_json() const;

    // Flat profile: one line per phase name with call count, total time,
    // and self time, sorted by total descending.
    [[nodiscard]] std::string flat_profile() const;

    void record(SpanEvent event);

    TraceRecorder();
    ~TraceRecorder();
    TraceRecorder(const TraceRecorder&) = delete;
    TraceRecorder& operator=(const TraceRecorder&) = delete;

private:
    struct Impl;
    bool enabled_ = false;  // only flipped from the controlling thread
    Impl* impl_;
};

// The process-wide recorder every Phase reports to.
TraceRecorder& tracer();

// Appends one complete ("ph":"X") Chrome trace event onto `out`, comma-
// separated from earlier ones (`first` tracks that). Its "cat" is the
// name's first dot-separated segment ("asp.solve" -> "asp"). `args` is a
// JSON object, or empty for none. Both trace exporters write through this.
void append_chrome_event(std::string& out, bool& first, std::string_view name,
                         std::uint64_t ts_us, std::uint64_t dur_us, std::uint64_t tid,
                         std::string_view args = {});

// A phase's registration: its name plus the histogram it feeds. Construct
// once per timing site, as a function-local static.
class PhaseSite {
public:
    explicit PhaseSite(std::string_view name);

    [[nodiscard]] const std::string& name() const { return name_; }

private:
    friend class Phase;
    std::string name_;
    Histogram& time_us_;  // <name>.time_us
};

// Times one pass through a site (see the header comment). With
// `elapsed_us` set, the phase always reads the clock and also writes its
// interval there on exit, for callers that keep the figure themselves.
class Phase {
public:
    explicit Phase(const PhaseSite& site, std::uint64_t* elapsed_us = nullptr);
    ~Phase();
    Phase(const Phase&) = delete;
    Phase& operator=(const Phase&) = delete;

private:
    [[nodiscard]] bool live() const {
        return process_ || metered_ || request_ != nullptr || elapsed_us_ != nullptr;
    }

    const PhaseSite& site_;
    TraceContext* request_;      // request trace installed at entry, or null
    std::uint64_t* elapsed_us_;  // caller's copy of the interval, or null
    bool process_;               // tracer enabled at entry
    bool metered_;               // metrics enabled at entry
    std::uint64_t start_ns_ = 0;
    std::size_t span_ = 0;       // index into request_'s spans
};

}  // namespace agenp::obs
