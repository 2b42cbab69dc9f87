// Request-scoped tracing: one span tree per decision request.
//
// The process-wide TraceRecorder (trace.hpp) answers "where does this
// binary spend time"; it cannot answer "why was request #4812 slow",
// because its spans carry no request identity. A TraceContext is a small
// per-request span buffer created at submit time and carried with the
// request through queue wait -> cache probe -> PDP -> ASG membership ->
// solver. Every span stores a parent index, so the exported tree breaks a
// request's latency into phases (queue wait vs. solve time) that a
// latency histogram flattens away.
//
// Propagation: the request owns its TraceContext; deeper layers (PDP,
// membership, solver) reach it through a thread-local set by
// TraceContextScope for the duration of the evaluation: every obs::Phase
// (obs/trace.hpp) adds its interval as a span there, so their signatures
// stay trace-agnostic. A TraceContext is single-owner: at any moment at
// most one thread appends spans (enforced by the serving layer's queue
// handoff), so it needs no internal locking.
//
// Clock: a TraceContext never reads the clock. Callers pass the
// monotonic_ns() reading they already took, so one reading can end one
// span and start the next, or feed a latency figure as well.
//
// Cost: when the serving layer decides not to trace a request no context
// is installed, and a Phase adds no span.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace agenp::obs {

struct RequestSpan {
    std::string name;
    std::uint64_t start_us = 0;     // since the process-local trace epoch
    std::uint64_t duration_us = 0;  // 0 while the span is still open
    std::int32_t parent = -1;       // index into TraceContext::spans(); -1 = root
};

class TraceContext {
public:
    explicit TraceContext(std::uint64_t trace_id) : id_(trace_id) {}

    [[nodiscard]] std::uint64_t trace_id() const { return id_; }

    // Transport connection id the request arrived on; 0 = not
    // connection-bound. Emitted into every exported event's args.
    void set_client(std::uint64_t client) { client_ = client; }
    [[nodiscard]] std::uint64_t client() const { return client_; }

    // Opens a span at `now_ns` (a monotonic_ns() reading) nested under the
    // innermost open span; returns its index.
    std::size_t begin_span(std::string_view name, std::uint64_t now_ns);
    // Closes span `index` at `now_ns`: its duration is the whole
    // microseconds between the two readings (end/1000 - start/1000).
    void end_span(std::size_t index, std::uint64_t now_ns);

    [[nodiscard]] const std::vector<RequestSpan>& spans() const { return spans_; }

    // Duration of the root span (index 0), or 0 when empty.
    [[nodiscard]] std::uint64_t total_us() const {
        return spans_.empty() ? 0 : spans_.front().duration_us;
    }

private:
    std::uint64_t id_ = 0;
    std::uint64_t client_ = 0;
    std::vector<RequestSpan> spans_;
    std::vector<std::size_t> open_;  // stack of open span indices
};

// The trace context installed on this thread, or null.
TraceContext* current_trace();

// Installs `ctx` (may be null) as the thread's current trace context for
// the scope's lifetime; restores the previous one on exit.
class TraceContextScope {
public:
    explicit TraceContextScope(TraceContext* ctx);
    ~TraceContextScope();
    TraceContextScope(const TraceContextScope&) = delete;
    TraceContextScope& operator=(const TraceContextScope&) = delete;

private:
    TraceContext* prev_;
};

// Merges several requests' span trees into one Chrome trace-event JSON
// document. Every event carries tid = trace id (one lane per request) and
// args.trace_id / args.parent (plus args.client when connection-bound)
// for scripted consumers.
std::string chrome_trace_json(const std::vector<const TraceContext*>& traces);

}  // namespace agenp::obs
