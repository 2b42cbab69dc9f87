#include "obs/reqtrace.hpp"

#include "obs/trace.hpp"

namespace agenp::obs {

namespace {

thread_local TraceContext* t_current_trace = nullptr;

}  // namespace

std::size_t TraceContext::begin_span(std::string_view name, std::uint64_t now_ns) {
    RequestSpan span;
    span.name = std::string(name);
    span.start_us = now_ns / 1000;
    span.parent = open_.empty() ? -1 : static_cast<std::int32_t>(open_.back());
    spans_.push_back(std::move(span));
    std::size_t index = spans_.size() - 1;
    open_.push_back(index);
    return index;
}

void TraceContext::end_span(std::size_t index, std::uint64_t now_ns) {
    if (index >= spans_.size()) return;
    RequestSpan& span = spans_[index];
    std::uint64_t now_us = now_ns / 1000;
    span.duration_us = now_us >= span.start_us ? now_us - span.start_us : 0;
    // Pop the open stack down to (and including) this span; spans are
    // expected to close innermost-first, but a missed end_span must not
    // leave the stack pointing at a closed span.
    while (!open_.empty()) {
        std::size_t top = open_.back();
        open_.pop_back();
        if (top == index) break;
    }
}

TraceContext* current_trace() { return t_current_trace; }

TraceContextScope::TraceContextScope(TraceContext* ctx) : prev_(t_current_trace) {
    t_current_trace = ctx;
}

TraceContextScope::~TraceContextScope() { t_current_trace = prev_; }

std::string chrome_trace_json(const std::vector<const TraceContext*>& traces) {
    std::string out = "{\"traceEvents\":[";
    bool first = true;
    for (const TraceContext* trace : traces) {
        if (trace == nullptr) continue;
        std::string id = std::to_string(trace->trace_id());
        for (const auto& span : trace->spans()) {
            std::string args =
                "{\"trace_id\":" + id + ",\"parent\":" + std::to_string(span.parent);
            if (trace->client() != 0) args += ",\"client\":" + std::to_string(trace->client());
            args += "}";
            append_chrome_event(out, first, span.name, span.start_us, span.duration_us,
                                trace->trace_id(), args);
        }
    }
    out += "],\"displayTimeUnit\":\"ms\"}";
    return out;
}

}  // namespace agenp::obs
