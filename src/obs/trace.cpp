#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>

#include "obs/metrics.hpp"
#include "obs/reqtrace.hpp"
#include "util/mutex.hpp"

namespace agenp::obs {

namespace {

std::uint32_t this_thread_index() {
    static std::atomic<std::uint32_t> next{0};
    thread_local std::uint32_t index = next.fetch_add(1, std::memory_order_relaxed);
    return index;
}

// Per-thread stack tracking nesting depth and the nanoseconds consumed by
// completed nested phases at each level (for self-time).
thread_local std::vector<std::uint64_t> t_child_ns;

}  // namespace

struct TraceRecorder::Impl {
    mutable util::Mutex mutex;
    std::vector<SpanEvent> events GUARDED_BY(mutex);
};

TraceRecorder::TraceRecorder() : impl_(new Impl) {}
TraceRecorder::~TraceRecorder() { delete impl_; }

void TraceRecorder::set_enabled(bool enabled) { enabled_ = enabled; }

void TraceRecorder::clear() {
    util::MutexLock lock(impl_->mutex);
    impl_->events.clear();
}

void TraceRecorder::record(SpanEvent event) {
    util::MutexLock lock(impl_->mutex);
    impl_->events.push_back(std::move(event));
}

std::vector<SpanEvent> TraceRecorder::events() const {
    util::MutexLock lock(impl_->mutex);
    return impl_->events;
}

std::string TraceRecorder::chrome_trace_json() const {
    auto evs = events();
    // Stable visual ordering: by thread, then start time.
    std::stable_sort(evs.begin(), evs.end(), [](const SpanEvent& a, const SpanEvent& b) {
        return std::tie(a.thread, a.start_us) < std::tie(b.thread, b.start_us);
    });
    std::string out = "{\"traceEvents\":[";
    bool first = true;
    for (const auto& e : evs) {
        append_chrome_event(out, first, e.name, e.start_us, e.duration_us, e.thread);
    }
    out += "],\"displayTimeUnit\":\"ms\"}";
    return out;
}

void append_chrome_event(std::string& out, bool& first, std::string_view name,
                         std::uint64_t ts_us, std::uint64_t dur_us, std::uint64_t tid,
                         std::string_view args) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"" + json_escape(name) + "\",\"cat\":\"" +
           json_escape(name.substr(0, name.find('.'))) + "\",\"ph\":\"X\",\"ts\":" +
           std::to_string(ts_us) + ",\"dur\":" + std::to_string(dur_us) +
           ",\"pid\":1,\"tid\":" + std::to_string(tid);
    if (!args.empty()) {
        out += ",\"args\":";
        out += args;
    }
    out += "}";
}

std::string TraceRecorder::flat_profile() const {
    struct Agg {
        std::uint64_t count = 0;
        std::uint64_t total_us = 0;
        std::uint64_t self_us = 0;
    };
    std::map<std::string, Agg> by_name;
    for (const auto& e : events()) {
        auto& a = by_name[e.name];
        ++a.count;
        a.total_us += e.duration_us;
        a.self_us += e.self_us;
    }
    std::vector<std::pair<std::string, Agg>> rows(by_name.begin(), by_name.end());
    std::sort(rows.begin(), rows.end(),
              [](const auto& a, const auto& b) { return a.second.total_us > b.second.total_us; });
    std::size_t width = 4;
    for (const auto& [name, _] : rows) width = std::max(width, name.size());
    std::string out = "span" + std::string(width - 4 + 2, ' ') + "calls     total_us      self_us\n";
    for (const auto& [name, a] : rows) {
        std::string calls = std::to_string(a.count);
        std::string total = std::to_string(a.total_us);
        std::string self = std::to_string(a.self_us);
        out += name + std::string(width - name.size() + 2, ' ') +
               std::string(calls.size() < 5 ? 5 - calls.size() : 0, ' ') + calls +
               std::string(total.size() < 13 ? 13 - total.size() : 0, ' ') + total +
               std::string(self.size() < 13 ? 13 - self.size() : 0, ' ') + self + "\n";
    }
    return out;
}

TraceRecorder& tracer() {
    static TraceRecorder recorder;
    return recorder;
}

PhaseSite::PhaseSite(std::string_view name)
    : name_(name),
      time_us_(metrics().histogram(name_ + ".time_us")) {}

Phase::Phase(const PhaseSite& site, std::uint64_t* elapsed_us)
    : site_(site),
      request_(current_trace()),
      elapsed_us_(elapsed_us),
      process_(tracer().enabled()),
      metered_(metrics_enabled()) {
    if (!live()) return;
    start_ns_ = monotonic_ns();
    if (request_ != nullptr) span_ = request_->begin_span(site_.name(), start_ns_);
    if (process_) t_child_ns.push_back(0);
}

Phase::~Phase() {
    if (!live()) return;
    std::uint64_t end_ns = monotonic_ns();
    // Whole microseconds between the two readings, rounded the way
    // TraceContext rounds a span, so every sink gets the same number.
    std::uint64_t us = end_ns / 1000 - start_ns_ / 1000;
    if (elapsed_us_ != nullptr) *elapsed_us_ = us;
    if (request_ != nullptr) request_->end_span(span_, end_ns);
    if (metered_) site_.time_us_.observe(us);
    if (!process_) return;
    std::uint64_t dur_ns = end_ns - start_ns_;
    std::uint64_t child_ns = t_child_ns.empty() ? 0 : t_child_ns.back();
    if (!t_child_ns.empty()) t_child_ns.pop_back();
    if (!t_child_ns.empty()) t_child_ns.back() += dur_ns;
    SpanEvent event;
    event.name = site_.name();
    event.start_us = start_ns_ / 1000;
    event.duration_us = us;
    event.self_us = (dur_ns - std::min(child_ns, dur_ns)) / 1000;
    event.thread = this_thread_index();
    event.depth = static_cast<std::uint32_t>(t_child_ns.size());
    tracer().record(std::move(event));
}

}  // namespace agenp::obs
