// AGENP benchmark program: runs one workload in this process and prints its
// metrics.
//
//   agenp_bench --workload <serve_hot|serve_cold>
//               --seed N --seconds S --trace 0|1
//
// Output: a `stamp` JSON line (machine, build, seed, load shape), one
// `metric` line per metric, and as the last line the result object
// {"correct":..,"attempted":..,"failed":..,"metrics":{..}}. --trace 0
// prints the end-to-end metrics; --trace 1 runs an untraced window, a
// traced window and a workload-specific third window (TCP with model
// adoption on serve_hot, memo off on serve_cold) and prints the per-layer
// metrics.
//
// Exit status: 0 when every verdict and every learned hypothesis checked
// out, 1 when one did not (the result line still prints, with
// "correct":false), 2 on bad arguments or a failed set-up.
//
// perfbench/README.md says why each workload exists and what each metric
// measures.
#include <malloc.h>
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <memory_resource>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "asg/instantiate.hpp"
#include "asg/membership.hpp"
#include "asp/grounder.hpp"
#include "asp/parser.hpp"
#include "cfg/earley.hpp"
#include "cfg/generate.hpp"
#include "obs/build.hpp"
#include "obs/lockprof.hpp"
#include "obs/metrics.hpp"
#include "scenarios/cav/cav.hpp"
#include "srv/loadgen.hpp"
#include "srv/router.hpp"
#include "srv/service.hpp"
#include "srv/transport.hpp"
#include "srv/wire.hpp"
#include "stats.hpp"
#include "util/rng.hpp"
#include "xacml/learning_bridge.hpp"

using namespace agenp;
using Clock = std::chrono::steady_clock;

namespace {

// Closed loop: a PEP blocks on its verdict, so each client sends its next
// request only after the previous reply. Two clients against two workers
// keep the load generator and the service within a 4-core machine.
constexpr std::size_t kClients = 2;
constexpr std::size_t kWorkers = 2;
// The whole process runs on this many CPUs, each kept busy by a
// SCHED_IDLE spinner (CpuKeeper). On a shared virtual machine a process
// that wakes threads on every vCPU has them taken by the hypervisor (steal
// time) in bursts, and its figures swing up to 4x between runs; on two
// CPUs that never go idle the same runs agree within a few percent.
constexpr int kCpus = 2;
// The CPUs the process was given before it confined itself to kCpus of
// them; the correctness gate, which runs after timing, uses them all.
cpu_set_t g_given_cpus;
// setup_s is the median of this many complete set-ups; the last one runs.
constexpr int kSetupRepeats = 3;
// Latencies kept per client, preallocated with the client's Recorder so
// the benchmark's own memory does not grow with throughput. A client that
// completes more requests keeps the most recent ones.
constexpr std::size_t kLatencyCapacity = std::size_t{1} << 21;
// heap_mb is read when client 0 completes this many requests of the
// measured window, a fixed amount of work: on serve_cold the heap grows
// with every novel request served, so a reading at the end of a timed
// window would grow with throughput.
constexpr std::uint64_t kHeapProbeRequests = 2000;
// Bytes preallocated per client for its verdict counts. A window whose
// distinct verdicts outgrow them spills to the ordinary heap.
constexpr std::size_t kVerdictBytes = std::size_t{4} << 20;
// End-to-end figures are medians over windows of at least this long and
// this many completions, so each window's p99 has 10 samples beyond it.
constexpr double kWindowSeconds = 1.0;
constexpr std::size_t kWindowRequests = 1000;
// serve_hot draws ranks from Zipf(kZipfSkew).
constexpr double kZipfSkew = 1.1;
// The TCP phase of serve_hot's traced run swaps the served model after
// this many decisions.
constexpr std::uint64_t kAdoptEveryRequests = 5000;
// Default-permit families (xacml::default_permit_family seeds): the Fig 3a
// families 14, 25 and 36 and five more. With its Fig 3a log (400 requests
// drawn with util::Rng(500 + family)) the learner recovers each one
// exactly on the widened schema. A log is a sample, so not every family
// or log draw pins its policy down; these do.
constexpr std::uint64_t kFamilySeeds[] = {14, 25, 36, 47, 58, 69, 80, 91};
constexpr std::size_t kLogEntries = 400;
constexpr std::size_t kCavExamples = 320;
// serve_cold: draws per client that each set-up serves to warm code paths
// and the allocator, and draws per client served after the last set-up to
// fill the grounding memo to its capacity before timing starts.
constexpr std::size_t kColdWarmDraws = 150;
constexpr std::size_t kColdFillDraws = 1300;
// Each learning task the traced run times stage by stage runs this often.
constexpr int kLearnRepeats = 3;
// Requests whose parse/instantiate/ground/wire steps the traced run
// replays outside the service.
constexpr std::size_t kReplayRequests = 256;

std::uint64_t derive(std::uint64_t seed, std::uint64_t salt) {
    util::Rng mix(seed * 0x2545f4914f6cdd1dULL + salt);
    return mix.next();
}

double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double us_since(Clock::time_point t0) {
    return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------- report

struct Report {
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::pair<std::string, std::string>> stamp;  // key -> JSON value
    std::map<std::string, std::pair<double, std::string>> metrics;
    std::size_t mismatches = 0;
    std::size_t verdicts_checked = 0;  // distinct (request, grammar) pairs re-decided

    void metric(const std::string& name, double value, const std::string& unit) {
        metrics[name] = {value, unit};
    }
    void stamp_string(const std::string& key, const std::string& value) {
        stamp.emplace_back(key, "\"" + obs::json_escape(value) + "\"");
    }
    void stamp_number(const std::string& key, double value) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", value);
        stamp.emplace_back(key, buf);
    }
    // Marks the run incorrect; the first few reasons go to stderr.
    void mismatch(const std::string& why) {
        correct = false;
        if (++mismatches <= 10) std::fprintf(stderr, "perfbench: MISMATCH %s\n", why.c_str());
    }
};

std::string number(double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

void print_report(const Report& report) {
    std::string stamp = "{";
    for (std::size_t i = 0; i < report.stamp.size(); ++i) {
        if (i > 0) stamp += ",";
        stamp += "\"" + report.stamp[i].first + "\":" + report.stamp[i].second;
    }
    stamp += "}";
    std::printf("stamp %s\n", stamp.c_str());
    for (const auto& [name, metric] : report.metrics) {
        std::printf("metric %-32s %16.4f %s\n", name.c_str(), metric.first, metric.second.c_str());
    }
    std::string out = "{\"correct\":";
    out += report.correct ? "true" : "false";
    out += ",\"attempted\":" + std::to_string(report.attempted);
    out += ",\"failed\":" + std::to_string(report.failed);
    out += ",\"metrics\":{";
    bool first = true;
    for (const auto& [name, metric] : report.metrics) {
        if (!first) out += ",";
        first = false;
        out += "\"" + name + "\":{\"value\":" + number(metric.first) + ",\"unit\":\"" +
               metric.second + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// ------------------------------------------------------------ recording

enum class Verdict : std::uint8_t { Permit, Deny, Failed };

// One closed-loop client's measurements. Everything but the trace-mode
// vectors is allocated up front, independently of how many requests
// complete, so a Recorder made before the heap baseline adds nothing to
// heap_mb.
struct Recorder {
    // Ring of (completion us since the window opened, latency ns).
    std::vector<std::pair<std::uint32_t, std::uint32_t>> samples =
        std::vector<std::pair<std::uint32_t, std::uint32_t>>(kLatencyCapacity);
    std::size_t recorded = 0;
    std::vector<std::byte> verdict_buffer = std::vector<std::byte>(kVerdictBytes);
    std::unique_ptr<std::pmr::monotonic_buffer_resource> verdict_arena =
        std::make_unique<std::pmr::monotonic_buffer_resource>(verdict_buffer.data(),
                                                              verdict_buffer.size());
    // (request << 33 | model version << 1 | permitted) -> occurrences.
    std::pmr::unordered_map<std::uint64_t, std::uint32_t> verdicts{verdict_arena.get()};
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool traced = false;
    double heap_mb = -1;  // heap_in_use_mb() at the kHeapProbeRequests-th completion
    std::vector<std::pair<std::uint64_t, double>> trace_latency_us;  // (trace id, client us)
    std::vector<double> transport_us;  // client round trip minus the reply's latency_us

    void record(Clock::time_point window_start, Clock::time_point t0, Clock::time_point t1,
                std::uint32_t request, Verdict verdict, std::uint64_t version,
                std::uint64_t trace_id, std::int64_t server_us) {
        ++attempted;
        auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count();
        auto done_us = std::chrono::duration_cast<std::chrono::microseconds>(t1 - window_start).count();
        samples[recorded++ % samples.size()] = {
            static_cast<std::uint32_t>(std::min<std::int64_t>(done_us, UINT32_MAX)),
            static_cast<std::uint32_t>(std::min<std::int64_t>(ns, UINT32_MAX))};
        if (verdict == Verdict::Failed) {
            ++failed;
        } else {
            ++verdicts[(std::uint64_t{request} << 33) | (version << 1) |
                       (verdict == Verdict::Permit ? 1u : 0u)];
        }
        if (traced) {
            double client_us = static_cast<double>(ns) / 1e3;
            trace_latency_us.emplace_back(trace_id, client_us);
            if (server_us >= 0) transport_us.push_back(client_us - static_cast<double>(server_us));
        }
    }
};

struct WindowResult {
    std::vector<Recorder> clients;
};

// The Recorders of one window, one per client.
WindowResult new_window(bool traced) {
    WindowResult result;
    result.clients.resize(kClients);
    for (auto& r : result.clients) r.traced = traced;
    return result;
}

// Runs `client(index, recorder, start, end)` on kClients threads that
// start together, recording into `result`; each loops until `end`.
void run_window(WindowResult& result, double seconds,
                const std::function<void(std::size_t, Recorder&, Clock::time_point,
                                         Clock::time_point)>& client) {
    std::atomic<bool> go{false};
    Clock::time_point start;
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
            while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
            auto end = start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(seconds));
            client(c, result.clients[c], start, end);
        });
    }
    start = Clock::now();
    go.store(true, std::memory_order_release);
    for (auto& t : threads) t.join();
}

// Per-window rate and latency percentiles of a measured run: windows of at
// least kWindowSeconds and kWindowRequests completions (perfbench::
// split_windows), latencies in microseconds.
std::vector<perfbench::Window> windows_of(const WindowResult& w) {
    std::vector<perfbench::Completion> all;
    for (const auto& c : w.clients) {
        std::size_t kept = std::min(c.recorded, c.samples.size());
        for (std::size_t i = 0; i < kept; ++i) {
            all.push_back({c.samples[i].first / 1e6, c.samples[i].second / 1e3});
        }
    }
    return perfbench::split_windows(std::move(all), kWindowSeconds, kWindowRequests);
}

// Heap in use, in MB: malloc's in-use bytes over all arenas plus its
// mmapped blocks. Unlike resident memory it leaves out memory the
// allocator has freed but kept, whose amount depends on which threads
// happened to free what.
double heap_in_use_mb() {
    struct mallinfo2 heap = mallinfo2();
    return static_cast<double>(heap.uordblks + heap.hblkhd) / 1048576.0;
}

// Client 0's heap reading in `w` (see kHeapProbeRequests), or the heap now
// if the window ended before client 0 completed that many requests.
double probed_heap_mb(const WindowResult& w) {
    return w.clients[0].heap_mb >= 0 ? w.clients[0].heap_mb : heap_in_use_mb();
}

// The end-to-end metrics: medians over the run's windows. `heap_mb` is the
// heap the program added between the baseline a workload takes in set-up
// (after its request table, learned policy and Recorders exist, before its
// AMS and service are built) and the probe in the measured window: the
// AMS, the service's caches, memo and rings.
void report_end_to_end(const std::vector<perfbench::Window>& windows, double setup_s,
                       double heap_mb, Report& report) {
    std::vector<double> rate, p50, p99;
    double samples = 0;
    for (const auto& w : windows) {
        rate.push_back(w.rate);
        p50.push_back(w.p50);
        p99.push_back(w.p99);
        samples += static_cast<double>(w.count);
    }
    report.metric("throughput_rps", perfbench::median(rate), "1/s");
    report.metric("latency_p50_us", perfbench::median(p50), "us");
    report.metric("latency_p99_us", perfbench::median(p99), "us");
    report.metric("setup_s", setup_s, "s");
    report.metric("heap_mb", heap_mb, "MB");
    report.stamp_number("latency_samples", samples);
    report.stamp_number("windows", static_cast<double>(windows.size()));
}

double window_throughput(const WindowResult& w) {
    std::vector<double> rate;
    for (const auto& window : windows_of(w)) rate.push_back(window.rate);
    return perfbench::median(rate);
}

void count_attempts(const WindowResult& w, Report& report) {
    for (const auto& c : w.clients) {
        report.attempted += c.attempted;
        report.failed += c.failed;
    }
}

// ------------------------------------------------------ correctness gate

// cfg::Grammar builds its production index lazily inside a const method,
// without a lock, so two workers making the first parse of a fresh copy
// race on it (heap-use-after-free under ASan). Building the index on one
// thread before a grammar reaches the service sidesteps that library
// defect; copies of an indexed grammar stay indexed.
const asg::AnswerSetGrammar& indexed(const asg::AnswerSetGrammar& grammar) {
    (void)grammar.grammar().productions_for(grammar.grammar().start());
    return grammar;
}

// Checks every distinct (request, model version) verdict the clients saw
// against the plain path: asg::check_membership with no memo and no
// cache, under the same context. `model_for` maps a served model version
// to the grammar that version carried; verdicts of versions with the same
// grammar are checked against one plain-path result.
void check_verdicts(const std::vector<const WindowResult*>& windows,
                    const std::vector<cfg::TokenString>& requests, const asp::Program& context,
                    const std::function<std::pair<std::size_t, const asg::AnswerSetGrammar*>(
                        std::uint64_t)>& model_for,
                    Report& report) {
    std::unordered_map<std::uint64_t, std::uint64_t> seen;  // verdict key -> count
    for (const auto* w : windows) {
        for (const auto& c : w->clients) {
            for (const auto& [key, count] : c.verdicts) seen[key] += count;
        }
    }
    // Distinct (request, grammar) pairs -> plain-path verdict.
    std::map<std::pair<std::uint32_t, std::size_t>, bool> plain;
    std::map<std::size_t, const asg::AnswerSetGrammar*> grammars;
    for (const auto& [key, count] : seen) {
        auto [model_id, grammar] = model_for((key >> 1) & 0xffffffffULL);
        if (grammar == nullptr) {
            report.mismatch("reply carries unknown model version " +
                            std::to_string((key >> 1) & 0xffffffffULL));
            report.failed += count;
            continue;
        }
        grammars[model_id] = &indexed(*grammar);
        plain.emplace(std::make_pair(static_cast<std::uint32_t>(key >> 33), model_id), false);
    }
    // Threads fill in distinct entries; the map's shape does not change.
    std::vector<std::pair<const std::pair<std::uint32_t, std::size_t>, bool>*> todo;
    for (auto& entry : plain) todo.push_back(&entry);
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < std::max(1, CPU_COUNT(&g_given_cpus)); ++t) {
        threads.emplace_back([&] {
            (void)sched_setaffinity(0, sizeof(g_given_cpus), &g_given_cpus);
            for (std::size_t i = next++; i < todo.size(); i = next++) {
                auto [request, model_id] = todo[i]->first;
                todo[i]->second =
                    asg::check_membership(*grammars.at(model_id), requests[request], context).in_language;
            }
        });
    }
    for (auto& t : threads) t.join();

    for (const auto& [key, count] : seen) {
        auto request = static_cast<std::uint32_t>(key >> 33);
        auto [model_id, grammar] = model_for((key >> 1) & 0xffffffffULL);
        if (grammar == nullptr) continue;
        bool expected = plain.at({request, model_id});
        bool got = (key & 1) != 0;
        if (expected != got) {
            report.mismatch("request '" + cfg::detokenize(requests[request]) + "' model v" +
                            std::to_string((key >> 1) & 0xffffffffULL) + ": served " +
                            (got ? "permit" : "deny") + ", plain path says " +
                            (expected ? "permit" : "deny"));
            report.failed += count;
        }
    }
    report.verdicts_checked += plain.size();
}

// --------------------------------------------------------- trace analysis

// p50 self time per span name over the captured request trees, plus the
// client latency not covered by the root span.
struct TraceSummary {
    std::map<std::string, std::vector<double>> self_us;
    std::vector<double> unattributed_us;
};

TraceSummary summarize_traces(const std::vector<srv::CapturedTrace>& traces,
                              const std::vector<const WindowResult*>& windows) {
    std::unordered_map<std::uint64_t, double> client_us;
    for (const auto* w : windows) {
        for (const auto& c : w->clients) {
            for (const auto& [id, us] : c.trace_latency_us) client_us[id] = us;
        }
    }
    TraceSummary out;
    for (const auto& captured : traces) {
        const auto& spans = captured.trace.spans();
        std::vector<perfbench::Span> copy;
        copy.reserve(spans.size());
        for (const auto& s : spans) copy.push_back({s.name, s.start_us, s.duration_us, s.parent});
        auto self = perfbench::self_times(copy);
        for (std::size_t i = 0; i < copy.size(); ++i) {
            out.self_us[copy[i].name].push_back(static_cast<double>(self[i]));
        }
        auto it = client_us.find(captured.trace_id());
        if (it != client_us.end()) {
            out.unattributed_us.push_back(it->second - static_cast<double>(captured.trace.total_us()));
        }
    }
    return out;
}

double p50_of(TraceSummary& summary, const std::string& span) {
    auto it = summary.self_us.find(span);
    return it == summary.self_us.end() ? 0.0 : perfbench::percentile(it->second, 0.5);
}

void report_spans(TraceSummary& summary, Report& report) {
    static const std::pair<const char*, const char*> kSpans[] = {
        {"srv.queue_wait", "srv.queue_wait_us"},     {"srv.context", "srv.context_us"},
        {"srv.cache_probe", "srv.cache_probe_us"},   {"srv.monitor", "srv.monitor_us"},
        {"agenp.pdp.decide", "agenp.pdp_decide_us"}, {"asg.membership", "asg.membership_us"},
        {"asp.ground", "asp.ground_us"},             {"asp.solve", "asp.solve_us"},
    };
    for (const auto& [span, metric] : kSpans) report.metric(metric, p50_of(summary, span), "us");
    report.metric("srv.unattributed_us", perfbench::percentile(summary.unattributed_us, 0.5), "us");
    // Which span takes the most self time over all requests: the traced
    // run's check that the workload stresses the layer it names.
    std::string top;
    double top_total = -1;
    for (const auto& [name, values] : summary.self_us) {
        double total = 0;
        for (double v : values) total += v;
        if (total > top_total) {
            top_total = total;
            top = name;
        }
    }
    report.stamp_string("top_self_time_span", top);
    report.stamp_number("traces_analyzed", static_cast<double>(summary.unattributed_us.size()));
}

// Lock waits since the last obs::locks().reset(), as mean wait per
// decision, for the given (lock, metric) pairs.
constexpr std::pair<const char*, const char*> kModelLock{"srv.model", "srv.model_lock_wait_us"};
constexpr std::pair<const char*, const char*> kReadPathLocks[] = {
    {"srv.monitor", "srv.monitor_lock_wait_us"},
    {"srv.cache_shard", "srv.cache_shard_wait_us"},
    {"asg.memo", "asg.memo_lock_wait_us"},
    {"symbol.intern", "util.intern_lock_wait_us"},
};

void report_locks(std::uint64_t decisions, const std::vector<std::pair<const char*, const char*>>& locks,
                  Report& report) {
    auto snapshot = obs::locks().snapshot();
    for (const auto& [lock, metric] : locks) {
        double wait = 0;
        for (const auto& s : snapshot) {
            if (s.name == lock) wait = static_cast<double>(s.wait_us.sum);
        }
        report.metric(metric, decisions == 0 ? 0.0 : wait / static_cast<double>(decisions), "us");
    }
}

// Outside timing of the per-request steps no span isolates, replayed on
// the workload's own requests: cache-key build, Earley parse, ASG
// instantiation, grounding, wire decode and reply encode.
void report_replay(const std::vector<cfg::TokenString>& requests,
                   const std::vector<std::size_t>& sample, const asg::AnswerSetGrammar& grammar,
                   const asp::Program& context, Report& report) {
    std::vector<double> key_us, parse_us, inst_us, decode_us, encode_us;
    double trees = 0, rules = 0, tree_count = 0, key_bytes = 0;
    for (std::size_t idx : sample) {
        const auto& tokens = requests[idx];
        auto t0 = Clock::now();
        auto key = srv::DecisionCache::make_key(tokens, context);
        key_us.push_back(us_since(t0));
        key_bytes += static_cast<double>(key.text.size());

        t0 = Clock::now();
        auto parsed = cfg::parse_trees(grammar.grammar(), tokens);
        parse_us.push_back(us_since(t0));
        trees += static_cast<double>(parsed.size());
        for (const auto& tree : parsed) {
            t0 = Clock::now();
            auto program = asg::instantiate(grammar, tree, context);
            inst_us.push_back(us_since(t0));
            rules += static_cast<double>(asp::ground(program).rules().size());
            tree_count += 1;
        }

        std::string line = "{\"id\":7,\"decide\":\"" + obs::json_escape(cfg::detokenize(tokens)) + "\"}";
        std::string error;
        t0 = Clock::now();
        auto wire = srv::parse_wire_request(line, &error);
        decode_us.push_back(us_since(t0));
        srv::Decision decision;
        decision.outcome = srv::Outcome::Permit;
        decision.model_version = 3;
        decision.latency_us = 42;
        decision.trace_id = idx;
        t0 = Clock::now();
        (void)srv::wire_decision_json(wire.value_or(srv::WireRequest{}), decision);
        encode_us.push_back(us_since(t0));
    }
    auto n = static_cast<double>(sample.size());
    report.metric("srv.cache_key_us", perfbench::median(key_us), "us");
    report.stamp_number("cache_key_bytes", n == 0 ? 0.0 : key_bytes / n);
    report.metric("cfg.parse_us", perfbench::median(parse_us), "us");
    report.metric("cfg.trees_per_request", n == 0 ? 0.0 : trees / n, "count");
    report.metric("asg.instantiate_us", perfbench::median(inst_us), "us");
    report.metric("asp.ground.rules_per_tree", tree_count == 0 ? 0.0 : rules / tree_count, "count");
    report.metric("srv.wire.decode_us", perfbench::median(decode_us), "us");
    report.metric("srv.wire.encode_us", perfbench::median(encode_us), "us");
}

void report_service_stats(const srv::ServiceStats& before, const srv::ServiceStats& after,
                          Report& report) {
    auto hits = after.cache.hits - before.cache.hits;
    auto misses = after.cache.misses - before.cache.misses;
    report.metric("srv.cache.hit_ratio",
                  hits + misses == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(hits + misses),
                  "ratio");
    report.metric("srv.cache.invalidations",
                  static_cast<double>(after.cache.invalidations - before.cache.invalidations), "count");
    auto mhits = after.memo.hits - before.memo.hits;
    auto mmisses = after.memo.misses - before.memo.misses;
    report.metric("asg.memo.hit_ratio",
                  mhits + mmisses == 0 ? 0.0
                                       : static_cast<double>(mhits) / static_cast<double>(mhits + mmisses),
                  "ratio");
    report.metric("asg.memo.sat_hits", static_cast<double>(after.memo.sat_hits - before.memo.sat_hits),
                  "count");
    report.metric("asg.memo.gate_fallbacks",
                  static_cast<double>(after.memo.gate_fallbacks - before.memo.gate_fallbacks), "count");
    report.metric("asg.memo.bytes", static_cast<double>(after.memo.bytes), "bytes");
}

// serve_cold learns nothing: its learner layers did no work.
void report_no_learning(Report& report) {
    for (const char* name : {"ilp.space_gen_ms", "ilp.worlds_ms", "ilp.learn_ms", "ilp.cav_learn_ms"}) {
        report.metric(name, 0, "ms");
    }
    for (const char* name : {"ilp.candidates", "ilp.coverage_checks", "ilp.search_nodes",
                             "ilp.pruned_branches"}) {
        report.metric(name, 0, "count");
    }
}

// ------------------------------------------------------------- domains

// The healthcare schema widened to 6 roles x 4 departments x 3 actions x
// 3 resources x 24 hours = 5,184 requests: big enough that a Zipf mix has
// a long tail, small enough to check learned policies on every request.
xacml::Schema widened_schema() {
    using xacml::AttributeDef;
    using xacml::Category;
    xacml::Schema s;
    s.attributes.push_back(AttributeDef::categorical(
        "role", Category::Subject, {"doctor", "nurse", "admin", "guest", "intern", "auditor"}));
    s.attributes.push_back(
        AttributeDef::categorical("dept", Category::Subject, {"cardio", "radio", "er", "onco"}));
    s.attributes.push_back(
        AttributeDef::categorical("action", Category::Action, {"read", "write", "delete"}));
    s.attributes.push_back(
        AttributeDef::categorical("resource", Category::Resource, {"record", "report", "image"}));
    s.attributes.push_back(AttributeDef::numeric_range("hour", Category::Environment, 0, 23));
    return s;
}

// The context an XACML request is decided under: the bridge's background
// knowledge, which the default BridgeOptions that make_bridge(schema) uses
// leave empty. The AMS still gathers it from a PIP source, as `agenp serve`
// does for its context file.
asp::Program xacml_context() { return xacml::BridgeOptions{}.background; }

// A Fig 3a task: a default-permit ground truth and a 400-entry log of it.
struct XacmlTask {
    std::uint64_t family_seed = 0;
    xacml::XacmlPolicy truth;
    std::vector<xacml::LogEntry> log;
};

XacmlTask make_xacml_task(const xacml::Schema& schema, std::uint64_t family_seed) {
    XacmlTask task;
    task.family_seed = family_seed;
    task.truth = xacml::default_permit_family(schema, {.deny_rules = 3, .seed = family_seed});
    util::Rng rng(500 + family_seed);
    task.log = xacml::evaluate_batch(task.truth, xacml::sample_requests(schema, kLogEntries, rng));
    return task;
}

asg::AnswerSetGrammar learn_xacml(const xacml::Bridge& bridge, const XacmlTask& task) {
    auto result = xacml::learn_policy(bridge, task.log);
    if (!result.found) {
        throw std::runtime_error("no policy learned for family " + std::to_string(task.family_seed) +
                                 ": " + result.failure_reason);
    }
    return bridge.grammar.with_rules(result.hypothesis);
}

void check_agreement(const xacml::Bridge& bridge, const asg::AnswerSetGrammar& learned,
                     const XacmlTask& task, const std::vector<xacml::Request>& space,
                     Report& report) {
    double score = xacml::agreement(bridge, learned, task.truth, space);
    if (score != 1.0) {
        report.mismatch("learned policy for family " + std::to_string(task.family_seed) +
                        " has agreement " + number(score) + " < 1.0");
    }
}

std::vector<cfg::TokenString> xacml_request_table(const xacml::Schema& schema,
                                                  const std::vector<xacml::Request>& space,
                                                  std::uint64_t seed) {
    std::vector<cfg::TokenString> table;
    table.reserve(space.size());
    for (const auto& r : space) table.push_back(xacml::request_tokens(schema, r));
    util::Rng rng(derive(seed, 7));
    rng.shuffle(table);  // Zipf rank k -> a seeded request, not the k-th in schema order
    return table;
}

// serve_cold's policy: the demo serving policy made compositional. The
// root joins facts from three children, each with 48 alternatives, so the
// CFG has 48^3 = 110,592 sentences; the PIP context carries
// srv::kDemoContextWeight load facts the root joins pairwise.
asg::AnswerSetGrammar cold_grammar() {
    std::string text =
        "request -> \"do\" task \"in\" zone \"by\" unit {\n"
        "  :- requires(L)@2, maxloa(M), L > M.\n"
        "  :- risk(R)@4, cover(C)@6, R > C + 2.\n"
        "  stress(X, Y) :- load(X), load(Y).\n"
        "}\n";
    for (int i = 0; i < 48; ++i) {
        auto n = std::to_string(i);
        text += "task -> \"task_" + n + "\" { requires(" + std::to_string(i % 5 + 1) + "). }\n";
        text += "zone -> \"zone_" + n + "\" { risk(" + std::to_string(i % 6) + "). }\n";
        text += "unit -> \"unit_" + n + "\" { cover(" + std::to_string(i % 4) + "). }\n";
    }
    return asg::AnswerSetGrammar::parse(text);
}

// Every sentence of the cold grammar's CFG.
std::vector<cfg::TokenString> sentences(const asg::AnswerSetGrammar& grammar) {
    auto enumerated = cfg::generate_strings(
        grammar.grammar(), {.max_strings = 200000, .max_length = 8, .max_expansions = 10000000});
    if (enumerated.truncated) throw std::runtime_error("serve_cold: CFG enumeration truncated");
    return std::move(enumerated.strings);
}

asp::Program cold_context() {
    std::string text = "maxloa(3).\n";
    for (std::size_t i = 1; i <= srv::kDemoContextWeight; ++i) {
        text += "load(" + std::to_string(i) + ").\n";
    }
    return asp::parse_program(text);
}

std::unique_ptr<framework::AutonomousManagedSystem> make_ams(const std::string& name,
                                                             const asg::AnswerSetGrammar& initial,
                                                             const asp::Program& context) {
    auto ams = std::make_unique<framework::AutonomousManagedSystem>(name, indexed(initial),
                                                                    ilp::HypothesisSpace{});
    ams->pip().add_source("env", [context] { return context; });
    return ams;
}

// In-process closed-loop client body: draw, submit, wait, record.
using Draw = std::function<std::size_t(util::Rng&)>;

void serve_inproc(WindowResult& result, srv::DecisionService& service,
                  const std::vector<cfg::TokenString>& requests, const Draw& draw, std::uint64_t seed,
                  double seconds) {
    run_window(result, seconds, [&](std::size_t c, Recorder& rec, Clock::time_point start,
                                           Clock::time_point end) {
        util::Rng rng(derive(seed, 100 + c));
        for (;;) {
            std::size_t idx = draw(rng);
            auto t0 = Clock::now();
            if (t0 >= end) break;
            srv::Decision d = service.submit(requests[idx]).get();
            auto t1 = Clock::now();
            Verdict v = d.outcome == srv::Outcome::Permit ? Verdict::Permit
                        : d.outcome == srv::Outcome::Deny ? Verdict::Deny
                                                          : Verdict::Failed;
            rec.record(start, t0, t1, static_cast<std::uint32_t>(idx), v, d.model_version,
                       d.trace_id, -1);
            if (c == 0 && rec.attempted == kHeapProbeRequests) rec.heap_mb = heap_in_use_mb();
        }
    });
}

// Serves `requests` (all of them, in order, split over the clients) so the
// cache and memo hold every one before timing starts.
void warm_all(srv::DecisionService& service, const std::vector<cfg::TokenString>& requests) {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
            for (std::size_t i = c; i < requests.size(); i += kClients) {
                (void)service.submit(requests[i]).get();
            }
        });
    }
    for (auto& t : threads) t.join();
}

void warm_draws(srv::DecisionService& service, const std::vector<cfg::TokenString>& requests,
                const Draw& draw, std::uint64_t seed, std::size_t per_client) {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
            util::Rng rng(derive(seed, 200 + c));
            for (std::size_t i = 0; i < per_client; ++i) (void)service.submit(requests[draw(rng)]).get();
        });
    }
    for (auto& t : threads) t.join();
}

srv::ServiceOptions service_options(bool traced) {
    srv::ServiceOptions options;
    options.threads = kWorkers;
    if (traced) {
        options.trace.sample_every = 1;
        options.trace.max_captured = 20000;
    }
    return options;
}

template <typename Fn>
double median_setup(Fn&& setup) {
    std::vector<double> times;
    for (int i = 0; i < kSetupRepeats; ++i) {
        auto t0 = Clock::now();
        setup();
        times.push_back(seconds_since(t0));
    }
    return perfbench::median(times);
}

// Traced-vs-untraced throughput, in percent of the untraced figure.
void report_overhead(double untraced_rps, double traced_rps, Report& report) {
    report.metric("obs.trace_overhead_pct",
                  untraced_rps <= 0 ? 0.0 : 100.0 * (untraced_rps - traced_rps) / untraced_rps, "%");
}

std::vector<std::size_t> replay_sample(std::size_t table, const Draw& draw, std::uint64_t seed) {
    util::Rng rng(derive(seed, 300));
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < kReplayRequests; ++i) out.push_back(draw(rng) % table);
    return out;
}

// ------------------------------------------------------ learning layers

ilp::LearningTask cav_task(const std::vector<scenarios::cav::Instance>& instances) {
    ilp::LearningTask task;
    task.initial = scenarios::cav::initial_asg();
    task.space = scenarios::cav::hypothesis_space();
    for (const auto& x : instances) {
        auto ex = scenarios::cav::to_symbolic(x);
        (ex.accepted ? task.positive : task.negative).emplace_back(ex.request, ex.context);
    }
    return task;
}

// Full-space check of a learned CAV model: it must decide every task x
// vehicle level x region limit x weather instance as reference_model does.
void check_cav(const asg::AnswerSetGrammar& learned, Report& report) {
    auto reference = scenarios::cav::reference_model();
    std::size_t disagree = 0;
    for (std::size_t t = 0; t < scenarios::cav::tasks().size(); ++t) {
        for (int loa = 0; loa <= 5; ++loa) {
            for (int limit = 0; limit <= 5; ++limit) {
                for (std::size_t w = 0; w < scenarios::cav::weathers().size(); ++w) {
                    scenarios::cav::Instance x;
                    x.task = t;
                    x.env = {loa, limit, static_cast<int>(w)};
                    auto tokens = scenarios::cav::request_tokens(x);
                    auto ctx = scenarios::cav::context_program(x.env);
                    if (asg::in_language(learned, tokens, ctx) != asg::in_language(reference, tokens, ctx)) {
                        ++disagree;
                    }
                }
            }
        }
    }
    if (disagree > 0) {
        report.mismatch("learned CAV model disagrees with reference_model on " +
                        std::to_string(disagree) + " instances");
    }
}

// The learning path (Definition 3) that serve_hot's set-up runs, timed
// outside the library stage by stage on its Fig 3a task: the hypothesis
// space and examples (xacml::make_bridge + make_task), the worlds of every
// example under the initial grammar (asg::solve_tree over its parse
// trees), and ilp::learn, with the learner's own counts. The task runs
// kLearnRepeats times; the medians are reported. The paper's second task, CAV (scenarios::cav,
// kCavExamples examples), is learned as well: its ilp::learn time is
// reported on its own and its hypothesis checked against reference_model.
void report_learning(const xacml::Schema& schema, const XacmlTask& xacml_task, std::uint64_t seed,
                     Report& report) {
    std::vector<double> space_ms, worlds_ms, learn_ms, candidates, checks, nodes, pruned;
    for (int rep = 0; rep < kLearnRepeats; ++rep) {
        auto t0 = Clock::now();
        auto task = xacml::make_task(xacml::make_bridge(schema), xacml_task.log);
        space_ms.push_back(us_since(t0) / 1e3);
        t0 = Clock::now();
        for (const auto* examples : {&task.positive, &task.negative}) {
            for (const auto& ex : *examples) {
                for (const auto& tree : cfg::parse_trees(task.initial.grammar(), ex.string)) {
                    (void)asg::solve_tree(task.initial, tree, ex.context);
                }
            }
        }
        worlds_ms.push_back(us_since(t0) / 1e3);
        t0 = Clock::now();
        auto result = ilp::learn(task);
        learn_ms.push_back(us_since(t0) / 1e3);
        ++report.attempted;
        if (!result.found) {
            report.mismatch("family " + std::to_string(xacml_task.family_seed) +
                            ": no hypothesis found in the traced run");
            ++report.failed;
            continue;
        }
        candidates.push_back(static_cast<double>(result.stats.candidates));
        checks.push_back(static_cast<double>(result.stats.coverage_checks));
        nodes.push_back(static_cast<double>(result.stats.search_nodes));
        pruned.push_back(static_cast<double>(result.stats.pruned_branches));
    }
    report.metric("ilp.space_gen_ms", perfbench::median(space_ms), "ms");
    report.metric("ilp.worlds_ms", perfbench::median(worlds_ms), "ms");
    report.metric("ilp.learn_ms", perfbench::median(learn_ms), "ms");
    report.metric("ilp.candidates", perfbench::median(candidates), "count");
    report.metric("ilp.coverage_checks", perfbench::median(checks), "count");
    report.metric("ilp.search_nodes", perfbench::median(nodes), "count");
    report.metric("ilp.pruned_branches", perfbench::median(pruned), "count");

    util::Rng rng(derive(seed, 5));
    auto cav = cav_task(scenarios::cav::sample_instances(kCavExamples, rng));
    std::vector<double> cav_ms;
    for (int rep = 0; rep < kLearnRepeats; ++rep) {
        auto t0 = Clock::now();
        auto result = ilp::learn(cav);
        cav_ms.push_back(us_since(t0) / 1e3);
        ++report.attempted;
        if (!result.found) {
            report.mismatch("CAV: no hypothesis found");
            ++report.failed;
        } else if (rep == 0) {
            check_cav(cav.initial.with_rules(result.hypothesis), report);
        }
    }
    report.metric("ilp.cav_learn_ms", perfbench::median(cav_ms), "ms");
}

// ---------------------------------------------------- TCP with adoption

// Swaps the served model between the two learned policies after every
// kAdoptEveryRequests decisions the clients complete, through the router,
// until stopped; records which policy each adopted version carries.
// Counting requests rather than seconds keeps the share of refill misses
// a property of the workload: on a timer, a slower run would serve fewer
// requests per model, miss more often and slow down further.
class Adopter {
public:
    Adopter(srv::AmsRouter& router, const std::vector<const asg::AnswerSetGrammar*>& models,
            std::map<std::uint64_t, std::size_t>& version_model)
        : router_(router), models_(models), version_model_(version_model) {
        thread_ = std::thread([this] { loop(); });
    }
    ~Adopter() { stop(); }
    Adopter(const Adopter&) = delete;
    Adopter& operator=(const Adopter&) = delete;

    // Called by a client after each reply.
    void completed() {
        if ((served_.fetch_add(1, std::memory_order_relaxed) + 1) % kAdoptEveryRequests != 0) return;
        {
            std::lock_guard<std::mutex> lock(mu_);
            ++due_;
        }
        cv_.notify_one();
    }

    void stop() {
        {
            std::lock_guard<std::mutex> lock(mu_);
            stopping_ = true;
        }
        cv_.notify_all();
        if (thread_.joinable()) thread_.join();
    }
    [[nodiscard]] std::size_t adoptions() const { return adoptions_; }

private:
    void loop() {
        std::size_t which = 1;  // model 0 is already served
        std::unique_lock<std::mutex> lock(mu_);
        for (;;) {
            cv_.wait(lock, [this] { return stopping_ || due_ > adoptions_; });
            if (stopping_) return;
            lock.unlock();
            const auto* model = models_[which];
            auto version = router_.update_model([model](framework::AutonomousManagedSystem& ams) {
                ams.representations().store(indexed(*model), "adopt");
            });
            lock.lock();
            version_model_[version] = which;
            ++adoptions_;
            which = 1 - which;
        }
    }

    srv::AmsRouter& router_;
    std::vector<const asg::AnswerSetGrammar*> models_;
    std::map<std::uint64_t, std::size_t>& version_model_;  // written under mu_
    std::atomic<std::uint64_t> served_{0};
    std::mutex mu_;
    std::condition_variable cv_;
    bool stopping_ = false;      // guarded by mu_
    std::size_t due_ = 0;        // guarded by mu_
    std::size_t adoptions_ = 0;  // guarded by mu_; read after stop()
    std::thread thread_;
};

// Loopback TCP client body: one connection, one outstanding request line.
void serve_tcp(WindowResult& result, std::uint16_t port, const std::vector<std::string>& lines,
               const Draw& draw, std::uint64_t seed, double seconds, Adopter& adopter) {
    run_window(result, seconds, [&](std::size_t c, Recorder& rec, Clock::time_point start,
                                           Clock::time_point end) {
        util::Rng rng(derive(seed, 100 + c));
        srv::TcpClient conn("127.0.0.1", port);
        for (;;) {
            std::size_t idx = draw(rng);
            auto t0 = Clock::now();
            if (t0 >= end) break;
            conn.send_line(lines[idx]);
            std::optional<std::string> reply = conn.recv_line();
            auto t1 = Clock::now();
            Verdict v = Verdict::Failed;
            std::uint64_t version = 0, trace_id = 0;
            std::int64_t server_us = -1;
            if (reply) {
                auto json = srv::parse_json(*reply);
                const srv::JsonValue* outcome = json ? json->find("outcome") : nullptr;
                if (outcome != nullptr && outcome->is_string()) {
                    v = outcome->string == "permit" ? Verdict::Permit : Verdict::Deny;
                    if (const auto* mv = json->find("model_version")) version = mv->as_uint();
                    if (const auto* id = json->find("trace_id")) trace_id = id->as_uint();
                    if (const auto* lat = json->find("latency_us")) {
                        server_us = static_cast<std::int64_t>(lat->as_uint());
                    }
                }
            }
            rec.record(start, t0, t1, static_cast<std::uint32_t>(idx), v, version, trace_id,
                       server_us);
            if (!reply) break;  // connection lost: the rest of this client's window is gone
            adopter.completed();
        }
    });
}

// The hot mix over loopback TCP while the served model keeps changing:
// a TcpServer in front of a 1-replica AmsRouter, kClients connections, and
// an Adopter swapping the hot policy (A) with a second learned Fig 3a
// policy (B). This is where the wire JSON, the event loop and the write
// side of serving run: version-stamped invalidation, refill misses and
// exclusive holds of srv.model. Verdicts are checked per served version.
void run_tcp_adoption(const xacml::Schema& schema, const std::vector<xacml::Request>& space,
                      const xacml::Bridge& bridge, const asg::AnswerSetGrammar& model_a,
                      const asp::Program& context, const std::vector<cfg::TokenString>& requests,
                      const Draw& draw, std::uint64_t seed, double seconds, Report& report) {
    auto family_a = kFamilySeeds[seed % std::size(kFamilySeeds)];
    auto task_b = make_xacml_task(schema, kFamilySeeds[(seed + 1) % std::size(kFamilySeeds)]);
    auto model_b = learn_xacml(bridge, task_b);
    check_agreement(bridge, model_b, task_b, space, report);
    std::vector<const asg::AnswerSetGrammar*> models{&model_a, &model_b};

    std::vector<std::string> lines;
    lines.reserve(requests.size());
    for (const auto& r : requests) {
        lines.push_back("{\"decide\":\"" + obs::json_escape(cfg::detokenize(r)) + "\"}");
    }
    srv::RouterOptions options;
    options.replicas = 1;
    options.service = service_options(false);
    srv::AmsRouter router(
        [&] {
            auto ams = make_ams("serve_hot/tcp", bridge.grammar, context);
            ams->representations().store(indexed(model_a), "family " + std::to_string(family_a));
            return ams;
        },
        options);
    std::map<std::uint64_t, std::size_t> version_model{{router.model_version(), 0}};
    srv::TcpServer server(router, srv::TransportOptions{});
    warm_all(router.service(0), requests);

    auto before = router.service(0).snapshot_stats();
    obs::locks().reset();
    WindowResult w = new_window(true);
    {
        Adopter adopter(router, models, version_model);
        serve_tcp(w, server.port(), lines, draw, derive(seed, 6), seconds, adopter);
        adopter.stop();
        report.stamp_number("tcp_adoptions", static_cast<double>(adopter.adoptions()));
    }
    auto after = router.service(0).snapshot_stats();
    report_locks(after.completed - before.completed, {kModelLock}, report);
    report.metric("srv.cache.invalidations",
                  static_cast<double>(after.cache.invalidations - before.cache.invalidations), "count");
    std::vector<double> transport;
    for (const auto& c : w.clients) transport.insert(transport.end(), c.transport_us.begin(), c.transport_us.end());
    report.metric("srv.transport_us", perfbench::percentile(transport, 0.5), "us");
    report.stamp_number("tcp_throughput_rps", window_throughput(w));
    server.shutdown();

    count_attempts(w, report);
    check_verdicts({&w}, requests, context,
                   [&](std::uint64_t version) {
                       auto it = version_model.find(version);
                       if (it == version_model.end()) {
                           return std::make_pair(std::size_t{0},
                                                 static_cast<const asg::AnswerSetGrammar*>(nullptr));
                       }
                       return std::make_pair(it->second, models[it->second]);
                   },
                   report);
}

// ------------------------------------------------------------ serve_hot

int run_serve_hot(std::uint64_t seed, double seconds, bool trace, Report& report) {
    auto schema = widened_schema();
    auto space = xacml::enumerate_requests(schema);
    auto context = xacml_context();
    auto task = make_xacml_task(schema, kFamilySeeds[seed % std::size(kFamilySeeds)]);
    auto requests = xacml_request_table(schema, space, seed);
    perfbench::Zipf zipf(requests.size(), kZipfSkew);
    Draw draw = [&zipf](util::Rng& rng) { return zipf.draw(rng); };

    // Fig 3a flow, each set-up from scratch: learn from the log, adopt the
    // learned GPM into a fresh AMS, start the service, warm it.
    std::unique_ptr<xacml::Bridge> bridge;
    std::unique_ptr<framework::AutonomousManagedSystem> ams;
    std::unique_ptr<srv::DecisionService> service;
    asg::AnswerSetGrammar learned;
    // Made before set-up, so the heap baseline covers its Recorders.
    WindowResult untraced = new_window(false);
    double heap_baseline_mb = 0;
    double setup_s = median_setup([&] {
        service.reset();
        ams.reset();
        bridge = std::make_unique<xacml::Bridge>(xacml::make_bridge(schema));
        learned = learn_xacml(*bridge, task);
        (void)indexed(bridge->grammar);
        (void)indexed(learned);
        heap_baseline_mb = heap_in_use_mb();
        ams = make_ams("serve_hot", bridge->grammar, context);
        ams->representations().store(learned, "fig3a");
        service = std::make_unique<srv::DecisionService>(*ams, service_options(false));
        warm_all(*service, requests);
        warm_draws(*service, requests, draw, seed, 20000);
    });
    check_agreement(*bridge, learned, task, space, report);

    // The traced run splits its time three ways: untraced in-process (the
    // overhead baseline), traced in-process, and TCP with adoption.
    serve_inproc(untraced, *service, requests, draw, seed, trace ? seconds / 3 : seconds);
    double heap_mb = probed_heap_mb(untraced) - heap_baseline_mb;
    std::vector<const WindowResult*> windows{&untraced};
    std::optional<WindowResult> traced;
    if (trace) {
        service.reset();
        service = std::make_unique<srv::DecisionService>(*ams, service_options(true));
        warm_all(*service, requests);
        warm_draws(*service, requests, draw, seed, 20000);
        auto before = service->snapshot_stats();
        obs::locks().reset();
        traced = new_window(true);
        serve_inproc(*traced, *service, requests, draw, derive(seed, 2), seconds / 3);
        auto after = service->snapshot_stats();
        std::vector<std::pair<const char*, const char*>> read_locks(std::begin(kReadPathLocks),
                                                                    std::end(kReadPathLocks));
        report_locks(after.completed - before.completed, read_locks, report);
        report_service_stats(before, after, report);
        auto summary = summarize_traces(service->captured_traces(), {&*traced});
        report_spans(summary, report);
        report_overhead(window_throughput(untraced), window_throughput(*traced), report);
        report_replay(requests, replay_sample(requests.size(), draw, seed), learned, context, report);
        report_learning(schema, task, seed, report);
        report.metric("asg.memo_off_p50_us", 0, "us");  // hits only: the memo is not consulted
        windows.push_back(&*traced);
        service.reset();
        // Reports srv.transport_us, srv.model_lock_wait_us and (replacing
        // the in-process zero) srv.cache.invalidations.
        run_tcp_adoption(schema, space, *bridge, learned, context, requests, draw, seed, seconds / 3,
                         report);
    } else {
        report_end_to_end(windows_of(untraced), setup_s, heap_mb, report);
    }
    service.reset();
    for (const auto* w : windows) count_attempts(*w, report);
    check_verdicts(windows, requests, context,
                   [&](std::uint64_t) { return std::make_pair(std::size_t{0}, &learned); }, report);
    return 0;
}

// ----------------------------------------------------------- serve_cold

int run_serve_cold(std::uint64_t seed, double seconds, bool trace, Report& report) {
    auto context = cold_context();
    std::vector<cfg::TokenString> requests;
    asg::AnswerSetGrammar grammar;
    std::unique_ptr<framework::AutonomousManagedSystem> ams;
    std::unique_ptr<srv::DecisionService> service;
    // Uniform over the CFG's sentences: with 110,592 of them a run's
    // draws are nearly all novel, so almost every request misses both the
    // decision cache and the memo's root verdicts.
    Draw draw = [&requests](util::Rng& rng) {
        return static_cast<std::size_t>(rng.uniform(0, static_cast<std::int64_t>(requests.size()) - 1));
    };
    // Made before set-up, so the heap baseline covers its Recorders.
    WindowResult untraced = new_window(false);
    double heap_baseline_mb = 0;
    // Each set-up starts a fresh service: a cold cache and a cold memo.
    // The warm-up serves a fixed number of draws, so code paths, the
    // allocator and the memo's shared fragments are warm but the verdicts
    // the timed window asks for are still new.
    auto warm = [&](srv::DecisionService& s) {
        warm_draws(s, requests, draw, derive(seed, 3), kColdWarmDraws);
    };
    // The memo keeps the fragments of each novel request until it reaches
    // its capacity (32 MiB by default), then evicts the least recently used.
    // Filling it before a timed window makes the window measure that steady
    // state throughout, rather than a mix of filling and evicting whose
    // shares depend on how fast the run went. The fill serves requests, so
    // setup_s leaves it out.
    auto fill = [&](srv::DecisionService& s) {
        warm_draws(s, requests, draw, derive(seed, 9), kColdFillDraws);
    };
    double setup_s = median_setup([&] {
        service.reset();
        ams.reset();
        grammar = cold_grammar();
        requests = sentences(grammar);
        (void)indexed(grammar);
        heap_baseline_mb = heap_in_use_mb();
        ams = make_ams("serve_cold", grammar, context);
        service = std::make_unique<srv::DecisionService>(*ams, service_options(false));
        warm(*service);
    });
    fill(*service);
    report.stamp_number("distinct_requests", static_cast<double>(requests.size()));

    // The traced run splits its time three ways: untraced (the overhead
    // baseline), traced, and untraced with the grounding memo off.
    serve_inproc(untraced, *service, requests, draw, seed, trace ? seconds / 3 : seconds);
    double heap_mb = probed_heap_mb(untraced) - heap_baseline_mb;
    std::vector<const WindowResult*> windows{&untraced};
    std::optional<WindowResult> traced, memo_off;
    if (trace) {
        service.reset();
        service = std::make_unique<srv::DecisionService>(*ams, service_options(true));
        warm(*service);
        fill(*service);
        auto before = service->snapshot_stats();
        obs::locks().reset();
        traced = new_window(true);
        serve_inproc(*traced, *service, requests, draw, derive(seed, 2), seconds / 3);
        auto after = service->snapshot_stats();
        std::vector<std::pair<const char*, const char*>> locks(std::begin(kReadPathLocks),
                                                               std::end(kReadPathLocks));
        locks.push_back(kModelLock);
        report_locks(after.completed - before.completed, locks, report);
        report_service_stats(before, after, report);
        auto summary = summarize_traces(service->captured_traces(), {&*traced});
        report_spans(summary, report);
        report_overhead(window_throughput(untraced), window_throughput(*traced), report);
        report_replay(requests, replay_sample(requests.size(), draw, seed), grammar, context, report);
        report.metric("srv.transport_us", 0, "us");
        report_no_learning(report);
        windows.push_back(&*traced);

        // The same kind of novel requests with the memo off: the plain
        // membership path, for comparison with latency_p50_us.
        service.reset();
        auto options = service_options(false);
        options.use_memo = false;
        service = std::make_unique<srv::DecisionService>(*ams, options);
        warm(*service);
        fill(*service);
        memo_off = new_window(false);
        serve_inproc(*memo_off, *service, requests, draw, derive(seed, 4), seconds / 3);
        std::vector<double> p50;
        for (const auto& w : windows_of(*memo_off)) p50.push_back(w.p50);
        report.metric("asg.memo_off_p50_us", perfbench::median(p50), "us");
        std::vector<double> memo_on_p50;
        for (const auto& w : windows_of(untraced)) memo_on_p50.push_back(w.p50);
        report.stamp_number("memo_on_p50_us", perfbench::median(memo_on_p50));
        windows.push_back(&*memo_off);
    } else {
        report_end_to_end(windows_of(untraced), setup_s, heap_mb, report);
    }
    service.reset();
    for (const auto* w : windows) count_attempts(*w, report);
    check_verdicts(windows, requests, context,
                   [&](std::uint64_t) { return std::make_pair(std::size_t{0}, &grammar); }, report);
    return 0;
}

// ----------------------------------------------------------------- main

// Confines this thread, and every thread started after it, to the first
// kCpus CPUs it may run on. Returns how many it got.
int confine_cpus() {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return 0;
    g_given_cpus = allowed;
    cpu_set_t chosen;
    CPU_ZERO(&chosen);
    int taken = 0;
    for (int cpu = 0; cpu < CPU_SETSIZE && taken < kCpus; ++cpu) {
        if (CPU_ISSET(cpu, &allowed)) {
            CPU_SET(cpu, &chosen);
            ++taken;
        }
    }
    return sched_setaffinity(0, sizeof(chosen), &chosen) == 0 ? taken : CPU_COUNT(&allowed);
}

// Keeps each CPU the process may use busy with a spinning SCHED_IDLE
// thread. The scheduler runs a spinner only when nothing else wants that
// CPU and preempts it as soon as a benchmark or service thread wakes, so
// the vCPU never halts: a wake-up is a guest context switch rather than a
// trip through the hypervisor, and a halted vCPU cannot lose its turn on
// the host. This is what the kernel's idle=poll does, for this process only.
class CpuKeeper {
public:
    CpuKeeper() {
        cpu_set_t allowed;
        CPU_ZERO(&allowed);
        if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
            if (CPU_ISSET(cpu, &allowed)) threads_.emplace_back([this, cpu] { spin(cpu); });
        }
    }
    ~CpuKeeper() {
        stop_.store(true, std::memory_order_relaxed);
        for (auto& t : threads_) t.join();
    }
    CpuKeeper(const CpuKeeper&) = delete;
    CpuKeeper& operator=(const CpuKeeper&) = delete;

private:
    void spin(int cpu) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        sched_param param{};
        if (sched_setaffinity(0, sizeof(one), &one) != 0 ||
            pthread_setschedparam(pthread_self(), SCHED_IDLE, &param) != 0) {
            return;  // without SCHED_IDLE a spinner would compete with the service
        }
        while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
            __builtin_ia32_pause();
#endif
        }
    }

    std::atomic<bool> stop_{false};
    std::vector<std::thread> threads_;
};

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
};

std::optional<Args> parse_args(int argc, char** argv) {
    Args args;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string flag = argv[i];
        std::string value = argv[i + 1];
        try {
            if (flag == "--workload") {
                args.workload = value;
            } else if (flag == "--seed") {
                args.seed = std::stoull(value);
            } else if (flag == "--seconds") {
                args.seconds = std::stod(value);
            } else if (flag == "--trace") {
                args.trace = value == "1";
            } else {
                return std::nullopt;
            }
        } catch (const std::exception&) {
            return std::nullopt;
        }
    }
    if (argc % 2 == 0 || args.workload.empty() || args.seconds <= 0) return std::nullopt;
    return args;
}

}  // namespace

int main(int argc, char** argv) {
    auto args = parse_args(argc, argv);
    if (!args) {
        std::fprintf(stderr,
                     "usage: agenp_bench --workload serve_hot|serve_cold "
                     "--seed N --seconds S --trace 0|1\n");
        return 2;
    }
    static const std::map<std::string, int (*)(std::uint64_t, double, bool, Report&)> kWorkloads = {
        {"serve_hot", run_serve_hot},
        {"serve_cold", run_serve_cold},
    };
    auto it = kWorkloads.find(args->workload);
    if (it == kWorkloads.end()) {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args->workload.c_str());
        return 2;
    }
    int cpus = confine_cpus();
    Report report;
    report.stamp_string("workload", args->workload);
    report.stamp_number("seed", static_cast<double>(args->seed));
    report.stamp_number("seconds", args->seconds);
    report.stamp_number("trace", args->trace ? 1 : 0);
    report.stamp_number("nproc", std::thread::hardware_concurrency());
    report.stamp_number("cpus_used", cpus);
    report.stamp_string("build_type", PERFBENCH_BUILD_TYPE);
    report.stamp_string("compiler", PERFBENCH_COMPILER);
    report.stamp.emplace_back("build", obs::build_info_json());
    report.stamp_number("clients", kClients);
    report.stamp_number("workers", kWorkers);
    CpuKeeper keeper;
    try {
        it->second(args->seed, args->seconds, args->trace, report);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s failed: %s\n", args->workload.c_str(), e.what());
        return 2;
    }
    report.stamp_number("verdicts_checked", static_cast<double>(report.verdicts_checked));
    report.stamp_number("peak_rss_mb", peak_rss_mb());
    print_report(report);
    return report.correct ? 0 : 1;
}
