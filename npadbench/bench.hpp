#pragma once

// Shared pieces of bench_npad: command-line options, the result record each
// workload fills, sample statistics, output checks against references, and
// the bench-side span recorder.

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "runtime/buffer_pool.hpp"
#include "runtime/value.hpp"
#include "serve/json.hpp"

namespace npad::bench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;    // length of the measured phase
  std::string trace_path;   // non-empty: traced (per-layer) run, spans written here
  bool setup_only = false;  // set up, report setup_s, exit

  bool traced() const { return !trace_path.empty(); }
};

struct Metric {
  double value = 0.0;
  std::string unit;
  int64_t n = 0;  // samples behind the value
};

struct Result {
  double setup_s = 0.0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Metric> metrics;  // end-to-end
  std::map<std::string, Metric> layers;   // per-layer, filled by traced runs
  serve::Json info = serve::Json::object();
  std::vector<std::string> errors;  // the first few failure messages

  // Counts one checked operation; `what` describes a failure.
  void record(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (errors.size() < 8) errors.push_back(what);
  }
  void layer(const std::string& name, double value, const char* unit, int64_t n = 1) {
    layers[name] = Metric{value, unit, n};
  }
};

// ------------------------------------------------------------- statistics --

// Linear-interpolated percentile, p in [0, 1]; 0 for no samples. Infinite
// samples (requests that never completed) sort last.
double percentile(std::vector<double> v, double p);
double geomean(const std::vector<double>& v);

// The statistic of one program's time per evaluation or per request: the
// lower quartile. On a shared machine the share of operations slowed by
// other tenants changes from one hour to the next; between a calm and a busy
// hour the median of `regular` moved 25%, its lower quartile 14%.
inline double typical(const std::vector<double>& v) { return percentile(v, 0.25); }

// --------------------------------------------------------- output checks ---

std::vector<double> flatten(const rt::Value& v);

// Max-norm relative error of `got` against `want`:
// max|got - want| / max|want|, infinite on a length mismatch or NaN.
double rel_err(const std::vector<double>& got, const std::vector<double>& want);

// Max rel_err over the listed (output index, expected values) pairs.
double max_err(const std::vector<rt::Value>& out,
               const std::vector<std::pair<size_t, std::vector<double>>>& want);

// ------------------------------------------------------------------ spans ---

// Bench-side spans, recorded around the benchmark's own calls into each
// module and kept in memory until the run ends. write() emits Chrome
// trace-event JSON, which Perfetto and chrome://tracing open. Every span has
// an id and its parent's id; the spans of one request share `req` and are
// written as one async track per request.
class Trace {
public:
  explicit Trace(bool on) : on_(on) {}

  bool on() const { return on_; }
  uint64_t new_id() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  void add(uint64_t id, uint64_t parent, uint64_t req, std::string name, Clock::time_point t0,
           Clock::time_point t1, serve::Json args = serve::Json::object());
  // Convenience: a fresh id, returned.
  uint64_t add(uint64_t parent, std::string name, Clock::time_point t0, Clock::time_point t1,
               serve::Json args = serve::Json::object()) {
    const uint64_t id = new_id();
    add(id, parent, 0, std::move(name), t0, t1, std::move(args));
    return id;
  }

  void write(const std::string& path) const;

private:
  struct Span {
    uint64_t id, parent, req;
    std::string name;
    Clock::time_point t0, t1;
    int tid;
    serve::Json args;
  };

  bool on_;
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  Clock::time_point origin_ = Clock::now();
};

// --------------------------------------------------------------- workloads --

void run_compute(const Options& opts, Result& res, Trace& trace);  // regular, irregular
void run_serve(const Options& opts, Result& res, Trace& trace);    // serve_http, serve_mixed

// peak_rss_mb: the process's maximum resident set so far.
void report_peak_rss(Result& res);

// Run-level facts every workload reports: buffer-pool footprint after the
// workload dropped its values, thread-pool size.
void report_process(Result& res);

// Per-layer runtime and buffer-pool counters of the measured phase, divided
// by `per` (passes or requests).
void report_runtime(Result& res, const std::map<std::string, uint64_t>& before,
                    const std::map<std::string, uint64_t>& after,
                    const rt::BufferPool::Counters& pool_before,
                    const rt::BufferPool::Counters& pool_after, double per);

} // namespace npad::bench
