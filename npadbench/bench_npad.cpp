// bench_npad: the npad benchmark. One process runs one workload:
//
//   bench_npad --workload W --seed S [--seconds T] [--trace path] --json out
//              [--setup-only]
//
// Workloads (see npadbench/README.md for why each was chosen):
//   regular      the paper's regular nests: gmm/lstm/kmeans gradients + hvp
//   irregular    indirect indexing, data-dependent trip counts: sparse
//                k-means, XSBench, RSBench gradients, bundle-adjustment jvp
//   serve_http   tiny gmm requests through the HTTP front-end, open loop
//   serve_mixed  all six registry programs through the batcher, open loop
//
// Every input, request seed and arrival time derives from --seed. Every
// timed output is checked against a reference. The result — set-up time,
// end-to-end metrics, and with --trace the per-layer metrics plus a Chrome
// trace — is written as JSON to --json; npadbench/run.py turns it into the
// benchmark's result line.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <limits>
#include <string>

#include "bench.hpp"
#include "runtime/buffer_pool.hpp"
#include "support/error.hpp"
#include "support/thread_pool.hpp"

namespace npad::bench {

using serve::Json;

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  if (std::isinf(v[hi])) return v[hi];
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += std::log(x);
  return std::exp(s / static_cast<double>(v.size()));
}

std::vector<double> flatten(const rt::Value& v) {
  if (rt::is_array(v)) return rt::to_f64_vec(rt::as_array(v));
  return {rt::as_f64(v)};
}

double rel_err(const std::vector<double>& got, const std::vector<double>& want) {
  if (got.size() != want.size()) return std::numeric_limits<double>::infinity();
  double diff = 0.0, scale = 0.0;
  for (size_t i = 0; i < got.size(); ++i) {
    const double d = std::fabs(got[i] - want[i]);
    if (std::isnan(d)) return std::numeric_limits<double>::infinity();
    diff = std::max(diff, d);
    scale = std::max(scale, std::fabs(want[i]));
  }
  return diff == 0.0 ? 0.0 : diff / std::max(scale, std::numeric_limits<double>::min());
}

double max_err(const std::vector<rt::Value>& out,
               const std::vector<std::pair<size_t, std::vector<double>>>& want) {
  double e = 0.0;
  for (const auto& [idx, ref] : want) {
    if (idx >= out.size()) return std::numeric_limits<double>::infinity();
    e = std::max(e, rel_err(flatten(out[idx]), ref));
  }
  return e;
}

// ------------------------------------------------------------------ trace ---

namespace {

int thread_index() {
  static std::atomic<int> next{1};
  thread_local const int tid = next.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

} // namespace

void Trace::add(uint64_t id, uint64_t parent, uint64_t req, std::string name,
                Clock::time_point t0, Clock::time_point t1, Json args) {
  if (!on_) return;
  Span s{id, parent, req, std::move(name), t0, t1, thread_index(), std::move(args)};
  std::lock_guard lk(mu_);
  spans_.push_back(std::move(s));
}

void Trace::write(const std::string& path) const {
  std::lock_guard lk(mu_);
  auto us = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  Json events = Json::array();
  for (const Span& s : spans_) {
    Json args = s.args;
    args.set("span_id", Json::number(static_cast<double>(s.id)));
    args.set("parent_id", Json::number(static_cast<double>(s.parent)));
    if (s.req != 0) args.set("req_id", Json::number(static_cast<double>(s.req)));
    auto event = [&](const char* ph, Clock::time_point t) {
      Json e = Json::object();
      e.set("name", Json::string(s.name));
      e.set("ph", Json::string(ph));
      e.set("ts", Json::number(us(t)));
      e.set("pid", Json::number(1));
      e.set("tid", Json::number(s.tid));
      return e;
    };
    if (s.req == 0) {
      Json e = event("X", s.t0);
      e.set("dur", Json::number(us(s.t1) - us(s.t0)));
      e.set("args", std::move(args));
      events.push(std::move(e));
    } else {
      // One async track per request: nested b/e pairs sharing the id.
      Json b = event("b", s.t0);
      b.set("cat", Json::string("request"));
      b.set("id", Json::number(static_cast<double>(s.req)));
      b.set("args", std::move(args));
      Json e = event("e", s.t1);
      e.set("cat", Json::string("request"));
      e.set("id", Json::number(static_cast<double>(s.req)));
      events.push(std::move(b));
      events.push(std::move(e));
    }
  }
  Json root = Json::object();
  root.set("traceEvents", std::move(events));
  root.set("displayTimeUnit", Json::string("ms"));
  std::ofstream os(path);
  os << root.dump() << "\n";
  if (!os) throw ResourceError("bench: cannot write trace " + path);
}

// ----------------------------------------------------------------- process --

void report_peak_rss(Result& res) {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  res.metrics["peak_rss_mb"] = Metric{static_cast<double>(ru.ru_maxrss) / 1024.0, "MB", 1};
}

void report_process(Result& res) {
  // Called after the workload dropped every input, output and future: what
  // the pool still counts as live is held by the runtime itself, and the
  // launch-arena share of it is reported on its own.
  const rt::BufferPool::Counters pc = rt::BufferPool::global().stats();
  res.layer("pool.outstanding_bytes_end", static_cast<double>(pc.outstanding_bytes), "bytes");
  res.layer("pool.outstanding_buffers_end", static_cast<double>(pc.outstanding_buffers), "count");
  res.layer("pool.arena_parked_bytes_end", static_cast<double>(pc.arena_parked_bytes), "bytes");
  res.layer("pool.arena_parked_buffers_end", static_cast<double>(pc.arena_parked_buffers),
            "count");
  res.layer("pool.retained_bytes", static_cast<double>(pc.retained_bytes), "bytes");
  res.layer("runtime.pool_threads", support::ThreadPool::global().thread_count(), "count");
  res.info.set("pool_threads",
               Json::number(static_cast<double>(support::ThreadPool::global().thread_count())));
}

void report_runtime(Result& res, const std::map<std::string, uint64_t>& before,
                    const std::map<std::string, uint64_t>& after,
                    const rt::BufferPool::Counters& pool_before,
                    const rt::BufferPool::Counters& pool_after, double per) {
  auto delta = [&](const char* k) {
    return static_cast<double>(after.at(k) - before.at(k));
  };
  for (const char* k : {"plan_lambda_bodies", "general_maps", "atomic_updates",
                        "privatized_updates", "plan_launches", "vexec_launches",
                        "batched_launches", "segred_launches", "flattened_maps", "arena_reuses",
                        "plan_if_arms", "batched_prog_runs"}) {
    res.layer(std::string("runtime.") + k, delta(k) / per, "count");
  }
  const double spans = delta("vexec_launches");
  res.layer("runtime.full_batch_frac", spans > 0 ? delta("batched_launches") / spans : 0.0,
            "ratio");
  res.layer("pool.hits", static_cast<double>(pool_after.hits - pool_before.hits) / per, "count");
  res.layer("pool.misses", static_cast<double>(pool_after.misses - pool_before.misses) / per,
            "count");
}

} // namespace npad::bench

namespace {

using npad::bench::Json;

void usage() {
  std::fprintf(stderr,
               "usage: bench_npad --workload regular|irregular|serve_http|serve_mixed\n"
               "                  --seed S [--seconds T] [--trace path] --json out [--setup-only]\n");
  std::exit(2);
}

Json metrics_json(const std::map<std::string, npad::bench::Metric>& ms) {
  Json j = Json::object();
  for (const auto& [name, m] : ms) {
    Json v = Json::object();
    v.set("value", Json::number(m.value));
    v.set("unit", Json::string(m.unit));
    v.set("n", Json::number(static_cast<double>(m.n)));
    j.set(name, std::move(v));
  }
  return j;
}

} // namespace

int main(int argc, char** argv) {
  npad::bench::Options opts;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (a == "--workload") {
      opts.workload = value();
    } else if (a == "--seed") {
      opts.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      opts.seconds = std::atof(value().c_str());
    } else if (a == "--trace") {
      opts.trace_path = value();
    } else if (a == "--json") {
      json_path = value();
    } else if (a == "--setup-only") {
      opts.setup_only = true;
    } else {
      usage();
    }
  }
  const bool compute = opts.workload == "regular" || opts.workload == "irregular";
  const bool serving = opts.workload == "serve_http" || opts.workload == "serve_mixed";
  if ((!compute && !serving) || json_path.empty() || !(opts.seconds > 0)) usage();

  npad::bench::Result res;
  npad::bench::Trace trace(opts.traced());
  try {
    if (compute) {
      npad::bench::run_compute(opts, res, trace);
    } else {
      npad::bench::run_serve(opts, res, trace);
    }
    npad::bench::report_process(res);
    if (trace.on()) trace.write(opts.trace_path);
  } catch (const std::exception& e) {
    // A failure outside any single checked operation (set-up, the harness
    // itself): no result.
    std::fprintf(stderr, "bench_npad: %s\n", e.what());
    return 1;
  }

  Json out = Json::object();
  out.set("workload", Json::string(opts.workload));
  out.set("seed", Json::number(static_cast<double>(opts.seed)));
  out.set("seconds", Json::number(opts.seconds));
  out.set("traced", Json::boolean(opts.traced()));
  out.set("setup_s", Json::number(res.setup_s));
  out.set("attempted", Json::number(static_cast<double>(res.attempted)));
  out.set("failed", Json::number(static_cast<double>(res.failed)));
  out.set("metrics", metrics_json(res.metrics));
  out.set("per_layer", metrics_json(res.layers));
  out.set("info", res.info);
  Json errs = Json::array();
  for (const std::string& e : res.errors) errs.push(Json::string(e));
  out.set("errors", std::move(errs));
  std::ofstream os(json_path);
  os << out.dump() << "\n";
  if (!os) {
    std::fprintf(stderr, "bench_npad: cannot write %s\n", json_path.c_str());
    return 1;
  }
  for (const std::string& e : res.errors) std::fprintf(stderr, "bench_npad: failed: %s\n", e.c_str());
  return 0;
}
