// The serving workloads. Both are open loop: requests are issued on a
// Poisson schedule whether or not earlier ones have completed, and each
// request is timed from the moment it was due, so a stall is charged to
// every request it delays (the coordinated-omission correction of wrk2).
//
//   serve_http   tiny gmm requests ({n:16, d:2, k:3}, 3:1 objective to
//                jacobian, 256 request seeds) over kConnections keep-alive
//                connections to an in-process HttpServer, one Poisson stream
//                per connection. Execution is tiny, so the HTTP/JSON
//                front-end and the batching window dominate.
//   serve_mixed  Batcher::submit in-process, round-robin over the six
//                registry programs at their default sizes, 3:1, from one
//                generator thread and one completion thread with no cap on
//                requests in flight. Twelve grouping keys fragment batches
//                and execution dominates.
//
// An untraced run spends --seconds at the workload's reference rate. A traced
// run spends half of it there, then searches for max_rate_rps (a per-layer
// reading: its run-to-run spread is too wide to gate on) with short steps: a
// x1.25 ladder up from the
// reference rate while steps pass (down while they fail), then bisection of
// the bracket to 7%. A step passes when no request failed, p90 latency is
// within the workload's limit and the backlog is not growing. max_rate_rps
// is where p90 reaches the limit, interpolated in log-log within the final
// bracket, so it follows the latency curve instead of snapping to the rates
// tried. p90 rather than p99: at these step lengths p99 rests on a handful of
// requests and one stall moves it several-fold.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <mutex>
#include <future>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "programs.hpp"
#include "runtime/interp.hpp"
#include "serve/batcher.hpp"
#include "serve/http.hpp"
#include "serve/registry.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace npad::bench {
namespace {

using serve::Json;
using serve::Mode;
using Outputs = std::vector<std::vector<double>>;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr int kConnections = 4;
constexpr double kJacobianShare = 0.25;  // 3:1 objective:jacobian
constexpr double kTol = 1e-9;            // max-norm relative, per output
constexpr double kGraceS = 0.25;         // HTTP: how far past a step's end requests are still sent
constexpr double kLadder = 1.25;         // rate ratio between search steps
constexpr double kResolution = 1.07;     // bisect the bracket down to this rate ratio
constexpr int kStepWindows = 3;          // windows per search step
constexpr int kRefWindows = 8;           // windows of the reference phase

// Reference rates are about half of max_rate_rps measured on a 4-core
// x86-64 container.
struct Shape {
  double ref_rate;  // req/s
  double limit_ms;  // p90 latency limit for max_rate_rps
};
constexpr Shape kHttp{1000.0, 10.0};
constexpr Shape kMixed{1000.0, 25.0};

double outputs_err(const Outputs& got, const Outputs& want) {
  if (got.size() != want.size()) return kInf;
  double e = 0.0;
  for (size_t i = 0; i < got.size(); ++i) e = std::max(e, rel_err(got[i], want[i]));
  return e;
}

Outputs flatten_all(const std::vector<rt::Value>& vs) {
  Outputs out;
  for (const rt::Value& v : vs) out.push_back(flatten(v));
  return out;
}

// Sequential reference run (parallelism off), computed at set-up.
Outputs reference(const ir::Prog& p, const std::vector<rt::Value>& args) {
  rt::InterpOptions o;
  o.parallel = false;
  return flatten_all(rt::run_prog(p, args, o));
}

struct Sample {
  double due_ms = 0.0;       // since the step started
  double latency_ms = kInf;  // completion - due; infinite when never sent
  double late_ms = 0.0;      // sent - due
  double queue_wait_ms = 0.0, exec_ms = 0.0, http_overhead_ms = 0.0;
  int batch_size = 0;
  int program = 0;  // index into the workload's programs
  bool jacobian = false;
  bool traced = false;
};

struct Step {
  double rate = 0.0, seconds = 0.0;
  std::vector<Sample> samples;
  std::vector<std::string> errors;  // failed requests
  int64_t inflight_max = 0;

  void merge(Step&& o) {
    samples.insert(samples.end(), o.samples.begin(), o.samples.end());
    errors.insert(errors.end(), o.errors.begin(), o.errors.end());
    inflight_max = std::max(inflight_max, o.inflight_max);
  }
  // Latencies of one program (-1: all) in one mode (-1: both).
  std::vector<double> latencies(int program = -1, int jacobian = -1) const {
    std::vector<double> v;
    for (const Sample& s : samples) {
      if ((program < 0 || s.program == program) &&
          (jacobian < 0 || s.jacobian == (jacobian == 1))) {
        v.push_back(s.latency_ms);
      }
    }
    return v;
  }
  // Requests due by the step's end that had not completed by then.
  int64_t backlog_end() const {
    const double end_ms = seconds * 1e3;
    int64_t n = 0;
    for (const Sample& s : samples) n += s.due_ms + s.latency_ms > end_ms ? 1 : 0;
    return n;
  }
  // The step cut by due time into k windows of equal length.
  std::vector<Step> windows(int k) const {
    std::vector<Step> w(static_cast<size_t>(k));
    const double len_ms = seconds * 1e3 / k;
    for (Step& x : w) {
      x.rate = rate;
      x.seconds = seconds / k;
    }
    for (const Sample& s : samples) {
      const int i = std::clamp(static_cast<int>(s.due_ms / len_ms), 0, k - 1);
      Sample t = s;
      t.due_ms -= i * len_ms;
      w[static_cast<size_t>(i)].samples.push_back(t);
    }
    return w;
  }
  // Median over k windows of f(window). Latency statistics are read this way
  // so that a stall confined to one window (another tenant of the machine,
  // one slow batch) does not move them.
  template <class F>
  double window_median(int k, F f) const {
    std::vector<double> v;
    for (const Step& w : windows(k)) v.push_back(f(w));
    return percentile(v, 0.5);
  }
  double p90() const {
    return window_median(kStepWindows, [](const Step& w) { return percentile(w.latencies(), 0.9); });
  }
  bool passes(double limit_ms) const {
    // Little's law: a steady queue holds about rate x latency requests; twice
    // that at the latency limit, plus one per connection, is "growing".
    const double backlog_cap = rate * limit_ms / 1e3 * 2.0 + kConnections;
    const double backlog = window_median(
        kStepWindows, [](const Step& w) { return static_cast<double>(w.backlog_end()); });
    return errors.empty() && p90() <= limit_ms && backlog <= backlog_cap;
  }
};

double exp_gap_s(support::Rng& rng, double rate) { return -std::log(1.0 - rng.uniform()) / rate; }

Clock::duration secs(double s) {
  return std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
}

uint64_t mix(uint64_t a, uint64_t b) {
  support::Rng r(a * 0x9e3779b97f4a7c15ull + b);
  return r.next_u64();
}

// -------------------------------------------------------------- serve_http --

struct HttpWorkload {
  struct Entry {
    std::string body;
    Outputs want;
    bool jacobian;
  };
  const std::vector<std::string> programs{"gmm"};
  std::vector<Entry> pool;  // [seed index * 2 + jacobian]
  std::vector<std::unique_ptr<serve::HttpClient>> clients;

  static constexpr int kSeeds = 256;

  void make_pool(uint64_t seed) {
    auto entry = serve::Registry::global().find("gmm");
    const serve::SizeMap size{{"n", 16}, {"d", 2}, {"k", 3}};
    for (int i = 0; i < kSeeds; ++i) {
      const uint64_t s = mix(seed, static_cast<uint64_t>(i)) >> 33;  // exact in a JSON number
      for (const bool jac : {false, true}) {
        const Mode m = jac ? Mode::Jacobian : Mode::Objective;
        Entry e;
        e.jacobian = jac;
        e.body = std::string("{\"program\":\"gmm\",\"mode\":\"") + serve::mode_name(m) +
                 "\",\"seed\":" + std::to_string(s) +
                 ",\"size\":{\"n\":16,\"d\":2,\"k\":3},\"return\":\"full\"}";
        e.want = reference(entry->prog(m), entry->make_args(m, s, size));
        pool.push_back(std::move(e));
      }
    }
  }

  // One request on connection `conn`; fills `s` and returns "" or an error.
  // `req` is the request's span id, the parent of its http.post span.
  std::string send(int conn, const Entry& e, Sample& s, Clock::time_point due, Trace& trace,
                   uint64_t req) {
    const Clock::time_point sent = Clock::now();
    std::string body;
    int status = 0;
    std::string error;
    try {
      status = clients[static_cast<size_t>(conn)]->post("/v1/run", e.body, &body);
    } catch (const npad::Error& err) {
      error = err.what();
    }
    const Clock::time_point done = Clock::now();
    s.late_ms = ms_between(due, sent);
    s.latency_ms = ms_between(due, done);
    s.jacobian = e.jacobian;
    if (!error.empty()) return error;
    try {
      const Json j = Json::parse(body);
      const Json* ok = j.get("ok");
      const Json* results = j.get("results");
      if (status != 200 || !ok || !ok->b || !results || !results->is_arr()) {
        return "HTTP " + std::to_string(status) + ": " + body.substr(0, 200);
      }
      Outputs got;
      for (const Json& r : results->arr) got.push_back(flatten(serve::value_from_json(r)));
      s.queue_wait_ms = j.get("queue_wait_ms") ? j.get("queue_wait_ms")->num : 0.0;
      s.exec_ms = j.get("exec_ms") ? j.get("exec_ms")->num : 0.0;
      s.batch_size = j.get("batch_size") ? static_cast<int>(j.get("batch_size")->num) : 0;
      s.http_overhead_ms = ms_between(sent, done) - s.queue_wait_ms - s.exec_ms;
      if (trace.on() && s.traced) {
        Json args = Json::object();
        args.set("queue_wait_ms", Json::number(s.queue_wait_ms));
        args.set("exec_ms", Json::number(s.exec_ms));
        args.set("batch_size", Json::number(s.batch_size));
        trace.add(trace.new_id(), req, req, "http.post", sent, done, std::move(args));
      }
      const double err = outputs_err(got, e.want);
      if (!(err <= kTol)) return "gmm response off its reference by " + std::to_string(err);
    } catch (const npad::Error& err) {
      return err.what();
    }
    return "";
  }

  Step step(double rate, double seconds, uint64_t seed, bool traced, Trace& trace) {
    Step total;
    total.rate = rate;
    total.seconds = seconds;
    std::vector<Step> parts(kConnections);
    const Clock::time_point start = Clock::now();
    const Clock::time_point end = start + secs(seconds);
    std::vector<std::thread> threads;
    for (int c = 0; c < kConnections; ++c) {
      threads.emplace_back([&, c] {
        Step& part = parts[static_cast<size_t>(c)];
        support::Rng rng(mix(seed, static_cast<uint64_t>(c)));
        const double conn_rate = rate / kConnections;
        Clock::time_point due = start + secs(exp_gap_s(rng, conn_rate));
        for (uint64_t i = 0; due < end; ++i, due += secs(exp_gap_s(rng, conn_rate))) {
          std::this_thread::sleep_until(due);
          Sample s;
          s.due_ms = ms_between(start, due);
          if (Clock::now() > end + secs(kGraceS)) {
            part.samples.push_back(s);  // never sent: counts as missing the limit
            continue;
          }
          const Entry& e = pool[static_cast<size_t>(rng.uniform_int(kSeeds)) * 2 +
                                (rng.uniform() < kJacobianShare ? 1 : 0)];
          s.traced = traced && i % 2 == 0;
          const uint64_t req = trace.new_id();
          const std::string err = send(c, e, s, due, trace, req);
          if (!err.empty()) part.errors.push_back(err);
          if (s.traced) {
            trace.add(req, 0, req, e.jacobian ? "request.jacobian" : "request.objective", due,
                      due + secs(s.latency_ms / 1e3));
          }
          part.samples.push_back(s);
        }
      });
    }
    for (auto& t : threads) t.join();
    for (Step& p : parts) total.merge(std::move(p));
    // With one blocking request per connection, the requests in flight are
    // the ones due and not yet completed.
    std::vector<std::pair<double, int>> events;
    for (const Sample& s : total.samples) {
      events.emplace_back(s.due_ms, 1);
      events.emplace_back(s.due_ms + s.latency_ms, -1);
    }
    std::sort(events.begin(), events.end());
    int64_t inflight = 0;
    for (const auto& ev : events) total.inflight_max = std::max(total.inflight_max, inflight += ev.second);
    return total;
  }
};

// ------------------------------------------------------------- serve_mixed --

struct MixedWorkload {
  struct Entry {
    std::string program;
    int index;  // into programs
    Mode mode;
    std::vector<rt::Value> args;  // shared (read-only) by every request using it
    Outputs want;
  };
  std::vector<std::string> programs;
  std::vector<Entry> pool;  // [(program * 2 + jacobian) * kSeeds + seed index]
  serve::Batcher* batcher = nullptr;

  static constexpr int kSeeds = 16;

  void make_pool(uint64_t seed) {
    programs = serve::Registry::global().names();
    for (size_t p = 0; p < programs.size(); ++p) {
      auto entry = serve::Registry::global().find(programs[p]);
      for (const Mode m : {Mode::Objective, Mode::Jacobian}) {
        for (int i = 0; i < kSeeds; ++i) {
          Entry e;
          e.program = programs[p];
          e.index = static_cast<int>(p);
          e.mode = m;
          e.args = entry->make_args(m, mix(seed, p * 64 + static_cast<uint64_t>(i)), {});
          e.want = reference(entry->prog(m), e.args);
          pool.push_back(std::move(e));
        }
      }
    }
  }

  struct InFlight {
    std::future<serve::Response> fut;
    const Entry* entry;
    Clock::time_point due, sent;
    uint64_t req;
    bool traced;
  };

  Step step(double rate, double seconds, uint64_t seed, bool traced, Trace& trace) {
    Step st;
    st.rate = rate;
    st.seconds = seconds;
    std::mutex mu;
    std::condition_variable cv;
    std::deque<InFlight> queue;
    bool generating = true;
    std::atomic<int64_t> completed{0};
    const Clock::time_point start = Clock::now();
    const Clock::time_point end = start + secs(seconds);

    std::thread completion([&] {
      for (;;) {
        InFlight f;
        {
          std::unique_lock lk(mu);
          cv.wait(lk, [&] { return !queue.empty() || !generating; });
          if (queue.empty()) return;
          f = std::move(queue.front());
          queue.pop_front();
        }
        const serve::Response r = f.fut.get();
        Sample s;
        s.due_ms = ms_between(start, f.due);
        s.late_ms = ms_between(f.due, f.sent);
        s.program = f.entry->index;
        s.jacobian = f.entry->mode == Mode::Jacobian;
        s.queue_wait_ms = r.queue_wait_ms;
        s.exec_ms = r.exec_ms;
        s.batch_size = r.batch_size;
        s.traced = f.traced;
        // The batcher completes a request at enqueue + queue wait + exec; the
        // FIFO wait here would add the delay of earlier, slower requests.
        const Clock::time_point ready = f.sent + secs((r.queue_wait_ms + r.exec_ms) / 1e3);
        s.latency_ms = ms_between(f.due, ready);
        std::string error;
        if (!r.ok()) {
          error = f.entry->program + ": " + r.error;
        } else if (const double e = outputs_err(flatten_all(r.results), f.entry->want);
                   !(e <= kTol)) {
          error = f.entry->program + " response off its reference by " + std::to_string(e);
        }
        if (f.traced) {
          Json args = Json::object();
          args.set("queue_wait_ms", Json::number(r.queue_wait_ms));
          args.set("exec_ms", Json::number(r.exec_ms));
          args.set("batch_size", Json::number(r.batch_size));
          const Clock::time_point run = f.sent + secs(r.queue_wait_ms / 1e3);
          trace.add(f.req, 0, f.req, f.entry->program + "." + serve::mode_name(f.entry->mode),
                    f.due, ready);
          const uint64_t sub = trace.new_id();
          trace.add(sub, f.req, f.req, "batcher.submit", f.sent, ready, std::move(args));
          trace.add(trace.new_id(), sub, f.req, "serve.queue_wait", f.sent, run);
          trace.add(trace.new_id(), sub, f.req, "serve.exec", run, ready);
        }
        ++completed;
        std::lock_guard lk(mu);
        st.samples.push_back(s);
        if (!error.empty()) st.errors.push_back(error);
      }
    });

    support::Rng rng(seed);
    int64_t submitted = 0;
    Clock::time_point due = start + secs(exp_gap_s(rng, rate));
    for (uint64_t i = 0; due < end; ++i, due += secs(exp_gap_s(rng, rate))) {
      std::this_thread::sleep_until(due);
      const size_t prog = i % programs.size();
      const bool jac = rng.uniform() < kJacobianShare;
      const Entry& e =
          pool[(prog * 2 + (jac ? 1 : 0)) * kSeeds + static_cast<size_t>(rng.uniform_int(kSeeds))];
      InFlight f;
      f.entry = &e;
      f.due = due;
      f.req = trace.new_id();
      f.traced = traced && (i / programs.size()) % 2 == 0;  // every program, every other round
      f.sent = Clock::now();
      f.fut = batcher->submit(serve::Request{e.program, e.mode, e.args});
      ++submitted;
      st.inflight_max = std::max(st.inflight_max, submitted - completed.load());
      {
        std::lock_guard lk(mu);
        queue.push_back(std::move(f));
      }
      cv.notify_one();
    }
    {
      std::lock_guard lk(mu);
      generating = false;
    }
    cv.notify_one();
    completion.join();
    return st;
  }
};

// ------------------------------------------------------- steps and search --

template <class W>
struct Runner {
  W& w;
  const Options& opts;
  Result& res;
  Trace& trace;
  Shape shape;
  int steps = 0;
  Json log = Json::array();

  Step run(double rate, double seconds, bool traced) {
    Step s = w.step(rate, seconds, mix(opts.seed, 1000 + static_cast<uint64_t>(steps++)), traced,
                    trace);
    uint64_t sent = 0;
    for (const Sample& x : s.samples) sent += std::isfinite(x.latency_ms) ? 1 : 0;
    res.attempted += sent;
    res.failed += s.errors.size();
    for (const std::string& e : s.errors) {
      if (res.errors.size() < 8) res.errors.push_back(e);
    }
    return s;
  }

  struct Rung {
    double rate, p90;
    bool pass;
  };

  Rung rung(double rate, const Step& st) {
    const Rung r{rate, st.p90(), st.passes(shape.limit_ms)};
    Json e = Json::object();
    e.set("rate", Json::number(rate));
    e.set("p90", Json::number(r.p90));
    e.set("backlog", Json::number(static_cast<double>(st.backlog_end())));
    e.set("errors", Json::number(static_cast<double>(st.errors.size())));
    e.set("pass", Json::boolean(r.pass));
    log.push(std::move(e));
    return r;
  }

  // The rate at which p90 reaches the limit between a passing rung and the
  // failing rung above it; the passing rate when the failing rung failed on
  // errors or backlog rather than latency.
  double crossing(const Rung& lo, const Rung& hi) const {
    if (!(hi.p90 > shape.limit_ms) || !std::isfinite(hi.p90) || !(lo.p90 > 0.0)) return lo.rate;
    const double f = std::log(shape.limit_ms / lo.p90) / std::log(hi.p90 / lo.p90);
    return lo.rate * std::pow(hi.rate / lo.rate, f);
  }

  // Walks the ladder from the reference step until a passing and a failing
  // rung are adjacent, bisects that bracket (in log rate) down to kResolution,
  // and interpolates within it. 0 when no step passed.
  double search(const Step& ref, double budget_s, double step_s) {
    double used = 0.0;
    auto step = [&](double r) {
      const Clock::time_point t0 = Clock::now();
      const Rung x = rung(r, run(r, step_s, false));
      used += ms_between(t0, Clock::now()) / 1e3;
      return x;
    };
    Rung cur = rung(shape.ref_rate, ref);
    const bool up = cur.pass;
    std::optional<Rung> lo, hi;
    while (!(lo && hi) && used + step_s <= budget_s) {
      const double r = up ? cur.rate * kLadder : cur.rate / kLadder;
      if (r < shape.ref_rate / 32) break;
      const Rung next = step(r);
      if (next.pass != cur.pass) {
        lo = up ? cur : next;
        hi = up ? next : cur;
      }
      cur = next;
    }
    if (!(lo && hi)) {
      res.info.set("search_censored", Json::boolean(true));  // budget ran out first
      return cur.pass ? cur.rate : 0.0;
    }
    while (hi->rate / lo->rate > kResolution && used + step_s <= budget_s) {
      const Rung mid = step(std::sqrt(lo->rate * hi->rate));
      (mid.pass ? lo : hi) = mid;
    }
    return crossing(*lo, *hi);
  }
};

double mean_of(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

template <class W>
void measure(W& w, const Options& opts, Result& res, Trace& trace, Shape shape,
             const serve::Batcher& batcher, bool http) {
  Runner<W> runner{w, opts, res, trace, shape};
  const auto c0 = batcher.interp().stats().counters();
  const auto s0 = batcher.stats().counters();
  const rt::BufferPool::Counters pool0 = rt::BufferPool::global().stats();

  // An untraced run spends all of --seconds at the reference rate. A traced
  // run spends half there and the other half searching for max_rate_rps.
  const double ref_s = trace.on() ? opts.seconds / 2 : opts.seconds;
  const Step ref = runner.run(shape.ref_rate, ref_s, trace.on());
  // Memory while serving at the reference rate; the search's overloaded
  // steps pile up a backlog whose size varies from run to run.
  report_peak_rss(res);

  const auto c1 = batcher.interp().stats().counters();
  const auto s1 = batcher.stats().counters();
  const rt::BufferPool::Counters pool1 = rt::BufferPool::global().stats();

  // Request latency at the reference rate, each statistic a median over the
  // phase's windows. deriv_ms and primal_ms are geometric means over the
  // programs of each program's typical() latency in that mode.
  const int programs = static_cast<int>(w.programs.size());
  auto by_program = [&](int jacobian) {
    return ref.window_median(kRefWindows, [&](const Step& win) {
      std::vector<double> v;
      for (int p = 0; p < programs; ++p) v.push_back(typical(win.latencies(p, jacobian)));
      return geomean(v);
    });
  };
  Json per_program = Json::object();  // [jacobian p50, p90, objective p50, p90], whole phase
  int64_t dn = std::numeric_limits<int64_t>::max(), pn = dn;
  for (int p = 0; p < programs; ++p) {
    const std::vector<double> jac = ref.latencies(p, 1), obj = ref.latencies(p, 0);
    dn = std::min(dn, static_cast<int64_t>(jac.size()));
    pn = std::min(pn, static_cast<int64_t>(obj.size()));
    Json q = Json::array();
    for (const auto* v : {&jac, &obj}) {
      q.push(Json::number(percentile(*v, 0.5)));
      q.push(Json::number(percentile(*v, 0.9)));
    }
    per_program.set(w.programs[static_cast<size_t>(p)], std::move(q));
  }
  res.info.set("latency_ms_by_program", std::move(per_program));
  const std::vector<double> all = ref.latencies();
  const int64_t n = static_cast<int64_t>(all.size());
  res.metrics["deriv_ms"] = Metric{by_program(1), "ms", dn};
  res.metrics["primal_ms"] = Metric{by_program(0), "ms", pn};
  res.info.set("reference_rate_rps", Json::number(shape.ref_rate));
  res.info.set("latency_ms_p99", Json::number(percentile(all, 0.99)));
  if (!trace.on()) return;

  res.layer("max_rate_rps", runner.search(ref, opts.seconds - ref_s, opts.seconds / 16), "req/s",
            runner.steps - 1);
  res.info.set("search", runner.log);
  res.info.set("latency_limit_ms", Json::number(shape.limit_ms));

  // All requests together, both modes and every program.
  auto overall = [&](double q) {
    return ref.window_median(kRefWindows,
                             [&](const Step& win) { return percentile(win.latencies(), q); });
  };
  res.layer("latency_ms_p50", overall(0.5), "ms", n);
  res.layer("latency_ms_p90", overall(0.9), "ms", n);

  std::vector<double> qw, exec, batch, late, overhead, traced, untraced;
  int64_t sent = 0;
  for (const Sample& s : ref.samples) {
    if (!std::isfinite(s.latency_ms)) continue;
    ++sent;
    qw.push_back(s.queue_wait_ms);
    exec.push_back(s.exec_ms);
    batch.push_back(s.batch_size);
    late.push_back(s.late_ms);
    overhead.push_back(s.http_overhead_ms);
    (s.traced ? traced : untraced).push_back(s.latency_ms);
  }
  const double requests = static_cast<double>(s1.at("serve_requests") - s0.at("serve_requests"));
  res.layer("serve.queue_wait_ms_p50", percentile(qw, 0.5), "ms", sent);
  res.layer("serve.queue_wait_ms_p99", percentile(qw, 0.99), "ms", sent);
  res.layer("serve.exec_ms_p50", percentile(exec, 0.5), "ms", sent);
  res.layer("serve.batch_size_mean", mean_of(batch), "count", sent);
  res.layer("serve.stacked_frac",
            static_cast<double>(s1.at("serve_stacked_requests") - s0.at("serve_stacked_requests")) /
                requests,
            "ratio", sent);
  res.layer("serve.fallback_requests",
            static_cast<double>(s1.at("serve_fallback_requests") - s0.at("serve_fallback_requests")),
            "count");
  if (http) res.layer("http.overhead_ms_p50", percentile(overhead, 0.5), "ms", sent);
  res.layer("loadgen.late_ms_p99", percentile(late, 0.99), "ms", sent);
  res.layer("loadgen.inflight_max", static_cast<double>(ref.inflight_max), "count");
  res.layer("loadgen.due", static_cast<double>(n), "count");
  res.layer("loadgen.sent", static_cast<double>(sent), "count");
  res.layer("loadgen.completed", static_cast<double>(n - ref.backlog_end()), "count");
  res.layer("trace.overhead_pct",
            100.0 * (percentile(traced, 0.5) / percentile(untraced, 0.5) - 1.0), "%", sent);
  report_runtime(res, c0, c1, pool0, pool1, requests);
}

} // namespace

void run_serve(const Options& opts, Result& res, Trace& trace) {
  const bool http = opts.workload == "serve_http";
  const uint64_t seed = opts.seed ^ (http ? 0x6874747000000000ull : 0x6d69786564000000ull);

  // ---- set-up (timed): the registry, batcher and server start, and warm-up
  // requests that compile every program and its stacked form.
  const uint64_t setup_span = trace.new_id();
  const Clock::time_point t_setup = Clock::now();
  serve::register_builtin_programs();
  const double registry_ms = ms_between(t_setup, Clock::now());
  trace.add(setup_span, "serve.register_builtin_programs", t_setup, Clock::now());
  serve::Batcher batcher;
  std::unique_ptr<serve::HttpServer> server;
  HttpWorkload hw;
  MixedWorkload mw;
  mw.batcher = &batcher;
  if (http) {
    server = std::make_unique<serve::HttpServer>(batcher);
    server->start();
    for (int c = 0; c < kConnections; ++c) {
      hw.clients.push_back(std::make_unique<serve::HttpClient>("127.0.0.1", server->port()));
    }
  }
  const Clock::time_point t_warm = Clock::now();
  if (http) {
    // Every connection sends one request per mode at once, so the first
    // stacked launch of each mode compiles here.
    for (const char* mode : {"objective", "jacobian"}) {
      std::vector<std::thread> ts;
      std::vector<int> status(kConnections, 0);
      for (int c = 0; c < kConnections; ++c) {
        ts.emplace_back([&, c] {
          std::string body;
          status[static_cast<size_t>(c)] = hw.clients[static_cast<size_t>(c)]->post(
              "/v1/run",
              std::string("{\"program\":\"gmm\",\"mode\":\"") + mode +
                  "\",\"seed\":" + std::to_string(c) + ",\"size\":{\"n\":16,\"d\":2,\"k\":3}}",
              &body);
        });
      }
      for (auto& t : ts) t.join();
      for (int s : status) {
        if (s != 200) throw ResourceError("bench: warm-up request failed with HTTP " + std::to_string(s));
      }
    }
  } else {
    for (const std::string& name : serve::Registry::global().names()) {
      auto entry = serve::Registry::global().find(name);
      for (const Mode m : {Mode::Objective, Mode::Jacobian}) {
        std::vector<std::future<serve::Response>> fs;
        for (int i = 0; i < 4; ++i) {
          fs.push_back(batcher.submit(serve::Request{name, m, entry->make_args(m, i, {})}));
        }
        for (auto& f : fs) {
          const serve::Response r = f.get();
          if (!r.ok()) throw ResourceError("bench: warm-up of " + name + " failed: " + r.error);
        }
      }
    }
  }
  const double warmup_ms = ms_between(t_warm, Clock::now());
  trace.add(setup_span, "serve.warmup", t_warm, Clock::now());
  res.setup_s = ms_between(t_setup, Clock::now()) / 1e3;
  trace.add(setup_span, 0, 0, "setup", t_setup, Clock::now());

  if (!opts.setup_only) {
    // ---- references (untimed), then the measured phases.
    if (http) {
      hw.make_pool(seed);
      measure(hw, opts, res, trace, kHttp, batcher, true);
    } else {
      mw.make_pool(seed);
      measure(mw, opts, res, trace, kMixed, batcher, false);
    }
    if (trace.on()) {
      // Per-layer set-up breakdown: the recipe rebuild of every registry
      // program the workload sends requests to.
      BuildStats built;
      int mismatches = 0;
      const std::vector<std::string> used =
          http ? std::vector<std::string>{"gmm"} : serve::Registry::global().names();
      for (const std::string& name : used) {
        const uint64_t span = trace.new_id();
        const Clock::time_point t0 = Clock::now();
        const Programs rebuilt = build(recipe_for_registry(name), &built, trace, span);
        trace.add(span, 0, 0, "rebuild." + name, t0, Clock::now());
        auto entry = serve::Registry::global().find(name);
        if (!same_program(rebuilt.primal, entry->objective) ||
            !same_program(rebuilt.deriv, entry->jacobian)) {
          ++mismatches;
        }
      }
      report_build(res, built);
      res.layer("serve.registry_ms", registry_ms, "ms");
      res.layer("serve.registry_mismatches", mismatches, "count");
      res.layer("serve.warmup_ms", warmup_ms, "ms");
    }
  }
  // Drop every request, response and connection before the caller reads the
  // pool's end-of-run footprint.
  hw.clients.clear();
  if (server) server->stop();
  batcher.stop();
  hw.pool.clear();
  mw.pool.clear();
}

} // namespace npad::bench
