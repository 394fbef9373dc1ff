// Concurrency and fault-injection coverage for the serving layer.
//
// Part 1: M client threads hammer a running batcher in a closed loop and
// every response must be bit-exact against a sequential reference run —
// batching across racing clients is an execution strategy, not a semantic
// change.
//
// Part 2: work-conserving dispatch. A group is held open for batchmates only
// while another launch is in flight: an idle batcher launches at once, a
// held group launches when the in-flight launch ends (or on stop()), long
// before its window expires.
//
// Part 3: the test_fault.cpp sweep pattern extended to the serving layer's
// own fault sites (serve.enqueue at submission, serve.batch_exec in the
// per-request de-stacking loop). The serving robustness contract is stronger
// than the runtime one: an armed fault must surface as a typed error on the
// Response of exactly the request whose crossing fired — its batchmates
// still succeed bit-exact — the buffer pool's live footprint is restored,
// and an unarmed retry reproduces the baseline bit-exact. A runtime fault
// inside the stacked launch itself (pool.acquire) must instead trigger the
// per-request fallback, after which every request succeeds.
//
// test_fault.cpp and its >=20-distinct-sites assertion are untouched; this
// file owns the serving sites.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "ir/builder.hpp"
#include "ir/typecheck.hpp"
#include "runtime/buffer_pool.hpp"
#include "runtime/interp.hpp"
#include "serve/batcher.hpp"
#include "serve/registry.hpp"
#include "support/error.hpp"
#include "support/fault.hpp"

namespace {

using namespace npad;
using namespace npad::serve;
using npad::support::FaultInjector;
using npad::support::FaultKind;
using rt::Value;

const SizeMap kGmmSize = {{"n", 16}, {"d", 2}, {"k", 3}};

uint64_t bits_of(double d) {
  uint64_t u;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

std::vector<uint64_t> fingerprint(const std::vector<Value>& vals) {
  std::vector<uint64_t> fp;
  for (const auto& v : vals) {
    if (std::holds_alternative<double>(v)) {
      fp.push_back(bits_of(std::get<double>(v)));
    } else if (std::holds_alternative<int64_t>(v)) {
      fp.push_back(static_cast<uint64_t>(std::get<int64_t>(v)));
    } else if (std::holds_alternative<bool>(v)) {
      fp.push_back(std::get<bool>(v) ? 1 : 0);
    } else if (rt::is_array(v)) {
      const rt::ArrayVal& a = rt::as_array(v);
      for (int64_t s : a.shape) fp.push_back(static_cast<uint64_t>(s));
      const int64_t ne = a.elems();
      for (int64_t i = 0; i < ne; ++i) {
        if (a.elem == ir::ScalarType::F64) {
          fp.push_back(bits_of(a.get_f64(i)));
        } else {
          fp.push_back(static_cast<uint64_t>(a.get_i64(i)));
        }
      }
    }
  }
  return fp;
}

class ServeConcurrent : public ::testing::Test {
protected:
  static void SetUpTestSuite() { register_builtin_programs(); }
};

// ------------------------------------------------------ concurrent hammer --

TEST_F(ServeConcurrent, RacingClientsGetTheirOwnBitExactResults) {
  auto entry = Registry::global().find("gmm");
  ASSERT_NE(entry, nullptr);

  BatcherOptions o;
  o.max_batch = 8;
  o.window_us = 200;
  o.workers = 2;
  o.interp.parallel = false;

  constexpr int kThreads = 6;
  constexpr int kPerThread = 20;
  struct Outcome {
    Mode mode;
    uint64_t seed;
    bool ok = false;
    std::string error;
    std::vector<uint64_t> fp;
    int batch_size = 0;
  };
  std::vector<std::vector<Outcome>> per_thread(kThreads);

  {
    Batcher b(o);
    std::vector<std::thread> clients;
    clients.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      clients.emplace_back([&, t] {
        auto& outs = per_thread[static_cast<size_t>(t)];
        outs.reserve(kPerThread);
        for (int j = 0; j < kPerThread; ++j) {
          Outcome oc;
          // ~3:1 objective:jacobian mix; unique seed per (thread, request).
          oc.mode = (j % 4 == 3) ? Mode::Jacobian : Mode::Objective;
          oc.seed = static_cast<uint64_t>(t) * 100 + static_cast<uint64_t>(j);
          Response resp =
              b.execute({"gmm", oc.mode, entry->make_args(oc.mode, oc.seed, kGmmSize)});
          oc.ok = resp.ok();
          oc.error = resp.error;
          oc.fp = fingerprint(resp.results);
          oc.batch_size = resp.batch_size;
          outs.push_back(std::move(oc));
        }
      });
    }
    for (auto& c : clients) c.join();

    const auto& st = b.stats();
    EXPECT_EQ(st.requests.load(), static_cast<uint64_t>(kThreads * kPerThread));
    EXPECT_EQ(st.responses_ok.load(), static_cast<uint64_t>(kThreads * kPerThread));
    EXPECT_EQ(st.responses_error.load(), 0u);
    // Every request rode some executed group, stacked or single.
    EXPECT_EQ(st.stacked_requests.load() + st.single_requests.load(),
              static_cast<uint64_t>(kThreads * kPerThread));
  }

  // Sequential reference: same interpreter options, same deterministic args.
  rt::Interp ref(o.interp);
  for (int t = 0; t < kThreads; ++t) {
    for (const Outcome& oc : per_thread[static_cast<size_t>(t)]) {
      ASSERT_TRUE(oc.ok) << "thread " << t << " seed " << oc.seed << ": " << oc.error;
      EXPECT_GE(oc.batch_size, 1);
      const auto args = entry->make_args(oc.mode, oc.seed, kGmmSize);
      EXPECT_EQ(oc.fp, fingerprint(ref.run(entry->prog(oc.mode), args)))
          << "thread " << t << " seed " << oc.seed << " mode " << mode_name(oc.mode);
    }
  }
}

// ------------------------------------------------ work-conserving dispatch --

using std::chrono::milliseconds;
using std::chrono::steady_clock;

constexpr int64_t kLongWindowUs = 10'000'000;  // 10 s: a hold that ran out would show

// "serve_spin": a sequential scalar loop of `trips` steps, the long launch
// that keeps one worker busy while the other holds a group.
void register_spin_once() {
  static const bool done = [] {
    ir::ProgBuilder pb("serve_spin");
    ir::Var trips = pb.param("trips", ir::i64());
    ir::Builder& bb = pb.body();
    std::vector<ir::Var> r = bb.loop_for(
        {ir::cf64(0.0)}, ir::Atom(trips),
        [](ir::Builder& c, ir::Var, const std::vector<ir::Var>& x) {
          return std::vector<ir::Atom>{
              ir::Atom(c.add(ir::Atom(c.mul(ir::Atom(x[0]), ir::cf64(0.5))), ir::cf64(1.0)))};
        });
    ir::Prog p = pb.finish({ir::Atom(r[0])});
    ir::typecheck(p);
    ProgramEntry e;
    e.name = "serve_spin";
    e.objective = p;
    e.jacobian = p;
    e.make_args = [](Mode, uint64_t seed, const SizeMap&) {
      return std::vector<Value>{static_cast<int64_t>(seed)};
    };
    Registry::global().add(std::move(e));
    return true;
  }();
  (void)done;
}

double ms_since(steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(steady_clock::now() - t0).count();
}

// Trip count for which serve_spin runs at least `ms` on this build.
int64_t spin_trips_for(double ms, const rt::InterpOptions& io) {
  register_spin_once();
  auto entry = Registry::global().find("serve_spin");
  rt::Interp interp(io);
  int64_t trips = 1 << 14;
  for (;;) {
    const auto t0 = steady_clock::now();
    interp.run(entry->objective, {Value(trips)});
    const double took = ms_since(t0);
    if (took >= ms / 8) {
      return static_cast<int64_t>(static_cast<double>(trips) * ms / took) + 1;
    }
    trips *= 4;
  }
}

BatcherOptions dispatch_opts(int max_batch) {
  BatcherOptions o;
  o.max_batch = max_batch;
  o.window_us = kLongWindowUs;
  o.workers = 2;
  o.interp.parallel = false;
  return o;
}

// Submits a serve_spin launch of about `ms` and returns once a worker runs
// it (the first executed group).
std::future<Response> start_long_launch(Batcher& b, double ms) {
  const int64_t trips = spin_trips_for(ms, b.options().interp);
  auto fut = b.submit({"serve_spin", Mode::Objective, {Value(trips)}});
  const auto t0 = steady_clock::now();
  while (b.stats().batches.load() == 0 && ms_since(t0) < 10'000) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  EXPECT_EQ(b.stats().batches.load(), 1u) << "the long launch did not start";
  return fut;
}

TEST_F(ServeConcurrent, LoneRequestLaunchesWithoutWaitingForTheWindow) {
  auto entry = Registry::global().find("gmm");
  ASSERT_NE(entry, nullptr);
  Batcher b(dispatch_opts(8));
  const auto t0 = steady_clock::now();
  Response resp =
      b.execute({"gmm", Mode::Objective, entry->make_args(Mode::Objective, 5, kGmmSize)});
  const double took_ms = ms_since(t0);
  ASSERT_TRUE(resp.ok()) << resp.error;
  EXPECT_EQ(resp.batch_size, 1);
  EXPECT_LT(took_ms, 1000.0) << "an idle batcher held a lone request";
  EXPECT_LT(resp.queue_wait_ms, 1000.0);
}

TEST_F(ServeConcurrent, RequestsArrivingDuringALaunchRideOneGroupWhenItEnds) {
  auto entry = Registry::global().find("gmm");
  ASSERT_NE(entry, nullptr);
  constexpr int K = 4;
  const BatcherOptions o = dispatch_opts(2 * K);
  Batcher b(o);
  auto spin = start_long_launch(b, 1000.0);

  std::vector<std::future<Response>> futs;
  for (int i = 0; i < K; ++i) {
    futs.push_back(b.submit({"gmm", Mode::Objective,
                             entry->make_args(Mode::Objective, 40u + i, kGmmSize)}));
  }
  // All K were queued while the long launch was still executing.
  ASSERT_EQ(b.stats().responses_ok.load(), 0u) << "the long launch ended too soon";

  rt::Interp ref(o.interp);
  for (int i = 0; i < K; ++i) {
    Response resp = futs[static_cast<size_t>(i)].get();
    ASSERT_TRUE(resp.ok()) << "req " << i << ": " << resp.error;
    EXPECT_EQ(resp.batch_size, K) << "req " << i;
    EXPECT_LT(resp.queue_wait_ms, kLongWindowUs / 2e3) << "req " << i << " waited out the window";
    const auto args = entry->make_args(Mode::Objective, 40u + i, kGmmSize);
    EXPECT_EQ(fingerprint(resp.results), fingerprint(ref.run(entry->prog(Mode::Objective), args)))
        << "req " << i;
  }
  // The group launched only once the long launch had finished.
  EXPECT_EQ(spin.wait_for(milliseconds(0)), std::future_status::ready);
  ASSERT_TRUE(spin.get().ok());
  EXPECT_EQ(b.stats().batches.load(), 2u);
  EXPECT_EQ(b.stats().stacked_batches.load(), 1u);
  EXPECT_EQ(b.stats().stacked_requests.load(), static_cast<uint64_t>(K));
}

TEST_F(ServeConcurrent, StopLaunchesAHeldGroupAtOnce) {
  auto entry = Registry::global().find("gmm");
  ASSERT_NE(entry, nullptr);
  Batcher b(dispatch_opts(8));
  auto spin = start_long_launch(b, 2000.0);
  auto held = b.submit({"gmm", Mode::Objective, entry->make_args(Mode::Objective, 9, kGmmSize)});

  std::thread stopper([&] { b.stop(); });
  Response resp = held.get();
  // The held group ran while the long launch was still executing.
  EXPECT_EQ(spin.wait_for(milliseconds(0)), std::future_status::timeout);
  stopper.join();
  ASSERT_TRUE(resp.ok()) << resp.error;
  EXPECT_EQ(resp.batch_size, 1);
  EXPECT_TRUE(spin.get().ok());  // stop() drains the in-flight launch
}

// --------------------------------------------------------- the fault sweep --

struct ReqOutcome {
  bool ok = false;
  std::string error_kind;
  std::string error;
  std::vector<uint64_t> fp;
};

struct WorkloadResult {
  std::vector<ReqOutcome> outs;
  std::map<std::string, uint64_t> serve_counters;
};

constexpr int kSweepK = 6;

// The sweep workload: K same-shape gmm objective requests through a paused
// single-worker batcher (deterministic grouping: one stacked batch of K).
// Values never escape — only fingerprints — so the pool-footprint check
// outside sees the fully unwound state.
WorkloadResult run_sweep_workload() {
  auto entry = Registry::global().find("gmm");
  BatcherOptions o;
  o.max_batch = kSweepK;
  o.window_us = 5000;
  o.workers = 1;
  o.start = false;
  o.interp.parallel = false;

  WorkloadResult wr;
  Batcher b(o);
  std::vector<std::future<Response>> futs;
  for (int i = 0; i < kSweepK; ++i) {
    futs.push_back(b.submit(
        {"gmm", Mode::Objective,
         entry->make_args(Mode::Objective, static_cast<uint64_t>(i), kGmmSize)}));
  }
  b.start();
  for (auto& f : futs) {
    Response resp = f.get();
    ReqOutcome oc;
    oc.ok = resp.ok();
    oc.error_kind = resp.error_kind;
    oc.error = resp.error;
    oc.fp = fingerprint(resp.results);
    wr.outs.push_back(std::move(oc));
  }
  b.stop();
  wr.serve_counters = b.stats().counters();
  return wr;
}

int site_index(const std::string& name) {
  auto& fi = FaultInjector::global();
  for (int s = 0; s < fi.num_sites(); ++s) {
    if (fi.site_name(s) == name) return s;
  }
  return -1;
}

TEST_F(ServeConcurrent, FaultSweepServingSites) {
  auto& fi = FaultInjector::global();
  auto& pool = rt::BufferPool::global();
  fi.stop();

  // Warm every cache (batched program, kernels) and pin the baseline.
  const WorkloadResult b1 = run_sweep_workload();
  const WorkloadResult b2 = run_sweep_workload();
  ASSERT_EQ(b1.outs.size(), static_cast<size_t>(kSweepK));
  for (int i = 0; i < kSweepK; ++i) {
    ASSERT_TRUE(b1.outs[i].ok) << "baseline req " << i << ": " << b1.outs[i].error;
    ASSERT_EQ(b1.outs[i].fp, b2.outs[i].fp) << "baseline is not deterministic, req " << i;
  }
  ASSERT_EQ(b1.serve_counters.at("serve_stacked_batches"), 1u);

  // Count crossings: both serving sites must be crossed exactly once per
  // request (submission and de-stacking are per-request events).
  fi.start_counting();
  run_sweep_workload();
  fi.stop();
  const int enq_site = site_index("serve.enqueue");
  const int exec_site = site_index("serve.batch_exec");
  ASSERT_GE(enq_site, 0) << "serve.enqueue never crossed";
  ASSERT_GE(exec_site, 0) << "serve.batch_exec never crossed";
  EXPECT_EQ(fi.crossings(enq_site), static_cast<uint64_t>(kSweepK));
  EXPECT_EQ(fi.crossings(exec_site), static_cast<uint64_t>(kSweepK));

  struct SiteCase {
    int idx;
    const char* name;
    const char* want_kind;
  };
  for (const SiteCase& sc : {SiteCase{enq_site, "serve.enqueue", "ResourceError"},
                             SiteCase{exec_site, "serve.batch_exec", "KernelError"}}) {
    for (uint64_t occ : {uint64_t{0}, uint64_t{kSweepK - 1}}) {
      SCOPED_TRACE(std::string(sc.name) + "#" + std::to_string(occ));
      const size_t pre_buffers = pool.outstanding_buffers();
      fi.arm(sc.idx, occ);
      const WorkloadResult wr = run_sweep_workload();
      fi.stop();

      // The typed error landed on exactly the request whose crossing fired;
      // occurrences are in submit order, so occurrence i is request i.
      ASSERT_EQ(wr.outs.size(), static_cast<size_t>(kSweepK));
      for (int i = 0; i < kSweepK; ++i) {
        if (static_cast<uint64_t>(i) == occ) {
          EXPECT_FALSE(wr.outs[i].ok) << "armed fault did not surface on its request";
          EXPECT_EQ(wr.outs[i].error_kind, sc.want_kind) << wr.outs[i].error;
          EXPECT_NE(wr.outs[i].error.find("injected fault"), std::string::npos)
              << wr.outs[i].error;
        } else {
          ASSERT_TRUE(wr.outs[i].ok)
              << "batchmate " << i << " was poisoned: " << wr.outs[i].error;
          EXPECT_EQ(wr.outs[i].fp, b1.outs[i].fp) << "batchmate " << i << " diverged";
        }
      }
      EXPECT_EQ(wr.serve_counters.at("serve_responses_error"), 1u);
      EXPECT_EQ(wr.serve_counters.at("serve_responses_ok"),
                static_cast<uint64_t>(kSweepK - 1));
      // Zero-leak unwind.
      EXPECT_EQ(pool.outstanding_buffers(), pre_buffers) << "buffers leaked";
      // Bit-exact unarmed retry.
      const WorkloadResult retry = run_sweep_workload();
      for (int i = 0; i < kSweepK; ++i) {
        ASSERT_TRUE(retry.outs[i].ok) << retry.outs[i].error;
        EXPECT_EQ(retry.outs[i].fp, b1.outs[i].fp) << "retry diverged, req " << i;
      }
    }
  }
}

// A runtime fault *inside* the stacked launch (first pool allocation after
// submission) cannot be attributed to one request, so the batcher must fall
// back to per-request execution — after which every request succeeds
// bit-exact, because the armed fault already fired.
TEST_F(ServeConcurrent, RuntimeFaultInStackedLaunchFallsBackGracefully) {
  auto& fi = FaultInjector::global();
  fi.stop();
  const WorkloadResult base = run_sweep_workload();  // warm caches
  for (const auto& oc : base.outs) ASSERT_TRUE(oc.ok) << oc.error;

  // Occurrences of pool.acquire before submission (argument generation) must
  // be skipped so the fault fires inside the stacked execution: count the
  // prep-only allocations, then the full workload's.
  auto entry = Registry::global().find("gmm");
  fi.start_counting();
  for (int i = 0; i < kSweepK; ++i) {
    auto args = entry->make_args(Mode::Objective, static_cast<uint64_t>(i), kGmmSize);
  }
  fi.stop();
  const int pool_site = site_index("pool.acquire");
  ASSERT_GE(pool_site, 0);
  const uint64_t prep_allocs = fi.crossings(pool_site);

  fi.start_counting();
  run_sweep_workload();
  fi.stop();
  const uint64_t total_allocs = fi.crossings(pool_site);
  ASSERT_GT(total_allocs, prep_allocs)
      << "stacked execution performed no pool allocations";

  const uint64_t fired_before = fi.faults_fired();
  fi.arm(pool_site, prep_allocs);  // first allocation after argument prep
  const WorkloadResult wr = run_sweep_workload();
  fi.stop();
  ASSERT_EQ(fi.faults_fired(), fired_before + 1) << "armed pool fault did not fire";
  for (int i = 0; i < kSweepK; ++i) {
    ASSERT_TRUE(wr.outs[i].ok)
        << "request " << i << " failed instead of falling back: " << wr.outs[i].error;
    EXPECT_EQ(wr.outs[i].fp, base.outs[i].fp) << "fallback diverged, req " << i;
  }
  EXPECT_EQ(wr.serve_counters.at("serve_fallback_requests"),
            static_cast<uint64_t>(kSweepK));
  EXPECT_EQ(wr.serve_counters.at("serve_stacked_batches"), 0u);
  EXPECT_EQ(wr.serve_counters.at("serve_responses_ok"), static_cast<uint64_t>(kSweepK));
}

} // namespace
