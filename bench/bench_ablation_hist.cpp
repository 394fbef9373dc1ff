// Ablation E: parallel privatized generalized histograms (reduce_by_index).
//
// One additive histogram workload — n values scattered into m bins, the
// sparse-k-means / GMM / VJP-adjoint shape — swept over the full
// {general, privatized, atomic} x {W=1, W=8} x bins {16, 1k, 1M} grid:
//
//  - "general" runs the strictly sequential general-interpreter path (the
//    pre-PR runtime for any operator outside the four recognized binops):
//    a two-statement add fold with kernels disabled, per-element apply().
//    The parallel knob is inert there — the general path never fans out.
//  - "privatized" runs the hand-rolled combinable-binop tier with per-chunk
//    private subhistograms merged in chunk order (the privatize_budget is
//    raised so even the 1M-bin row privatizes).
//  - "atomic" forces privatize_budget = 0, so every fan-out takes the
//    atomic-CAS fallback straight into the shared destination.
//
// W=1 disables the parallel runtime (the strictly sequential tier-1 loop);
// W=8 runs on an 8-worker pool (NPAD_NUM_THREADS wins if set). A log-sum-exp
// histogram rides along to measure the compiled-kernel hist tier
// (kernel_hists) that lifts reduce_by_index beyond the recognized binops.
//
// The acceptance signal in BENCH_ablation_hist.json: privatized W=8 at
// n = 1M / 1k bins vs the sequential general path at the same shape, plus
// the privatized_hist_updates / atomic_hist_updates / hand_hists /
// kernel_hists / general_hists counters. The lse8_kernel_hists counter is the
// only bench reading of the compiled-kernel hist tier;
// tools/check_bench_counters.py requires it to be at least 1.

#include <cstdlib>

#include "common.hpp"

#include <functional>

#include "ir/builder.hpp"
#include "ir/typecheck.hpp"
#include "opt/pipeline.hpp"
#include "runtime/interp.hpp"
#include "support/rng.hpp"

using namespace npad;
using namespace npad::ir;

namespace {

// Addition written as two statements — associative, kernelizable, but not
// recognize_binop, so with kernels disabled it runs the general per-element
// apply() path (the pre-PR behavior for every non-recognized operator).
LambdaPtr slow_add_op(Builder& b) {
  return b.lam({f64(), f64()}, [](Builder& c, const std::vector<Var>& p) {
    Var t = c.add(p[0], p[1]);
    return std::vector<Atom>{Atom(c.mul(t, cf64(1.0)))};
  });
}

Prog hist_prog(bool slow_op) {
  ProgBuilder pb("hist");
  Var dest = pb.param("dest", arr_f64(1));
  Var inds = pb.param("inds", arr(ScalarType::I64, 1));
  Var vals = pb.param("vals", arr_f64(1));
  Builder& b = pb.body();
  Var h = b.hist(slow_op ? slow_add_op(b) : b.add_op(), cf64(0.0), dest, inds, vals);
  return pb.finish({Atom(h)});
}

Prog lse_hist_prog() {
  ProgBuilder pb("lsehist");
  Var dest = pb.param("dest", arr_f64(1));
  Var inds = pb.param("inds", arr(ScalarType::I64, 1));
  Var vals = pb.param("vals", arr_f64(1));
  Builder& b = pb.body();
  LambdaPtr op = b.lam({f64(), f64()}, [](Builder& c, const std::vector<Var>& p) {
    Var m = c.max(p[0], p[1]);
    Var ea = c.exp(Atom(c.sub(p[0], m)));
    Var eb = c.exp(Atom(c.sub(p[1], m)));
    return std::vector<Atom>{Atom(c.add(m, Atom(c.log(Atom(c.add(ea, eb))))))};
  });
  Var h = b.hist(std::move(op), cf64(-1e300), dest, inds, vals);
  return pb.finish({Atom(h)});
}

} // namespace

int main(int argc, char** argv) {
  // The W=8 rows need a multi-worker pool even on narrow CI/runner machines;
  // an explicitly set NPAD_NUM_THREADS wins (overwrite = 0). Must happen
  // before the pool's first lazy construction.
  setenv("NPAD_NUM_THREADS", "8", /*overwrite=*/0);

  const int64_t S = bench::scale_factor();
  const int64_t n = (int64_t{1} << 20) * S;  // 1M values at scale 1
  support::Rng rng(53);

  Prog pgen = hist_prog(/*slow_op=*/true);
  Prog pfast = hist_prog(/*slow_op=*/false);
  Prog plse = lse_hist_prog();
  ir::typecheck(pgen);
  ir::typecheck(pfast);
  ir::typecheck(plse);

  // Strategy interpreters. "general" disables kernels so the slow-add fold
  // runs per-element apply(); W only matters where the strategy can fan out.
  rt::Interp gen1({.parallel = false, .use_kernels = false});
  rt::Interp gen8({.parallel = true, .use_kernels = false});
  rt::Interp priv1({.parallel = false});
  rt::Interp priv8({.parallel = true, .privatize_budget = int64_t{1} << 33});
  rt::Interp atom1({.parallel = false, .privatize_budget = 0});
  rt::Interp atom8({.parallel = true, .privatize_budget = 0});
  rt::Interp lse1({.parallel = false});
  rt::Interp lse8({.parallel = true, .privatize_budget = int64_t{1} << 33});

  const std::vector<double> vv = rng.uniform_vec(static_cast<size_t>(n), -1.0, 1.0);
  auto reg = [&](const std::string& name, std::function<void()> fn) {
    benchmark::RegisterBenchmark(name.c_str(), [fn](benchmark::State& st) {
      for (auto _ : st) fn();
    })->Unit(benchmark::kMillisecond)->MinTime(0.1);
  };

  const int64_t bin_counts[] = {16, 1000, 1000000};
  const char* bin_names[] = {"16", "1k", "1M"};
  for (size_t bi = 0; bi < 3; ++bi) {
    const int64_t m = bin_counts[bi];
    std::vector<int64_t> iv(static_cast<size_t>(n));
    for (auto& x : iv) x = rng.uniform_int(m);
    // Shared per-shape arguments; dest is copied inside eval_hist, so the
    // same argument vector can be reused across iterations and strategies.
    auto args = std::make_shared<std::vector<rt::Value>>(std::vector<rt::Value>{
        rt::make_f64_array(std::vector<double>(static_cast<size_t>(m), 0.0), {m}),
        rt::make_i64_array(iv, {n}), rt::make_f64_array(vv, {n})});
    auto row = [&](const char* strat, const char* w, rt::Interp& in, Prog& p) {
      reg(std::string("hist/") + strat + "-" + w + "-bins" + bin_names[bi],
          [&in, &p, args] { benchmark::DoNotOptimize(in.run(p, *args)); });
    };
    row("general", "w1", gen1, pgen);
    row("general", "w8", gen8, pgen);
    row("privatized", "w1", priv1, pfast);
    row("privatized", "w8", priv8, pfast);
    row("atomic", "w1", atom1, pfast);
    row("atomic", "w8", atom8, pfast);
    if (m == 1000) {
      row("lse-kernel", "w1", lse1, plse);
      row("lse-kernel", "w8", lse8, plse);
    }
  }

  auto col = bench::run_benchmarks(argc, argv);

  support::Table t({"Workload (n = 1M values)", "Time (ms)", "vs general W=1", ""});
  auto add_rows = [&](const char* bins) {
    const std::string base_key = std::string("hist/general-w1-bins") + bins;
    const double base = col.ms(base_key);
    auto row = [&](const char* strat, const char* w, const char* note) {
      const std::string key = std::string("hist/") + strat + "-" + w + "-bins" + bins;
      if (col.ms(key) == 0.0) return;
      t.add_row({std::string(strat) + " " + w + ", " + bins + " bins",
                 support::Table::fmt(col.ms(key)), bench::ratio(base, col.ms(key)), note});
    };
    row("general", "w1", "pre-PR path: sequential apply()");
    row("general", "w8", "parallel knob inert (sequential path)");
    row("privatized", "w1", "hand loop, strictly sequential");
    row("privatized", "w8", "per-chunk subhistograms + merge");
    row("atomic", "w1", "sequential (no fan-out at W=1)");
    row("atomic", "w8", "CAS straight into shared bins");
    row("lse-kernel", "w1", "compiled combine kernel");
    row("lse-kernel", "w8", "kernel + privatized subhistograms");
  };
  add_rows("16");
  add_rows("1k");
  add_rows("1M");
  std::cout << "\nAblation E: parallel privatized generalized histograms\n";
  t.print();

  // Acceptance: privatized W=8 vs the sequential general path at 1M/1k.
  std::map<std::string, uint64_t> counters = priv8.stats().counters();
  for (const auto& [k, v] : atom8.stats().counters()) counters["atomic8_" + k] = v;
  for (const auto& [k, v] : lse8.stats().counters()) counters["lse8_" + k] = v;
  bench::write_bench_json("ablation_hist", col, counters);
  const double base = col.ms("hist/general-w1-bins1k");
  const double priv = col.ms("hist/privatized-w8-bins1k");
  if (base > 0 && priv > 0) {
    std::cout << "\nprivatized W=8 speedup over sequential general (1k bins): "
              << bench::ratio(base, priv) << "\n";
  }
  return 0;
}
