// Ablation D: kernel-compiled reductions and map→reduce fusion (redomap).
//
// Workload 1 is the dominant pattern of the GMM/LSTM/ADBench tables and of
// every vjp adjoint that contracts a gradient: reduce(+, map(f, xs)). It is
// run over the full {general, kernel} x {unfused, fused} x {W=1, W=8} grid:
// "general" disables the kernel machine (the pre-PR runtime: per-element
// apply() through the interpreter for the map, then a fold), "fused" runs
// the redomap form produced by opt::fuse_maps (the intermediate array never
// exists), and W is the kernel lane width. general x W rows double as a
// sanity check that the lane knob only affects the kernel machine.
//
// Workload 2 is a log-sum-exp reduction — an associative multi-instruction
// fold body that is *not* one of the four recognized binops, so before this
// PR it always ran per-element apply() through the general interpreter.
//
// Workload 3 asks whether the hand-rolled combinable-binop reduce tier still
// earns its place: a plain sum(xs) (hand tier) against the same fold with an
// identity map fused in by opt::fuse_maps — the pre-lambda disqualifies the
// hand loop, so that row takes the reduction-kernel/vexec tier under the
// default options.

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

// sum(map (\x -> x*x*0.5 + x*0.25) xs): the redomap acceptance workload.
Prog redomap_prog() {
  ProgBuilder pb("redomap");
  Var xs = pb.param("xs", arr_f64(1));
  Builder& b = pb.body();
  Var ys = b.map1(b.lam({f64()},
                        [](Builder& c, const std::vector<Var>& p) {
                          Var sq = c.mul(p[0], p[0]);
                          Var h = c.mul(sq, cf64(0.5));
                          return std::vector<Atom>{Atom(c.add(h, Atom(c.mul(p[0], cf64(0.25)))))};
                        }),
                  {xs});
  Var s = b.reduce1(b.add_op(), cf64(0.0), {ys});
  return pb.finish({Atom(s)});
}

// reduce with a log-sum-exp fold body (associative, kernelizable, not a
// recognized binop).
Prog lse_prog() {
  ProgBuilder pb("lse");
  Var xs = pb.param("xs", arr_f64(1));
  Builder& b = pb.body();
  LambdaPtr op = b.lam({f64(), f64()}, [](Builder& c, const std::vector<Var>& p) {
    Var m = c.max(p[0], p[1]);
    Var ea = c.exp(Atom(c.sub(p[0], m)));
    Var eb = c.exp(Atom(c.sub(p[1], m)));
    return std::vector<Atom>{Atom(c.add(m, Atom(c.log(Atom(c.add(ea, eb))))))};
  });
  Var r = b.reduce1(std::move(op), cf64(-1e300), {xs});
  return pb.finish({Atom(r)});
}

// sum(xs), or sum(map (\x -> x) xs) when `id_map` is set (fused into a
// redomap by the caller).
Prog sum_prog(bool id_map) {
  ProgBuilder pb("sum");
  Var xs = pb.param("xs", arr_f64(1));
  Builder& b = pb.body();
  if (id_map) {
    xs = b.map1(b.lam({f64()},
                      [](Builder&, const std::vector<Var>& p) {
                        return std::vector<Atom>{Atom(p[0])};
                      }),
                {xs});
  }
  Var s = b.reduce1(b.add_op(), cf64(0.0), {xs});
  return pb.finish({Atom(s)});
}

} // namespace

int main(int argc, char** argv) {
  const int64_t S = bench::scale_factor();
  const int64_t n = (int64_t{1} << 20) * S;  // 1M at scale 1 (the CI target)
  support::Rng rng(47);

  Prog p = redomap_prog();
  ir::typecheck(p);
  opt::PipelineStats fstats;
  Prog pf = opt::fuse_maps(p, &fstats.fuse);
  ir::typecheck(pf);
  Prog lse = lse_prog();
  ir::typecheck(lse);
  Prog sum_hand = sum_prog(/*id_map=*/false);
  ir::typecheck(sum_hand);
  Prog sum_kernel = sum_prog(/*id_map=*/true);
  ir::typecheck(sum_kernel);
  opt::FuseStats sum_fuse;
  sum_kernel = opt::fuse_maps(sum_kernel, &sum_fuse);
  ir::typecheck(sum_kernel);
  if (sum_fuse.fused_redomaps != 1) {
    std::cerr << "sum/kernel: the identity map did not fuse into the reduce\n";
    return 1;
  }

  std::vector<rt::Value> args = {
      rt::make_f64_array(rng.uniform_vec(static_cast<size_t>(n), -1.0, 1.0), {n})};

  rt::Interp gen1({.parallel = true, .use_kernels = false, .kernel_lanes = 1});
  rt::Interp gen8({.parallel = true, .use_kernels = false, .kernel_lanes = 8});
  rt::Interp ker1({.parallel = true, .use_kernels = true, .kernel_lanes = 1});
  rt::Interp ker8({.parallel = true, .use_kernels = true, .kernel_lanes = 8});
  rt::Interp dflt;  // the sum rows: default options, tier picked by program shape

  auto reg = [&](const char* name, std::function<void()> fn) {
    benchmark::RegisterBenchmark(name, [fn](benchmark::State& st) {
      for (auto _ : st) fn();
    })->Unit(benchmark::kMillisecond)->MinTime(0.1);
  };
  reg("redomap/general-unfused-w1", [&] { benchmark::DoNotOptimize(gen1.run(p, args)); });
  reg("redomap/general-unfused-w8", [&] { benchmark::DoNotOptimize(gen8.run(p, args)); });
  reg("redomap/general-fused-w1", [&] { benchmark::DoNotOptimize(gen1.run(pf, args)); });
  reg("redomap/general-fused-w8", [&] { benchmark::DoNotOptimize(gen8.run(pf, args)); });
  reg("redomap/kernel-unfused-w1", [&] { benchmark::DoNotOptimize(ker1.run(p, args)); });
  reg("redomap/kernel-unfused-w8", [&] { benchmark::DoNotOptimize(ker8.run(p, args)); });
  reg("redomap/kernel-fused-w1", [&] { benchmark::DoNotOptimize(ker1.run(pf, args)); });
  reg("redomap/kernel-fused-w8", [&] { benchmark::DoNotOptimize(ker8.run(pf, args)); });
  reg("lse/general", [&] { benchmark::DoNotOptimize(gen8.run(lse, args)); });
  reg("lse/kernel-w1", [&] { benchmark::DoNotOptimize(ker1.run(lse, args)); });
  reg("lse/kernel-w8", [&] { benchmark::DoNotOptimize(ker8.run(lse, args)); });
  reg("sum/hand", [&] { benchmark::DoNotOptimize(dflt.run(sum_hand, args)); });
  reg("sum/kernel", [&] { benchmark::DoNotOptimize(dflt.run(sum_kernel, args)); });

  auto col = bench::run_benchmarks(argc, argv);

  const double base = col.ms("redomap/general-unfused-w1");
  support::Table t({"Workload", "Time (ms)", "vs general unfused", ""});
  auto row = [&](const char* label, const char* key, const char* note) {
    t.add_row({label, support::Table::fmt(col.ms(key)), bench::ratio(base, col.ms(key)), note});
  };
  row("sum-of-map, general, unfused, W=1", "redomap/general-unfused-w1", "pre-PR runtime");
  row("sum-of-map, general, unfused, W=8", "redomap/general-unfused-w8", "lane knob inert");
  row("sum-of-map, general, fused, W=1", "redomap/general-fused-w1", "redomap, interpreted");
  row("sum-of-map, general, fused, W=8", "redomap/general-fused-w8", "");
  row("sum-of-map, kernel, unfused, W=1", "redomap/kernel-unfused-w1", "map kernel + hand fold");
  row("sum-of-map, kernel, unfused, W=8", "redomap/kernel-unfused-w8", "");
  row("sum-of-map, kernel, fused, W=1", "redomap/kernel-fused-w1", "one pass, scalar VM");
  row("sum-of-map, kernel, fused, W=8", "redomap/kernel-fused-w8", "full new stack");
  row("log-sum-exp reduce, general", "lse/general", "per-element apply()");
  row("log-sum-exp reduce, kernel W=1", "lse/kernel-w1", "");
  row("log-sum-exp reduce, kernel W=8", "lse/kernel-w8", "lane partials");
  row("sum, hand-rolled binop tier", "sum/hand", "plain reduce(+)");
  row("sum, kernel tier", "sum/kernel", "identity map fused in");
  std::cout << "\nAblation D: kernel-compiled reductions + redomap fusion ("
            << fstats.fuse.fused_redomaps << " map fused into the reduce)\n";
  t.print();

  // Acceptance signals in the JSON: fused_reduces/kernel_reduces > 0 on the
  // fused-kernel interpreter, zero pooled launch buffers for the fused
  // redomap (the intermediate array never exists), and the fused-kernel W=8
  // vs unfused-general ratio.
  bench::write_bench_json("ablation_redomap", col, ker8.stats().counters());
  const double fused_w8 = col.ms("redomap/kernel-fused-w8");
  if (base > 0 && fused_w8 > 0) {
    std::cout << "\nfused-kernel W=8 speedup over unfused general: "
              << bench::ratio(base, fused_w8) << "\n";
  }
  return 0;
}
