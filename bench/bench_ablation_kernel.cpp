// Ablation B: the kernel-compiled map fast path ("scalars in registers", the
// CPU analogue of the paper's claim that the redundant-execution tape keeps
// scalars out of global memory), plus kernel reuse. GMM objective and
// gradient with the kernel compiler enabled vs the environment-walking
// interpreter, and a repeated-map workload (an iterative solver shape: the
// same small map launched hundreds of times) in which every launch after the
// first reuses the kernel its resolved program compiled (row repeat/cache).

#include "common.hpp"

#include <functional>

#include "apps/gmm.hpp"
#include "core/ad.hpp"
#include "ir/builder.hpp"
#include "ir/typecheck.hpp"
#include "runtime/interp.hpp"

using namespace npad;
using namespace npad::ir;

namespace {

// loop k times: xs = map (\x -> long unrolled arithmetic chain) xs over a
// small array; return sum xs. Execution per launch is tiny while the lambda
// body is large, so per-launch kernel compilation would dominate without the
// cache — the shape every iterative solver (k-means Newton, GMM fit, LSTM
// training) hammers: the same lambda relaunched every optimizer step.
Prog repeated_map_prog(int64_t iters, int unroll) {
  ProgBuilder pb("repeated_map");
  Var xs0 = pb.param("xs", arr_f64(1));
  Builder& b = pb.body();
  auto outs = b.loop_for(
      {Atom(xs0)}, ci64(iters), [&](Builder& c, Var, const std::vector<Var>& ps) {
        Var ys = c.map1(c.lam({f64()},
                              [&](Builder& k, const std::vector<Var>& p) {
                                Var t = p[0];
                                for (int j = 0; j < unroll; ++j) {
                                  const double cj = 1.0 + 1e-7 * static_cast<double>(j);
                                  t = k.add(k.mul(t, cf64(cj)), cf64(-1e-9 * j));
                                  t = k.max(k.min(t, cf64(1e12)), cf64(-1e12));
                                }
                                return std::vector<Atom>{Atom(t)};
                              }),
                        {ps[0]});
        return std::vector<Atom>{Atom(ys)};
      });
  Var s = b.reduce1(b.add_op(), cf64(0.0), {outs[0]});
  return pb.finish({Atom(s)});
}

} // namespace

int main(int argc, char** argv) {
  const int64_t S = bench::scale_factor();
  support::Rng rng(29);
  auto g = apps::gmm_gen(rng, 512 * S, 16, 16);
  ir::Prog obj_p = apps::gmm_ir_objective();
  ir::typecheck(obj_p);
  ir::Prog grad_p = ad::vjp(obj_p);
  auto args = apps::gmm_ir_args(g);
  auto gargs = args;
  gargs.emplace_back(1.0);

  ir::Prog rep_p = repeated_map_prog(256, 192);
  ir::typecheck(rep_p);
  std::vector<rt::Value> rep_args = {rt::make_f64_array(rng.normal_vec(2), {2})};

  rt::Interp fast({.parallel = true, .use_kernels = true, .grain = 2048});
  rt::Interp slow({.parallel = true, .use_kernels = false, .grain = 2048});
  rt::Interp scalar_lanes(
      {.parallel = true, .use_kernels = true, .kernel_lanes = 1, .grain = 2048});
  rt::Interp novexec({.parallel = true, .use_kernels = true, .grain = 2048, .use_vexec = false});

  auto reg = [&](const char* name, std::function<void()> fn) {
    benchmark::RegisterBenchmark(name, [fn](benchmark::State& st) {
      for (auto _ : st) fn();
    })->Unit(benchmark::kMillisecond)->MinTime(0.1);
  };
  reg("obj/kernels", [&] { benchmark::DoNotOptimize(fast.run(obj_p, args)); });
  reg("obj/interp", [&] { benchmark::DoNotOptimize(slow.run(obj_p, args)); });
  reg("grad/kernels", [&] { benchmark::DoNotOptimize(fast.run(grad_p, gargs)); });
  reg("grad/interp", [&] { benchmark::DoNotOptimize(slow.run(grad_p, gargs)); });
  reg("repeat/cache", [&] { benchmark::DoNotOptimize(fast.run(rep_p, rep_args)); });
  // Lane-width ablation: the same kernels at W=1 (scalar machine) vs the
  // default batched width.
  reg("obj/kernels-w1", [&] { benchmark::DoNotOptimize(scalar_lanes.run(obj_p, args)); });
  reg("grad/kernels-w1", [&] { benchmark::DoNotOptimize(scalar_lanes.run(grad_p, gargs)); });
  // Vectorized-tier ablation: the default path (vexec SIMD schedules; the
  // `fast` rows above) vs the same kernels pinned to the register machine.
  reg("obj/novexec", [&] { benchmark::DoNotOptimize(novexec.run(obj_p, args)); });
  reg("grad/novexec", [&] { benchmark::DoNotOptimize(novexec.run(grad_p, gargs)); });

  auto col = bench::run_benchmarks(argc, argv);

  support::Table t({"Program", "Fast path (ms)", "Baseline (ms)", "Speedup"});
  t.add_row({"GMM objective (kernels vs interp)", support::Table::fmt(col.ms("obj/kernels")),
             support::Table::fmt(col.ms("obj/interp")),
             bench::ratio(col.ms("obj/interp"), col.ms("obj/kernels"))});
  t.add_row({"GMM gradient (vjp, kernels vs interp)", support::Table::fmt(col.ms("grad/kernels")),
             support::Table::fmt(col.ms("grad/interp")),
             bench::ratio(col.ms("grad/interp"), col.ms("grad/kernels"))});
  t.add_row({"repeated map x256 (reused kernel)", support::Table::fmt(col.ms("repeat/cache")),
             "-", "-"});
  t.add_row({"GMM objective (W=8 vs W=1 lanes)", support::Table::fmt(col.ms("obj/kernels")),
             support::Table::fmt(col.ms("obj/kernels-w1")),
             bench::ratio(col.ms("obj/kernels-w1"), col.ms("obj/kernels"))});
  t.add_row({"GMM gradient (W=8 vs W=1 lanes)", support::Table::fmt(col.ms("grad/kernels")),
             support::Table::fmt(col.ms("grad/kernels-w1")),
             bench::ratio(col.ms("grad/kernels-w1"), col.ms("grad/kernels"))});
  t.add_row({"GMM objective (vexec vs register machine)",
             support::Table::fmt(col.ms("obj/kernels")), support::Table::fmt(col.ms("obj/novexec")),
             bench::ratio(col.ms("obj/novexec"), col.ms("obj/kernels"))});
  t.add_row({"GMM gradient (vexec vs register machine)",
             support::Table::fmt(col.ms("grad/kernels")),
             support::Table::fmt(col.ms("grad/novexec")),
             bench::ratio(col.ms("grad/novexec"), col.ms("grad/kernels"))});
  std::cout << "\nAblation B: kernel-compiled scalar maps and kernel reuse\n";
  t.print();

  bench::write_bench_json("ablation_kernel", col, fast.stats().counters());
  return 0;
}
