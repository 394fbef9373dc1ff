// Monte Carlo transport (XSBench / RSBench, Section 7.3) as a standalone
// tracked benchmark: npad primal and reverse-AD gradient for both lookup
// kernels, next to the plain C++ port and the tape baseline. Unlike
// bench_table2_enzyme (which prints the paper-comparison table), this binary
// exists for the cross-PR perf trajectory: its BENCH_mc_transport.json
// carries the interpreter counters — launch counts, pool traffic and
// general-path counts — for a workload dominated by one large map with
// inner loops and indirect indexing, which must stay one kernel launch. Every npad program is the serving artifact: AD first, then the
// standard opt::optimize pipeline.

#include "common.hpp"

#include <functional>

#include "apps/mc_transport.hpp"
#include "core/ad.hpp"
#include "ir/typecheck.hpp"
#include "opt/pipeline.hpp"
#include "runtime/interp.hpp"

using namespace npad;

int main(int argc, char** argv) {
  const int64_t S = bench::scale_factor();
  support::Rng rng(29);
  rt::Interp interp;

  auto xs = apps::xs_gen(rng, 8, 128, 512 * S);
  ir::Prog xs_p = apps::xs_ir_objective();
  ir::typecheck(xs_p);
  ir::Prog xs_g = opt::optimize(ad::vjp(xs_p));
  xs_p = opt::optimize(xs_p);
  ir::typecheck(xs_p);
  ir::typecheck(xs_g);
  auto xs_args = apps::xs_ir_args(xs);
  auto xs_gargs = xs_args;
  xs_gargs.emplace_back(1.0);

  auto rs = apps::rs_gen(rng, 8, 24, 512 * S);
  ir::Prog rs_p = apps::rs_ir_objective();
  ir::typecheck(rs_p);
  ir::Prog rs_g = opt::optimize(ad::vjp(rs_p));
  rs_p = opt::optimize(rs_p);
  ir::typecheck(rs_p);
  ir::typecheck(rs_g);
  auto rs_args = apps::rs_ir_args(rs);
  auto rs_gargs = rs_args;
  rs_gargs.emplace_back(1.0);

  auto reg = [&](const char* name, std::function<void()> fn) {
    benchmark::RegisterBenchmark(name, [fn](benchmark::State& st) {
      for (auto _ : st) fn();
    })->Unit(benchmark::kMillisecond)->MinTime(0.05);
  };
  reg("xsbench/original", [&] { benchmark::DoNotOptimize(apps::xs_primal(xs)); });
  reg("xsbench/npad_primal", [&] { benchmark::DoNotOptimize(interp.run(xs_p, xs_args)); });
  reg("xsbench/npad_grad", [&] { benchmark::DoNotOptimize(interp.run(xs_g, xs_gargs)); });
  reg("xsbench/tape_grad", [&] { benchmark::DoNotOptimize(apps::xs_tape_gradient(xs, nullptr)); });
  reg("rsbench/original", [&] { benchmark::DoNotOptimize(apps::rs_primal(rs)); });
  reg("rsbench/npad_primal", [&] { benchmark::DoNotOptimize(interp.run(rs_p, rs_args)); });
  reg("rsbench/npad_grad", [&] { benchmark::DoNotOptimize(interp.run(rs_g, rs_gargs)); });
  reg("rsbench/tape_grad", [&] { benchmark::DoNotOptimize(apps::rs_tape_gradient(rs)); });

  auto col = bench::run_benchmarks(argc, argv);

  support::Table t({"Kernel", "Original (ms)", "npad primal (ms)", "npad grad (ms)",
                    "tape grad (ms)", "AD overhead npad"});
  auto row = [&](const char* name, const char* pre) {
    const std::string s(pre);
    t.add_row({name, support::Table::fmt(col.ms(s + "/original")),
               support::Table::fmt(col.ms(s + "/npad_primal")),
               support::Table::fmt(col.ms(s + "/npad_grad")),
               support::Table::fmt(col.ms(s + "/tape_grad")),
               bench::ratio(col.ms(s + "/npad_grad"), col.ms(s + "/npad_primal"), 1)});
  };
  row("XSBench", "xsbench");
  row("RSBench", "rsbench");
  std::cout << "\nMonte Carlo transport lookup kernels (tracked workload)\n";
  t.print();

  bench::write_bench_json("mc_transport", col, interp.stats().counters());
  return 0;
}
