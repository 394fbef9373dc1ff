// Table 2 (Section 7.3): RSBench / XSBench — primal runtimes and the
// overhead of one forward+return sweep of the reverse-differentiated program
// relative to the undifferentiated one. "Original" is the plain C++ port,
// "Futhark" is the npad IR version, "Enzyme" is the tape baseline.

#include "common.hpp"

#include <functional>

#include "apps/mc_transport.hpp"
#include "core/ad.hpp"
#include "ir/typecheck.hpp"
#include "runtime/interp.hpp"

using namespace npad;

int main(int argc, char** argv) {
  const int64_t S = bench::scale_factor();
  support::Rng rng(7);
  rt::Interp interp;

  auto xs = apps::xs_gen(rng, 8, 128, 256 * S);
  ir::Prog xs_p = apps::xs_ir_objective();
  ir::typecheck(xs_p);
  ir::Prog xs_g = bench::serving_artifact(ad::vjp(xs_p));
  xs_p = bench::serving_artifact(xs_p);
  auto xs_args = apps::xs_ir_args(xs);
  auto xs_gargs = xs_args;
  xs_gargs.emplace_back(1.0);

  auto rs = apps::rs_gen(rng, 8, 24, 256 * S);
  ir::Prog rs_p = apps::rs_ir_objective();
  ir::typecheck(rs_p);
  ir::Prog rs_g = bench::serving_artifact(ad::vjp(rs_p));
  rs_p = bench::serving_artifact(rs_p);
  auto rs_args = apps::rs_ir_args(rs);
  auto rs_gargs = rs_args;
  rs_gargs.emplace_back(1.0);

  auto reg = [&](const char* name, std::function<void()> fn) {
    benchmark::RegisterBenchmark(name, [fn](benchmark::State& st) {
      for (auto _ : st) fn();
    })->Unit(benchmark::kMillisecond)->MinTime(0.05);
  };
  reg("xs/original", [&] { benchmark::DoNotOptimize(apps::xs_primal(xs)); });
  reg("xs/npad_primal", [&] { benchmark::DoNotOptimize(interp.run(xs_p, xs_args)); });
  reg("xs/npad_grad", [&] { benchmark::DoNotOptimize(interp.run(xs_g, xs_gargs)); });
  reg("xs/tape_grad", [&] { benchmark::DoNotOptimize(apps::xs_tape_gradient(xs, nullptr)); });
  reg("rs/original", [&] { benchmark::DoNotOptimize(apps::rs_primal(rs)); });
  reg("rs/npad_primal", [&] { benchmark::DoNotOptimize(interp.run(rs_p, rs_args)); });
  reg("rs/npad_grad", [&] { benchmark::DoNotOptimize(interp.run(rs_g, rs_gargs)); });
  reg("rs/tape_grad", [&] { benchmark::DoNotOptimize(apps::rs_tape_gradient(rs)); });

  auto col = bench::run_benchmarks(argc, argv);

  support::Table t({"Benchmark", "Original (ms)", "npad primal (ms)", "AD overhead npad",
                    "AD overhead tape", "Paper Fut. / Enzyme"});
  t.add_row({"RSBench", support::Table::fmt(col.ms("rs/original")),
             support::Table::fmt(col.ms("rs/npad_primal")),
             bench::ratio(col.ms("rs/npad_grad"), col.ms("rs/npad_primal"), 1),
             bench::ratio(col.ms("rs/tape_grad"), col.ms("rs/original"), 1), "3.6x / 4.2x"});
  t.add_row({"XSBench", support::Table::fmt(col.ms("xs/original")),
             support::Table::fmt(col.ms("xs/npad_primal")),
             bench::ratio(col.ms("xs/npad_grad"), col.ms("xs/npad_primal"), 1),
             bench::ratio(col.ms("xs/tape_grad"), col.ms("xs/original"), 1), "2.6x / 3.2x"});
  std::cout << "\nTable 2: RSBench/XSBench primal runtimes and reverse-AD overheads\n";
  t.print();

  bench::write_bench_json("table2_enzyme", col, interp.stats().counters());
  return 0;
}
