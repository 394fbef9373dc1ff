// Ablation A: runtime accumulator privatization. The vjp of a gather (reads
// become accumulations) produces a withacc whose upd_acc statements land at
// data-dependent, contended bins. The same differentiated program runs with
// plain atomic read-modify-write updates (privatize_accs = false) and with
// the default privatized per-worker accumulator buffers merged at the end.

#include "common.hpp"

#include "core/ad.hpp"
#include "ir/builder.hpp"
#include "ir/typecheck.hpp"
#include "runtime/interp.hpp"
#include "support/rng.hpp"

using namespace npad;
using namespace npad::ir;

int main(int argc, char** argv) {
  const int64_t S = bench::scale_factor();
  const int64_t n = 200000 * S, m = 512;
  support::Rng rng(23);
  rt::InterpOptions atomic_opts;
  atomic_opts.privatize_accs = false;
  rt::Interp atomic_interp(atomic_opts);
  rt::Interp priv_interp;  // privatizes: n is above the floor of 4096 updates

  // f(xs, is) = sum_j xs[is_j]^2 — the canonical read-becomes-accumulation.
  ProgBuilder pb("gather_sq");
  Var xs = pb.param("xs", arr_f64(1));
  Var is = pb.param("is", arr(ScalarType::I64, 1));
  Builder& b = pb.body();
  Var e = b.map1(b.lam({i64()},
                       [&](Builder& c, const std::vector<Var>& p) {
                         Var v = c.index(xs, {Atom(p[0])});
                         return std::vector<Atom>{Atom(c.mul(v, v))};
                       }),
                 {is});
  Var s = b.reduce1(b.add_op(), cf64(0.0), {e});
  Prog p = pb.finish({Atom(s)});
  typecheck(p);
  Prog grad = ad::vjp(p);

  std::vector<rt::Value> gargs = {rt::make_f64_array(rng.normal_vec(static_cast<size_t>(m)), {m}),
                                  rt::make_i64_array(rng.index_vec(static_cast<size_t>(n), m), {n}),
                                  1.0};

  benchmark::RegisterBenchmark("grad/atomic", [&](benchmark::State& st) {
    for (auto _ : st) benchmark::DoNotOptimize(atomic_interp.run(grad, gargs));
  })->Unit(benchmark::kMillisecond)->MinTime(0.1);
  benchmark::RegisterBenchmark("grad/privatized", [&](benchmark::State& st) {
    for (auto _ : st) benchmark::DoNotOptimize(priv_interp.run(grad, gargs));
  })->Unit(benchmark::kMillisecond)->MinTime(0.1);

  auto col = bench::run_benchmarks(argc, argv);

  support::Table t({"Variant", "Gradient (ms)", "Speedup"});
  t.add_row({"atomic upd_acc updates", support::Table::fmt(col.ms("grad/atomic")), "1.00x"});
  t.add_row({"privatized accumulators", support::Table::fmt(col.ms("grad/privatized")),
             bench::ratio(col.ms("grad/atomic"), col.ms("grad/privatized"))});
  std::cout << "\nAblation A: runtime accumulator privatization\n";
  t.print();
  auto print_counters = [](const char* name, const rt::Interp& in) {
    std::cout << name << ": privatized_updates=" << in.stats().privatized_updates.load()
              << " atomic_updates=" << in.stats().atomic_updates.load() << "\n";
  };
  print_counters("atomic", atomic_interp);
  print_counters("privatized", priv_interp);

  bench::write_bench_json("ablation_privatize", col, priv_interp.stats().counters());
  return 0;
}
