// Table 3 (Section 7.4): dense k-means — manual (histogram-based) vs npad AD
// (gradient via vjp, Hessian-vector products via jvp-of-vjp) vs the eager
// autograd baseline, on two workload shapes (scaled from the paper's
// (5, 494019, 35) and (1024, 10000, 256)).

#include "common.hpp"

#include <functional>

#include "apps/kmeans.hpp"
#include "core/ad.hpp"
#include "ir/typecheck.hpp"
#include "opt/pipeline.hpp"
#include "runtime/interp.hpp"

using namespace npad;

int main(int argc, char** argv) {
  const int64_t S = bench::scale_factor();
  support::Rng rng(11);
  rt::Interp interp;
  // All AD happens before optimization (jvp-of-vjp refuses fused forms);
  // then each measured program runs the standard pipeline.
  ir::Prog cost_p = apps::kmeans_ir_cost();
  ir::typecheck(cost_p);
  ir::Prog grad_p = ad::vjp(cost_p);
  ir::Prog hess_p = ad::jvp(grad_p);
  ir::typecheck(hess_p);
  cost_p = opt::optimize(cost_p);
  grad_p = opt::optimize(grad_p);
  hess_p = opt::optimize(hess_p);
  ir::typecheck(cost_p);
  ir::typecheck(grad_p);
  ir::typecheck(hess_p);

  struct Workload {
    const char* name;
    int64_t k, n, d;
  };
  const Workload wls[] = {{"(5, 494019, 35) scaled", 5, 4096 * S, 16},
                          {"(1024, 10000, 256) scaled", 64, 512 * S, 32}};

  std::vector<apps::KmeansData> data;
  for (const auto& w : wls) data.push_back(apps::kmeans_gen(rng, w.n, w.d, w.k));

  for (int i = 0; i < 2; ++i) {
    const auto& dt = data[static_cast<size_t>(i)];
    auto args = std::vector<rt::Value>{rt::make_f64_array(dt.centroids, {dt.k, dt.d}),
                                       rt::make_f64_array(dt.points, {dt.n, dt.d})};
    auto gargs = args;
    gargs.emplace_back(1.0);
    // One Hessian-vector probe direction (as in Newton's method the Hessian
    // diagonal costs k*d of these; we report per-probe time).
    auto hargs = gargs;
    std::vector<double> dir(static_cast<size_t>(dt.k * dt.d), 0.0);
    dir[0] = 1.0;
    hargs.push_back(rt::make_f64_array(dir, {dt.k, dt.d}));
    hargs.push_back(rt::make_f64_array(
        std::vector<double>(static_cast<size_t>(dt.n * dt.d), 0.0), {dt.n, dt.d}));
    hargs.emplace_back(0.0);
    const std::string p = "w" + std::to_string(i);
    auto reg = [&](const std::string& name, std::function<void()> fn) {
      benchmark::RegisterBenchmark((p + "/" + name).c_str(), [fn](benchmark::State& st) {
        for (auto _ : st) fn();
      })->Unit(benchmark::kMillisecond)->MinTime(0.05);
    };
    reg("manual", [&interp, dt] { benchmark::DoNotOptimize(apps::kmeans_manual(dt)); });
    reg("ad_grad", [&interp, &grad_p, gargs] {
      benchmark::DoNotOptimize(interp.run(grad_p, gargs));
    });
    reg("ad_hvp", [&interp, &hess_p, hargs] {
      benchmark::DoNotOptimize(interp.run(hess_p, hargs));
    });
    reg("eager", [dt] { benchmark::DoNotOptimize(apps::kmeans_eager(dt)); });
  }

  auto col = bench::run_benchmarks(argc, argv);

  support::Table t({"Workload", "Manual (ms)", "npad AD grad (ms)", "npad AD HVP (ms)",
                    "Eager AD (ms)", "Paper (manual/AD/PyT, A100)"});
  const char* paper[] = {"9.3 / 36.6 / 44.9 ms", "9.9 / 9.6 / 11.2 ms"};
  for (int i = 0; i < 2; ++i) {
    const std::string p = "w" + std::to_string(i);
    t.add_row({wls[i].name, support::Table::fmt(col.ms(p + "/manual")),
               support::Table::fmt(col.ms(p + "/ad_grad")),
               support::Table::fmt(col.ms(p + "/ad_hvp")),
               support::Table::fmt(col.ms(p + "/eager")), paper[i]});
  }
  std::cout << "\nTable 3: dense k-means (gradient + Hessian probes)\n";
  t.print();

  bench::write_bench_json("table3_kmeans", col, interp.stats().counters());
  return 0;
}
