// Table 5 (Section 7.6): GMM on the six ADBench dataset shapes (scaled).
// Reports the eager (PyTorch stand-in) Jacobian time, the npad speedup over
// it, and the within-system AD overheads (Jacobian / objective), next to the
// paper's A100 numbers.

#include "common.hpp"

#include <functional>

#include "apps/gmm.hpp"
#include "core/ad.hpp"
#include "ir/typecheck.hpp"
#include "opt/pipeline.hpp"
#include "runtime/interp.hpp"

using namespace npad;

int main(int argc, char** argv) {
  const int64_t S = bench::scale_factor();
  support::Rng rng(17);
  rt::Interp interp;
  // Differentiate first, then run the standard pipeline: GMM's
  // per-component row sums and the prior's sum-of-squares rows run as
  // whole-lambda kernel launches over the rows.
  ir::Prog obj_p = apps::gmm_ir_objective();
  ir::typecheck(obj_p);
  ir::Prog grad_p = ad::vjp(obj_p);
  obj_p = opt::optimize(obj_p);
  grad_p = opt::optimize(grad_p);
  ir::typecheck(obj_p);
  ir::typecheck(grad_p);

  struct Shape {
    const char* name;
    int64_t n, d, k;
  };
  const Shape shapes[] = {{"D0 (1k,64,200)", 256 * S, 16, 25}, {"D1 (1k,128,200)", 256 * S, 32, 25},
                          {"D2 (10k,32,200)", 512 * S, 8, 25}, {"D3 (10k,64,25)", 512 * S, 16, 12},
                          {"D4 (10k,128,25)", 512 * S, 32, 12}, {"D5 (10k,128,200)", 512 * S, 32, 50}};

  std::vector<apps::GmmData> data;
  for (const auto& s : shapes) data.push_back(apps::gmm_gen(rng, s.n, s.d, s.k));

  for (int i = 0; i < 6; ++i) {
    const auto& g = data[static_cast<size_t>(i)];
    auto args = apps::gmm_ir_args(g);
    auto gargs = args;
    gargs.emplace_back(1.0);
    const std::string p = "d" + std::to_string(i);
    auto reg = [&](const std::string& name, std::function<void()> fn) {
      benchmark::RegisterBenchmark((p + "/" + name).c_str(), [fn](benchmark::State& st) {
        for (auto _ : st) fn();
      })->Unit(benchmark::kMillisecond)->MinTime(0.05);
    };
    reg("npad_obj", [&interp, &obj_p, args] { benchmark::DoNotOptimize(interp.run(obj_p, args)); });
    reg("npad_jac", [&interp, &grad_p, gargs] {
      benchmark::DoNotOptimize(interp.run(grad_p, gargs));
    });
    reg("eager_obj", [g] { benchmark::DoNotOptimize(apps::gmm_eager(g, false)); });
    reg("eager_jac", [g] { benchmark::DoNotOptimize(apps::gmm_eager(g, true)); });
  }

  auto col = bench::run_benchmarks(argc, argv);

  support::Table t({"Shape", "Eager Jacob. (ms)", "npad speedup", "Eager overhead",
                    "npad overhead", "Paper (speedup/PyT ovh/Fut ovh)"});
  const char* paper[] = {"1.85x / 2.64x / 2.34x", "2.18x / 5.28x / 2.20x",
                         "1.45x / 2.45x / 2.24x", "1.81x / 3.09x / 2.00x",
                         "1.89x / 4.04x / 2.98x", "0.87x / 2.46x / 3.18x"};
  for (int i = 0; i < 6; ++i) {
    const std::string p = "d" + std::to_string(i);
    t.add_row({shapes[i].name, support::Table::fmt(col.ms(p + "/eager_jac")),
               bench::ratio(col.ms(p + "/eager_jac"), col.ms(p + "/npad_jac")),
               bench::ratio(col.ms(p + "/eager_jac"), col.ms(p + "/eager_obj")),
               bench::ratio(col.ms(p + "/npad_jac"), col.ms(p + "/npad_obj")), paper[i]});
  }
  std::cout << "\nTable 5: GMM Jacobians (A100 shapes, scaled)\n";
  t.print();

  bench::write_bench_json("table5_gmm", col, interp.stats().counters());
  return 0;
}
