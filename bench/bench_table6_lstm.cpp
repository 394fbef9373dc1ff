// Table 6 (Section 7.7): LSTM on two NLP-shaped hyperparameter sets
// (scaled): the eager autograd baseline (PyTorch stand-in), npad AD, and the
// fused manual implementation (cuDNN stand-in), with within-system AD
// overheads.

#include "common.hpp"

#include <functional>

#include "apps/lstm.hpp"
#include "core/ad.hpp"
#include "ir/typecheck.hpp"
#include "opt/pipeline.hpp"
#include "runtime/interp.hpp"

using namespace npad;

int main(int argc, char** argv) {
  const int64_t S = bench::scale_factor();
  support::Rng rng(19);
  rt::Interp interp;
  // Differentiate first, then the standard pipeline over both programs —
  // the per-gate row maps are nested-parallel.
  ir::Prog obj_p = apps::lstm_ir_objective();
  ir::typecheck(obj_p);
  ir::Prog grad_p = ad::vjp(obj_p);
  obj_p = opt::optimize(obj_p);
  grad_p = opt::optimize(grad_p);
  ir::typecheck(obj_p);
  ir::typecheck(grad_p);

  struct Shape {
    const char* name;
    int64_t bs, n, d, h;
  };
  const Shape shapes[] = {{"D0 (1024,20,300,192)", 16, 10 * S, 24, 16},
                          {"D1 (1024,300,80,256)", 16, 24 * S, 12, 20}};

  std::vector<apps::LstmData> data;
  for (const auto& s : shapes) data.push_back(apps::lstm_gen(rng, s.bs, s.n, s.d, s.h));

  for (int i = 0; i < 2; ++i) {
    const auto& L = data[static_cast<size_t>(i)];
    auto args = apps::lstm_ir_args(L);
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
    reg("eager_obj", [L] { benchmark::DoNotOptimize(apps::lstm_eager(L, false)); });
    reg("eager_jac", [L] { benchmark::DoNotOptimize(apps::lstm_eager(L, true)); });
    reg("manual_obj", [L] { benchmark::DoNotOptimize(apps::lstm_manual_objective_only(L)); });
    reg("manual_jac", [L] { benchmark::DoNotOptimize(apps::lstm_manual(L)); });
  }

  auto col = bench::run_benchmarks(argc, argv);

  support::Table t({"Shape", "Eager Jacob. (ms)", "npad speedup", "manual speedup",
                    "Eager ovh", "npad ovh", "manual ovh", "Paper A100 (Fut/cuDNN spd)"});
  const char* paper[] = {"3.1x / 14.0x", "3.0x / 25.5x"};
  for (int i = 0; i < 2; ++i) {
    const std::string p = "d" + std::to_string(i);
    t.add_row({shapes[i].name, support::Table::fmt(col.ms(p + "/eager_jac")),
               bench::ratio(col.ms(p + "/eager_jac"), col.ms(p + "/npad_jac")),
               bench::ratio(col.ms(p + "/eager_jac"), col.ms(p + "/manual_jac")),
               bench::ratio(col.ms(p + "/eager_jac"), col.ms(p + "/eager_obj")),
               bench::ratio(col.ms(p + "/npad_jac"), col.ms(p + "/npad_obj")),
               bench::ratio(col.ms(p + "/manual_jac"), col.ms(p + "/manual_obj")), paper[i]});
  }
  std::cout << "\nTable 6: LSTM gradients (NLP shapes, scaled)\n";
  t.print();

  bench::write_bench_json("table6_lstm", col, interp.stats().counters());
  return 0;
}
