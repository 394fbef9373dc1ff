// Table 4 (Section 7.5): sparse (CSR) k-means on three synthetic workloads
// shaped after the paper's NLP datasets (movielens / nytimes / scrna),
// k = 10: manual CSR vs npad AD (CSR) vs eager autograd (COO, as PyTorch's
// sparse AD forces).

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
  support::Rng rng(13);
  rt::Interp interp;
  ir::Prog cost_p = apps::kmeans_sparse_ir_cost();
  ir::typecheck(cost_p);
  // The measured artifact is the one serving runs: vjp, then the standard
  // pipeline (whose DCE drops the vjp's unread checkpoint arrays, so the CSR
  // segment loops compile into kernels).
  ir::Prog grad_p = opt::optimize(ad::vjp(cost_p));
  ir::typecheck(grad_p);

  struct Workload {
    const char* name;
    int64_t n, d, nnz;
  };
  const Workload wls[] = {{"movielens (scaled)", 2048 * S, 512, 16},
                          {"nytimes (scaled)", 1024 * S, 1024, 24},
                          {"scrna (scaled)", 1024 * S, 512, 16}};

  std::vector<apps::KmeansSparseData> data;
  for (const auto& w : wls) data.push_back(apps::kmeans_sparse_gen(rng, w.n, w.d, 10, w.nnz));

  for (int i = 0; i < 3; ++i) {
    const auto& dt = data[static_cast<size_t>(i)];
    auto gargs = apps::kmeans_sparse_ir_args(dt);
    gargs.emplace_back(1.0);
    const std::string p = "w" + std::to_string(i);
    auto reg = [&](const std::string& name, std::function<void()> fn) {
      benchmark::RegisterBenchmark((p + "/" + name).c_str(), [fn](benchmark::State& st) {
        for (auto _ : st) fn();
      })->Unit(benchmark::kMillisecond)->MinTime(0.05);
    };
    reg("manual", [dt] { benchmark::DoNotOptimize(apps::kmeans_sparse_manual(dt)); });
    reg("ad", [&interp, &grad_p, gargs] { benchmark::DoNotOptimize(interp.run(grad_p, gargs)); });
    reg("eager", [dt] { benchmark::DoNotOptimize(apps::kmeans_sparse_eager(dt)); });
  }

  auto col = bench::run_benchmarks(argc, argv);

  support::Table t({"Workload", "Manual (ms)", "npad AD (ms)", "Eager COO (ms)",
                    "Paper (manual/AD/PyT, A100)"});
  const char* paper[] = {"61 / 152 / 61223 ms", "83 / 300 / 226896 ms", "156 / 579 / 367799 ms"};
  for (int i = 0; i < 3; ++i) {
    const std::string p = "w" + std::to_string(i);
    t.add_row({wls[i].name, support::Table::fmt(col.ms(p + "/manual")),
               support::Table::fmt(col.ms(p + "/ad")), support::Table::fmt(col.ms(p + "/eager")),
               paper[i]});
  }
  std::cout << "\nTable 4: sparse k-means gradients\n";
  t.print();

  bench::write_bench_json("table4_kmeans_sparse", col, interp.stats().counters());
  return 0;
}
