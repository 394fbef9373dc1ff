// Ablation N: regular nests as one whole-lambda kernel launch.
//
// A map over the rows of rank-2 arrays whose lambda maps or folds each row
// runs as ONE kernel launch (runtime/kernel.hpp): each lane computes a whole
// row, with no per-row apply(), environment frame or inner launch. Workloads
// are the matmul-shaped nests of the paper tables:
//
//  - map-of-map: ys = map(λrow. map(g, row)) — a row result, stored row by
//    row into the [n][m] launch output;
//  - map-of-sum: map(λrow. reduce(+, 0, row)) — a one-stream inline fold,
//    kmeans' distance row sums;
//  - map-of-dot: map(λra,rb. reduce(+, 0, map(*, ra, rb))) — fused to a
//    redomap, an inline dot fold; GMM/LSTM's per-row contractions;
//  - map-of-lse: a multi-statement log-sum-exp fold per row.
//
// Grid: the four nests x three shapes of the same ~1M-element space (8192 x
// 128, 1024 x 1024 and 65536 x 16 at scale 1: short rows, where per-row
// launch setup would dominate, to long ones) x kernel lane width W = 1, 8.
// BENCH_ablation_nest.json records each row's timing plus, per row, the
// kernel_maps / general_maps of one run (`<counter>/<row>`): every nest
// must run as one kernel launch.

#include "common.hpp"

#include <functional>

#include "ir/builder.hpp"
#include "ir/typecheck.hpp"
#include "opt/fuse.hpp"
#include "runtime/interp.hpp"
#include "support/rng.hpp"

using namespace npad;
using namespace npad::ir;

namespace {

// map(λrow. map(g, row)) with an affine scalar body.
Prog map_of_map_prog() {
  ProgBuilder pb("mm");
  Var xss = pb.param("xss", arr_f64(2));
  Builder& b = pb.body();
  Var out = b.map1(
      b.lam({arr_f64(1)},
            [](Builder& c, const std::vector<Var>& row) {
              return std::vector<Atom>{Atom(c.map1(
                  c.lam({f64()},
                        [](Builder& cc, const std::vector<Var>& p) {
                          // Deliberately light body: the ablation measures
                          // per-row launch overhead, not scalar throughput.
                          Var t = cc.mul(p[0], cf64(1.3));
                          return std::vector<Atom>{Atom(cc.add(t, cf64(0.2)))};
                        }),
                  {row[0]}))};
            }),
      {xss});
  return pb.finish({Atom(out)});
}

// map(λrow. reduce(+, 0, row)).
Prog map_of_sum_prog() {
  ProgBuilder pb("ms");
  Var xss = pb.param("xss", arr_f64(2));
  Builder& b = pb.body();
  Var out = b.map1(b.lam({arr_f64(1)},
                         [](Builder& c, const std::vector<Var>& row) {
                           return std::vector<Atom>{
                               Atom(c.reduce1(c.add_op(), cf64(0.0), {row[0]}))};
                         }),
                   {xss});
  return pb.finish({Atom(out)});
}

// map(λra,rb. reduce(+, 0, map(*, ra, rb))) — fused into a redomap nest.
Prog map_of_dot_prog() {
  ProgBuilder pb("md");
  Var as = pb.param("as", arr_f64(2));
  Var bs = pb.param("bs", arr_f64(2));
  Builder& b = pb.body();
  Var out = b.map1(
      b.lam({arr_f64(1), arr_f64(1)},
            [](Builder& c, const std::vector<Var>& rows) {
              Var prods = c.map1(c.lam({f64(), f64()},
                                       [](Builder& cc, const std::vector<Var>& p) {
                                         return std::vector<Atom>{Atom(cc.mul(p[0], p[1]))};
                                       }),
                                 {rows[0], rows[1]});
              return std::vector<Atom>{Atom(c.reduce1(c.add_op(), cf64(0.0), {prods}))};
            }),
      {as, bs});
  return pb.finish({Atom(out)});
}

// map(λrow. reduce(lse, -inf, row)) — multi-statement kernel-tier fold.
Prog map_of_lse_prog() {
  ProgBuilder pb("ml");
  Var xss = pb.param("xss", arr_f64(2));
  Builder& b = pb.body();
  Var out = b.map1(
      b.lam({arr_f64(1)},
            [](Builder& c, const std::vector<Var>& row) {
              LambdaPtr op = c.lam({f64(), f64()}, [](Builder& cc, const std::vector<Var>& p) {
                Var m = cc.max(p[0], p[1]);
                Var ea = cc.exp(Atom(cc.sub(p[0], m)));
                Var eb = cc.exp(Atom(cc.sub(p[1], m)));
                return std::vector<Atom>{Atom(cc.add(m, Atom(cc.log(Atom(cc.add(ea, eb))))))};
              });
              return std::vector<Atom>{
                  Atom(c.reduce1(std::move(op), cf64(-1e300), {row[0]}))};
            }),
      {xss});
  return pb.finish({Atom(out)});
}

} // namespace

int main(int argc, char** argv) {
  const int64_t S = bench::scale_factor();
  support::Rng rng(53);

  auto prep = [](Prog p, bool fuse_first) {
    ir::typecheck(p);
    if (fuse_first) {
      opt::FuseStats fs;
      p = opt::fuse_maps(p, &fs);
      ir::typecheck(p);
    }
    return p;
  };
  struct NestDef {
    const char* name;
    Prog prog;
    int inputs;
  };
  const std::vector<NestDef> nests = {{"mapmap", prep(map_of_map_prog(), false), 1},
                                      {"mapsum", prep(map_of_sum_prog(), false), 1},
                                      {"mapdot", prep(map_of_dot_prog(), true), 2},
                                      {"maplse", prep(map_of_lse_prog(), false), 1}};
  struct Shape {
    int64_t n, m;
  };
  const std::vector<Shape> shapes = {{8192 * S, 128}, {1024 * S, 1024}, {65536 * S, 16}};
  // Inputs per shape: two arrays, the second read by map-of-dot only.
  std::vector<std::vector<rt::Value>> inputs;
  for (const Shape& sh : shapes) {
    std::vector<rt::Value> args;
    for (int i = 0; i < 2; ++i) {
      args.push_back(rt::make_f64_array(
          rng.uniform_vec(static_cast<size_t>(sh.n * sh.m), -1.0, 1.0), {sh.n, sh.m}));
    }
    inputs.push_back(std::move(args));
  }

  rt::Interp k1({.parallel = true, .use_kernels = true, .kernel_lanes = 1});
  rt::Interp k8({.parallel = true, .use_kernels = true, .kernel_lanes = 8});
  auto row_name = [&](const NestDef& nd, const Shape& sh, int w) {
    return std::string(nd.name) + "/" + std::to_string(sh.n) + "x" + std::to_string(sh.m) +
           "/w" + std::to_string(w);
  };

  std::map<std::string, uint64_t> counters;
  for (const NestDef& nd : nests) {
    for (size_t si = 0; si < shapes.size(); ++si) {
      std::vector<rt::Value> args(inputs[si].begin(), inputs[si].begin() + nd.inputs);
      for (int w : {1, 8}) {
        const std::string name = row_name(nd, shapes[si], w);
        // One probe run per row: where the nest ran.
        rt::Interp probe({.parallel = true, .use_kernels = true, .kernel_lanes = w});
        probe.run(nd.prog, args);
        counters["kernel_maps/" + name] = probe.stats().kernel_maps.load();
        counters["general_maps/" + name] = probe.stats().general_maps.load();
        rt::Interp& in = w == 1 ? k1 : k8;
        const Prog* prog = &nd.prog;
        benchmark::RegisterBenchmark(name.c_str(), [&in, prog, args](benchmark::State& st) {
          for (auto _ : st) benchmark::DoNotOptimize(in.run(*prog, args));
        })->Unit(benchmark::kMillisecond)->MinTime(0.1);
      }
    }
  }

  auto col = bench::run_benchmarks(argc, argv);

  support::Table t({"Nest (n x m)", "W=1 (ms)", "W=8 (ms)", "kernel launches", "general maps"});
  for (const NestDef& nd : nests) {
    for (const Shape& sh : shapes) {
      const std::string n8 = row_name(nd, sh, 8);
      t.add_row({std::string(nd.name) + " " + std::to_string(sh.n) + "x" + std::to_string(sh.m),
                 support::Table::fmt(col.ms(row_name(nd, sh, 1))), support::Table::fmt(col.ms(n8)),
                 std::to_string(counters["kernel_maps/" + n8]),
                 std::to_string(counters["general_maps/" + n8])});
    }
  }
  std::cout << "\nAblation N: regular nests as one whole-lambda kernel launch\n";
  t.print();
  for (const auto& [k, v] : k8.stats().counters()) counters[k] = v;
  bench::write_bench_json("ablation_nest", col, counters);
  return 0;
}
