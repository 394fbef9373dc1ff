// The one evaluator (eval_body / exec_stm): conformance of the kernel tier
// and the scalar-glue fold against the general path.
//
// Every program runs with kernels on (kernel launches, whole-lambda nests,
// scalar-glue blocks) and off (InterpOptions::use_kernels = false, the
// per-statement reference) with parallelism off, and the outputs must be
// bit-exact: scalars compared as raw bit patterns, arrays as shape plus
// per-element bits. On top of the conformance sweep:
//
//   * scalar-glue blocks: the counter fires in the top-level body and in
//     loop bodies, and a run whose free variable turns out to be an array
//     falls back to per-statement evaluation;
//   * the LSTM launch-count acceptance: one objective+gradient evaluation at
//     the bench D0 shape stays far below the per-row launch level;
//   * loops with data-dependent extents, OpIf bodies, zero and one
//     iterations, a general rows map with branches, and both arms of a
//     top-level if.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "apps/gmm.hpp"
#include "apps/kmeans.hpp"
#include "apps/lstm.hpp"
#include "core/ad.hpp"
#include "ir/builder.hpp"
#include "ir/typecheck.hpp"
#include "opt/pipeline.hpp"
#include "runtime/interp.hpp"
#include "runtime/resolve.hpp"
#include "support/rng.hpp"

namespace {

using namespace npad::ir;
using namespace npad::rt;

InterpOptions kernels(bool on) {
  InterpOptions o;
  o.parallel = false;
  o.use_kernels = on;
  return o;
}

uint64_t bits_of(double d) {
  uint64_t u;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

std::vector<uint64_t> fingerprint(const std::vector<Value>& vals) {
  std::vector<uint64_t> fp;
  for (const auto& v : vals) {
    if (std::holds_alternative<double>(v)) {
      fp.push_back(bits_of(std::get<double>(v)));
    } else if (std::holds_alternative<int64_t>(v)) {
      fp.push_back(static_cast<uint64_t>(std::get<int64_t>(v)));
    } else if (std::holds_alternative<bool>(v)) {
      fp.push_back(std::get<bool>(v) ? 1 : 0);
    } else if (is_array(v)) {
      const ArrayVal& a = as_array(v);
      for (int64_t s : a.shape) fp.push_back(static_cast<uint64_t>(s));
      const int64_t ne = a.elems();
      for (int64_t i = 0; i < ne; ++i) {
        if (a.elem == ScalarType::F64) {
          fp.push_back(bits_of(a.get_f64(i)));
        } else {
          fp.push_back(static_cast<uint64_t>(a.get_i64(i)));
        }
      }
    }
  }
  return fp;
}

// Runs `p` with kernels on and off and asserts bit-exact agreement. Returns
// the kernels-on result for further checks.
std::vector<Value> expect_conformant(const Prog& p, const std::vector<Value>& args,
                                     const char* what) {
  auto a = run_prog(p, args, kernels(true));
  auto b = run_prog(p, args, kernels(false));
  EXPECT_EQ(fingerprint(a), fingerprint(b)) << what << ": kernels on vs off diverged";
  // And the default (parallel) configuration is deterministic across runs.
  EXPECT_EQ(fingerprint(run_prog(p, args)), fingerprint(run_prog(p, args)))
      << what << ": parallel execution is not deterministic";
  return a;
}

// ------------------------------------------------- app conformance (fwd+rev)

TEST(EvalConformance, GmmObjectiveAndGradient) {
  npad::support::Rng rng(31);
  auto g = npad::apps::gmm_gen(rng, 64, 4, 5);
  Prog p = npad::apps::gmm_ir_objective();
  typecheck(p);
  auto args = npad::apps::gmm_ir_args(g);
  expect_conformant(p, args, "gmm objective");

  Prog grad = npad::ad::vjp(p);
  typecheck(grad);
  args.emplace_back(1.0);
  expect_conformant(grad, args, "gmm gradient");
}

TEST(EvalConformance, LstmObjectiveAndGradientOptimized) {
  npad::support::Rng rng(32);
  auto L = npad::apps::lstm_gen(rng, 4, 6, 8, 10);
  // Same preparation as bench_table6_lstm: differentiate, then optimize.
  Prog obj = npad::apps::lstm_ir_objective();
  typecheck(obj);
  Prog grad = npad::ad::vjp(obj);
  obj = npad::opt::optimize(obj);
  grad = npad::opt::optimize(grad);
  typecheck(obj);
  typecheck(grad);
  auto args = npad::apps::lstm_ir_args(L);
  expect_conformant(obj, args, "lstm objective");
  args.emplace_back(1.0);
  expect_conformant(grad, args, "lstm gradient");
}

TEST(EvalConformance, KmeansCostAndGradient) {
  npad::support::Rng rng(33);
  auto d = npad::apps::kmeans_gen(rng, 48, 3, 4);
  Prog p = npad::apps::kmeans_ir_cost();
  typecheck(p);
  std::vector<Value> args = {make_f64_array(d.centroids, {d.k, d.d}),
                             make_f64_array(d.points, {d.n, d.d})};
  expect_conformant(p, args, "kmeans cost");

  Prog grad = npad::ad::vjp(p);
  typecheck(grad);
  args.emplace_back(1.0);
  expect_conformant(grad, args, "kmeans gradient");
}

// ------------------------------------------------------ scalar-glue blocks ---

// A loop with scalar glue in both bodies: a top-level run and an in-loop run
// (one scalar-glue block each), plus a kernelizable rank-1 map over the
// carried array.
Prog glue_loop_prog(int64_t iters) {
  ProgBuilder pb("glue");
  Var x = pb.param("x", f64());
  Var xs = pb.param("xs", arr_f64(1));
  Builder& b = pb.body();
  // Top-level scalar glue: two consecutive pure scalar bindings.
  Var a = b.mul(x, cf64(2.0));
  Var c = b.add(a, cf64(3.0));
  auto outs = b.loop_for(
      {Atom(xs)}, Atom(ci64(iters)),
      [&](Builder& lb, Var, const std::vector<Var>& st) {
        // In-loop scalar glue run.
        Var s1 = lb.mul(c, cf64(0.5));
        Var s2 = lb.add(s1, cf64(1.0));
        Var next = lb.map1(lb.lam({f64()},
                                  [&](Builder& cc, const std::vector<Var>& p) {
                                    Var t = cc.mul(p[0], cf64(0.999));
                                    return std::vector<Atom>{Atom(cc.add(t, Atom(s2)))};
                                  }),
                           {st[0]});
        return std::vector<Atom>{Atom(next)};
      });
  return pb.finish({Atom(outs[0])});
}

TEST(ScalarBlocks, FireInTopLevelAndLoopBodies) {
  Prog p = glue_loop_prog(10);
  typecheck(p);
  npad::support::Rng rng(34);
  std::vector<Value> args = {0.7,
                             make_f64_array(rng.uniform_vec(4096, -1.0, 1.0), {4096})};
  Interp on{kernels(true)};
  auto r = on.run(p, args);
  ASSERT_EQ(r.size(), 1u);
  // One block per iteration plus the top-level run.
  EXPECT_EQ(on.stats().scalar_blocks.load(), 11u);
  // The reference path never folds.
  Interp off{kernels(false)};
  EXPECT_EQ(fingerprint(off.run(p, args)), fingerprint(r));
  EXPECT_EQ(off.stats().scalar_blocks.load(), 0u);
}

// An array where the param is a scalar (a shape-polymorphic reuse the
// static types do not describe) is refused by the argument contract on both
// paths, before any scalar block binds, and the block does not count.
TEST(ScalarBlocks, ArrayForScalarParamIsRefused) {
  ProgBuilder pb("glue_rebind");
  Var x = pb.param("x", f64());
  Builder& b = pb.body();
  Var a = b.rebind(Atom(x));
  Var c = b.rebind(Atom(a));
  Prog p = pb.finish({Atom(c)});
  typecheck(p);
  std::vector<Value> args = {make_f64_array({1.5, -2.0, 0.25}, {3})};
  Interp on{kernels(true)};
  EXPECT_THROW(on.run(p, args), npad::TypeError);
  EXPECT_THROW(run_prog(p, args, kernels(false)), npad::TypeError);
  EXPECT_EQ(on.stats().scalar_blocks.load(), 0u);
  // The same program with a scalar argument folds.
  Interp scalar{kernels(true)};
  EXPECT_EQ(std::get<double>(scalar.run(p, {Value(1.5)})[0]), 1.5);
  EXPECT_EQ(scalar.stats().scalar_blocks.load(), 1u);
}

// A block whose free variable holds an array at run time: reachable only by
// an ill-typed program, here one whose `a : f64` is bound by an iota. The
// block reads `a` through as_f64, so kernels on and off raise the same
// TypeError.
TEST(ScalarBlocks, IllTypedFreeArrayRaisesTypeError) {
  ProgBuilder pb("glue_ill_typed");
  Var x = pb.param("x", f64());
  Builder& b = pb.body();
  Var a = b.rebind(Atom(x));
  Var c = b.mul(a, cf64(2.0));
  Var d = b.add(c, cf64(1.0));
  Prog p = pb.finish({Atom(d)});
  typecheck(p);
  p.fn.body.stms[0].e = OpIota{Atom(ci64(3))};  // not typechecked again
  auto rp = ProgCache::global().get(p);
  ASSERT_EQ(rp->scalar_blocks[rp->root_activation].size(), 1u);
  Interp on{kernels(true)};
  EXPECT_THROW(on.run(p, {Value(1.5)}), npad::TypeError);
  EXPECT_EQ(on.stats().scalar_blocks.load(), 0u);
  EXPECT_THROW(run_prog(p, {Value(1.5)}, kernels(false)), npad::TypeError);
}

// ----------------------------------------------------- loops and branches --

// Data-dependent extent: the body materializes iota(carry), so the launch
// extent changes across iterations.
TEST(EvalConformance, DataDependentExtentLoop) {
  ProgBuilder pb("dyn");
  Builder& b = pb.body();
  auto outs = b.loop_for(
      {Atom(ci64(1))}, Atom(ci64(6)),
      [](Builder& lb, Var, const std::vector<Var>& st) {
        Var ys = lb.iota(Atom(st[0]));
        Var n = lb.length(ys);
        return std::vector<Atom>{Atom(lb.add(n, ci64(1)))};
      });
  Prog p = pb.finish({Atom(outs[0])});
  typecheck(p);

  auto r = expect_conformant(p, {}, "data-dependent extent loop");
  EXPECT_EQ(std::get<int64_t>(r[0]), 7);  // 1 -> 2 -> 3 -> ... -> 7
}

// An OpIf whose arms launch maps over the carried array.
TEST(EvalConformance, OpIfInLoopBody) {
  ProgBuilder pb("br");
  Var xs = pb.param("xs", arr_f64(1));
  Builder& b = pb.body();
  auto outs = b.loop_for(
      {Atom(xs)}, Atom(ci64(8)),
      [](Builder& lb, Var i, const std::vector<Var>& st) {
        Var even = lb.eq(Atom(lb.mod(i, ci64(2))), ci64(0));
        std::vector<Var> picked = lb.if_(
            Atom(even),
            [&](Builder& tb) {
              Var next = tb.map1(tb.lam({f64()},
                                        [](Builder& cc, const std::vector<Var>& p) {
                                          return std::vector<Atom>{
                                              Atom(cc.mul(p[0], cf64(1.01)))};
                                        }),
                                 {st[0]});
              return std::vector<Atom>{Atom(next)};
            },
            [&](Builder& eb) {
              Var next = eb.map1(eb.lam({f64()},
                                        [](Builder& cc, const std::vector<Var>& p) {
                                          return std::vector<Atom>{
                                              Atom(cc.add(p[0], cf64(0.01)))};
                                        }),
                                 {st[0]});
              return std::vector<Atom>{Atom(next)};
            });
        return std::vector<Atom>{Atom(picked[0])};
      });
  Prog p = pb.finish({Atom(outs[0])});
  typecheck(p);
  npad::support::Rng rng(35);
  std::vector<Value> args = {make_f64_array(rng.uniform_vec(512, -1.0, 1.0), {512})};
  expect_conformant(p, args, "OpIf loop body");
}

TEST(EvalConformance, EmptyAndSingleIterationLoops) {
  for (int64_t iters : {int64_t{0}, int64_t{1}}) {
    Prog p = glue_loop_prog(iters);
    typecheck(p);
    npad::support::Rng rng(36);
    std::vector<Value> args = {0.3,
                               make_f64_array(rng.uniform_vec(256, -1.0, 1.0), {256})};
    auto r = expect_conformant(p, args, iters == 0 ? "empty loop" : "one-iteration loop");
    ASSERT_TRUE(is_array(r[0]));
    EXPECT_EQ(as_array(r[0]).shape, (std::vector<int64_t>{256}));
  }
}

// ------------------------------------------------ LSTM launch acceptance ---

TEST(EvalAcceptance, LstmLaunchCountStaysLow) {
  npad::support::Rng rng(19);  // same seed/shape as bench_table6_lstm D0
  auto L = npad::apps::lstm_gen(rng, 16, 10, 24, 16);
  Prog obj = npad::apps::lstm_ir_objective();
  typecheck(obj);
  Prog grad = npad::ad::vjp(obj);
  obj = npad::opt::optimize(obj);
  grad = npad::opt::optimize(grad);
  auto args = npad::apps::lstm_ir_args(L);
  auto gargs = args;
  gargs.emplace_back(1.0);

  Interp in;
  in.run(obj, args);
  in.run(grad, gargs);
  // One objective+gradient evaluation at this shape used to issue tens of
  // thousands of batched kernel spans (~60k: per-timestep per-gate row
  // launches); inlined inner SOACs cut that by ~40x (measured ~1.5k). The ceiling leaves 2x headroom over the measured
  // level — still >10x below the old level — so a regression that undoes the
  // win fails loudly without the test being brittle.
  EXPECT_LE(in.stats().batched_launches.load(), 3000u)
      << "LSTM launch count regressed: batched_launches="
      << in.stats().batched_launches.load();
}

// ------------------------------------------------ general maps and OpIf arms --

// A general-path rows map: the inner map + reduce are launches, and the OpIf
// keeps the body off the kernel tier (row-stream params would otherwise
// compile the whole lambda), so every row is one apply() with an OpIf.
Prog rows_sum_prog() {
  ProgBuilder pb("rows");
  Var xss = pb.param("xss", arr_f64(2));
  Builder& b = pb.body();
  Var sums = b.map1(
      b.lam({arr_f64(1)},
            [](Builder& c, const std::vector<Var>& row) {
              Var scaled = c.map1(c.lam({f64()},
                                        [](Builder& cc, const std::vector<Var>& p) {
                                          Var t = cc.mul(p[0], cf64(0.5));
                                          return std::vector<Atom>{Atom(cc.add(t, cf64(1.0)))};
                                        }),
                                  {row[0]});
              Var s = c.reduce1(c.add_op(), cf64(0.0), {scaled});
              // Arms with their own launches.
              std::vector<Var> picked = c.if_(
                  Atom(c.gt(s, cf64(0.0))),
                  [&](Builder& tb) {
                    Var m = tb.map1(tb.lam({f64()},
                                           [](Builder& cc, const std::vector<Var>& p) {
                                             return std::vector<Atom>{
                                                 Atom(cc.mul(p[0], cf64(0.5)))};
                                           }),
                                    {scaled});
                    return std::vector<Atom>{Atom(tb.reduce1(tb.add_op(), cf64(0.0), {m}))};
                  },
                  [&](Builder& eb) {
                    Var m = eb.map1(eb.lam({f64()},
                                           [](Builder& cc, const std::vector<Var>& p) {
                                             return std::vector<Atom>{
                                                 Atom(cc.add(p[0], cf64(-1.0)))};
                                           }),
                                    {scaled});
                    return std::vector<Atom>{Atom(eb.reduce1(eb.add_op(), cf64(0.0), {m}))};
                  });
              return std::vector<Atom>{Atom(picked[0])};
            }),
      {xss});
  Var t = b.reduce1(b.add_op(), cf64(0.0), {sums});
  return pb.finish({Atom(t)});
}

TEST(EvalConformance, GeneralRowsMapWithBranches) {
  Prog p = rows_sum_prog();
  typecheck(p);
  npad::support::Rng rng(40);
  // Mixed-sign rows: both OpIf arms execute across the map, so the
  // conformance check covers both arms.
  std::vector<Value> args = {make_f64_array(rng.uniform_vec(32 * 16, -3.0, 1.0), {32, 16})};
  Interp in{kernels(true)};
  in.run(p, args);
  // Every row runs its lambda on the general path.
  EXPECT_EQ(in.stats().general_maps.load(), 1u);
  expect_conformant(p, args, "general rows map with branches");
}

// Both arms of a top-level OpIf stay bit-exact against the reference.
TEST(EvalConformance, IfBothArmsBitExact) {
  ProgBuilder pb("toplevel_if");
  Var x = pb.param("x", f64());
  Var xs = pb.param("xs", arr_f64(1));
  Builder& b = pb.body();
  Var pos = b.gt(x, cf64(0.0));
  // Arms carry their own map launches.
  std::vector<Var> picked = b.if_(
      Atom(pos),
      [&](Builder& tb) {
        Var m = tb.map1(tb.lam({f64()},
                               [](Builder& cc, const std::vector<Var>& p) {
                                 return std::vector<Atom>{Atom(cc.mul(p[0], cf64(2.0)))};
                               }),
                        {xs});
        return std::vector<Atom>{Atom(m)};
      },
      [&](Builder& eb) {
        Var m = eb.map1(eb.lam({f64()},
                               [](Builder& cc, const std::vector<Var>& p) {
                                 return std::vector<Atom>{Atom(cc.add(p[0], cf64(2.0)))};
                               }),
                        {xs});
        return std::vector<Atom>{Atom(m)};
      });
  Var s = b.reduce1(b.add_op(), cf64(0.0), {picked[0]});
  Prog p = pb.finish({Atom(s)});
  typecheck(p);
  npad::support::Rng rng(42);
  auto xs_val = make_f64_array(rng.uniform_vec(256, -1.0, 1.0), {256});
  for (double x0 : {0.7, -0.7}) {
    std::vector<Value> args = {Value(x0), xs_val};
    expect_conformant(p, args, x0 > 0 ? "if true arm" : "if false arm");
  }
}

} // namespace
