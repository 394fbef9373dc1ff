// Additional reverse-mode edge cases: structural array ops (reverse,
// transpose, replicate of rows, copy), prefix-index updates, the §6.2
// checkpoint-at-entry annotation, maps nested in loops, loops nested in
// maps, and agreement between the specialized and general reduce rules.

#include <gtest/gtest.h>

#include "core/ad.hpp"
#include "core/gradcheck.hpp"
#include "opt/pipeline.hpp"
#include "ir/builder.hpp"
#include "ir/typecheck.hpp"
#include "ir/visit.hpp"
#include "runtime/interp.hpp"
#include "support/rng.hpp"

namespace {

using namespace npad;
using namespace npad::ir;
using rt::Value;
using rt::make_f64_array;
using rt::make_i64_array;

void expect_gradcheck(const Prog& p, const std::vector<Value>& args, double tol = 2e-4) {
  typecheck(p);
  Prog g = ad::vjp(p);
  typecheck(g);
  auto r = ad::check_gradients(p, args, 1e-6, tol);
  EXPECT_TRUE(r.ok) << "max_rel=" << r.max_rel_err;
}

TEST(VjpEdge, ReverseTransposeChain) {
  ProgBuilder pb("f");
  Var m = pb.param("m", arr_f64(2));
  Var w = pb.param("w", arr_f64(2));
  Builder& b = pb.body();
  Var t = b.transpose(m);
  Var rows = b.map(b.lam({arr_f64(1), arr_f64(1)},
                         [&](Builder& c, const std::vector<Var>& p) {
                           Var prods = c.map(c.lam({f64(), f64()},
                                                   [](Builder& cc, const std::vector<Var>& q) {
                                                     return std::vector<Atom>{
                                                         Atom(cc.mul(q[0], q[1]))};
                                                   }),
                                             {p[0], p[1]})[0];
                           return std::vector<Atom>{
                               Atom(c.reduce1(c.add_op(), cf64(0.0), {prods}))};
                         }),
                   {t, w})[0];
  Var s = b.reduce1(b.add_op(), cf64(0.0), {rows});
  Prog p = pb.finish({Atom(s)});
  support::Rng rng(1);
  expect_gradcheck(p, {make_f64_array(rng.normal_vec(6), {2, 3}),
                       make_f64_array(rng.normal_vec(6), {3, 2})});
}

TEST(VjpEdge, ReverseArrayAdjoint) {
  ProgBuilder pb("f");
  Var xs = pb.param("xs", arr_f64(1));
  Var ws = pb.param("ws", arr_f64(1));
  Builder& b = pb.body();
  Var r = b.reverse(xs);
  Var prods = b.map(b.lam({f64(), f64()},
                          [](Builder& c, const std::vector<Var>& q) {
                            return std::vector<Atom>{Atom(c.mul(q[0], q[1]))};
                          }),
                    {r, ws})[0];
  Var s = b.reduce1(b.add_op(), cf64(0.0), {prods});
  Prog p = pb.finish({Atom(s)});
  auto g = ad::reverse_gradients(p, {make_f64_array({1, 2, 3}, {3}),
                                     make_f64_array({10, 20, 30}, {3})});
  EXPECT_EQ(g[0], (std::vector<double>{30, 20, 10}));
}

TEST(VjpEdge, ReplicateRowAdjointSumsOverCopies) {
  ProgBuilder pb("f");
  Var row = pb.param("row", arr_f64(1));
  Builder& b = pb.body();
  Var tiled = b.replicate(ci64(4), Atom(row));  // [4][n]
  Var rows = b.map(b.lam({arr_f64(1)},
                         [&](Builder& c, const std::vector<Var>& p) {
                           Var sq = c.map1(c.lam({f64()},
                                                 [](Builder& cc, const std::vector<Var>& q) {
                                                   return std::vector<Atom>{
                                                       Atom(cc.mul(q[0], q[0]))};
                                                 }),
                                           {p[0]});
                           return std::vector<Atom>{
                               Atom(c.reduce1(c.add_op(), cf64(0.0), {sq}))};
                         }),
                   {tiled})[0];
  Var s = b.reduce1(b.add_op(), cf64(0.0), {rows});
  Prog p = pb.finish({Atom(s)});
  auto g = ad::reverse_gradients(p, {make_f64_array({1, 2}, {2})});
  EXPECT_EQ(g[0], (std::vector<double>{8, 16}));  // 4 * 2x
}

TEST(VjpEdge, PrefixUpdateRowAdjoint) {
  // Writing a whole row into a matrix; gradients must flow to the row and
  // around the overwritten region.
  ProgBuilder pb("f");
  Var m = pb.param("m", arr_f64(2));
  Var row = pb.param("row", arr_f64(1));
  Builder& b = pb.body();
  Var m2 = b.update(m, {ci64(1)}, Atom(row));
  Var rows = b.map(b.lam({arr_f64(1)},
                         [&](Builder& c, const std::vector<Var>& p) {
                           Var sq = c.map1(c.lam({f64()},
                                                 [](Builder& cc, const std::vector<Var>& q) {
                                                   return std::vector<Atom>{
                                                       Atom(cc.mul(q[0], q[0]))};
                                                 }),
                                           {p[0]});
                           return std::vector<Atom>{
                               Atom(c.reduce1(c.add_op(), cf64(0.0), {sq}))};
                         }),
                   {m2})[0];
  Var s = b.reduce1(b.add_op(), cf64(0.0), {rows});
  Prog p = pb.finish({Atom(s)});
  auto g = ad::reverse_gradients(
      p, {make_f64_array({1, 2, 3, 4, 5, 6}, {3, 2}), make_f64_array({7, 8}, {2})});
  // Row 1 is overwritten: its adjoint is zero; the written row gets 2*row.
  EXPECT_EQ(g[0], (std::vector<double>{2, 4, 0, 0, 10, 12}));
  EXPECT_EQ(g[1], (std::vector<double>{14, 16}));
}

TEST(VjpEdge, CheckpointEntryAnnotationMatchesDefault) {
  // A no-false-dependency loop (each cell written once, reads only earlier
  // cells): the §6.2 annotation must produce the same gradient as full
  // per-iteration checkpointing.
  auto build = [](bool entry) {
    ProgBuilder pb("f");
    Var xs0 = pb.param("xs0", arr_f64(1));
    Builder& b = pb.body();
    Var n = b.length(xs0);
    auto outs = b.loop_for(
        {Atom(xs0)}, Atom(b.sub(Atom(n), ci64(1))),
        [&](Builder& lb, Var i, const std::vector<Var>& ps) {
          Var prev = lb.index(ps[0], {Atom(i)});
          Var ip1 = lb.add(Atom(i), ci64(1));
          Var cur = lb.index(ps[0], {Atom(ip1)});
          Var nv = lb.add(Atom(cur), Atom(lb.mul(prev, cf64(0.5))));
          return std::vector<Atom>{Atom(lb.update(ps[0], {Atom(ip1)}, Atom(nv)))};
        },
        /*stripmine=*/0, /*checkpoint_entry=*/entry);
    Var s = b.reduce1(b.add_op(), cf64(0.0), {outs[0]});
    return pb.finish({Atom(s)});
  };
  std::vector<Value> args = {make_f64_array({0.5, 0.25, 0.75, 0.1}, {4})};
  auto g_full = ad::reverse_gradients(build(false), args);
  auto g_entry = ad::reverse_gradients(build(true), args);
  ASSERT_EQ(g_full[0].size(), g_entry[0].size());
  for (size_t i = 0; i < g_full[0].size(); ++i) {
    EXPECT_NEAR(g_full[0][i], g_entry[0][i], 1e-12) << i;
  }
  auto r = ad::check_gradients(build(true), args, 1e-6, 1e-5);
  EXPECT_TRUE(r.ok) << r.max_rel_err;
}

TEST(VjpEdge, MapInsideLoop) {
  // Sequential loop whose body maps over an array carried through the loop.
  ProgBuilder pb("f");
  Var xs0 = pb.param("xs0", arr_f64(1));
  Builder& b = pb.body();
  auto outs = b.loop_for({Atom(xs0)}, ci64(3),
                         [&](Builder& lb, Var, const std::vector<Var>& ps) {
                           Var nxt = lb.map1(
                               lb.lam({f64()},
                                      [](Builder& c, const std::vector<Var>& p) {
                                        Var t = c.tanh(p[0]);
                                        return std::vector<Atom>{
                                            Atom(c.add(t, Atom(c.mul(p[0], cf64(0.1)))))};
                                      }),
                               {ps[0]});
                           return std::vector<Atom>{Atom(nxt)};
                         });
  Var sq = b.map1(b.lam({f64()},
                        [](Builder& c, const std::vector<Var>& p) {
                          return std::vector<Atom>{Atom(c.mul(p[0], p[0]))};
                        }),
                  {outs[0]});
  Var s = b.reduce1(b.add_op(), cf64(0.0), {sq});
  Prog p = pb.finish({Atom(s)});
  support::Rng rng(3);
  expect_gradcheck(p, {make_f64_array(rng.normal_vec(5), {5})});
}

TEST(VjpEdge, LoopInsideMap) {
  // Parallel map whose lambda runs a sequential recurrence — the nested
  // sequential-in-parallel shape (checkpointing inside a reverse map).
  ProgBuilder pb("f");
  Var xs = pb.param("xs", arr_f64(1));
  Builder& b = pb.body();
  Var out = b.map1(b.lam({f64()},
                         [](Builder& c, const std::vector<Var>& p) {
                           auto acc = c.loop_for(
                               {Atom(p[0])}, ci64(4),
                               [](Builder& lb, Var, const std::vector<Var>& ps) {
                                 Var t = lb.mul(ps[0], ps[0]);
                                 return std::vector<Atom>{
                                     Atom(lb.add(Atom(lb.mul(t, cf64(0.3))), cf64(0.2)))};
                               });
                           return std::vector<Atom>{Atom(acc[0])};
                         }),
                   {xs});
  Var s = b.reduce1(b.add_op(), cf64(0.0), {out});
  Prog p = pb.finish({Atom(s)});
  support::Rng rng(4);
  expect_gradcheck(p, {make_f64_array(rng.normal_vec(6), {6})});
}

// Property sweep: the specialized reduce rules must agree with the general
// rule. We phrase the same objective with a recognized operator (special
// path) and with an eta-expanded equivalent the recognizer rejects (general
// path), and compare gradients.
class ReduceRuleAgree : public ::testing::TestWithParam<int> {};

TEST_P(ReduceRuleAgree, SpecialVsGeneral) {
  support::Rng rng(static_cast<uint64_t>(GetParam()) * 31 + 5);
  const int64_t n = 4 + rng.uniform_int(6);
  std::vector<double> data = rng.uniform_vec(static_cast<size_t>(n), 0.2, 1.5);
  auto build = [&](bool obfuscate) {
    ProgBuilder pb("f");
    Var xs = pb.param("xs", arr_f64(1));
    Builder& b = pb.body();
    LambdaPtr op;
    if (obfuscate) {
      // a*b written as a statement chain the pattern recognizer rejects.
      op = b.lam({f64(), f64()}, [](Builder& c, const std::vector<Var>& p) {
        Var t = c.mul(p[0], p[1]);
        return std::vector<Atom>{Atom(c.add(t, cf64(0.0)))};
      });
    } else {
      op = b.mul_op();
    }
    Var r = b.reduce1(std::move(op), cf64(1.0), {xs});
    return pb.finish({Atom(r)});
  };
  auto g1 = ad::reverse_gradients(build(false), {make_f64_array(data, {n})});
  auto g2 = ad::reverse_gradients(build(true), {make_f64_array(data, {n})});
  ASSERT_EQ(g1[0].size(), g2[0].size());
  for (size_t i = 0; i < g1[0].size(); ++i) {
    EXPECT_NEAR(g1[0][i], g2[0][i], 1e-10) << "seed=" << GetParam() << " i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReduceRuleAgree, ::testing::Range(0, 8));

// ------------------------------------------------- fused-pipeline grads ----
// Differentiated programs pushed through the full optimization pipeline
// (simplify → map fusion → simplify) must keep their gradients: the fused
// vjp program is checked against central finite differences of the primal.

void expect_fused_gradcheck(const Prog& p, const std::vector<Value>& args,
                            double tol = 2e-4) {
  typecheck(p);
  Prog g = ad::vjp(p);
  Prog gf = opt::optimize(g);
  typecheck(gf);
  // Run the fused reverse program: args + seed 1.0 for the scalar result.
  std::vector<Value> gargs = args;
  gargs.emplace_back(1.0);
  auto res = rt::run_prog(gf, gargs);
  auto num = ad::numeric_gradients(p, args);
  // Gradients are the trailing results, one per differentiable parameter.
  size_t gi = res.size() - num.size();
  for (size_t k = 0; k < num.size(); ++k, ++gi) {
    std::vector<double> got = rt::is_array(res[gi])
                                  ? rt::to_f64_vec(rt::as_array(res[gi]))
                                  : std::vector<double>{rt::as_f64(res[gi])};
    ASSERT_EQ(got.size(), num[k].size());
    for (size_t i = 0; i < got.size(); ++i) {
      const double denom = std::max(1.0, std::abs(num[k][i]));
      EXPECT_NEAR(got[i] / denom, num[k][i] / denom, tol) << "param " << k << " elt " << i;
    }
  }
}

TEST(FusedPipeline, ElementwiseChainGradients) {
  ProgBuilder pb("f");
  Var xs = pb.param("xs", arr_f64(1));
  Builder& b = pb.body();
  Var a = b.map1(b.lam({f64()},
                       [](Builder& c, const std::vector<Var>& p) {
                         return std::vector<Atom>{Atom(c.tanh(p[0]))};
                       }),
                 {xs});
  Var c2 = b.map1(b.lam({f64()},
                        [](Builder& c, const std::vector<Var>& p) {
                          Var t = c.mul(p[0], cf64(1.7));
                          return std::vector<Atom>{Atom(c.add(t, cf64(0.3)))};
                        }),
                  {a});
  Var d = b.map1(b.lam({f64()},
                       [](Builder& c, const std::vector<Var>& p) {
                         return std::vector<Atom>{Atom(c.mul(p[0], p[0]))};
                       }),
                 {c2});
  Var s = b.reduce1(b.add_op(), cf64(0.0), {d});
  Prog p = pb.finish({Atom(s)});
  support::Rng rng(21);
  expect_fused_gradcheck(p, {make_f64_array(rng.uniform_vec(9, -1.0, 1.0), {9})});
}

TEST(FusedPipeline, TwoInputChainGradients) {
  // Chain where the fused consumer keeps a second element input.
  ProgBuilder pb("f");
  Var xs = pb.param("xs", arr_f64(1));
  Var ws = pb.param("ws", arr_f64(1));
  Builder& b = pb.body();
  Var e = b.map1(b.lam({f64()},
                       [](Builder& c, const std::vector<Var>& p) {
                         return std::vector<Atom>{Atom(c.exp(Atom(c.mul(p[0], cf64(0.5)))))};
                       }),
                 {xs});
  Var prods = b.map(b.lam({f64(), f64()},
                          [](Builder& c, const std::vector<Var>& p) {
                            return std::vector<Atom>{Atom(c.mul(p[0], p[1]))};
                          }),
                    {e, ws})[0];
  Var s = b.reduce1(b.add_op(), cf64(0.0), {prods});
  Prog p = pb.finish({Atom(s)});
  support::Rng rng(22);
  expect_fused_gradcheck(p, {make_f64_array(rng.uniform_vec(7, -1.0, 1.0), {7}),
                             make_f64_array(rng.uniform_vec(7, -1.0, 1.0), {7})});
}

TEST(FusedPipeline, FusedVjpMatchesUnfusedExactly) {
  // The fused and unfused reverse programs compute the same sums in the same
  // per-element order, so gradients should agree to the last ulp per element.
  ProgBuilder pb("f");
  Var xs = pb.param("xs", arr_f64(1));
  Builder& b = pb.body();
  Var a = b.map1(b.lam({f64()},
                       [](Builder& c, const std::vector<Var>& p) {
                         return std::vector<Atom>{Atom(c.sin(p[0]))};
                       }),
                 {xs});
  Var c2 = b.map1(b.lam({f64()},
                        [](Builder& c, const std::vector<Var>& p) {
                          return std::vector<Atom>{Atom(c.mul(p[0], cf64(2.0)))};
                        }),
                  {a});
  Var s = b.reduce1(b.add_op(), cf64(0.0), {c2});
  Prog p = pb.finish({Atom(s)});
  Prog g = ad::vjp(p);
  opt::PipelineStats stats;
  Prog gf = opt::optimize(g, {}, &stats);
  Prog gu = opt::optimize(g, {.fuse_maps = false});
  support::Rng rng(23);
  std::vector<Value> gargs = {make_f64_array(rng.uniform_vec(33, -2.0, 2.0), {33}), 1.0};
  auto rf = rt::to_f64_vec(rt::as_array(rt::run_prog(gf, gargs).back()));
  auto ru = rt::to_f64_vec(rt::as_array(rt::run_prog(gu, gargs).back()));
  EXPECT_GE(stats.fuse.fused_maps, 1);
  ASSERT_EQ(rf.size(), ru.size());
  for (size_t i = 0; i < rf.size(); ++i) EXPECT_NEAR(rf[i], ru[i], 1e-13) << i;
}

TEST(FusedPipeline, GatherGradientAccumulatesRepeatedIndices) {
  // f(xs, is) = sum_j xs[is_j]^2: the vjp of the gather accumulates into
  // xs's adjoint at data-dependent, repeated bins (0 three times here).
  ProgBuilder pb("f");
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
  expect_fused_gradcheck(p,
                         {make_f64_array({1, 2, 3}, {3}), make_i64_array({0, 2, 0, 1, 0}, {5})});
}

TEST(FusedPipeline, InvariantIndexGradientAccumulatesIntoOneCell) {
  // Every iteration reads w[0], so every iteration accumulates into the
  // same cell of w's adjoint: dw = {sum(xs), 0} = {6, 0}.
  ProgBuilder pb("f");
  Var xs = pb.param("xs", arr_f64(1));
  Var w = pb.param("w", arr_f64(1));
  Builder& b = pb.body();
  Var e = b.map1(b.lam({f64()},
                       [&](Builder& c, const std::vector<Var>& p) {
                         Var v = c.index(w, {ci64(0)});
                         return std::vector<Atom>{Atom(c.mul(v, p[0]))};
                       }),
                 {xs});
  Var s = b.reduce1(b.add_op(), cf64(0.0), {e});
  Prog p = pb.finish({Atom(s)});
  const std::vector<Value> args = {make_f64_array({1, 2, 3}, {3}), make_f64_array({0.5, 9}, {2})};
  expect_fused_gradcheck(p, args);
  std::vector<Value> gargs = args;
  gargs.emplace_back(1.0);
  auto res = rt::run_prog(opt::optimize(ad::vjp(p)), gargs);
  EXPECT_EQ(rt::to_f64_vec(rt::as_array(res.back())), (std::vector<double>{6, 0}));
}

// ---------------------------------------------- fused redomap adjoints ----
// The pipeline now folds producer maps into reduce/scan consumers (redomap).
// Differentiated programs whose adjoints contract gradients through
// reductions must gradcheck after that rewrite, and the rewrite must
// actually fire.

TEST(FusedRedomap, WeightedSumGradients) {
  // s = sum(exp(x/2) * w): the primal fuses into one redomap; the vjp
  // emits adjoint map chains that fuse among themselves.
  ProgBuilder pb("wsum");
  Var xs = pb.param("xs", arr_f64(1));
  Var ws = pb.param("ws", arr_f64(1));
  Builder& b = pb.body();
  Var e = b.map1(b.lam({f64()},
                       [](Builder& c, const std::vector<Var>& p) {
                         return std::vector<Atom>{Atom(c.exp(Atom(c.mul(p[0], cf64(0.5)))))};
                       }),
                 {xs});
  Var prods = b.map(b.lam({f64(), f64()},
                          [](Builder& c, const std::vector<Var>& p) {
                            return std::vector<Atom>{Atom(c.mul(p[0], p[1]))};
                          }),
                    {e, ws})[0];
  Var s = b.reduce1(b.add_op(), cf64(0.0), {prods});
  Prog p = pb.finish({Atom(s)});
  typecheck(p);
  Prog g = ad::vjp(p);
  opt::PipelineStats stats;
  Prog gf = opt::optimize(g, {}, &stats);
  typecheck(gf);
  // The re-emitted primal sum inside the vjp program fuses into a redomap.
  EXPECT_GE(stats.fuse.fused_redomaps, 1);
  support::Rng rng(31);
  expect_fused_gradcheck(p, {make_f64_array(rng.uniform_vec(11, -1.0, 1.0), {11}),
                             make_f64_array(rng.uniform_vec(11, -1.0, 1.0), {11})});
}

TEST(FusedRedomap, SumOfSquaresGradients) {
  // The issue's canonical shape: reduce(+, map(\x -> x*x, xs)).
  ProgBuilder pb("ssq");
  Var xs = pb.param("xs", arr_f64(1));
  Builder& b = pb.body();
  Var sq = b.map1(b.lam({f64()},
                        [](Builder& c, const std::vector<Var>& p) {
                          return std::vector<Atom>{Atom(c.mul(p[0], p[0]))};
                        }),
                  {xs});
  Var s = b.reduce1(b.add_op(), cf64(0.0), {sq});
  Prog p = pb.finish({Atom(s)});
  typecheck(p);
  support::Rng rng(32);
  expect_fused_gradcheck(p, {make_f64_array(rng.uniform_vec(17, -2.0, 2.0), {17})});
}

TEST(FusedRedomap, FusedVjpKernelMatchesGeneralPath) {
  // The optimized vjp program executed on the kernel runtime (W=8) must
  // agree with the same program on the general interpreter: fused redomap
  // adjoints take the compiled path end to end.
  ProgBuilder pb("vk");
  Var xs = pb.param("xs", arr_f64(1));
  Builder& b = pb.body();
  Var t = b.map1(b.lam({f64()},
                       [](Builder& c, const std::vector<Var>& p) {
                         Var u = c.tanh(p[0]);
                         return std::vector<Atom>{Atom(c.mul(u, cf64(1.25)))};
                       }),
                 {xs});
  Var s = b.reduce1(b.add_op(), cf64(0.0), {t});
  Prog p = pb.finish({Atom(s)});
  Prog gf = opt::optimize(ad::vjp(p), {});
  typecheck(gf);
  support::Rng rng(33);
  std::vector<Value> gargs = {make_f64_array(rng.uniform_vec(41, -1.5, 1.5), {41}), 1.0};
  rt::Interp fast({.parallel = false, .use_kernels = true, .kernel_lanes = 8});
  rt::Interp slow({.parallel = false, .use_kernels = false});
  auto rf = fast.run(gf, gargs);
  auto rs = slow.run(gf, gargs);
  EXPECT_GE(fast.stats().kernel_reduces.load() + fast.stats().fused_reduces.load(), 1u);
  auto vf = rt::to_f64_vec(rt::as_array(rf.back()));
  auto vs = rt::to_f64_vec(rt::as_array(rs.back()));
  ASSERT_EQ(vf.size(), vs.size());
  for (size_t i = 0; i < vf.size(); ++i) EXPECT_NEAR(vf[i], vs[i], 1e-12) << i;
  EXPECT_NEAR(rt::as_f64(rf[0]), rt::as_f64(rs[0]), 1e-10);
}

// ---------------------------------------------- optimized hist adjoints ----
// Differentiated programs whose primal or adjoint scatters through
// reduce_by_index must gradcheck after opt::optimize. Hist consumers are not
// fused, so their producer maps stay maps in the optimized program.

TEST(OptimizedHist, AddHistGradients) {
  // hist(+, dest, is, map(f, vals)) then sum: the vjp re-emits the primal
  // hist, and its adjoint gathers the values' adjoints from the bins.
  ProgBuilder pb("fh");
  Var dest = pb.param("dest", arr_f64(1));
  Var vals = pb.param("vals", arr_f64(1));
  Builder& b = pb.body();
  Var n = b.length(vals);
  Var iot = b.iota(Atom(n));
  Var is = b.map1(b.lam({i64()},
                        [](Builder& c, const std::vector<Var>& p) {
                          return std::vector<Atom>{Atom(c.mod(p[0], ci64(5)))};
                        }),
                  {iot});
  Var vs2 = b.map1(b.lam({f64()},
                         [](Builder& c, const std::vector<Var>& p) {
                           Var sq = c.mul(p[0], p[0]);
                           Var h = c.mul(sq, cf64(0.5));
                           return std::vector<Atom>{Atom(c.add(h, Atom(c.mul(p[0], cf64(0.25)))))};
                         }),
                   {vals});
  Var h = b.hist(b.add_op(), cf64(0.0), dest, is, vs2);
  Var s = b.reduce1(b.add_op(), cf64(0.0), {h});
  Prog p = pb.finish({Atom(s)});
  support::Rng rng(51);
  expect_fused_gradcheck(p, {make_f64_array(rng.uniform_vec(5, -1.0, 1.0), {5}),
                             make_f64_array(rng.uniform_vec(13, -1.0, 1.0), {13})});
}

TEST(OptimizedHist, MulHistGradients) {
  // The vjp of a multiplicative hist emits its own hist chains with map
  // producers (zero-mask and masked-value maps feeding reduce_by_index);
  // the optimized program must keep the gradient.
  ProgBuilder pb("fhm");
  Var dest = pb.param("dest", arr_f64(1));
  Var vals = pb.param("vals", arr_f64(1));
  Builder& b = pb.body();
  Var n = b.length(vals);
  Var iot = b.iota(Atom(n));
  Var is = b.map1(b.lam({i64()},
                        [](Builder& c, const std::vector<Var>& p) {
                          return std::vector<Atom>{Atom(c.mod(p[0], ci64(4)))};
                        }),
                  {iot});
  Var h = b.hist(b.mul_op(), cf64(1.0), dest, is, vals);
  Var s = b.reduce1(b.add_op(), cf64(0.0), {h});
  Prog p = pb.finish({Atom(s)});
  support::Rng rng(52);
  // Values bounded away from zero: the zero-aware product rule is exact but
  // finite differences near a zero crossing are not.
  expect_fused_gradcheck(p, {make_f64_array(rng.uniform_vec(4, 0.6, 1.4), {4}),
                             make_f64_array(rng.uniform_vec(11, 0.5, 1.5), {11})});
}

TEST(OptimizedHist, OptimizedVjpKernelMatchesGeneralPath) {
  // The optimized vjp program of an additive hist executed on the kernel
  // runtime must agree with the same program on the general interpreter.
  ProgBuilder pb("fhk");
  Var dest = pb.param("dest", arr_f64(1));
  Var vals = pb.param("vals", arr_f64(1));
  Builder& b = pb.body();
  Var n = b.length(vals);
  Var iot = b.iota(Atom(n));
  Var is = b.map1(b.lam({i64()},
                        [](Builder& c, const std::vector<Var>& p) {
                          return std::vector<Atom>{Atom(c.mod(p[0], ci64(6)))};
                        }),
                  {iot});
  Var vs2 = b.map1(b.lam({f64()},
                         [](Builder& c, const std::vector<Var>& p) {
                           return std::vector<Atom>{Atom(c.tanh(p[0]))};
                         }),
                   {vals});
  Var h = b.hist(b.add_op(), cf64(0.0), dest, is, vs2);
  Var s = b.reduce1(b.add_op(), cf64(0.0), {h});
  Prog p = pb.finish({Atom(s)});
  Prog gf = opt::optimize(ad::vjp(p), {});
  typecheck(gf);
  support::Rng rng(53);
  std::vector<Value> gargs = {make_f64_array(rng.uniform_vec(6, -1.0, 1.0), {6}),
                              make_f64_array(rng.uniform_vec(29, -1.5, 1.5), {29}), 1.0};
  rt::Interp fast({.parallel = false, .use_kernels = true, .kernel_lanes = 8});
  rt::Interp slow({.parallel = false, .use_kernels = false});
  auto rf = fast.run(gf, gargs);
  auto rs = slow.run(gf, gargs);
  // The re-emitted primal (+) hist runs on the hand-rolled tier.
  EXPECT_GE(fast.stats().hand_hists.load(), 1u);
  ASSERT_EQ(rf.size(), rs.size());
  // Gradients are the last two results (dest, vals).
  for (size_t k = rf.size() - 2; k < rf.size(); ++k) {
    auto vf = rt::to_f64_vec(rt::as_array(rf[k]));
    auto vs = rt::to_f64_vec(rt::as_array(rs[k]));
    ASSERT_EQ(vf.size(), vs.size()) << k;
    for (size_t i = 0; i < vf.size(); ++i) EXPECT_NEAR(vf[i], vs[i], 1e-12) << k << ":" << i;
  }
}

// ----------------------------------------------------- vjp, then optimize
//
// Differentiate first, then run the full pipeline over the reverse program,
// and check the gradients against central differences. The reverse nests
// run as whole-lambda kernel launches over the rows.

// Per-row weighted sum-of-squares, then a total over rows — the nested
// shape of the GMM/kmeans inner loops.
Prog nested_objective_prog() {
  ProgBuilder pb("f");
  Var xss = pb.param("xss", arr_f64(2));
  Builder& b = pb.body();
  Var per_row = b.map1(
      b.lam({arr_f64(1)},
            [](Builder& c, const std::vector<Var>& row) {
              Var sq = c.map1(c.lam({f64()},
                                    [](Builder& cc, const std::vector<Var>& p) {
                                      Var t = cc.mul(p[0], p[0]);
                                      return std::vector<Atom>{Atom(cc.mul(t, cf64(0.5)))};
                                    }),
                              {row[0]});
              return std::vector<Atom>{Atom(c.reduce1(c.add_op(), cf64(0.0), {sq}))};
            }),
      {xss});
  Var s = b.reduce1(b.add_op(), cf64(0.0), {per_row});
  Prog p = pb.finish({Atom(s)});
  typecheck(p);
  return p;
}

TEST(OptimizedPipeline, NestedObjectiveGradients) {
  Prog p = nested_objective_prog();
  Prog g = ad::vjp(p);
  Prog gf = opt::optimize(g);
  typecheck(gf);
  support::Rng rng(61);
  std::vector<Value> args = {make_f64_array(rng.uniform_vec(6 * 9, -1.0, 1.0), {6, 9})};
  std::vector<Value> gargs = args;
  gargs.emplace_back(1.0);
  rt::Interp in({.parallel = false, .use_kernels = true, .kernel_lanes = 8});
  auto res = in.run(gf, gargs);
  EXPECT_GE(in.stats().kernel_maps.load(), 1u);
  auto num = ad::numeric_gradients(p, args);
  ASSERT_EQ(num.size(), 1u);
  auto got = rt::to_f64_vec(rt::as_array(res[res.size() - 1]));
  ASSERT_EQ(got.size(), num[0].size());
  for (size_t i = 0; i < got.size(); ++i) {
    const double denom = std::max(1.0, std::abs(num[0][i]));
    EXPECT_NEAR(got[i] / denom, num[0][i] / denom, 2e-4) << i;
  }
}

TEST(OptimizedPipeline, TwoInputDotGradients) {
  // Row-wise dots: both inputs receive gradients through the fused
  // redomap nest.
  ProgBuilder pb("f");
  Var as = pb.param("as", arr_f64(2));
  Var bs = pb.param("bs", arr_f64(2));
  Builder& b = pb.body();
  Var dots = b.map1(
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
  Var s = b.reduce1(b.add_op(), cf64(0.0), {dots});
  Prog p = pb.finish({Atom(s)});
  typecheck(p);
  Prog g = ad::vjp(p);
  Prog gf = opt::optimize(g);
  typecheck(gf);
  support::Rng rng(62);
  std::vector<Value> args = {make_f64_array(rng.uniform_vec(5 * 7, -1.0, 1.0), {5, 7}),
                             make_f64_array(rng.uniform_vec(5 * 7, -1.0, 1.0), {5, 7})};
  std::vector<Value> gargs = args;
  gargs.emplace_back(1.0);
  auto res = rt::run_prog(gf, gargs, {.parallel = false});
  auto num = ad::numeric_gradients(p, args);
  ASSERT_EQ(num.size(), 2u);
  size_t gi = res.size() - 2;
  for (size_t k = 0; k < 2; ++k, ++gi) {
    auto got = rt::to_f64_vec(rt::as_array(res[gi]));
    ASSERT_EQ(got.size(), num[k].size());
    for (size_t i = 0; i < got.size(); ++i) {
      const double denom = std::max(1.0, std::abs(num[k][i]));
      EXPECT_NEAR(got[i] / denom, num[k][i] / denom, 2e-4) << k << ":" << i;
    }
  }
}

} // namespace
