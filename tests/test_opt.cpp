// Optimization pass tests: DCE removes the redundant forward sweeps of
// perfect nests (Fig. 2 property), strip-mining preserves semantics and
// gradients (Fig. 4), accumulator specialization (§6.1) preserves gradients
// while eliminating withacc constructs.

#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <fstream>
#include <functional>
#include <sstream>
#include <unordered_set>

#include "apps/ba.hpp"
#include "apps/gmm.hpp"
#include "apps/hand.hpp"
#include "apps/kmeans.hpp"
#include "apps/lstm.hpp"
#include "apps/mc_transport.hpp"
#include "core/ad.hpp"
#include "core/gradcheck.hpp"
#include "ir/builder.hpp"
#include "ir/patterns.hpp"
#include "ir/print.hpp"
#include "ir/typecheck.hpp"
#include "ir/visit.hpp"
#include "opt/fuse.hpp"
#include "opt/loopopt.hpp"
#include "opt/pipeline.hpp"
#include "opt/simplify.hpp"
#include "runtime/interp.hpp"
#include "support/rng.hpp"

namespace {

using namespace npad;
using namespace npad::ir;
using rt::Value;
using rt::make_f64_array;
using rt::make_i64_array;

// Drops the primal outputs of a vjp program, keeping only the gradients
// (the Fig. 2 setting where the caller does not need the original result).
Prog gradient_only(const Prog& vjp_prog, size_t primal_rets) {
  Prog out = vjp_prog;
  out.fn.body.result.erase(out.fn.body.result.begin(),
                           out.fn.body.result.begin() + static_cast<long>(primal_rets));
  out.fn.rets.erase(out.fn.rets.begin(), out.fn.rets.begin() + static_cast<long>(primal_rets));
  return out;
}

size_t count_maps(const Body& b);
size_t count_maps_exp(const Exp& e) {
  size_t n = std::holds_alternative<OpMap>(e) ? 1 : 0;
  for_each_nested(e, [&](const NestedScope& s) { n += count_maps(*s.body); });
  return n;
}
size_t count_maps(const Body& b) {
  size_t n = 0;
  for (const auto& s : b.stms) n += count_maps_exp(s.e);
  return n;
}

TEST(Simplify, DceDropsDeadStatements) {
  ProgBuilder pb("f");
  Var x = pb.param("x", f64());
  Builder& b = pb.body();
  Var used = b.mul(x, x);
  Var dead1 = b.exp(x);
  Var dead2 = b.add(dead1, cf64(1.0));
  (void)dead2;
  Prog p = pb.finish({Atom(used)});
  Prog q = opt::dead_code_elim(p);
  EXPECT_EQ(count_stms(q.fn.body), 1u);
  EXPECT_DOUBLE_EQ(rt::as_f64(rt::run_prog(q, {3.0})[0]), 9.0);
}

TEST(Simplify, ConstantFoldingAndIdentities) {
  ProgBuilder pb("f");
  Var x = pb.param("x", f64());
  Builder& b = pb.body();
  Var a = b.add(x, cf64(0.0));     // x
  Var m = b.mul(a, cf64(1.0));     // x
  Var z = b.mul(m, cf64(0.0));     // 0
  Var c = b.add(b.mul(cf64(2.0), cf64(3.0)), z);  // 6
  Var r = b.add(m, c);
  Prog p = pb.finish({Atom(r)});
  Prog q = opt::simplify(p);
  typecheck(q);
  EXPECT_DOUBLE_EQ(rt::as_f64(rt::run_prog(q, {5.0})[0]), 11.0);
  // After folding, only the final add of x and 6 should survive.
  EXPECT_LE(count_stms(q.fn.body), 2u);
}

// Shadowing: the AD passes re-bind ids inside nested scopes (re-emitted
// forward sweeps), which the builder never does, so these programs are built
// by hand. Liveness must follow the innermost binding of each id.
Stm bind_bin(Var v, BinOp op, Atom a, Atom b) { return stm1(v, f64(), OpBin{op, a, b}); }

LambdaPtr lambda_of(std::vector<Var> params, Body body) {
  Lambda l;
  for (Var p : params) l.params.push_back(Param{p, f64()});
  l.rets.assign(body.result.size(), f64());
  l.body = std::move(body);
  return make_lambda(std::move(l));
}

Prog prog_of(std::shared_ptr<Module> m, std::vector<Param> params, Body body,
             std::vector<Type> rets) {
  Prog p;
  p.mod = std::move(m);
  p.fn.name = "shadow";
  p.fn.params = std::move(params);
  p.fn.rets = std::move(rets);
  p.fn.body = std::move(body);
  return p;
}

TEST(Simplify, DceFollowsRebindingInNestedScope) {
  auto m = std::make_shared<Module>();
  Var a = m->fresh("a"), xs = m->fresh("xs"), x = m->fresh("x"), p = m->fresh("p");
  Var y = m->fresh("y"), t = m->fresh("t"), ys = m->fresh("ys");
  // The lambda re-binds x before reading it: the outer x is dead.
  LambdaPtr f = lambda_of({p}, Body{{bind_bin(x, BinOp::Mul, p, cf64(2.0)),
                                     bind_bin(y, BinOp::Add, x, cf64(1.0))},
                                    {Atom(y)}});
  Prog dead = prog_of(m, {Param{a, f64()}, Param{xs, arr_f64(1)}},
                      Body{{bind_bin(x, BinOp::Mul, a, cf64(3.0)), stm1(ys, arr_f64(1), OpMap{f, {xs}})},
                           {Atom(ys)}},
                      {arr_f64(1)});
  Prog q = opt::dead_code_elim(dead);
  ASSERT_EQ(q.fn.body.stms.size(), 1u);
  EXPECT_TRUE(std::holds_alternative<OpMap>(q.fn.body.stms[0].e));
  std::vector<Value> args = {2.0, make_f64_array({1, 2}, {2})};
  EXPECT_EQ(rt::to_f64_vec(rt::as_array(rt::run_prog(q, args)[0])), (std::vector<double>{3, 5}));
  // Read before the re-binding, the outer x is live.
  LambdaPtr g = lambda_of({p}, Body{{bind_bin(t, BinOp::Add, x, p),
                                     bind_bin(x, BinOp::Mul, t, cf64(2.0))},
                                    {Atom(x)}});
  Prog live = prog_of(m, {Param{a, f64()}, Param{xs, arr_f64(1)}},
                      Body{{bind_bin(x, BinOp::Mul, a, cf64(3.0)), stm1(ys, arr_f64(1), OpMap{g, {xs}})},
                           {Atom(ys)}},
                      {arr_f64(1)});
  q = opt::dead_code_elim(live);
  ASSERT_EQ(q.fn.body.stms.size(), 2u);
  EXPECT_EQ(rt::to_f64_vec(rt::as_array(rt::run_prog(q, args)[0])), (std::vector<double>{14, 16}));
}

TEST(Simplify, DceLoopParamsAndIndexShadowOuter) {
  auto m = std::make_shared<Module>();
  Var a = m->fresh("a"), n = m->fresh("n"), i = m->fresh("i"), acc = m->fresh("acc");
  Var fi = m->fresh("fi"), t = m->fresh("t"), r = m->fresh("r"), s = m->fresh("s");
  // r = loop (acc = a) for i < n: acc + f64(i). The outer acc is shadowed by
  // the loop param and dead; the outer i is shadowed by the loop index but
  // read again after the loop, so it stays.
  OpLoop lp;
  lp.params = {Param{acc, f64()}};
  lp.init = {Atom(a)};
  lp.idx = i;
  lp.count = Atom(n);
  lp.body = make_body(Body{{stm1(fi, f64(), OpUn{UnOp::ToF64, i}), bind_bin(t, BinOp::Add, acc, fi)},
                           {Atom(t)}});
  Body b{{stm1(i, i64(), OpBin{BinOp::Mul, n, ci64(10)}), bind_bin(acc, BinOp::Mul, a, cf64(3.0)),
          stm1(r, f64(), lp), stm1(s, i64(), OpBin{BinOp::Add, i, ci64(1)})},
         {Atom(r), Atom(s)}};
  Prog p = prog_of(m, {Param{a, f64()}, Param{n, i64()}}, b, {f64(), i64()});
  typecheck(p);
  Prog q = opt::dead_code_elim(p);
  ASSERT_EQ(q.fn.body.stms.size(), 3u);
  EXPECT_EQ(q.fn.body.stms[0].vars[0], i);
  EXPECT_TRUE(std::holds_alternative<OpLoop>(q.fn.body.stms[1].e));
  auto out = rt::run_prog(q, {1.0, int64_t{3}});
  EXPECT_DOUBLE_EQ(rt::as_f64(out[0]), 4.0);  // 1 + 0 + 1 + 2
  EXPECT_EQ(std::get<int64_t>(out[1]), 31);
}

TEST(Simplify, DceKeepsWhatTheWhileConditionReads) {
  auto m = std::make_shared<Module>();
  Var a = m->fresh("a"), lim = m->fresh("lim"), j0 = m->fresh("j0"), k = m->fresh("k");
  Var j = m->fresh("j"), k2 = m->fresh("k2"), j2 = m->fresh("j2"), c = m->fresh("c");
  Var rk = m->fresh("rk"), rj = m->fresh("rj");
  // Only j's result is live; the condition reads k and lim, so both stay.
  OpLoop lp;
  lp.params = {Param{k, f64()}, Param{j, f64()}};
  lp.init = {cf64(0.0), Atom(j0)};
  lp.body = make_body(Body{{bind_bin(k2, BinOp::Add, k, cf64(1.0)), bind_bin(j2, BinOp::Mul, j, cf64(2.0))},
                           {Atom(k2), Atom(j2)}});
  Lambda cond;
  cond.params = {Param{k, f64()}, Param{j, f64()}};
  cond.body = Body{{stm1(c, boolean(), OpBin{BinOp::Lt, k, lim})}, {Atom(c)}};
  cond.rets = {boolean()};
  lp.while_cond = make_lambda(std::move(cond));
  Body b{{bind_bin(lim, BinOp::Mul, a, cf64(3.0)), bind_bin(j0, BinOp::Add, a, cf64(1.0)),
          Stm{{rk, rj}, {f64(), f64()}, lp}},
         {Atom(rj)}};
  Prog p = prog_of(m, {Param{a, f64()}}, b, {f64()});
  typecheck(p);
  Prog q = opt::dead_code_elim(p);
  ASSERT_EQ(q.fn.body.stms.size(), 3u);
  EXPECT_EQ(std::get<OpLoop>(q.fn.body.stms[2].e).params.size(), 2u);
  EXPECT_DOUBLE_EQ(rt::as_f64(rt::run_prog(q, {1.0})[0]), 16.0);  // 2 * 2^3
}

TEST(Simplify, AliasesDoNotCaptureARebindingAndComeBackAfterTheScope) {
  auto m = std::make_shared<Module>();
  Var a = m->fresh("a"), xs = m->fresh("xs"), y = m->fresh("y"), x = m->fresh("x");
  Var p = m->fresh("p"), r = m->fresh("r"), ys = m->fresh("ys"), zs = m->fresh("zs");
  // x aliases y. The first lambda re-binds y, so its read of x must not
  // become y; the second lambda sees the alias again.
  LambdaPtr f = lambda_of({p}, Body{{bind_bin(y, BinOp::Add, p, cf64(1.0)),
                                     bind_bin(r, BinOp::Mul, x, y)},
                                    {Atom(r)}});
  LambdaPtr g = lambda_of({p}, Body{{bind_bin(r, BinOp::Mul, x, p)}, {Atom(r)}});
  Prog prog = prog_of(m, {Param{a, f64()}, Param{xs, arr_f64(1)}},
                      Body{{bind_bin(y, BinOp::Mul, a, cf64(2.0)), stm1(x, f64(), OpAtom{y}),
                            stm1(ys, arr_f64(1), OpMap{f, {xs}}), stm1(zs, arr_f64(1), OpMap{g, {xs}})},
                           {Atom(ys), Atom(zs)}},
                      {arr_f64(1), arr_f64(1)});
  Prog q = opt::fold_constants(prog);
  const auto& f2 = *std::get<OpMap>(q.fn.body.stms[2].e).f;
  const auto& g2 = *std::get<OpMap>(q.fn.body.stms[3].e).f;
  EXPECT_EQ(std::get<OpBin>(f2.body.stms[1].e).a, Atom(x));
  EXPECT_EQ(std::get<OpBin>(g2.body.stms[0].e).a, Atom(y));
  std::vector<Value> args = {2.0, make_f64_array({1, 2}, {2})};
  auto want = rt::run_prog(prog, args);
  auto got = rt::run_prog(opt::simplify(prog), args);
  EXPECT_EQ(rt::to_f64_vec(rt::as_array(got[0])), (std::vector<double>{8, 12}));
  EXPECT_EQ(rt::to_f64_vec(rt::as_array(got[1])), (std::vector<double>{4, 8}));
  EXPECT_EQ(rt::to_f64_vec(rt::as_array(want[0])), rt::to_f64_vec(rt::as_array(got[0])));
}

TEST(Redundancy, PerfectNestHasNoReexecutionAfterDce) {
  // The Fig. 2 program: map (\c as -> if c then as else map (\a -> a*a) as).
  ProgBuilder pb("fig2");
  Var cs = pb.param("cs", arr(ScalarType::Bool, 1));
  Var ass = pb.param("ass", arr_f64(2));
  Builder& b = pb.body();
  Var xss = b.map(b.lam({boolean(), arr_f64(1)},
                        [](Builder& c, const std::vector<Var>& p) {
                          auto r = c.if_(
                              Atom(p[0]),
                              [&](Builder& tb) {
                                return std::vector<Atom>{Atom(tb.copy(p[1]))};
                              },
                              [&](Builder& fb) {
                                Var sq = fb.map1(
                                    fb.lam({f64()},
                                           [](Builder& cc, const std::vector<Var>& q) {
                                             return std::vector<Atom>{
                                                 Atom(cc.mul(q[0], q[0]))};
                                           }),
                                    {p[1]});
                                return std::vector<Atom>{Atom(sq)};
                              });
                          return std::vector<Atom>{Atom(r[0])};
                        }),
                  {cs, ass})[0];
  Prog p = pb.finish({Atom(xss)});
  typecheck(p);
  Prog g = ad::vjp(p);
  typecheck(g);
  Prog gonly = gradient_only(g, 1);
  Prog opt1 = opt::simplify(gonly);
  typecheck(opt1);
  // The differentiated-and-optimized program must not re-execute the
  // forward sweep: the primal output map (and the re-executed inner maps
  // producing dead primal values) are gone. What remains is the single
  // reverse map nest: outer rev-map + inner rev-map + (zeros init maps and
  // elementwise-add maps from adjoint plumbing are value-producing, not
  // re-execution). We assert the statement count shrinks substantially and
  // that no *primal* square map survives by running both and comparing
  // gradients.
  const size_t before = count_stms(g.fn.body);
  const size_t after = count_stms(opt1.fn.body);
  EXPECT_LT(after, before);
  // Check gradients agree between unoptimized and optimized programs.
  std::vector<Value> args = {
      [] {
        rt::ArrayVal a = rt::ArrayVal::alloc(ScalarType::Bool, {2});
        a.set_b8(0, true);
        a.set_b8(1, false);
        return a;
      }(),
      make_f64_array({1, 2, 3, 4, 5, 6}, {2, 3}),
      make_f64_array({1, 1, 1, 1, 1, 1}, {2, 3})};  // seed
  auto r1 = rt::run_prog(g, args);
  auto r2 = rt::run_prog(opt1, args);
  EXPECT_EQ(rt::to_f64_vec(rt::as_array(r1.back())), rt::to_f64_vec(rt::as_array(r2.back())));
  // Gradient: row 0 passes through (1s), row 1 is 2*a.
  EXPECT_EQ(rt::to_f64_vec(rt::as_array(r2.back())),
            (std::vector<double>{1, 1, 1, 8, 10, 12}));
}

TEST(Stripmine, PreservesSemanticsAndGradients) {
  auto build = [](int factor) {
    ProgBuilder pb("f");
    Var x0 = pb.param("x0", f64());
    Builder& b = pb.body();
    auto outs = b.loop_for(
        {Atom(x0)}, ci64(10),
        [](Builder& c, Var, const std::vector<Var>& ps) {
          Var t = c.mul(ps[0], cf64(1.1));
          return std::vector<Atom>{Atom(c.add(t, Atom(c.mul(ps[0], ps[0]))))};
        },
        factor);
    return pb.finish({Atom(outs[0])});
  };
  Prog plain = build(0);
  Prog annotated = build(4);
  Prog mined = opt::apply_stripmining(annotated);
  typecheck(mined);
  const double x0 = 0.05;
  EXPECT_NEAR(rt::as_f64(rt::run_prog(plain, {x0})[0]),
              rt::as_f64(rt::run_prog(mined, {x0})[0]), 1e-13);
  auto g1 = ad::reverse_gradients(plain, {x0});
  auto g2 = ad::reverse_gradients(mined, {x0});
  EXPECT_NEAR(g1[0][0], g2[0][0], 1e-10);
}

TEST(Stripmine, NonDivisibleCount) {
  auto build = [](int factor) {
    ProgBuilder pb("f");
    Var x0 = pb.param("x0", f64());
    Var n = pb.param("n", i64());
    Builder& b = pb.body();
    auto outs = b.loop_for(
        {Atom(x0)}, Atom(n),
        [](Builder& c, Var i, const std::vector<Var>& ps) {
          Var fi = c.to_f64(Atom(i));
          return std::vector<Atom>{Atom(c.add(ps[0], Atom(c.mul(fi, cf64(0.5)))))};
        },
        factor);
    return pb.finish({Atom(outs[0])});
  };
  Prog mined = opt::apply_stripmining(build(3));
  typecheck(mined);
  for (int64_t n : {0, 1, 5, 7, 9}) {
    EXPECT_NEAR(rt::as_f64(rt::run_prog(build(0), {2.0, n})[0]),
                rt::as_f64(rt::run_prog(mined, {2.0, n})[0]), 1e-13)
        << n;
  }
}

// ---------------------------------------------------------------- fusion ---

LambdaPtr scalar_map(Builder& b, double mulc, double addc) {
  return b.lam({f64()}, [&](Builder& c, const std::vector<Var>& p) {
    return std::vector<Atom>{Atom(c.add(Atom(c.mul(p[0], cf64(mulc))), cf64(addc)))};
  });
}

TEST(Fusion, ChainFusesToSingleMap) {
  ProgBuilder pb("chain");
  Var xs = pb.param("xs", arr_f64(1));
  Builder& b = pb.body();
  Var a = b.map1(scalar_map(b, 2.0, 1.0), {xs});
  Var c = b.map1(scalar_map(b, 3.0, -0.5), {a});
  Var d = b.map1(scalar_map(b, 0.25, 2.0), {c});
  Prog p = pb.finish({Atom(d)});
  typecheck(p);
  opt::FuseStats stats;
  Prog q = opt::fuse_maps(p, &stats);
  typecheck(q);
  EXPECT_EQ(stats.fused_maps, 2);
  EXPECT_EQ(count_maps(q.fn.body), 1u);
  std::vector<Value> args = {make_f64_array({1, 2, 3, 4}, {4})};
  rt::Interp in({.parallel = false});
  auto r1 = rt::to_f64_vec(rt::as_array(rt::run_prog(p, args)[0]));
  auto r2 = rt::to_f64_vec(rt::as_array(in.run(q, args)[0]));
  EXPECT_EQ(r1, r2);
  // The runtime reports the eliminated producers via the fused annotation.
  EXPECT_EQ(in.stats().fused_maps.load(), 2u);
}

TEST(Fusion, MultiInputConsumerFusesAndKeepsOtherArgs) {
  // ys = map f xs; zs = map (\y w -> y*w) ys ws — fused map must take xs, ws.
  ProgBuilder pb("mi");
  Var xs = pb.param("xs", arr_f64(1));
  Var ws = pb.param("ws", arr_f64(1));
  Builder& b = pb.body();
  Var ys = b.map1(scalar_map(b, 2.0, 0.0), {xs});
  Var zs = b.map1(b.lam({f64(), f64()},
                        [](Builder& c, const std::vector<Var>& p) {
                          return std::vector<Atom>{Atom(c.mul(p[0], p[1]))};
                        }),
                  {ys, ws});
  Prog p = pb.finish({Atom(zs)});
  opt::FuseStats stats;
  Prog q = opt::fuse_maps(p, &stats);
  typecheck(q);
  EXPECT_EQ(stats.fused_maps, 1);
  EXPECT_EQ(count_maps(q.fn.body), 1u);
  std::vector<Value> args = {make_f64_array({1, 2, 3}, {3}), make_f64_array({4, 5, 6}, {3})};
  EXPECT_EQ(rt::to_f64_vec(rt::as_array(rt::run_prog(p, args)[0])),
            rt::to_f64_vec(rt::as_array(rt::run_prog(q, args)[0])));
}

TEST(Fusion, NonElementwiseConsumerNotFused) {
  // The producer result is gathered at arbitrary indices (free in the
  // consumer lambda, not an element argument): fusion must not fire.
  ProgBuilder pb("gather");
  Var xs = pb.param("xs", arr_f64(1));
  Builder& b = pb.body();
  Var ys = b.map1(scalar_map(b, 2.0, 0.0), {xs});
  Var is = b.iota(ci64(4));
  Var zs = b.map1(b.lam({i64()},
                        [&](Builder& c, const std::vector<Var>& p) {
                          return std::vector<Atom>{Atom(c.index(ys, {Atom(p[0])}))};
                        }),
                  {is});
  Prog p = pb.finish({Atom(zs)});
  opt::FuseStats stats;
  Prog q = opt::fuse_maps(p, &stats);
  typecheck(q);
  EXPECT_EQ(stats.fused_maps, 0);
  EXPECT_EQ(count_maps(q.fn.body), 2u);
}

TEST(Fusion, ResultUsedTwiceNotFused) {
  // ys feeds a map AND the body result: the intermediate must stay.
  ProgBuilder pb("twice");
  Var xs = pb.param("xs", arr_f64(1));
  Builder& b = pb.body();
  Var ys = b.map1(scalar_map(b, 2.0, 0.0), {xs});
  Var zs = b.map1(scalar_map(b, 3.0, 0.0), {ys});
  Prog p = pb.finish({Atom(ys), Atom(zs)});
  opt::FuseStats stats;
  Prog q = opt::fuse_maps(p, &stats);
  EXPECT_EQ(stats.fused_maps, 0);
  EXPECT_EQ(count_maps(q.fn.body), 2u);
}

TEST(Fusion, InPlaceConsumptionInGapBlocksFusion) {
  // Regression: the producer gathers from X, a later statement consumes X
  // via update (mutating the buffer in place when uniquely owned), and the
  // consumer map follows. Fusing would defer the X[0] read past the update
  // and observe 100.0 instead of the original value.
  ProgBuilder pb("gapupd");
  Var bigx = pb.param("X", arr_f64(1));
  Var xs = pb.param("xs", arr_f64(1));
  Builder& b = pb.body();
  Var ys = b.map1(b.lam({f64()},
                        [&](Builder& c, const std::vector<Var>& p) {
                          Var x0 = c.index(bigx, {ci64(0)});
                          return std::vector<Atom>{Atom(c.mul(p[0], Atom(x0)))};
                        }),
                  {xs});
  Var x2 = b.update(bigx, {ci64(0)}, cf64(100.0));
  Var zs = b.map1(b.lam({f64()},
                        [&](Builder& c, const std::vector<Var>& p) {
                          Var v = c.index(x2, {ci64(0)});
                          return std::vector<Atom>{Atom(c.add(p[0], Atom(v)))};
                        }),
                  {ys});
  Prog p = pb.finish({Atom(zs)});
  typecheck(p);
  opt::FuseStats stats;
  Prog q = opt::fuse_maps(p, &stats);
  typecheck(q);
  EXPECT_EQ(stats.fused_maps, 0);
  std::vector<Value> args = {make_f64_array({5.0}, {1}), make_f64_array({1, 2, 3}, {3})};
  auto r1 = rt::to_f64_vec(rt::as_array(rt::run_prog(p, args)[0]));
  auto r2 = rt::to_f64_vec(rt::as_array(rt::run_prog(q, args)[0]));
  EXPECT_EQ(r1, (std::vector<double>{105, 110, 115}));
  EXPECT_EQ(r1, r2);
}

TEST(Fusion, ProducerArgConsumedInGapBlocksFusion) {
  // Same hazard on the producer's element argument: xs is consumed by an
  // update between producer and consumer.
  ProgBuilder pb("gapargs");
  Var xs = pb.param("xs", arr_f64(1));
  Builder& b = pb.body();
  Var ys = b.map1(scalar_map(b, 2.0, 0.0), {xs});
  Var xs2 = b.update(xs, {ci64(0)}, cf64(-1.0));
  Var zs = b.map1(scalar_map(b, 3.0, 0.0), {ys});
  Var s2 = b.reduce1(b.add_op(), cf64(0.0), {xs2});
  Prog p = pb.finish({Atom(zs), Atom(s2)});
  typecheck(p);
  opt::FuseStats stats;
  Prog q = opt::fuse_maps(p, &stats);
  EXPECT_EQ(stats.fused_maps, 0);
  std::vector<Value> args = {make_f64_array({1, 2, 3}, {3})};
  auto r1 = rt::run_prog(p, args);
  auto r2 = rt::run_prog(q, args);
  EXPECT_EQ(rt::to_f64_vec(rt::as_array(r1[0])), rt::to_f64_vec(rt::as_array(r2[0])));
  EXPECT_EQ(rt::to_f64_vec(rt::as_array(r1[0])), (std::vector<double>{6, 12, 18}));
}

TEST(Fusion, FusingABlockerAwayUnblocksAnEarlierPair) {
  // ys -> zs is blocked by the map between them, whose lambda updates X (the
  // array ys's producer gathers from). That map fuses into its own consumer
  // further down, and then ys -> zs fuses too: the scan goes back to the top
  // after a producer that could block a pair folds away.
  ProgBuilder pb("unblock");
  Var bigx = pb.param("X", arr_f64(1));
  Var xs = pb.param("xs", arr_f64(1));
  Builder& b = pb.body();
  Var ys = b.map1(b.lam({f64()},
                        [&](Builder& c, const std::vector<Var>& p) {
                          Var x0 = c.index(bigx, {ci64(0)});
                          return std::vector<Atom>{Atom(c.mul(p[0], Atom(x0)))};
                        }),
                  {xs});
  Var ws = b.map1(b.lam({f64()},
                        [&](Builder& c, const std::vector<Var>& p) {
                          Var x2 = c.update(bigx, {ci64(0)}, Atom(p[0]));
                          Var v = c.index(x2, {ci64(0)});
                          return std::vector<Atom>{Atom(c.add(Atom(v), cf64(1.0)))};
                        }),
                  {xs});
  Var zs = b.map1(scalar_map(b, 3.0, 0.0), {ys});
  Var vs = b.map1(scalar_map(b, 2.0, 0.0), {ws});
  Prog p = pb.finish({Atom(zs), Atom(vs)});
  typecheck(p);
  opt::FuseStats stats;
  Prog q = opt::fuse_maps(p, &stats);
  typecheck(q);
  EXPECT_EQ(stats.fused_maps, 2);
  EXPECT_EQ(q.fn.body.stms.size(), 2u);
  std::vector<Value> args = {make_f64_array({5.0}, {1}), make_f64_array({1, 2, 3}, {3})};
  auto r1 = rt::run_prog(p, args);
  auto r2 = rt::run_prog(q, args);
  EXPECT_EQ(rt::to_f64_vec(rt::as_array(r1[0])), (std::vector<double>{15, 30, 45}));
  for (size_t k = 0; k < 2; ++k) {
    EXPECT_EQ(rt::to_f64_vec(rt::as_array(r1[k])), rt::to_f64_vec(rt::as_array(r2[k]))) << k;
  }
}

TEST(Fusion, AccumulatorThreadingPreserved) {
  // The consumer threads an accumulator; fusing its producer must keep the
  // acc updates (and their values) intact.
  ProgBuilder pb("accfuse");
  Var dest = pb.param("dest", arr_f64(1));
  Var is = pb.param("is", arr(ScalarType::I64, 1));
  Var vs = pb.param("vs", arr_f64(1));
  Builder& b = pb.body();
  auto outs = b.withacc({dest}, [&](Builder& c, const std::vector<Var>& accs) {
    Var doubled = c.map1(c.lam({f64()},
                               [](Builder& cc, const std::vector<Var>& p) {
                                 return std::vector<Atom>{Atom(cc.mul(p[0], cf64(2.0)))};
                               }),
                         {vs});
    LambdaPtr f = c.lam({i64(), f64(), acc_of(arr_f64(1))},
                        [](Builder& cc, const std::vector<Var>& p) {
                          Var a2 = cc.upd_acc(p[2], {Atom(p[0])}, Atom(p[1]));
                          return std::vector<Atom>{Atom(a2)};
                        });
    return std::vector<Atom>{Atom(c.map(f, {is, doubled, accs[0]})[0])};
  });
  Prog p = pb.finish({Atom(outs[0])});
  typecheck(p);
  opt::FuseStats stats;
  Prog q = opt::fuse_maps(p, &stats);
  typecheck(q);
  EXPECT_EQ(stats.fused_maps, 1);
  std::vector<Value> args = {make_f64_array({0, 0, 0}, {3}),
                             make_i64_array({0, 2, 0, 1}, {4}),
                             make_f64_array({1, 2, 3, 4}, {4})};
  auto r1 = rt::to_f64_vec(rt::as_array(rt::run_prog(p, args)[0]));
  auto r2 = rt::to_f64_vec(rt::as_array(rt::run_prog(q, args)[0]));
  EXPECT_EQ(r1, r2);
  EXPECT_EQ(r2, (std::vector<double>{8, 8, 4}));
}

TEST(Fusion, PipelinetogglesFusion) {
  ProgBuilder pb("pl");
  Var xs = pb.param("xs", arr_f64(1));
  Builder& b = pb.body();
  Var a = b.map1(scalar_map(b, 2.0, 1.0), {xs});
  Var c = b.map1(scalar_map(b, 3.0, 0.0), {a});
  Prog p = pb.finish({Atom(c)});
  opt::PipelineStats st_on, st_off;
  Prog fused = opt::optimize(p, {.fuse_maps = true}, &st_on);
  Prog unfused = opt::optimize(p, {.fuse_maps = false}, &st_off);
  EXPECT_EQ(st_on.fuse.fused_maps, 1);
  EXPECT_EQ(st_off.fuse.fused_maps, 0);
  EXPECT_EQ(count_maps(fused.fn.body), 1u);
  EXPECT_EQ(count_maps(unfused.fn.body), 2u);
  std::vector<Value> args = {make_f64_array({1, 2}, {2})};
  EXPECT_EQ(rt::to_f64_vec(rt::as_array(rt::run_prog(fused, args)[0])),
            rt::to_f64_vec(rt::as_array(rt::run_prog(unfused, args)[0])));
}

TEST(Fusion, VjpAdjointChainFuses) {
  // Reverse AD of an element-wise chain emits map-of-adjoint chains; after
  // simplify they must fuse and the gradient must be unchanged.
  ProgBuilder pb("vchain");
  Var xs = pb.param("xs", arr_f64(1));
  Builder& b = pb.body();
  Var a = b.map1(b.lam({f64()},
                       [](Builder& c, const std::vector<Var>& p) {
                         return std::vector<Atom>{Atom(c.tanh(p[0]))};
                       }),
                 {xs});
  Var c2 = b.map1(scalar_map(b, 1.5, 0.25), {a});
  Var s = b.reduce1(b.add_op(), cf64(0.0), {c2});
  Prog p = pb.finish({Atom(s)});
  Prog g = ad::vjp(p);
  typecheck(g);
  Prog gs = opt::simplify(g);
  opt::FuseStats stats;
  Prog gf = opt::fuse_maps(gs, &stats);
  typecheck(gf);
  EXPECT_GE(stats.fused_maps, 1);
  EXPECT_LT(count_maps(gf.fn.body), count_maps(gs.fn.body));
  std::vector<Value> args = {make_f64_array({0.3, -0.7, 1.2}, {3}), 1.0};
  auto r1 = rt::to_f64_vec(rt::as_array(rt::run_prog(g, args).back()));
  auto r2 = rt::to_f64_vec(rt::as_array(rt::run_prog(gf, args).back()));
  ASSERT_EQ(r1.size(), r2.size());
  for (size_t i = 0; i < r1.size(); ++i) EXPECT_NEAR(r1[i], r2[i], 1e-14);
}

// ------------------------------------------------------ redomap fusion ----

size_t count_redomaps(const Body& b);
size_t count_redomaps_exp(const Exp& e) {
  size_t n = 0;
  if (const auto* r = std::get_if<OpReduce>(&e); r && r->pre) ++n;
  for_each_nested(e, [&](const NestedScope& s) { n += count_redomaps(*s.body); });
  return n;
}
size_t count_redomaps(const Body& b) {
  size_t n = 0;
  for (const auto& s : b.stms) n += count_redomaps_exp(s.e);
  return n;
}

TEST(RedomapFusion, MapIntoReduceFuses) {
  ProgBuilder pb("mr");
  Var xs = pb.param("xs", arr_f64(1));
  Builder& b = pb.body();
  Var ys = b.map1(scalar_map(b, 2.0, 1.0), {xs});
  Var s = b.reduce1(b.add_op(), cf64(0.0), {ys});
  Prog p = pb.finish({Atom(s)});
  typecheck(p);
  opt::FuseStats stats;
  Prog q = opt::fuse_maps(p, &stats);
  typecheck(q);
  EXPECT_EQ(stats.fused_redomaps, 1);
  EXPECT_EQ(count_maps(q.fn.body), 0u);  // the intermediate map is gone
  EXPECT_EQ(count_redomaps(q.fn.body), 1u);
  // The rewritten reduce folds over xs directly with fused annotation 1.
  const auto* red = std::get_if<OpReduce>(&q.fn.body.stms.back().e);
  ASSERT_NE(red, nullptr);
  ASSERT_TRUE(red->pre);
  EXPECT_EQ(red->fused, 1u);
  ASSERT_EQ(red->args.size(), 1u);
  EXPECT_EQ(red->args[0], xs);
  std::vector<Value> args = {make_f64_array({1, 2, 3, 4, 5}, {5})};
  rt::Interp in({.parallel = false});
  EXPECT_DOUBLE_EQ(rt::as_f64(rt::run_prog(p, args)[0]), rt::as_f64(in.run(q, args)[0]));
  EXPECT_EQ(in.stats().fused_reduces.load(), 1u);
}

TEST(RedomapFusion, ChainIntoReduceFusesTransitively) {
  // map→map→reduce collapses to one redomap carrying both producers.
  ProgBuilder pb("chain-red");
  Var xs = pb.param("xs", arr_f64(1));
  Builder& b = pb.body();
  Var a = b.map1(scalar_map(b, 2.0, 1.0), {xs});
  Var c = b.map1(scalar_map(b, 3.0, -0.5), {a});
  Var s = b.reduce1(b.add_op(), cf64(0.0), {c});
  Prog p = pb.finish({Atom(s)});
  typecheck(p);
  opt::FuseStats stats;
  Prog q = opt::fuse_maps(p, &stats);
  typecheck(q);
  EXPECT_EQ(stats.fused_maps + stats.fused_redomaps, 2);
  EXPECT_EQ(count_maps(q.fn.body), 0u);
  const auto* red = std::get_if<OpReduce>(&q.fn.body.stms.back().e);
  ASSERT_NE(red, nullptr);
  EXPECT_EQ(red->fused, 2u);
  std::vector<Value> args = {make_f64_array({0.5, -1.5, 2.0}, {3})};
  EXPECT_NEAR(rt::as_f64(rt::run_prog(p, args)[0]), rt::as_f64(rt::run_prog(q, args)[0]),
              1e-12);
}

TEST(RedomapFusion, MeasuredChainIntoReduceFullyFuses) {
  // The vjp shape: a map chain feeding a reduce whose rule also measures
  // the (chain's) result via length. The length redirect must chase the
  // chain to its root so every intermediate fuses away.
  ProgBuilder pb("mlen");
  Var xs = pb.param("xs", arr_f64(1));
  Builder& b = pb.body();
  Var a = b.map1(scalar_map(b, 2.0, 1.0), {xs});
  Var ys = b.map1(scalar_map(b, 3.0, -0.5), {a});
  Var s = b.reduce1(b.add_op(), cf64(0.0), {ys});
  Var l = b.length(ys);
  Prog p = pb.finish({Atom(s), Atom(l)});
  typecheck(p);
  opt::FuseStats stats;
  Prog q = opt::fuse_maps(p, &stats);
  typecheck(q);
  EXPECT_EQ(stats.fused_maps + stats.fused_redomaps, 2);
  EXPECT_EQ(count_maps(q.fn.body), 0u);
  std::vector<Value> args = {make_f64_array({1, 2, 3}, {3})};
  auto r1 = rt::run_prog(p, args);
  auto r2 = rt::run_prog(q, args);
  EXPECT_NEAR(rt::as_f64(r1[0]), rt::as_f64(r2[0]), 1e-12);
  EXPECT_EQ(rt::as_i64(r1[1]), rt::as_i64(r2[1]));
  EXPECT_EQ(rt::as_i64(r2[1]), 3);
}

TEST(RedomapFusion, ResultUsedBesidesReduceNotFused) {
  // ys feeds the reduce AND the body result: the intermediate must stay.
  ProgBuilder pb("keep");
  Var xs = pb.param("xs", arr_f64(1));
  Builder& b = pb.body();
  Var ys = b.map1(scalar_map(b, 2.0, 0.0), {xs});
  Var s = b.reduce1(b.add_op(), cf64(0.0), {ys});
  Prog p = pb.finish({Atom(ys), Atom(s)});
  opt::FuseStats stats;
  Prog q = opt::fuse_maps(p, &stats);
  EXPECT_EQ(stats.fused_redomaps, 0);
  EXPECT_EQ(count_maps(q.fn.body), 1u);
}

TEST(RedomapFusion, ResultFreeInFoldOpNotFused) {
  // The fold body gathers from ys (free in the op lambda): not element-wise
  // consumption, so fusion must not fire.
  ProgBuilder pb("freeop");
  Var xs = pb.param("xs", arr_f64(1));
  Builder& b = pb.body();
  Var ys = b.map1(scalar_map(b, 2.0, 0.0), {xs});
  Var s = b.reduce1(b.lam({f64(), f64()},
                          [&](Builder& c, const std::vector<Var>& p) {
                            Var y0 = c.index(ys, {ci64(0)});
                            Var t = c.add(p[0], p[1]);
                            return std::vector<Atom>{Atom(c.add(t, Atom(y0)))};
                          }),
                    cf64(0.0), {ys});
  Prog p = pb.finish({Atom(s)});
  typecheck(p);
  opt::FuseStats stats;
  Prog q = opt::fuse_maps(p, &stats);
  typecheck(q);
  EXPECT_EQ(stats.fused_redomaps, 0);
  EXPECT_EQ(count_maps(q.fn.body), 1u);
}

TEST(RedomapFusion, PipelineFusesVjpAdjointChainIntoReduce) {
  // vjp of sum(f(xs)) style programs emits adjoint map chains contracting
  // into reductions; the standard pipeline must collapse them into redomap
  // form transitively and keep the gradient.
  ProgBuilder pb("vred");
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
  opt::PipelineStats st;
  Prog q = opt::optimize(p, {}, &st);
  typecheck(q);
  EXPECT_GE(st.fuse.fused_redomaps, 1);
  EXPECT_EQ(count_maps(q.fn.body), 0u);  // primal chain fully in the redomap
  Prog g = ad::vjp(p);
  typecheck(g);
  opt::PipelineStats gst;
  Prog gf = opt::optimize(g, {}, &gst);
  typecheck(gf);
  std::vector<Value> args = {make_f64_array({0.2, -0.4, 0.6}, {3}),
                             make_f64_array({1.5, -2.0, 0.5}, {3}), 1.0};
  auto r1 = rt::run_prog(g, args);
  auto r2 = rt::run_prog(gf, args);
  ASSERT_EQ(r1.size(), r2.size());
  for (size_t i = r1.size() - 2; i < r1.size(); ++i) {
    auto v1 = rt::to_f64_vec(rt::as_array(r1[i]));
    auto v2 = rt::to_f64_vec(rt::as_array(r2[i]));
    ASSERT_EQ(v1.size(), v2.size());
    for (size_t j = 0; j < v1.size(); ++j) EXPECT_NEAR(v1[j], v2[j], 1e-13);
  }
}

// Reduce is the only fused consumer. A map (one, or a chain of two) feeding
// a scan or a reduce_by_index stays a map after fuse_maps and after
// opt::optimize, the consumer reads the map's result, and the optimized
// program computes the same bits as the input program.
TEST(UnfusedConsumers, ScanAndHistKeepTheirProducerMap) {
  enum class Consumer { Scan, Hist };
  for (Consumer kind : {Consumer::Scan, Consumer::Hist}) {
    for (int chain : {1, 2}) {
      SCOPED_TRACE(std::string(kind == Consumer::Scan ? "scan" : "hist") + " chain " +
                   std::to_string(chain));
      ProgBuilder pb("unfused");
      Var dest = pb.param("dest", arr_f64(1));
      Var is = pb.param("is", arr(ScalarType::I64, 1));
      Var vs = pb.param("vs", arr_f64(1));
      Builder& b = pb.body();
      Var ys = b.map1(scalar_map(b, 2.0, 1.0), {vs});
      if (chain == 2) ys = b.map1(scalar_map(b, 3.0, -0.5), {ys});
      Var out = kind == Consumer::Scan ? b.scan1(b.add_op(), cf64(0.0), {ys})
                                       : b.hist(b.add_op(), cf64(0.0), dest, is, ys);
      Prog p = pb.finish({Atom(out)});
      typecheck(p);

      opt::FuseStats stats;
      Prog q = opt::fuse_maps(p, &stats);
      typecheck(q);
      EXPECT_EQ(stats.fused_maps, chain - 1);  // a chain still fuses map into map
      EXPECT_EQ(stats.fused_redomaps, 0);
      Prog o = opt::optimize(p);
      typecheck(o);
      for (const Prog* r : {&q, &o}) {
        ASSERT_EQ(count_maps(r->fn.body), 1u);
        const auto& stms = r->fn.body.stms;
        ASSERT_GE(stms.size(), 2u);
        const Stm& prod = stms[stms.size() - 2];
        ASSERT_TRUE(std::holds_alternative<OpMap>(prod.e));
        const Exp& cons = stms.back().e;
        if (kind == Consumer::Scan) {
          ASSERT_TRUE(std::holds_alternative<OpScan>(cons));
          EXPECT_EQ(std::get<OpScan>(cons).args, std::vector<Var>{prod.vars[0]});
        } else {
          ASSERT_TRUE(std::holds_alternative<OpHist>(cons));
          EXPECT_EQ(std::get<OpHist>(cons).vals, prod.vars[0]);
        }
      }

      std::vector<Value> args = {make_f64_array({0.5, -1.0, 0.25}, {3}),
                                 make_i64_array({0, 2, 1, 2, -1, 9, 0}, {7}),
                                 make_f64_array({1, -2, 3.5, 4, 0.1, 6, -7.25}, {7})};
      for (bool vexec : {false, true}) {
        rt::InterpOptions opts{.parallel = false};
        opts.use_vexec = vexec;
        rt::Interp ref(opts), got(opts);
        auto r1 = rt::to_f64_vec(rt::as_array(ref.run(p, args)[0]));
        auto r2 = rt::to_f64_vec(rt::as_array(got.run(o, args)[0]));
        ASSERT_EQ(r1.size(), r2.size());
        for (size_t i = 0; i < r1.size(); ++i) {
          EXPECT_EQ(std::bit_cast<uint64_t>(r1[i]), std::bit_cast<uint64_t>(r2[i]))
              << "vexec " << vexec << " element " << i;
        }
      }
    }
  }
}

TEST(Simplify, CopyPropDoesNotCaptureShadowedAliasTarget) {
  // AD passes re-install forward sweeps re-using variable ids, so the same
  // id can be re-bound (shadowed). An alias x -> a recorded before a
  // re-binding of `a` must not substitute x afterwards — that would capture
  // the new binding. Built by hand: the Builder always freshens ids.
  auto mod = std::make_shared<Module>();
  Var a = mod->fresh("a"), b = mod->fresh("b"), x = mod->fresh("x"), r = mod->fresh("r");
  Function fn;
  fn.name = "cap";
  fn.params = {Param{a, f64()}, Param{b, f64()}};
  fn.rets = {f64()};
  fn.body.stms = {
      stm1(x, f64(), OpAtom{Atom(a)}),                 // alias x -> a
      stm1(a, f64(), OpBin{BinOp::Add, Atom(b), Atom(b)}),  // re-binds id `a`
      stm1(r, f64(), OpBin{BinOp::Add, Atom(x), Atom(a)}),
  };
  fn.body.result = {Atom(r)};
  Prog p{mod, std::move(fn)};
  typecheck(p);
  Prog q = opt::simplify(p);
  typecheck(q);
  std::vector<Value> args = {2.0, 3.0};
  // x must keep the ORIGINAL a: r = 2 + (3+3) = 8, not (3+3)+(3+3) = 12.
  EXPECT_DOUBLE_EQ(rt::as_f64(rt::run_prog(p, args)[0]), 8.0);
  EXPECT_DOUBLE_EQ(rt::as_f64(rt::run_prog(q, args)[0]), 8.0);
}

TEST(Simplify, DceKeepsZeroResultAccEffectStatements) {
  // The vjp adjoint sweeps emit zero-result maps whose lambdas upd_acc free
  // accumulators — observable mutations a binding-based liveness walk never
  // sees. DCE must keep them (and the dead-threaded upd_acc bindings inside
  // their lambdas).
  ProgBuilder pb("f");
  Var d = pb.param("d", arr_f64(1));
  Builder& b = pb.body();
  auto res = b.withacc({d}, [&](Builder& c, const std::vector<Var>& accs) {
    Var is = c.iota(ci64(3));
    c.map(c.lam({i64()},
                [&](Builder& cc, const std::vector<Var>& p) {
                  cc.upd_acc(accs[0], {Atom(p[0])}, cf64(1.0));
                  return std::vector<Atom>{};  // zero results: pure side effect
                }),
          {is});
    return std::vector<Atom>{Atom(accs[0])};
  });
  Prog p = pb.finish({Atom(res[0])});
  typecheck(p);
  Prog q = opt::simplify(p);
  typecheck(q);
  std::vector<Value> args = {make_f64_array({0, 0, 0}, {3})};
  EXPECT_EQ(rt::to_f64_vec(rt::as_array(rt::run_prog(q, args)[0])),
            (std::vector<double>{1, 1, 1}));
}

// ------------------------------------------------ dead loop-carried state --

// Every statement of a body, nested scopes included, in program order.
void each_stm(const Body& b, const std::function<void(const Stm&)>& fn) {
  for (const auto& st : b.stms) {
    fn(st);
    for_each_nested(st.e, [&](const NestedScope& s) { each_stm(*s.body, fn); });
  }
}

const OpLoop& only_loop(const Prog& p) {
  const OpLoop* found = nullptr;
  each_stm(p.fn.body, [&](const Stm& st) {
    if (const auto* lp = std::get_if<OpLoop>(&st.e)) {
      EXPECT_EQ(found, nullptr) << "more than one loop";
      found = lp;
    }
  });
  EXPECT_NE(found, nullptr);
  return *found;
}

size_t count_scratch(const Prog& p) {
  size_t n = 0;
  each_stm(p.fn.body, [&](const Stm& st) { n += std::holds_alternative<OpScratch>(st.e); });
  return n;
}

// Runs DCE on `p` and checks the result typechecks and computes the same
// first result at `args`.
Prog dce_same_result(const Prog& p, const std::vector<Value>& args) {
  typecheck(p);
  Prog q = opt::dead_code_elim(p);
  typecheck(q);
  EXPECT_EQ(rt::as_f64(rt::run_prog(q, args)[0]), rt::as_f64(rt::run_prog(p, args)[0]));
  return q;
}

TEST(DeadCarries, UnreadCheckpointIsDropped) {
  // The vjp's checkpoint shape: a scratch array written every trip and
  // never read after the loop.
  ProgBuilder pb("f");
  Var x0 = pb.param("x0", f64());
  Builder& b = pb.body();
  Var chk = b.scratch(ci64(6), x0);
  auto outs = b.loop_for({Atom(x0), Atom(chk)}, ci64(6),
                         [](Builder& c, Var i, const std::vector<Var>& ps) {
                           Var saved = c.update(ps[1], {Atom(i)}, Atom(ps[0]));
                           Var x = c.add(Atom(c.mul(ps[0], cf64(1.1))), cf64(0.5));
                           return std::vector<Atom>{Atom(x), Atom(saved)};
                         });
  Prog q = dce_same_result(pb.finish({Atom(outs[0])}), {0.25});
  EXPECT_EQ(only_loop(q).params.size(), 1u);
  EXPECT_EQ(count_scratch(q), 0u);
}

TEST(DeadCarries, PassThroughIsDropped) {
  ProgBuilder pb("f");
  Var x0 = pb.param("x0", f64());
  Var y0 = pb.param("y0", f64());
  Builder& b = pb.body();
  auto outs = b.loop_for({Atom(x0), Atom(y0)}, ci64(4),
                         [](Builder& c, Var, const std::vector<Var>& ps) {
                           return std::vector<Atom>{Atom(c.mul(ps[0], ps[0])), Atom(ps[1])};
                         });
  Prog q = dce_same_result(pb.finish({Atom(outs[0])}), {1.01, 7.0});
  const OpLoop& lp = only_loop(q);
  ASSERT_EQ(lp.params.size(), 1u);
  ASSERT_TRUE(lp.init[0].is_var());
  EXPECT_TRUE(lp.init[0].var() == x0);  // the live carry survives
}

TEST(DeadCarries, ChainOfDeadCarriesIsDropped) {
  // a feeds only b, b feeds only itself, and neither result is used: the
  // fixpoint must see that b is dead before it can drop a.
  ProgBuilder pb("f");
  Var x0 = pb.param("x0", f64());
  Builder& b = pb.body();
  auto outs = b.loop_for({Atom(x0), cf64(1.0), cf64(2.0)}, ci64(5),
                         [](Builder& c, Var, const std::vector<Var>& ps) {
                           Var x = c.sin(ps[0]);
                           Var a = c.add(ps[1], cf64(1.0));
                           Var bb = c.add(Atom(c.mul(ps[2], ps[1])), ps[2]);
                           return std::vector<Atom>{Atom(x), Atom(a), Atom(bb)};
                         });
  Prog q = dce_same_result(pb.finish({Atom(outs[0])}), {0.3});
  EXPECT_EQ(only_loop(q).params.size(), 1u);
}

TEST(DeadCarries, AccumulatorCarryIsKept) {
  // The loop's results are all dead, but its accumulator carry is where its
  // effects go, and the scalar carry feeds those effects.
  ProgBuilder pb("f");
  Var d = pb.param("d", arr_f64(1));
  Builder& b = pb.body();
  auto res = b.withacc({d}, [&](Builder& c, const std::vector<Var>& accs) {
    c.loop_for({Atom(accs[0]), cf64(1.0)}, ci64(3),
               [](Builder& cc, Var i, const std::vector<Var>& ps) {
                 Var a = cc.upd_acc(ps[0], {Atom(i)}, Atom(ps[1]));
                 return std::vector<Atom>{Atom(a), Atom(cc.mul(ps[1], cf64(2.0)))};
               });
    return std::vector<Atom>{Atom(accs[0])};
  });
  Prog p = pb.finish({Atom(res[0])});
  typecheck(p);
  Prog q = opt::dead_code_elim(p);
  typecheck(q);
  EXPECT_EQ(only_loop(q).params.size(), 2u);
  std::vector<Value> args = {make_f64_array({0, 0, 0}, {3})};
  EXPECT_EQ(rt::to_f64_vec(rt::as_array(rt::run_prog(q, args)[0])),
            (std::vector<double>{1, 2, 4}));
}

TEST(DeadCarries, WhileConditionReadKeepsCarry) {
  // n's result is dead and it feeds no other carry, but the condition reads
  // it; d is read by nothing and goes, from the condition's params too.
  ProgBuilder pb("f");
  Var x0 = pb.param("x0", f64());
  Builder& b = pb.body();
  auto outs = b.loop_while(
      {Atom(x0), ci64(0), cf64(0.0)},
      [](Builder& c, const std::vector<Var>& ps) {
        return std::vector<Atom>{Atom(c.lt(ps[1], ci64(4)))};
      },
      [](Builder& c, Var, const std::vector<Var>& ps) {
        return std::vector<Atom>{Atom(c.mul(ps[0], cf64(1.5))), Atom(c.add(ps[1], ci64(1))),
                                 Atom(c.add(ps[2], ps[0]))};
      });
  Prog q = dce_same_result(pb.finish({Atom(outs[0])}), {2.0});
  const OpLoop& lp = only_loop(q);
  EXPECT_EQ(lp.params.size(), 2u);
  ASSERT_TRUE(lp.while_cond);
  EXPECT_EQ(lp.while_cond->params.size(), 2u);
  EXPECT_DOUBLE_EQ(rt::as_f64(rt::run_prog(q, {2.0})[0]), 2.0 * 1.5 * 1.5 * 1.5 * 1.5);
}

// The optimized vjp (the program serving runs) against central differences
// of the primal; the vjp's first result is the primal value, then one
// gradient per f64 parameter.
void expect_optimized_vjp_gradients(const Prog& primal, const std::vector<Value>& args,
                                    const Prog& g) {
  std::vector<Value> gargs = args;
  gargs.emplace_back(1.0);
  const auto out = rt::run_prog(g, gargs);
  const auto num = ad::numeric_gradients(primal, args);
  std::vector<std::vector<double>> rev;
  for (size_t i = 1; i < out.size(); ++i) rev.push_back(rt::to_f64_vec(rt::as_array(out[i])));
  const auto r = ad::compare_gradients(num, rev, 1e-4);
  EXPECT_TRUE(r.ok) << r.max_rel_err;
}

Prog optimized_vjp(const Prog& primal) {
  typecheck(primal);
  Prog g = opt::optimize(ad::vjp(primal));
  typecheck(g);
  return g;
}

TEST(DeadCarries, SparseKmeansAndXsbenchVjpKeepNoCheckpoint) {
  support::Rng rng(31);
  const Prog km = apps::kmeans_sparse_ir_cost();
  const Prog gkm = optimized_vjp(km);
  EXPECT_EQ(count_scratch(gkm), 0u);
  expect_optimized_vjp_gradients(km, apps::kmeans_sparse_ir_args(apps::kmeans_sparse_gen(rng, 20, 8, 3, 3)),
                                 gkm);
  const Prog xs = apps::xs_ir_objective();
  const Prog gxs = optimized_vjp(xs);
  EXPECT_EQ(count_scratch(gxs), 0u);
  expect_optimized_vjp_gradients(xs, apps::xs_ir_args(apps::xs_gen(rng, 3, 16, 5)), gxs);
}

TEST(DeadCarries, LstmVjpKeepsOnlyTheCheckpointsItReads) {
  const Prog lstm = apps::lstm_ir_objective();
  const Prog g = optimized_vjp(lstm);
  // The forward loop checkpoints two hidden-state arrays and the running
  // loss; the reverse sweep reads the first two only.
  EXPECT_EQ(count_scratch(g), 2u);
  std::unordered_set<uint32_t> checkpoints, indexed;
  each_stm(g.fn.body, [&](const Stm& st) {
    if (std::holds_alternative<OpScratch>(st.e)) checkpoints.insert(st.vars[0].id);
    if (const auto* ix = std::get_if<OpIndex>(&st.e)) indexed.insert(ix->arr.id);
  });
  // Each checkpoint flows through its loop's carry into the loop result
  // the reverse sweep indexes.
  size_t read = 0;
  each_stm(g.fn.body, [&](const Stm& st) {
    const auto* lp = std::get_if<OpLoop>(&st.e);
    if (lp == nullptr) return;
    for (size_t j = 0; j < lp->init.size(); ++j) {
      if (lp->init[j].is_var() && checkpoints.count(lp->init[j].var().id) &&
          indexed.count(st.vars[j].id)) {
        ++read;
      }
    }
  });
  EXPECT_EQ(read, 2u);
  support::Rng rng(32);
  const auto L = apps::lstm_gen(rng, 2, 3, 4, 3);
  expect_optimized_vjp_gradients(lstm, apps::lstm_ir_args(L), g);
}

TEST(Pipeline, MixedWithaccProgramKeepsResults) {
  // One withacc threading two accumulators through a map: an update at a
  // map-invariant index, and two updates at the iteration's own index. The
  // pipeline must leave a program that typechecks and computes the same
  // accumulator contents.
  ProgBuilder pb("f");
  Var d0 = pb.param("d0", arr_f64(1));
  Var d1 = pb.param("d1", arr_f64(1));
  Builder& b = pb.body();
  Type accT = acc_of(arr_f64(1));
  Var is = b.iota(ci64(4));
  auto outs = b.withacc({d0, d1}, [&](Builder& c, const std::vector<Var>& accs) {
    auto mres = c.map(
        c.lam({i64(), accT, accT},
              [&](Builder& cc, const std::vector<Var>& p) {
                Var a0 = cc.upd_acc(p[1], {ci64(0)}, cf64(1.0));
                Var a1 = cc.upd_acc(p[2], {Atom(p[0])}, cf64(1.0));
                Var a1b = cc.upd_acc(a1, {Atom(p[0])}, cf64(2.0));
                return std::vector<Atom>{Atom(a0), Atom(a1b)};
              }),
        {is, accs[0], accs[1]});
    return std::vector<Atom>{Atom(mres[0]), Atom(mres[1])};
  });
  Prog p = pb.finish({Atom(outs[0]), Atom(outs[1])});
  typecheck(p);
  Prog q = opt::optimize(p);
  typecheck(q);
  std::vector<Value> args = {make_f64_array({0, 0}, {2}), make_f64_array({0, 0, 0, 0}, {4})};
  auto r0 = rt::run_prog(p, args);
  auto r1 = rt::run_prog(q, args);
  ASSERT_EQ(r0.size(), r1.size());
  for (size_t k = 0; k < r0.size(); ++k) {
    EXPECT_EQ(rt::to_f64_vec(rt::as_array(r0[k])), rt::to_f64_vec(rt::as_array(r1[k]))) << k;
  }
  EXPECT_EQ(rt::to_f64_vec(rt::as_array(r1[0])), (std::vector<double>{4, 0}));
  EXPECT_EQ(rt::to_f64_vec(rt::as_array(r1[1])), (std::vector<double>{3, 3, 3, 3}));
}

// ------------------------------------------------------- scaling guard ---
//
// A generated worst case for scope handling: a chain of copies inside 8
// nested maps (each copy an alias the next statement reads), then a chain
// of fusable maps. Every pass costs one walk of the program per round, so
// this optimizes in under 0.1 s in a Release build and about 1.5 s under
// ThreadSanitizer; an optimizer that copies the alias table per statement or
// rebuilds its fusion tables per fusion is quadratic here and takes over a
// minute in a Release build (see CHANGES.md for the measured times). The
// bound leaves room for sanitizer builds sharing the machine with other tests.

constexpr int kScalingDepth = 8;
constexpr int kScalingCopies = 20000;
constexpr int kScalingMaps = 200;
constexpr double kScalingBoundSeconds = 9.0;

LambdaPtr copy_chain_nest(Builder& b, int rank) {
  if (rank == 0) {
    return b.lam({f64()}, [](Builder& c, const std::vector<Var>& p) {
      Var v = p[0];
      for (int k = 0; k < kScalingCopies; ++k) v = c.mul(c.rebind(v, "cp"), cf64(1.0001));
      return std::vector<Atom>{Atom(v)};
    });
  }
  return b.lam({arr_f64(rank)}, [rank](Builder& c, const std::vector<Var>& p) {
    return std::vector<Atom>{Atom(c.map1(copy_chain_nest(c, rank - 1), {p[0]}))};
  });
}

TEST(Scaling, OptimizerIsLinearInDeepNestsAndLongChains) {
  ProgBuilder pb("scaling");
  Var xs = pb.param("xs", arr_f64(kScalingDepth));
  Var zs = pb.param("zs", arr_f64(1));
  Builder& b = pb.body();
  Var ys = b.map1(copy_chain_nest(b, kScalingDepth - 1), {xs});
  Var z = zs;
  for (int k = 0; k < kScalingMaps; ++k) z = b.map1(scalar_map(b, 1.0, 1.0), {z});
  Prog p = pb.finish({Atom(ys), Atom(z)});
  typecheck(p);

  const auto t0 = std::chrono::steady_clock::now();
  opt::PipelineStats stats;
  Prog q = opt::optimize(p, {}, &stats);
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  EXPECT_LT(secs, kScalingBoundSeconds) << "opt::optimize took " << secs << " s";

  typecheck(q);
  EXPECT_EQ(stats.fuse.fused_maps, kScalingMaps - 1);
  // Copies gone, multiplications and the nest kept, the chain one map.
  EXPECT_EQ(count_stms(q.fn.body),
            static_cast<size_t>(2 + (kScalingDepth - 1) + kScalingCopies + kScalingMaps));
  std::vector<int64_t> shape(kScalingDepth, 1);
  shape.back() = 2;
  std::vector<Value> args = {make_f64_array({1.0, 2.0}, shape), make_f64_array({0.5}, {1})};
  auto want = rt::run_prog(p, args);
  auto got = rt::run_prog(q, args);
  EXPECT_EQ(rt::to_f64_vec(rt::as_array(want[0])), rt::to_f64_vec(rt::as_array(got[0])));
  EXPECT_EQ(rt::to_f64_vec(rt::as_array(got[1])), (std::vector<double>{0.5 + kScalingMaps}));
}

// ------------------------------------------------------------ golden IR ---
//
// The optimizer's output for the 20 benchmark programs (primal and derivative
// of each), printed and compared byte for byte against a checked-in file. A
// pass rewrite that changes no behaviour must leave this text unchanged;
// fresh-variable numbering included, since it records the order in which
// fusion and inlining allocate names. On a mismatch the actual text is
// written next to the test binary (optimized_ir.actual.txt) for diffing.

enum class GoldenDeriv { Vjp, Jvp, Hvp };  // Hvp: jvp(vjp(p))

std::string optimized_ir_text() {
  struct Entry {
    const char* name;
    Prog (*primal)();
    GoldenDeriv deriv;
  };
  const Entry entries[] = {
      {"gmm", apps::gmm_ir_objective, GoldenDeriv::Vjp},
      {"lstm", apps::lstm_ir_objective, GoldenDeriv::Vjp},
      {"kmeans", apps::kmeans_ir_cost, GoldenDeriv::Vjp},
      {"kmeans_hvp", apps::kmeans_ir_cost, GoldenDeriv::Hvp},
      {"kmeans_sparse", apps::kmeans_sparse_ir_cost, GoldenDeriv::Vjp},
      {"xsbench", apps::xs_ir_objective, GoldenDeriv::Vjp},
      {"rsbench", apps::rs_ir_objective, GoldenDeriv::Vjp},
      {"ba", apps::ba_ir_residuals, GoldenDeriv::Jvp},
      {"hand", [] { return apps::hand_ir_residuals(false); }, GoldenDeriv::Jvp},
      {"hand_complicated", [] { return apps::hand_ir_residuals(true); }, GoldenDeriv::Jvp},
  };
  std::ostringstream os;
  for (const Entry& e : entries) {
    // The benchmark recipe: differentiate the typechecked pre-fusion primal,
    // then optimize both programs.
    Prog primal = e.primal();
    typecheck(primal);
    Prog deriv = e.deriv == GoldenDeriv::Jvp ? ad::jvp(primal) : ad::vjp(primal);
    if (e.deriv == GoldenDeriv::Hvp) deriv = ad::jvp(deriv);
    os << "=== " << e.name << " primal ===\n";
    print_prog(os, opt::optimize(primal));
    os << "=== " << e.name << " derivative ===\n";
    print_prog(os, opt::optimize(deriv));
  }
  return os.str();
}

TEST(Golden, OptimizedIrOfBenchmarkProgramsIsUnchanged) {
  const std::string actual = optimized_ir_text();
  std::ifstream in(NPAD_TESTS_DIR "/golden/optimized_ir.txt", std::ios::binary);
  std::stringstream expected;
  if (in.good()) expected << in.rdbuf();  // a missing file reads as empty
  if (actual == expected.str()) return;
  const std::string out_path = NPAD_TEST_BINARY_DIR "/optimized_ir.actual.txt";
  std::ofstream(out_path, std::ios::binary) << actual;
  // Name the first differing line so the failure reads without the diff.
  std::istringstream a(actual), x(expected.str());
  std::string la, lx;
  size_t line = 0;
  while (true) {
    ++line;
    const bool more_a = static_cast<bool>(std::getline(a, la));
    const bool more_x = static_cast<bool>(std::getline(x, lx));
    if (!more_a && !more_x) break;
    if (more_a != more_x || la != lx) break;
  }
  ADD_FAILURE() << "optimized IR differs from tests/golden/optimized_ir.txt at line " << line
                << "\n  expected: " << lx << "\n  actual:   " << la
                << "\nactual text written to " << out_path;
}

} // namespace
