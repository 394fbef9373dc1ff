// Unit tests for the IR substrate: builder, printer, free-variable analysis,
// lambda inlining, pattern recognition and the type checker.

#include <gtest/gtest.h>

#include "ir/analysis.hpp"
#include "ir/builder.hpp"
#include "ir/patterns.hpp"
#include "ir/print.hpp"
#include "ir/typecheck.hpp"
#include "ir/visit.hpp"

namespace {

using namespace npad::ir;

Prog make_square_prog() {
  ProgBuilder pb("square");
  Var x = pb.param("x", f64());
  Builder& b = pb.body();
  Var y = b.mul(x, x);
  return pb.finish({Atom(y)});
}

TEST(Ir, BuildAndPrintScalarProgram) {
  Prog p = make_square_prog();
  EXPECT_EQ(p.fn.params.size(), 1u);
  EXPECT_EQ(p.fn.rets.size(), 1u);
  EXPECT_EQ(p.fn.rets[0], f64());
  std::string s = to_string(p);
  EXPECT_NE(s.find("square"), std::string::npos);
  EXPECT_NE(s.find("*"), std::string::npos);
}

TEST(Ir, TypecheckAcceptsWellFormed) {
  Prog p = make_square_prog();
  EXPECT_NO_THROW(typecheck(p));
}

TEST(Ir, TypecheckRejectsUnbound) {
  ProgBuilder pb("bad");
  Var x = pb.param("x", f64());
  Builder& b = pb.body();
  Var y = b.mul(x, x);
  Prog p = pb.finish({Atom(y)});
  // Corrupt: reference a fresh unbound var.
  Var ghost = p.mod->fresh("ghost");
  p.fn.body.result[0] = Atom(ghost);
  p.fn.rets[0] = f64();
  EXPECT_THROW(typecheck(p), TypeError);
}

TEST(Ir, TypecheckRejectsDtypeMismatch) {
  ProgBuilder pb("bad2");
  Var x = pb.param("x", f64());
  Builder& b = pb.body();
  Var y = b.mul(x, x);
  Prog p = pb.finish({Atom(y)});
  // Corrupt the statement's declared type.
  p.fn.body.stms[0].types[0] = i64();
  EXPECT_THROW(typecheck(p), TypeError);
}

TEST(Ir, MapReduceTypesInferred) {
  ProgBuilder pb("dot");
  Var xs = pb.param("xs", arr_f64(1));
  Var ys = pb.param("ys", arr_f64(1));
  Builder& b = pb.body();
  Var prods = b.map1(b.lam({f64(), f64()},
                           [](Builder& c, const std::vector<Var>& p) {
                             return std::vector<Atom>{Atom(c.mul(p[0], p[1]))};
                           }),
                     {xs, ys});
  Var s = b.reduce1(b.add_op(), cf64(0.0), {prods});
  Prog p = pb.finish({Atom(s)});
  EXPECT_NO_THROW(typecheck(p));
  EXPECT_EQ(p.fn.rets[0], f64());
}

TEST(Ir, FreeVarsOfLambdaExcludeParams) {
  ProgBuilder pb("fv");
  Var xs = pb.param("xs", arr_f64(1));
  Var c = pb.param("c", f64());
  Builder& b = pb.body();
  LambdaPtr f = b.lam({f64()}, [&](Builder& cb, const std::vector<Var>& p) {
    return std::vector<Atom>{Atom(cb.mul(p[0], c))};
  });
  Var ys = b.map1(f, {xs});
  Prog p = pb.finish({Atom(ys)});
  (void)p;
  std::vector<Var> fv = free_vars(*f);
  ASSERT_EQ(fv.size(), 1u);
  EXPECT_EQ(fv[0], c);
}

TEST(Ir, FreeVarsSeeThroughNestedScopes) {
  ProgBuilder pb("fv2");
  Var k = pb.param("k", f64());
  Var xs = pb.param("xs", arr_f64(1));
  Builder& b = pb.body();
  LambdaPtr f = b.lam({f64()}, [&](Builder& cb, const std::vector<Var>& p) {
    Var cond = cb.lt(p[0], cf64(0.0));
    Var r = cb.if1(
        cond, [&](Builder& tb) { return std::vector<Atom>{Atom(tb.mul(p[0], k))}; },
        [&](Builder& fb) { return std::vector<Atom>{Atom(fb.add(p[0], cf64(1.0)))}; });
    return std::vector<Atom>{Atom(r)};
  });
  std::vector<Var> fv = free_vars(*f);
  ASSERT_EQ(fv.size(), 1u);
  EXPECT_EQ(fv[0], k);
  Var ys = b.map1(f, {xs});
  Prog p = pb.finish({Atom(ys)});
  EXPECT_NO_THROW(typecheck(p));
}

// Shadowing: the builder never re-binds an id, but the AD passes do (they
// re-emit forward sweeps with the same ids), so these bodies are built by
// hand. Types are irrelevant to free_vars and left at f64.
Stm bind_bin(Var v, BinOp op, Atom a, Atom b) { return stm1(v, f64(), OpBin{op, a, b}); }

LambdaPtr lambda_of(std::vector<Var> params, Body body) {
  Lambda l;
  for (Var p : params) l.params.push_back(Param{p, f64()});
  l.rets.assign(body.result.size(), f64());
  l.body = std::move(body);
  return make_lambda(std::move(l));
}

TEST(Ir, FreeVarsNestedRebindingKeepsOuterBinding) {
  Module m;
  Var a = m.fresh("a"), xs = m.fresh("xs"), x = m.fresh("x"), p = m.fresh("p");
  Var ys = m.fresh("ys"), z = m.fresh("z"), t = m.fresh("t");
  // The lambda re-binds x; the outer x must stay bound after the map.
  LambdaPtr f = lambda_of({p}, Body{{bind_bin(x, BinOp::Mul, p, cf64(2.0))}, {Atom(x)}});
  Body b{{bind_bin(x, BinOp::Add, a, cf64(1.0)), stm1(ys, arr_f64(1), OpMap{f, {xs}}),
          bind_bin(z, BinOp::Add, x, cf64(1.0))},
         {Atom(z), Atom(ys)}};
  EXPECT_EQ(free_vars(b), (std::vector<Var>{a, xs}));
  EXPECT_TRUE(free_vars(*f).empty());
  // Read before the re-binding, x is free in the lambda but bound here.
  LambdaPtr g = lambda_of(
      {p}, Body{{bind_bin(t, BinOp::Add, x, p), bind_bin(x, BinOp::Mul, t, cf64(2.0))}, {Atom(x)}});
  EXPECT_EQ(free_vars(*g), (std::vector<Var>{x}));
  Body c{{bind_bin(x, BinOp::Add, a, cf64(1.0)), stm1(ys, arr_f64(1), OpMap{g, {xs}})},
         {Atom(ys), Atom(x)}};
  EXPECT_EQ(free_vars(c), (std::vector<Var>{a, xs}));
}

TEST(Ir, FreeVarsLoopParamsAndIndexShadowOuter) {
  Module m;
  Var x0 = m.fresh("x0"), n = m.fresh("n"), acc = m.fresh("acc"), i = m.fresh("i");
  Var t = m.fresh("t"), r = m.fresh("r"), s = m.fresh("s");
  OpLoop lp;
  lp.params = {Param{acc, f64()}};
  lp.init = {Atom(x0)};
  lp.idx = i;
  lp.count = Atom(n);
  lp.body = make_body(Body{{bind_bin(t, BinOp::Add, acc, i)}, {Atom(t)}});
  Body b{{stm1(r, f64(), lp), bind_bin(s, BinOp::Add, acc, i)}, {Atom(r), Atom(s)}};
  // acc and i are bound only inside the loop: free again after it.
  EXPECT_EQ(free_vars(b), (std::vector<Var>{x0, n, acc, i}));
  // i bound outside as well: the loop index shadows it and must not unbind
  // it on exit.
  EXPECT_EQ(free_vars(b, {i}), (std::vector<Var>{x0, n, acc}));
  EXPECT_EQ(free_vars(b, {acc, i}), (std::vector<Var>{x0, n}));
}

TEST(Ir, FreeVarsWhileConditionReads) {
  Module m;
  Var k0 = m.fresh("k0"), lim = m.fresh("lim"), step = m.fresh("step"), k = m.fresh("k");
  Var k2 = m.fresh("k2"), c = m.fresh("c"), r = m.fresh("r");
  OpLoop lp;
  lp.params = {Param{k, f64()}};
  lp.init = {Atom(k0)};
  lp.body = make_body(Body{{bind_bin(k2, BinOp::Add, k, step)}, {Atom(k2)}});
  // The condition's param re-uses the body param's id; lim is read only here.
  Lambda cond;
  cond.params = {Param{k, f64()}};
  cond.body = Body{{stm1(c, boolean(), OpBin{BinOp::Lt, k, lim})}, {Atom(c)}};
  cond.rets = {boolean()};
  lp.while_cond = make_lambda(std::move(cond));
  Body b{{stm1(r, f64(), lp)}, {Atom(r), Atom(k)}};
  // Body scope before the condition (visit_scopes order); k is free after.
  EXPECT_EQ(free_vars(b), (std::vector<Var>{k0, step, lim, k}));
}

TEST(Ir, FreeVarsInFirstUseOrder) {
  Module m;
  Var a = m.fresh("a"), bb = m.fresh("b"), c = m.fresh("c"), d = m.fresh("d");
  Var xs = m.fresh("xs"), p = m.fresh("p"), u = m.fresh("u"), w = m.fresh("w");
  Var t = m.fresh("t"), ys = m.fresh("ys"), r = m.fresh("r");
  LambdaPtr f = lambda_of({p}, Body{{bind_bin(u, BinOp::Mul, p, bb), bind_bin(w, BinOp::Add, u, c)},
                                    {Atom(w)}});
  Body b{{bind_bin(t, BinOp::Mul, c, cf64(2.0)), stm1(ys, arr_f64(1), OpMap{f, {xs}}),
          bind_bin(r, BinOp::Add, t, a)},
         {Atom(r), Atom(d), Atom(ys), Atom(c)}};
  // An op's own operands come before its scopes; each id is listed once.
  EXPECT_EQ(free_vars(b), (std::vector<Var>{c, xs, bb, a, d}));
}

TEST(Ir, InlineLambdaSubstitutesAndRefreshes) {
  ProgBuilder pb("inl");
  Var a = pb.param("a", f64());
  Builder& b = pb.body();
  LambdaPtr f = b.lam({f64(), f64()}, [](Builder& c, const std::vector<Var>& p) {
    Var s = c.add(p[0], p[1]);
    return std::vector<Atom>{Atom(c.mul(s, s))};
  });
  auto [stms, res] = inline_lambda(b.module(), *f, {Atom(a), cf64(3.0)});
  ASSERT_EQ(stms.size(), 2u);
  ASSERT_EQ(res.size(), 1u);
  // Bindings must have been refreshed (different from the lambda's own vars).
  EXPECT_NE(stms[0].vars[0].id, f->body.stms[0].vars[0].id);
  // The add statement must reference `a` and the constant.
  const auto* add = std::get_if<OpBin>(&stms[0].e);
  ASSERT_NE(add, nullptr);
  EXPECT_TRUE(add->a.is_var() && add->a.var() == a);
  EXPECT_TRUE(add->b.is_const());
}

TEST(Ir, RecognizeBinopLambdas) {
  ProgBuilder pb("rec");
  Builder& b = pb.body();
  EXPECT_EQ(recognize_binop(*b.add_op()), BinOp::Add);
  EXPECT_EQ(recognize_binop(*b.mul_op()), BinOp::Mul);
  EXPECT_EQ(recognize_binop(*b.min_op()), BinOp::Min);
  LambdaPtr weird = b.lam({f64(), f64()}, [](Builder& c, const std::vector<Var>& p) {
    Var t = c.mul(p[0], p[1]);
    return std::vector<Atom>{Atom(c.add(t, cf64(1.0)))};
  });
  EXPECT_FALSE(recognize_binop(*weird).has_value());
}

TEST(Ir, CountStmsRecursesNests) {
  ProgBuilder pb("cnt");
  Var xs = pb.param("xs", arr_f64(1));
  Builder& b = pb.body();
  Var ys = b.map1(b.lam({f64()},
                        [](Builder& c, const std::vector<Var>& p) {
                          Var t = c.mul(p[0], p[0]);
                          return std::vector<Atom>{Atom(c.add(t, cf64(1.0)))};
                        }),
                  {xs});
  Prog p = pb.finish({Atom(ys)});
  EXPECT_EQ(count_stms(p.fn.body), 3u);  // map + two lambda stms
}

TEST(Ir, LoopBuilderProducesTypedLoop) {
  ProgBuilder pb("lp");
  Var x0 = pb.param("x0", f64());
  Var n = pb.param("n", i64());
  Builder& b = pb.body();
  auto outs = b.loop_for({Atom(x0)}, Atom(n), [](Builder& c, Var, const std::vector<Var>& ps) {
    return std::vector<Atom>{Atom(c.mul(ps[0], cf64(1.5)))};
  });
  Prog p = pb.finish({Atom(outs[0])});
  EXPECT_NO_THROW(typecheck(p));
}

TEST(Ir, ScatterAndHistTypecheck) {
  ProgBuilder pb("sc");
  Var dest = pb.param("dest", arr_f64(1));
  Var inds = pb.param("inds", arr(ScalarType::I64, 1));
  Var vals = pb.param("vals", arr_f64(1));
  Builder& b = pb.body();
  Var s = b.scatter(dest, inds, vals);
  Var h = b.hist(b.add_op(), cf64(0.0), s, inds, vals);
  Prog p = pb.finish({Atom(h)});
  EXPECT_NO_THROW(typecheck(p));
}

TEST(Ir, WithAccTypecheck) {
  ProgBuilder pb("wa");
  Var dest = pb.param("dest", arr_f64(1));
  Var is = pb.param("is", arr(ScalarType::I64, 1));
  Builder& b = pb.body();
  auto outs = b.withacc({dest}, [&](Builder& c, const std::vector<Var>& accs) {
    LambdaPtr f = c.lam({i64(), acc_of(arr_f64(1))},
                        [](Builder& cc, const std::vector<Var>& p) {
                          Var a2 = cc.upd_acc(p[1], {Atom(p[0])}, cf64(1.0));
                          return std::vector<Atom>{Atom(a2)};
                        });
    Var acc2 = c.map(f, {is, accs[0]})[0];
    return std::vector<Atom>{Atom(acc2)};
  });
  Prog p = pb.finish({Atom(outs[0])});
  EXPECT_NO_THROW(typecheck(p));
}

// ------------------------------------------------- nested-scope traversal ---

// One op of a scope-carrying kind plus the scopes visit_scopes must report
// for it, in order.
struct ScopeCase {
  const char* name;
  Exp e;
  std::vector<NestedScope> expect;
};

NestedScope expected_lambda_scope(const LambdaPtr& l) {
  NestedScope s{&l->body, {}, l.get()};
  for (const auto& p : l->params) s.bound.push_back(p.var);
  return s;
}

// Every scope-carrying op kind: if, for-loop, while-loop, map, reduce with
// and without a pre-lambda, scan, hist, withacc. Non-scope fields carry
// non-default values so rewrites can be checked to preserve them.
std::vector<ScopeCase> scope_cases(Builder& b) {
  Module& m = b.module();
  auto square = [&] {
    return b.lam({f64()}, [](Builder& c, const std::vector<Var>& p) {
      return std::vector<Atom>{Atom(c.mul(p[0], p[0]))};
    });
  };
  auto body_of = [&](double k) {
    return make_body(b.make_body([k](Builder& c) {
      Var t = c.add(cf64(k), cf64(1.0));
      return std::vector<Atom>{Atom(t)};
    }));
  };
  const Var xs = m.fresh("xs"), dest = m.fresh("dest"), inds = m.fresh("inds");
  std::vector<ScopeCase> cases;

  BodyPtr tb = body_of(1.0), fb = body_of(2.0);
  cases.push_back({"if", OpIf{cbool(true), tb, fb}, {{tb.get(), {}}, {fb.get(), {}}}});

  OpLoop fl;
  const Var x = m.fresh("x");
  fl.params = {Param{x, f64()}};
  fl.init = {cf64(0.0)};
  fl.idx = m.fresh("i");
  fl.count = ci64(3);
  fl.body = make_body(Body{{stm1(m.fresh("y"), f64(), OpBin{BinOp::Mul, Atom(x), cf64(2.0)})},
                           {Atom(x)}});
  fl.stripmine = 4;
  fl.checkpoint_entry = true;
  cases.push_back({"for", fl, {{fl.body.get(), {x, fl.idx}}}});

  OpLoop wl;
  wl.params = {Param{x, f64()}};
  wl.init = {cf64(1.0)};
  wl.while_cond = b.lam({f64()}, [](Builder& c, const std::vector<Var>& p) {
    return std::vector<Atom>{Atom(c.lt(p[0], cf64(100.0)))};
  });
  wl.body = body_of(3.0);
  wl.while_bound = ci64(10);
  cases.push_back(
      {"while", wl, {{wl.body.get(), {x}}, expected_lambda_scope(wl.while_cond)}});

  LambdaPtr f = square();
  cases.push_back({"map", OpMap{f, {xs}, /*fused=*/3},
                   {expected_lambda_scope(f)}});

  for (bool with_pre : {false, true}) {
    LambdaPtr op = b.add_op();
    LambdaPtr pre = with_pre ? square() : nullptr;
    std::vector<NestedScope> expect{expected_lambda_scope(op)};
    if (with_pre) expect.push_back(expected_lambda_scope(pre));
    const uint32_t fused = with_pre ? 2 : 0;
    cases.push_back({with_pre ? "redomap" : "reduce",
                     OpReduce{op, {cf64(0.0)}, {xs}, pre, fused}, expect});
  }
  LambdaPtr op = b.add_op();
  cases.push_back({"scan", OpScan{op, {cf64(0.0)}, {xs}}, {expected_lambda_scope(op)}});
  cases.push_back({"hist", OpHist{op, cf64(0.0), dest, inds, xs}, {expected_lambda_scope(op)}});

  LambdaPtr wf = b.lam({acc_of(arr_f64(1))}, [](Builder& c, const std::vector<Var>& p) {
    return std::vector<Atom>{Atom(c.upd_acc(p[0], {ci64(0)}, cf64(1.0)))};
  });
  cases.push_back({"withacc", OpWithAcc{{dest}, wf}, {expected_lambda_scope(wf)}});
  return cases;
}

// Structural hash of a one-statement function binding `e`.
uint64_t exp_hash(const Exp& e) {
  Function fn;
  fn.body.stms.push_back(Stm{{Var{0}}, {f64()}, e});
  return structural_hash(fn);
}

void expect_same_scope(const NestedScope& got, const NestedScope& want, const char* name,
                       size_t i) {
  SCOPED_TRACE(std::string(name) + " scope " + std::to_string(i));
  EXPECT_EQ(got.body, want.body);
  EXPECT_EQ(got.lam, want.lam);
  ASSERT_EQ(got.bound.size(), want.bound.size());
  for (size_t j = 0; j < got.bound.size(); ++j) EXPECT_EQ(got.bound[j], want.bound[j]);
}

TEST(Ir, ForEachNestedAndMapNestedAgreeOnScopes) {
  ProgBuilder pb("scopes");
  for (const ScopeCase& c : scope_cases(pb.body())) {
    std::vector<NestedScope> walked, mapped;
    for_each_nested(c.e, [&](const NestedScope& s) { walked.push_back(s); });
    std::optional<Exp> same = map_nested(c.e, [&](const NestedScope& s) -> std::optional<Body> {
      mapped.push_back(s);
      return *s.body;
    });
    ASSERT_TRUE(same) << c.name;
    ASSERT_EQ(walked.size(), c.expect.size()) << c.name;
    ASSERT_EQ(mapped.size(), c.expect.size()) << c.name;
    for (size_t i = 0; i < c.expect.size(); ++i) {
      expect_same_scope(walked[i], c.expect[i], c.name, i);
      expect_same_scope(mapped[i], c.expect[i], c.name, i);
    }
    // The identity rewrite rebuilds every scope yet preserves the structure;
    // an emptying rewrite shows the hash does see the rebuilt bodies.
    EXPECT_EQ(exp_hash(*same), exp_hash(c.e)) << c.name;
    std::optional<Exp> emptied = map_nested(c.e, [](const NestedScope& s) -> std::optional<Body> {
      return Body{{}, s.body->result};
    });
    ASSERT_TRUE(emptied) << c.name;
    EXPECT_NE(exp_hash(*emptied), exp_hash(c.e)) << c.name;
    for_each_nested(*same, [&](const NestedScope& s) {
      for (const NestedScope& old : c.expect) EXPECT_NE(s.body, old.body) << c.name;
    });
  }
}

TEST(Ir, MapNestedSharesKeptScopes) {
  ProgBuilder pb("shared");
  for (const ScopeCase& c : scope_cases(pb.body())) {
    // Keeping every scope copies nothing.
    EXPECT_FALSE(map_nested(c.e, [](const NestedScope&) -> std::optional<Body> {
      return std::nullopt;
    })) << c.name;
    // Rebuilding the first scope only: the others stay shared.
    size_t k = 0;
    std::optional<Exp> first = map_nested(c.e, [&](const NestedScope& s) -> std::optional<Body> {
      if (k++ > 0) return std::nullopt;
      return *s.body;
    });
    ASSERT_TRUE(first) << c.name;
    size_t i = 0;
    for_each_nested(*first, [&](const NestedScope& s) {
      if (i == 0) {
        EXPECT_NE(s.body, c.expect[i].body) << c.name;
      } else {
        EXPECT_EQ(s.body, c.expect[i].body) << c.name;
      }
      ++i;
    });
    EXPECT_EQ(i, c.expect.size()) << c.name;
  }
}

TEST(Ir, MapNestedKeepsNonScopeFields) {
  ProgBuilder pb("fields");
  for (const ScopeCase& c : scope_cases(pb.body())) {
    std::optional<Exp> rebuilt =
        map_nested(c.e, [](const NestedScope& s) -> std::optional<Body> { return *s.body; });
    ASSERT_TRUE(rebuilt) << c.name;
    const Exp& out = *rebuilt;
    ASSERT_EQ(out.index(), c.e.index()) << c.name;
    if (const auto* o = std::get_if<OpMap>(&c.e)) {
      const auto& n = std::get<OpMap>(out);
      EXPECT_EQ(n.fused, o->fused);
      EXPECT_EQ(n.args, o->args);
      EXPECT_EQ(n.f->params.size(), o->f->params.size());
      EXPECT_EQ(n.f->rets, o->f->rets);
    } else if (const auto* o = std::get_if<OpLoop>(&c.e)) {
      const auto& n = std::get<OpLoop>(out);
      EXPECT_EQ(n.stripmine, o->stripmine) << c.name;
      EXPECT_EQ(n.checkpoint_entry, o->checkpoint_entry) << c.name;
      EXPECT_EQ(n.while_bound, o->while_bound) << c.name;
      EXPECT_EQ(n.idx, o->idx) << c.name;
    } else if (const auto* o = std::get_if<OpReduce>(&c.e)) {
      EXPECT_EQ(std::get<OpReduce>(out).fused, o->fused) << c.name;
    } else if (const auto* o = std::get_if<OpHist>(&c.e)) {
      const auto& n = std::get<OpHist>(out);
      EXPECT_EQ(n.dest, o->dest) << c.name;
      EXPECT_EQ(n.vals, o->vals) << c.name;
    }
  }
}

} // namespace
