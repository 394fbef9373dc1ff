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

// Every scope-carrying op kind: if, for-loop, while-loop, map, reduce/scan/
// hist with and without a pre-lambda, withacc. Non-scope fields carry
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
    cases.push_back({with_pre ? "scanomap" : "scan", OpScan{op, {cf64(0.0)}, {xs}, pre, fused},
                     expect});
    cases.push_back({with_pre ? "histomap" : "hist",
                     OpHist{op, cf64(0.0), dest, inds, xs, pre, fused}, expect});
  }

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
    Exp same = map_nested(c.e, [&](const NestedScope& s) {
      mapped.push_back(s);
      return *s.body;
    });
    ASSERT_EQ(walked.size(), c.expect.size()) << c.name;
    ASSERT_EQ(mapped.size(), c.expect.size()) << c.name;
    for (size_t i = 0; i < c.expect.size(); ++i) {
      expect_same_scope(walked[i], c.expect[i], c.name, i);
      expect_same_scope(mapped[i], c.expect[i], c.name, i);
    }
    // The identity rewrite rebuilds every scope yet preserves the structure;
    // an emptying rewrite shows the hash does see the rebuilt bodies.
    EXPECT_EQ(exp_hash(same), exp_hash(c.e)) << c.name;
    Exp emptied = map_nested(c.e, [](const NestedScope& s) { return Body{{}, s.body->result}; });
    EXPECT_NE(exp_hash(emptied), exp_hash(c.e)) << c.name;
    for_each_nested(same, [&](const NestedScope& s) {
      for (const NestedScope& old : c.expect) EXPECT_NE(s.body, old.body) << c.name;
    });
  }
}

TEST(Ir, MapNestedKeepsNonScopeFields) {
  ProgBuilder pb("fields");
  for (const ScopeCase& c : scope_cases(pb.body())) {
    Exp out = map_nested(c.e, [](const NestedScope& s) { return *s.body; });
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
    } else if (const auto* o = std::get_if<OpScan>(&c.e)) {
      EXPECT_EQ(std::get<OpScan>(out).fused, o->fused) << c.name;
    } else if (const auto* o = std::get_if<OpHist>(&c.e)) {
      const auto& n = std::get<OpHist>(out);
      EXPECT_EQ(n.fused, o->fused) << c.name;
      EXPECT_EQ(n.dest, o->dest) << c.name;
      EXPECT_EQ(n.vals, o->vals) << c.name;
    }
  }
}

} // namespace
