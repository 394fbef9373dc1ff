// Tests for the runtime hot-path machinery: the process-wide kernel cache
// (structural-hash keying, free-scalar rebinding, nested-map lifetime), the
// privatized-accumulator launches, and the slot-resolved environments
// (shadowing, nested scopes, loop frame reuse).

#include <gtest/gtest.h>

#include <cmath>

#include "core/ad.hpp"
#include "ir/builder.hpp"
#include "ir/typecheck.hpp"
#include "runtime/interp.hpp"
#include "runtime/kernel_cache.hpp"
#include "runtime/resolve.hpp"
#include "support/rng.hpp"

namespace {

using namespace npad;
using namespace npad::ir;
using namespace npad::rt;

// map (\x -> x*c + sin(c) + 7.25) xs — c stays a free scalar of the kernel,
// so one cached kernel must serve launches with different bindings of c.
Prog scaled_map_prog() {
  ProgBuilder pb("scaled_map");
  Var c = pb.param("c", f64());
  Var xs = pb.param("xs", arr_f64(1));
  Builder& b = pb.body();
  Var ys = b.map1(b.lam({f64()},
                        [&](Builder& k, const std::vector<Var>& p) {
                          Var t = k.add(k.mul(p[0], c), k.add(k.sin(c), cf64(7.25)));
                          return std::vector<Atom>{Atom(t)};
                        }),
                  {xs});
  return pb.finish({Atom(ys)});
}

TEST(KernelCache, HitServesDifferentFreeScalarBindings) {
  Prog p = scaled_map_prog();
  typecheck(p);
  ArrayVal xs = make_f64_array({1.0, 2.0, 3.0, 4.0}, {4});

  Interp in;
  auto r1 = in.run(p, {2.0, xs});
  auto r2 = in.run(p, {-3.5, xs});

  for (int64_t i = 0; i < 4; ++i) {
    const double x = 1.0 + static_cast<double>(i);
    EXPECT_DOUBLE_EQ(as_array(r1[0]).get_f64(i), x * 2.0 + std::sin(2.0) + 7.25);
    EXPECT_DOUBLE_EQ(as_array(r2[0]).get_f64(i), x * -3.5 + std::sin(-3.5) + 7.25);
  }
  // Both launches took the kernel path; the second reused the cached kernel.
  EXPECT_EQ(in.stats().kernel_maps.load(), 2u);
  EXPECT_GE(in.stats().kernel_cache_hits.load(), 1u);
}

TEST(KernelCache, StructurallyIdenticalProgsShareResolution) {
  Prog p1 = scaled_map_prog();
  Prog p2 = scaled_map_prog();  // fresh module, same structure
  typecheck(p1);
  typecheck(p2);
  ArrayVal xs = make_f64_array({0.5, 1.5}, {2});

  Interp in;
  auto r1 = in.run(p1, {4.0, xs});
  const size_t progs_before = ProgCache::global().size();
  const size_t kernels_before = KernelCache::global().size();
  auto r2 = in.run(p2, {4.0, xs});
  EXPECT_EQ(ProgCache::global().size(), progs_before);
  EXPECT_EQ(KernelCache::global().size(), kernels_before);
  for (int64_t i = 0; i < 2; ++i) {
    EXPECT_DOUBLE_EQ(as_array(r1[0]).get_f64(i), as_array(r2[0]).get_f64(i));
  }
}

// Regression for the pre-cache lifetime hazard: a nested kernel launch used
// to clear the thread-local vector keeping the outer launch's kernel alive.
// Outer map is general-path (rank-1 rows), inner maps are kernel-compiled.
TEST(KernelCache, NestedMapsKeepKernelsAlive) {
  ProgBuilder pb("nested");
  Var c = pb.param("c", f64());
  Var m = pb.param("m", arr_f64(2));
  Builder& b = pb.body();
  Var rows = b.map1(b.lam({arr_f64(1)},
                          [&](Builder& outer, const std::vector<Var>& rp) {
                            Var sq = outer.map1(
                                outer.lam({f64()},
                                          [&](Builder& inner, const std::vector<Var>& ip) {
                                            Var t = inner.mul(inner.mul(ip[0], ip[0]), c);
                                            return std::vector<Atom>{Atom(t)};
                                          }),
                                {rp[0]});
                            Var s = outer.reduce1(outer.add_op(), cf64(0.0), {sq});
                            return std::vector<Atom>{Atom(s)};
                          }),
                    {m});
  Prog p = pb.finish({Atom(rows)});
  typecheck(p);

  ArrayVal mat = make_f64_array({1, 2, 3, 4, 5, 6}, {2, 3});
  auto r = run_prog(p, {2.0, mat});
  const ArrayVal& out = as_array(r[0]);
  EXPECT_DOUBLE_EQ(out.get_f64(0), (1.0 + 4.0 + 9.0) * 2.0);
  EXPECT_DOUBLE_EQ(out.get_f64(1), (16.0 + 25.0 + 36.0) * 2.0);
}

// f(xs, is) = sum_j xs[is_j]^2; its vjp accumulates 2*xs[i]*seed into the
// xs adjoint through an accumulator — the contended-histogram pattern.
Prog gather_sq_prog() {
  ProgBuilder pb("gather_sq");
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
  return pb.finish({Atom(s)});
}

TEST(PrivatizedAccumulators, MatchAtomicGradientsOnVjpHistogram) {
  Prog p = gather_sq_prog();
  typecheck(p);
  Prog grad = ad::vjp(p);
  typecheck(grad);

  const int64_t n = 100000, m = 64;
  support::Rng rng(7);
  std::vector<Value> args = {make_f64_array(rng.normal_vec(static_cast<size_t>(m)), {m}),
                             make_i64_array(rng.index_vec(static_cast<size_t>(n), m), {n}), 1.0};

  InterpOptions atomic_opts;
  atomic_opts.privatize_accs = false;
  atomic_opts.grain = 512;  // force fan-out on multi-core machines
  InterpOptions priv_opts = atomic_opts;
  priv_opts.privatize_accs = true;
  priv_opts.privatize_min_iters = 1024;

  Interp atomic_in(atomic_opts);
  Interp priv_in(priv_opts);
  auto ra = atomic_in.run(grad, args);
  auto rp = priv_in.run(grad, args);

  ASSERT_EQ(ra.size(), rp.size());
  const ArrayVal& ga = as_array(ra[1]);
  const ArrayVal& gp = as_array(rp[1]);
  ASSERT_EQ(ga.elems(), m);
  ASSERT_EQ(gp.elems(), m);
  for (int64_t i = 0; i < m; ++i) {
    EXPECT_NEAR(ga.get_f64(i), gp.get_f64(i), 1e-12 * std::max(1.0, std::fabs(ga.get_f64(i))));
  }
  EXPECT_GT(priv_in.stats().privatized_updates.load(), 0u);
  EXPECT_GT(atomic_in.stats().atomic_updates.load(), 0u);
  EXPECT_EQ(atomic_in.stats().privatized_updates.load(), 0u);
}

// Zero-extent maps must still thread accumulators through (regression: the
// n==0 branch used to drop acc results, crashing the enclosing withacc).
TEST(PrivatizedAccumulators, EmptyMapThreadsAccumulatorThrough) {
  Prog p = gather_sq_prog();
  typecheck(p);
  Prog grad = ad::vjp(p);
  std::vector<Value> args = {make_f64_array({1.0, 2.0, 3.0}, {3}), make_i64_array({}, {0}), 1.0};
  auto r = run_prog(grad, args);
  const ArrayVal& g = as_array(r[1]);
  ASSERT_EQ(g.elems(), 3);
  for (int64_t i = 0; i < 3; ++i) EXPECT_DOUBLE_EQ(g.get_f64(i), 0.0);
}

// ------------------------------------------------------ slot environments ---

// Shadowing in a straight-line body: a re-bound id must shadow for later
// uses while earlier uses keep the outer value.
TEST(SlotEnv, ShadowingInStraightLineBody) {
  auto mod = std::make_shared<Module>();
  Var x = mod->fresh("x");
  Var a = mod->fresh("a");
  Var r = mod->fresh("r");
  Function fn;
  fn.name = "shadow";
  fn.params = {Param{x, f64()}};
  fn.rets = {f64()};
  Body b;
  b.stms.push_back(stm1(a, f64(), OpBin{BinOp::Add, Atom(x), cf64(1.0)}));   // a = x + 1
  b.stms.push_back(stm1(x, f64(), OpBin{BinOp::Mul, Atom(a), cf64(10.0)}));  // x = a * 10
  b.stms.push_back(stm1(r, f64(), OpBin{BinOp::Add, Atom(x), Atom(a)}));     // r = x + a
  b.result = {Atom(r)};
  fn.body = std::move(b);
  Prog p{mod, std::move(fn)};

  auto out = run_prog(p, {2.0});
  EXPECT_DOUBLE_EQ(as_f64(out[0]), 33.0);  // a=3, x'=30, r=33
}

// A lambda that re-binds an enclosing id: the inner binding must be visible
// only inside the lambda, exactly as the old hash-map Env chain behaved.
TEST(SlotEnv, LambdaRebindingDoesNotLeak) {
  auto mod = std::make_shared<Module>();
  Var x = mod->fresh("x");
  Var xs = mod->fresh("xs");
  Var y = mod->fresh("y");
  Var e = mod->fresh("e");
  Var z = mod->fresh("z");
  Var w = mod->fresh("w");

  Function fn;
  fn.name = "leak";
  fn.params = {Param{x, f64()}, Param{xs, arr_f64(1)}};
  fn.rets = {arr_f64(1), f64()};

  Lambda lam;
  lam.params = {Param{e, f64()}};
  lam.rets = {f64()};
  Body lb;
  // Re-binds the *outer* y inside the lambda.
  lb.stms.push_back(stm1(y, f64(), OpBin{BinOp::Add, Atom(e), cf64(100.0)}));
  lb.result = {Atom(y)};
  lam.body = std::move(lb);

  Body b;
  b.stms.push_back(stm1(y, f64(), OpBin{BinOp::Mul, Atom(x), cf64(2.0)}));  // y = 2x
  b.stms.push_back(stm1(z, arr_f64(1), OpMap{make_lambda(std::move(lam)), {xs}}));
  b.stms.push_back(stm1(w, f64(), OpBin{BinOp::Add, Atom(y), cf64(0.0)}));  // outer y survives
  b.result = {Atom(z), Atom(w)};
  fn.body = std::move(b);
  Prog p{mod, std::move(fn)};

  ArrayVal arr = make_f64_array({1.0, 2.0, 3.0}, {3});
  auto out = run_prog(p, {2.0, arr});
  const ArrayVal& z_out = as_array(out[0]);
  EXPECT_DOUBLE_EQ(z_out.get_f64(0), 101.0);
  EXPECT_DOUBLE_EQ(z_out.get_f64(1), 102.0);
  EXPECT_DOUBLE_EQ(z_out.get_f64(2), 103.0);
  EXPECT_DOUBLE_EQ(as_f64(out[1]), 4.0);
}

TEST(SlotEnv, LoopFrameReuseForAndWhile) {
  // for-loop: sum of squares 0..9 through a loop-carried param.
  {
    ProgBuilder pb("sumsq");
    Var n = pb.param("n", i64());
    Builder& b = pb.body();
    auto outs = b.loop_for({cf64(0.0)}, Atom(n), [&](Builder& c, Var i, const std::vector<Var>& ps) {
      Var fi = c.to_f64(i);
      Var acc = c.add(ps[0], c.mul(fi, fi));
      return std::vector<Atom>{Atom(acc)};
    });
    Prog p = pb.finish({Atom(outs[0])});
    typecheck(p);
    auto out = run_prog(p, {int64_t{10}});
    EXPECT_DOUBLE_EQ(as_f64(out[0]), 285.0);
  }
  // while-loop: double until >= 1000.
  {
    ProgBuilder pb("dbl");
    Var x0 = pb.param("x0", f64());
    Builder& b = pb.body();
    auto outs = b.loop_while(
        {Atom(x0)},
        [&](Builder& c, const std::vector<Var>& ps) {
          return std::vector<Atom>{Atom(c.lt(ps[0], cf64(1000.0)))};
        },
        [&](Builder& c, Var, const std::vector<Var>& ps) {
          return std::vector<Atom>{Atom(c.mul(ps[0], cf64(2.0)))};
        });
    Prog p = pb.finish({Atom(outs[0])});
    typecheck(p);
    auto out = run_prog(p, {3.0});
    EXPECT_DOUBLE_EQ(as_f64(out[0]), 1536.0);
  }
}

// Branch-local bindings live in the enclosing frame; both branches must
// compute correctly and the general map path must agree with kernels off.
TEST(SlotEnv, IfBranchBindingsShareEnclosingFrame) {
  ProgBuilder pb("branches");
  Var x = pb.param("x", f64());
  Builder& b = pb.body();
  Var c = b.lt(x, cf64(0.0));
  Var r = b.if1(
      c,
      [&](Builder& t) {
        Var u = t.mul(x, cf64(-3.0));
        Var v = t.add(u, cf64(1.0));
        return std::vector<Atom>{Atom(v)};
      },
      [&](Builder& e) {
        Var u = e.mul(x, cf64(5.0));
        Var v = e.sub(u, cf64(2.0));
        return std::vector<Atom>{Atom(v)};
      });
  Prog p = pb.finish({Atom(r)});
  typecheck(p);
  EXPECT_DOUBLE_EQ(as_f64(run_prog(p, {-2.0})[0]), 7.0);
  EXPECT_DOUBLE_EQ(as_f64(run_prog(p, {2.0})[0]), 8.0);
}

} // namespace
