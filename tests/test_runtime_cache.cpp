// Tests for the runtime hot-path machinery: the kernels a resolved program
// owns (one slot per lambda, shared by structurally equal programs, filled
// once under concurrent first runs; free-scalar rebinding, nested-map
// lifetime), the privatized-accumulator launches, and the slot-resolved
// environments (shadowing, nested scopes, loop frame reuse).

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <string>
#include <thread>

#include "core/ad.hpp"
#include "ir/builder.hpp"
#include "ir/typecheck.hpp"
#include "runtime/interp.hpp"
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

// The lambda of the first top-level map in `rp`'s body.
const Lambda& first_map(const ResolvedProg& rp) {
  for (const Stm& st : rp.fn.body.stms) {
    if (const auto* m = std::get_if<OpMap>(&st.e)) return *m->f;
  }
  throw std::logic_error("no top-level map");
}

TEST(ProgKernels, OneKernelServesDifferentFreeScalarBindings) {
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
  // Both launches took the kernel path, through the one kernel in the map
  // lambda's slot, which reads c as a free scalar.
  EXPECT_EQ(in.stats().kernel_maps.load(), 2u);
  auto rp = ProgCache::global().get(p);
  const LambdaKernel& lk = rp->map_kernel(first_map(*rp));
  ASSERT_TRUE(lk.kernel.has_value());
  EXPECT_EQ(lk.kernel->free_scalars.size(), 1u);
  EXPECT_EQ(&rp->map_kernel(first_map(*rp)), &lk);
}

TEST(ProgKernels, StructurallyIdenticalProgsShareResolution) {
  Prog p1 = scaled_map_prog();
  Prog p2 = scaled_map_prog();  // fresh module, same structure
  typecheck(p1);
  typecheck(p2);
  ArrayVal xs = make_f64_array({0.5, 1.5}, {2});

  Interp in;
  auto r1 = in.run(p1, {4.0, xs});
  const size_t progs_before = ProgCache::global().size();
  auto rp = ProgCache::global().get(p1);
  const LambdaKernel& lk = rp->map_kernel(first_map(*rp));
  auto r2 = in.run(p2, {4.0, xs});
  // p2 runs p1's resolved program, so its launch used the kernel p1's run
  // compiled.
  EXPECT_EQ(ProgCache::global().size(), progs_before);
  EXPECT_EQ(ProgCache::global().get(p2), rp);
  EXPECT_EQ(&rp->map_kernel(first_map(*rp)), &lk);
  EXPECT_EQ(in.stats().kernel_maps.load(), 2u);
  for (int64_t i = 0; i < 2; ++i) {
    EXPECT_DOUBLE_EQ(as_array(r1[0]).get_f64(i), as_array(r2[0]).get_f64(i));
  }
}

// Regression for an old lifetime hazard: a nested kernel launch used to
// clear the thread-local vector keeping the outer launch's kernel alive.
// Outer map is general-path (rank-1 rows), inner maps are kernel-compiled.
TEST(ProgKernels, NestedMapsKeepKernelsAlive) {
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

// One lambda of each SOAC form: a map, a reduce, a scan and a hist whose
// operator (b + a) the recognizer rejects, so each launches a kernel, plus a
// top-level scalar-glue block. The constants keep the structure unlike any
// other program of this binary, so the first run below resolves it.
Prog every_form_prog() {
  ProgBuilder pb("every_form");
  Var c = pb.param("c", f64());
  Var xs = pb.param("xs", arr_f64(1));
  Var is = pb.param("is", arr(ScalarType::I64, 1));
  Builder& b = pb.body();
  auto swapped_add = [](Builder& k) {
    return k.lam({f64(), f64()}, [](Builder& o, const std::vector<Var>& p) {
      return std::vector<Atom>{Atom(o.add(p[1], p[0]))};
    });
  };
  Var ys = b.map1(b.lam({f64()},
                        [&](Builder& k, const std::vector<Var>& p) {
                          return std::vector<Atom>{Atom(k.add(k.mul(p[0], c), k.sin(p[0])))};
                        }),
                  {xs});
  Var s = b.reduce1(swapped_add(b), cf64(0.0), {ys});
  Var sc = b.scan1(swapped_add(b), cf64(0.0), {ys});
  Var dest = b.replicate(ci64(5), cf64(0.8125));
  Var h = b.hist(swapped_add(b), cf64(0.0), dest, is, ys);
  Var t = b.mul(s, c);
  Var u = b.add(t, cf64(0.8125));
  return pb.finish({Atom(u), Atom(sc), Atom(h)});
}

// Bit pattern of a result list, for exact comparison.
std::vector<double> flat(const std::vector<Value>& vs) {
  std::vector<double> out;
  for (const Value& v : vs) {
    if (is_array(v)) {
      for (double x : to_f64_vec(as_array(v))) out.push_back(x);
    } else {
      out.push_back(as_f64(v));
    }
  }
  return out;
}

// Four threads make the first runs of one program at once, through run and
// run_batched: every slot of the shared resolved program (and its batched
// form) is filled once, every thread sees the same kernels, and the results
// match a later sequential run bit for bit.
TEST(ProgKernels, ConcurrentFirstRunsFillEachSlotOnce) {
  Prog p = every_form_prog();
  typecheck(p);
  const int64_t n = 300;
  support::Rng rng(61);
  auto args_for = [&](double c) {
    const auto un = static_cast<size_t>(n);
    return std::vector<Value>{c, make_f64_array(rng.uniform_vec(un, -1.0, 1.0), {n}),
                              make_i64_array(rng.index_vec(un, 5), {n})};
  };
  const std::vector<std::vector<Value>> req = {args_for(0.5), args_for(-1.25)};
  const InterpOptions opts{.parallel = false};

  constexpr int kThreads = 4;
  struct Seen {
    std::vector<Value> single;
    std::vector<std::vector<Value>> batched;
    std::vector<const void*> slots;
    std::string error;
  };
  std::vector<Seen> seen(kThreads);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      Interp in(opts);
      Seen& s = seen[static_cast<size_t>(t)];
      try {
        if (t % 2 == 0) {
          s.single = in.run(p, req[0]);
          s.batched = in.run_batched(p, req);
        } else {
          s.batched = in.run_batched(p, req);
          s.single = in.run(p, req[0]);
        }
        auto rp = ProgCache::global().get(p);
        s.slots.push_back(rp.get());
        s.slots.push_back(&rp->batched(p));
        for (const Stm& st : rp->fn.body.stms) {
          const LambdaKernel* lk = nullptr;
          if (const auto* m = std::get_if<OpMap>(&st.e)) lk = &rp->map_kernel(*m->f);
          if (const auto* r = std::get_if<OpReduce>(&st.e)) {
            lk = &rp->fold_kernel(*r->op, r->pre.get(), false);
          }
          if (const auto* r = std::get_if<OpScan>(&st.e)) {
            lk = &rp->fold_kernel(*r->op, nullptr, true);
          }
          if (const auto* r = std::get_if<OpHist>(&st.e)) {
            lk = &rp->fold_kernel(*r->op, nullptr, false);
          }
          if (lk == nullptr) continue;
          s.slots.push_back(lk->kernel ? &*lk->kernel : nullptr);
          s.slots.push_back(lk->vx ? &*lk->vx : nullptr);
        }
      } catch (const std::exception& e) {
        s.error = e.what();
      }
    });
  }
  for (auto& th : threads) th.join();

  Interp ref(opts);
  const std::vector<double> want0 = flat(ref.run(p, req[0]));
  const std::vector<double> want1 = flat(ref.run(p, req[1]));
  EXPECT_EQ(ref.stats().kernel_maps.load(), 2u);
  EXPECT_EQ(ref.stats().kernel_reduces.load(), 2u);
  EXPECT_EQ(ref.stats().kernel_scans.load(), 2u);
  EXPECT_EQ(ref.stats().kernel_hists.load(), 2u);
  EXPECT_EQ(ref.stats().scalar_blocks.load(), 2u);
  ASSERT_EQ(seen[0].slots.size(), 2u + 4u * 2u);
  for (size_t i = 2; i < seen[0].slots.size(); i += 2) {
    EXPECT_NE(seen[0].slots[i], nullptr) << "slot " << i / 2 - 1 << " did not compile";
  }
  for (const Seen& s : seen) {
    EXPECT_EQ(s.error, "");
    EXPECT_EQ(flat(s.single), want0);
    ASSERT_EQ(s.batched.size(), 2u);
    EXPECT_EQ(flat(s.batched[0]), want0);
    EXPECT_EQ(flat(s.batched[1]), want1);
    EXPECT_EQ(s.slots, seen[0].slots);
  }
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
