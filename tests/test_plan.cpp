// Compiled execution plans (runtime/plan.hpp): conformance and counters.
//
// The contract under test is the one plan.hpp states: plans never change
// results. For each workload we run the program planned (the default) and
// plan-disabled (InterpOptions::use_plans = false) and require the outputs to
// be bit-exact — scalars compared as raw bit patterns, arrays as shape plus
// per-element bits. On top of the conformance sweep:
//
//   * counter plumbing: plans_compiled / plan_launches / plan_scalar_blocks /
//     plan_hoisted_buffers fire on a hand-built program that exercises every
//     step kind;
//   * the LSTM launch-count acceptance: one objective+gradient evaluation at
//     the bench D0 shape stays far below the pre-plan launch level;
//   * steady-state pool traffic: once a planned loop's buffer ring is warm,
//     extra iterations cost (almost) no pool round-trips;
//   * fallback coverage: while-free loops with data-dependent extents or
//     OpIf bodies, empty loops, and one-iteration loops all take the general
//     path (or degenerate planned paths) and still match bit-exact.

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
#include "runtime/plan.hpp"
#include "support/rng.hpp"

namespace {

using namespace npad::ir;
using namespace npad::rt;

// Plans pinned on regardless of NPAD_USE_PLANS (the CI plan-disabled leg
// must not turn these tests into no-ops).
InterpOptions plans_on() {
  InterpOptions o;
  o.use_plans = true;
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

// Runs `p` planned and plan-disabled and asserts bit-exact agreement.
// Returns the planned result for further checks.
std::vector<Value> expect_plan_conformant(const Prog& p, const std::vector<Value>& args,
                                          const char* what) {
  InterpOptions planned;
  planned.use_plans = true;  // pinned: tests must not depend on NPAD_USE_PLANS
  InterpOptions general;
  general.use_plans = false;
  auto a = run_prog(p, args, planned);
  auto b = run_prog(p, args, general);
  EXPECT_EQ(fingerprint(a), fingerprint(b)) << what << ": planned vs plan-disabled diverged";
  // And planned execution itself is deterministic across runs.
  EXPECT_EQ(fingerprint(a), fingerprint(run_prog(p, args, planned)))
      << what << ": planned execution is not deterministic";
  return a;
}

// ------------------------------------------------- app conformance (fwd+rev)

TEST(PlanConformance, GmmObjectiveAndGradient) {
  npad::support::Rng rng(31);
  auto g = npad::apps::gmm_gen(rng, 64, 4, 5);
  Prog p = npad::apps::gmm_ir_objective();
  typecheck(p);
  auto args = npad::apps::gmm_ir_args(g);
  expect_plan_conformant(p, args, "gmm objective");

  Prog grad = npad::ad::vjp(p);
  typecheck(grad);
  args.emplace_back(1.0);
  expect_plan_conformant(grad, args, "gmm gradient");
}

TEST(PlanConformance, LstmObjectiveAndGradientOptimized) {
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
  expect_plan_conformant(obj, args, "lstm objective");
  args.emplace_back(1.0);
  expect_plan_conformant(grad, args, "lstm gradient");
}

TEST(PlanConformance, KmeansCostAndGradient) {
  npad::support::Rng rng(33);
  auto d = npad::apps::kmeans_gen(rng, 48, 3, 4);
  Prog p = npad::apps::kmeans_ir_cost();
  typecheck(p);
  std::vector<Value> args = {make_f64_array(d.centroids, {d.k, d.d}),
                             make_f64_array(d.points, {d.n, d.d})};
  expect_plan_conformant(p, args, "kmeans cost");

  Prog grad = npad::ad::vjp(p);
  typecheck(grad);
  args.emplace_back(1.0);
  expect_plan_conformant(grad, args, "kmeans gradient");
}

// --------------------------------------------------------- step counters ---

// A planned loop whose body exercises every plan step kind: a scalar-glue
// run (folds into one Scalars block), a kernelizable rank-1 map (MapLaunch
// with the kernel pre-bound), and a carried array (hoisted launch buffers).
Prog all_steps_prog(int64_t iters) {
  ProgBuilder pb("steps");
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

TEST(PlanCounters, EveryStepKindFires) {
  Prog p = all_steps_prog(10);
  typecheck(p);
  npad::support::Rng rng(34);
  std::vector<Value> args = {0.7,
                             make_f64_array(rng.uniform_vec(4096, -1.0, 1.0), {4096})};
  Interp in{plans_on()};
  auto r = in.run(p, args);
  ASSERT_EQ(r.size(), 1u);
  const auto& st = in.stats();
  // Top-level plan + the loop-body plan.
  EXPECT_GE(st.plans_compiled.load(), 2u);
  // One MapLaunch per iteration.
  EXPECT_GE(st.plan_launches.load(), 10u);
  // One Scalars block per iteration plus the top-level run.
  EXPECT_GE(st.plan_scalar_blocks.load(), 11u);
  // Double-buffered carry: after a two-iteration warm-up every iteration's
  // launch buffer comes from the loop ring, not the pool.
  EXPECT_GE(st.plan_hoisted_buffers.load(), 7u);

  // The counters describe a real execution: conformance still holds.
  expect_plan_conformant(p, args, "all-steps program");
}

// -------------------------------------------------------------- fallbacks --

// Data-dependent extent: the body materializes iota(carry), so the launch
// extent changes across iterations — loop_extents_invariant must reject it
// and the loop stays on the general evaluator (no hoisting ring).
TEST(PlanFallback, DataDependentExtentLoop) {
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

  Interp in{plans_on()};
  auto r = in.run(p, {});
  EXPECT_EQ(std::get<int64_t>(r[0]), 7);  // 1 -> 2 -> 3 -> ... -> 7
  // The loop was not planned: no buffers were hoisted.
  EXPECT_EQ(in.stats().plan_hoisted_buffers.load(), 0u);
  expect_plan_conformant(p, {}, "data-dependent extent loop");
}

// OpIf in the body keeps the loop on the general path (branch-dependent
// extents are not provable), but results still agree bit-exact.
TEST(PlanFallback, OpIfInLoopBody) {
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
  expect_plan_conformant(p, args, "OpIf loop body");
}

TEST(PlanFallback, EmptyAndSingleIterationLoops) {
  for (int64_t iters : {int64_t{0}, int64_t{1}}) {
    Prog p = all_steps_prog(iters);
    typecheck(p);
    npad::support::Rng rng(36);
    std::vector<Value> args = {0.3,
                               make_f64_array(rng.uniform_vec(256, -1.0, 1.0), {256})};
    auto r = expect_plan_conformant(p, args, iters == 0 ? "empty loop" : "one-iteration loop");
    ASSERT_TRUE(is_array(r[0]));
    EXPECT_EQ(as_array(r[0]).shape, (std::vector<int64_t>{256}));
  }
}

// ------------------------------------------------ LSTM launch acceptance ---

TEST(PlanAcceptance, LstmLaunchCountStaysLow) {
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

  Interp in{plans_on()};
  in.run(obj, args);
  in.run(grad, gargs);
  // Before this PR one objective+gradient evaluation at this shape issued
  // tens of thousands of batched kernel spans (~60k: per-timestep per-gate
  // row launches); inlined inner SOACs plus planned launches cut that by
  // ~40x (measured ~1.5k). The ceiling leaves 2x headroom over the measured
  // level — still >10x below the old level — so a regression that undoes the
  // win fails loudly without the test being brittle.
  EXPECT_LE(in.stats().batched_launches.load(), 3000u)
      << "LSTM launch count regressed: batched_launches="
      << in.stats().batched_launches.load();
}

// --------------------------------------------------- steady-state pooling --

// Pool round-trips per iteration in the planned steady state are ~0: compare
// fresh-interpreter runs at n and 4n iterations — the extra 3n iterations
// must not add pool traffic beyond a small warm-up slack.
TEST(PlanSteadyState, ExtraIterationsAddNoPoolTraffic) {
  npad::support::Rng rng(37);
  std::vector<Value> args = {0.9,
                             make_f64_array(rng.uniform_vec(4096, -1.0, 1.0), {4096})};
  auto traffic = [&](int64_t iters) {
    Prog p = all_steps_prog(iters);
    typecheck(p);
    Interp in{plans_on()};
    in.run(p, args);
    return in.stats().pool_hits.load() + in.stats().pool_misses.load();
  };
  const uint64_t t10 = traffic(10);
  const uint64_t t40 = traffic(40);
  EXPECT_LE(t40, t10 + 2) << "planned loop iterations still round-trip the pool: "
                          << t10 << " @10 iters vs " << t40 << " @40 iters";
}

// ----------------------------------------- applied lambdas and OpIf arms ---

// A general-path rows map whose lambda body carries its own tabled plan: the
// inner map + reduce are launches, and the OpIf keeps the body off the
// kernel tier (row-stream params would otherwise compile the whole lambda),
// so every row crosses the planned apply() path and a General OpIf step.
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
              // Arms with their own launches, run through General steps.
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

TEST(PlanCounters, AppliedLambdaBodiesWithBranches) {
  Prog p = rows_sum_prog();
  typecheck(p);
  npad::support::Rng rng(40);
  // Mixed-sign rows: both OpIf arms execute across the map, so the
  // conformance check covers both arms.
  std::vector<Value> args = {make_f64_array(rng.uniform_vec(32 * 16, -3.0, 1.0), {32, 16})};
  Interp in{plans_on()};
  auto r = in.run(p, args);
  ASSERT_EQ(r.size(), 1u);
  const auto& st = in.stats();
  // Every row applies its lambda through the tabled body plan.
  EXPECT_GE(st.plan_lambda_bodies.load(), 32u);
  // The inner map's per-row launch buffers recycle through the launch arena.
  EXPECT_GT(st.arena_reuses.load(), 0u);
  expect_plan_conformant(p, args, "general rows map with planned lambda body");
}

// Both arms of a top-level OpIf stay bit-exact against the plan-disabled
// path.
TEST(PlanConformance, IfBothArmsBitExact) {
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
    expect_plan_conformant(p, args, x0 > 0 ? "if true arm" : "if false arm");
  }
}

// Launch arenas absorb per-row buffer churn: once the per-thread ring is
// warm, extra rows of the general map must not add pool round-trips — the
// inner map's launch buffers are recycled in place of pool traffic.
TEST(PlanSteadyState, ArenaAbsorbsPerRowPoolTraffic) {
  Prog p = rows_sum_prog();
  typecheck(p);
  auto traffic = [&](int64_t rows, uint64_t* reuses) {
    npad::support::Rng rng(41);
    std::vector<Value> args = {
        make_f64_array(rng.uniform_vec(rows * 16, -1.0, 1.0), {rows, 16})};
    Interp in{plans_on()};
    in.run(p, args);
    *reuses = in.stats().arena_reuses.load();
    return in.stats().pool_hits.load() + in.stats().pool_misses.load();
  };
  uint64_t reuse_small = 0, reuse_big = 0;
  const uint64_t t_small = traffic(8, &reuse_small);
  const uint64_t t_big = traffic(64, &reuse_big);
  // 56 extra rows: pool traffic stays flat up to per-thread warm-up slack
  // (each worker's arena primes its own ring)...
  EXPECT_LE(t_big, t_small + 32)
      << "per-row buffers still round-trip the pool: " << t_small << " @8 rows vs " << t_big
      << " @64 rows";
  // ...because the extra rows were fed from the arena instead.
  EXPECT_GT(reuse_big, reuse_small);
}

// Plan cache behavior: repeated runs of the same resolved program compile
// the plan once (process-wide), like the kernel cache.
TEST(PlanCache, CompilesOncePerProgram) {
  Prog p = all_steps_prog(4);
  typecheck(p);
  npad::support::Rng rng(38);
  std::vector<Value> args = {0.5,
                             make_f64_array(rng.uniform_vec(128, -1.0, 1.0), {128})};
  Interp first{plans_on()};
  first.run(p, args);
  const uint64_t compiled_first = first.stats().plans_compiled.load();
  EXPECT_GE(compiled_first, 2u);  // top-level + loop body
  Interp second{plans_on()};
  second.run(p, args);
  EXPECT_EQ(second.stats().plans_compiled.load(), 0u)
      << "second run recompiled a cached plan";
}

} // namespace
