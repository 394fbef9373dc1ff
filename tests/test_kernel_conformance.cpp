// Conformance suite for the kernel-compiled map fast path: for every scalar
// operator, a map built around it must produce bit-identical results under
// the kernel VM and the general interpreter (parameterized sweep), including
// i64 index arithmetic, gathers, select chains and accumulator updates.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>

#include "apps/gmm.hpp"
#include "apps/kmeans.hpp"
#include "apps/lstm.hpp"
#include "core/ad.hpp"
#include "ir/builder.hpp"
#include "ir/typecheck.hpp"
#include "ir/visit.hpp"
#include "opt/fuse.hpp"
#include "opt/pipeline.hpp"
#include "runtime/interp.hpp"
#include "runtime/vexec.hpp"
#include "support/fault.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace {

using namespace npad;
using namespace npad::ir;
using rt::Value;

// The tier-1 container may expose a single core, which would make every
// fan-out path silently degrade to the sequential one. Force a multi-worker
// pool before its first lazy construction so the privatized and atomic hist
// strategies — and the chunked reduce/scan paths — actually execute. An
// explicitly set NPAD_NUM_THREADS wins (overwrite = 0).
[[maybe_unused]] const int kForcePoolWidth = [] {
  setenv("NPAD_NUM_THREADS", "4", /*overwrite=*/0);
  return 0;
}();

struct OpCase {
  const char* name;
  std::function<Var(Builder&, Var, Var)> build;  // scalar f64 body
};

class KernelBinOp : public ::testing::TestWithParam<int> {};

const OpCase kCases[] = {
    {"add", [](Builder& c, Var a, Var b) { return c.add(a, b); }},
    {"sub", [](Builder& c, Var a, Var b) { return c.sub(a, b); }},
    {"mul", [](Builder& c, Var a, Var b) { return c.mul(a, b); }},
    {"div", [](Builder& c, Var a, Var b) { return c.div(a, Atom(c.add(b, cf64(3.0)))); }},
    {"min", [](Builder& c, Var a, Var b) { return c.min(a, b); }},
    {"max", [](Builder& c, Var a, Var b) { return c.max(a, b); }},
    {"pow", [](Builder& c, Var a, Var b) { return c.pow(Atom(c.abs(a)), b); }},
    {"exp", [](Builder& c, Var a, Var) { return c.exp(a); }},
    {"log", [](Builder& c, Var a, Var) { return c.log(Atom(c.add(c.abs(a), cf64(0.1)))); }},
    {"sqrt", [](Builder& c, Var a, Var) { return c.sqrt(Atom(c.abs(a))); }},
    {"sin", [](Builder& c, Var a, Var) { return c.sin(a); }},
    {"cos", [](Builder& c, Var a, Var) { return c.cos(a); }},
    {"tanh", [](Builder& c, Var a, Var) { return c.tanh(a); }},
    {"abs", [](Builder& c, Var a, Var) { return c.abs(a); }},
    {"neg", [](Builder& c, Var a, Var) { return c.neg(a); }},
    {"lgamma", [](Builder& c, Var a, Var) { return c.lgamma(Atom(c.add(c.abs(a), cf64(0.5)))); }},
    {"digamma",
     [](Builder& c, Var a, Var) {
       return c.un(UnOp::Digamma, Atom(c.add(c.abs(a), cf64(0.5))));
     }},
    {"select",
     [](Builder& c, Var a, Var b) { return c.select(Atom(c.lt(a, b)), Atom(c.mul(a, b)), a); }},
    {"cmp_chain",
     [](Builder& c, Var a, Var b) {
       Var g = c.logical_and(Atom(c.gt(a, cf64(0.0))), Atom(c.le(b, cf64(0.5))));
       return c.select(Atom(g), cf64(1.0), cf64(-1.0));
     }},
};

TEST_P(KernelBinOp, KernelMatchesInterpreter) {
  const OpCase& oc = kCases[static_cast<size_t>(GetParam())];
  support::Rng rng(static_cast<uint64_t>(GetParam()) + 100);
  ProgBuilder pb("k");
  Var xs = pb.param("xs", arr_f64(1));
  Var ys = pb.param("ys", arr_f64(1));
  Builder& b = pb.body();
  LambdaPtr f = b.lam({f64(), f64()}, [&](Builder& c, const std::vector<Var>& p) {
    return std::vector<Atom>{Atom(oc.build(c, p[0], p[1]))};
  });
  Var out = b.map1(std::move(f), {xs, ys});
  Prog p = pb.finish({Atom(out)});
  typecheck(p);
  // 67 is deliberately not a multiple of the lane width: the batched machine
  // must agree through both its full batches and its scalar tail loop.
  std::vector<Value> args = {rt::make_f64_array(rng.normal_vec(67), {67}),
                             rt::make_f64_array(rng.normal_vec(67), {67})};
  rt::Interp slow({.parallel = false, .use_kernels = false});
  auto ref = rt::to_f64_vec(rt::as_array(slow.run(p, args)[0]));
  for (int lanes : {1, 8}) {
    rt::Interp fast({.parallel = false, .use_kernels = true, .kernel_lanes = lanes});
    auto r1 = rt::to_f64_vec(rt::as_array(fast.run(p, args)[0]));
    ASSERT_EQ(r1.size(), ref.size()) << oc.name;
    for (size_t i = 0; i < r1.size(); ++i) {
      EXPECT_EQ(r1[i], ref[i]) << oc.name << " W=" << lanes << " at " << i;  // bit-identical
    }
    EXPECT_EQ(fast.stats().kernel_maps.load(), 1u) << oc.name << " did not kernelize";
    EXPECT_EQ(fast.stats().batched_launches.load(), lanes > 1 ? 1u : 0u) << oc.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Ops, KernelBinOp,
                         ::testing::Range(0, static_cast<int>(std::size(kCases))));

TEST(KernelConformance, IndexArithmeticAndGather) {
  // Strided gather with i64 div/mod arithmetic — the HAND regression case.
  ProgBuilder pb("g");
  Var xs = pb.param("xs", arr_f64(1));
  Builder& b = pb.body();
  Var is = b.iota(ci64(30));
  Var out = b.map1(b.lam({i64()},
                         [&](Builder& c, const std::vector<Var>& p) {
                           Var r = c.div(p[0], ci64(3));
                           Var q = c.mod(p[0], ci64(3));
                           Var idx = c.add(Atom(c.mul(r, ci64(3))), Atom(q));
                           return std::vector<Atom>{Atom(c.index(xs, {Atom(idx)}))};
                         }),
                   {is});
  Prog p = pb.finish({Atom(out)});
  typecheck(p);
  support::Rng rng(5);
  std::vector<Value> args = {rt::make_f64_array(rng.normal_vec(30), {30})};
  rt::Interp fast({.parallel = false, .use_kernels = true});
  rt::Interp slow({.parallel = false, .use_kernels = false});
  EXPECT_EQ(rt::to_f64_vec(rt::as_array(fast.run(p, args)[0])),
            rt::to_f64_vec(rt::as_array(slow.run(p, args)[0])));
  EXPECT_EQ(fast.stats().kernel_maps.load(), 1u);
}

TEST(KernelConformance, MultiDimGather) {
  ProgBuilder pb("g2");
  Var m = pb.param("m", arr_f64(2));
  Builder& b = pb.body();
  Var is = b.iota(ci64(12));
  Var out = b.map1(b.lam({i64()},
                         [&](Builder& c, const std::vector<Var>& p) {
                           Var r = c.div(p[0], ci64(4));
                           Var q = c.mod(p[0], ci64(4));
                           return std::vector<Atom>{Atom(c.index(m, {Atom(r), Atom(q)}))};
                         }),
                   {is});
  Prog p = pb.finish({Atom(out)});
  typecheck(p);
  support::Rng rng(6);
  std::vector<Value> args = {rt::make_f64_array(rng.normal_vec(12), {3, 4})};
  rt::Interp fast({.parallel = false, .use_kernels = true});
  rt::Interp slow({.parallel = false, .use_kernels = false});
  EXPECT_EQ(rt::to_f64_vec(rt::as_array(fast.run(p, args)[0])),
            rt::to_f64_vec(rt::as_array(slow.run(p, args)[0])));
}

TEST(KernelConformance, AccumulatorUpdatesMatch) {
  ProgBuilder pb("acc");
  Var dest = pb.param("dest", arr_f64(1));
  Var is = pb.param("is", arr(ScalarType::I64, 1));
  Var vs = pb.param("vs", arr_f64(1));
  Builder& b = pb.body();
  auto outs = b.withacc({dest}, [&](Builder& c, const std::vector<Var>& accs) {
    LambdaPtr f = c.lam({i64(), f64(), acc_of(arr_f64(1))},
                        [](Builder& cc, const std::vector<Var>& p) {
                          Var v2 = cc.mul(p[1], p[1]);
                          Var a2 = cc.upd_acc(p[2], {Atom(p[0])}, Atom(v2));
                          return std::vector<Atom>{Atom(a2)};
                        });
    return std::vector<Atom>{Atom(c.map(f, {is, vs, accs[0]})[0])};
  });
  Prog p = pb.finish({Atom(outs[0])});
  typecheck(p);
  support::Rng rng(7);
  const int64_t n = 200, m = 16;
  auto mk_args = [&] {
    return std::vector<Value>{
        rt::make_f64_array(std::vector<double>(static_cast<size_t>(m), 0.0), {m}),
        rt::make_i64_array(rng.index_vec(static_cast<size_t>(n), m), {n}),
        rt::make_f64_array(rng.normal_vec(static_cast<size_t>(n)), {n})};
  };
  auto args = mk_args();
  rt::Interp slow({.parallel = false, .use_kernels = false});
  auto r2 = rt::to_f64_vec(rt::as_array(slow.run(p, args)[0]));
  for (int lanes : {1, 8}) {
    rt::Interp fast({.parallel = false, .use_kernels = true, .kernel_lanes = lanes});
    auto r1 = rt::to_f64_vec(rt::as_array(fast.run(p, args)[0]));
    for (size_t i = 0; i < r1.size(); ++i) EXPECT_NEAR(r1[i], r2[i], 1e-12) << "W=" << lanes;
    EXPECT_EQ(fast.stats().kernel_maps.load(), 1u);
  }
}

// The batched machine must agree with the scalar machine across extents that
// exercise zero batches, exactly one batch, and every tail length.
TEST(KernelConformance, BatchedMatchesScalarAcrossSizes) {
  for (int64_t n : {0, 1, 3, 7, 8, 9, 15, 16, 17, 64, 65, 100}) {
    support::Rng rng(static_cast<uint64_t>(200 + n));
    ProgBuilder pb("bt");
    Var xs = pb.param("xs", arr_f64(1));
    Var ys = pb.param("ys", arr_f64(1));
    Builder& b = pb.body();
    Var out = b.map1(b.lam({f64(), f64()},
                           [](Builder& c, const std::vector<Var>& p) {
                             Var t = c.mul(Atom(c.tanh(p[0])), Atom(c.exp(p[1])));
                             Var u = c.select(Atom(c.gt(t, cf64(0.0))), Atom(c.sqrt(c.abs(t))),
                                              Atom(c.neg(t)));
                             return std::vector<Atom>{Atom(c.add(u, Atom(c.mul(p[0], p[1]))))};
                           }),
                     {xs, ys});
    Prog p = pb.finish({Atom(out)});
    typecheck(p);
    std::vector<Value> args = {
        rt::make_f64_array(rng.normal_vec(static_cast<size_t>(n)), {n}),
        rt::make_f64_array(rng.normal_vec(static_cast<size_t>(n)), {n})};
    rt::Interp w1({.parallel = false, .use_kernels = true, .kernel_lanes = 1});
    rt::Interp w8({.parallel = false, .use_kernels = true, .kernel_lanes = 8});
    auto r1 = rt::to_f64_vec(rt::as_array(w1.run(p, args)[0]));
    auto r8 = rt::to_f64_vec(rt::as_array(w8.run(p, args)[0]));
    ASSERT_EQ(r1.size(), r8.size()) << n;
    for (size_t i = 0; i < r1.size(); ++i) EXPECT_EQ(r1[i], r8[i]) << "n=" << n << " i=" << i;
  }
}

// Launch buffers must recycle through the buffer pool: after a warm-up run
// the same program's intermediates come from the pool, not the heap.
TEST(KernelConformance, BufferPoolReusesLaunchBuffers) {
  ProgBuilder pb("pool");
  Var xs = pb.param("xs", arr_f64(1));
  Builder& b = pb.body();
  Var a = b.map1(b.lam({f64()},
                       [](Builder& c, const std::vector<Var>& p) {
                         return std::vector<Atom>{Atom(c.mul(p[0], cf64(2.0)))};
                       }),
                 {xs});
  Var c2 = b.map1(b.lam({f64()},
                        [](Builder& c, const std::vector<Var>& p) {
                          return std::vector<Atom>{Atom(c.add(p[0], cf64(1.0)))};
                        }),
                  {a});
  Var s = b.reduce1(b.add_op(), cf64(0.0), {c2});
  Prog p = pb.finish({Atom(s)});
  typecheck(p);
  support::Rng rng(11);
  std::vector<Value> args = {rt::make_f64_array(rng.normal_vec(512), {512})};
  rt::Interp in({.parallel = false, .use_kernels = true});
  const double first = rt::as_f64(in.run(p, args)[0]);
  // The first run's intermediates have been released back to the pool; the
  // second run must recycle them.
  const uint64_t hits_before = in.stats().pool_hits.load();
  const double second = rt::as_f64(in.run(p, args)[0]);
  EXPECT_EQ(first, second);
  EXPECT_GT(in.stats().pool_hits.load(), hits_before);
}

// Regression: maps over empty arrays (zero outer extent) must produce empty
// results through both execution paths, and row_elems() of an empty array
// reports zero rather than a bogus nonzero row extent.
TEST(KernelConformance, EmptyMapLaunch) {
  rt::ArrayVal empty2d = rt::ArrayVal::alloc(ScalarType::F64, {0, 3});
  EXPECT_EQ(empty2d.row_elems(), 0);
  EXPECT_EQ(empty2d.outer(), 0);

  ProgBuilder pb("empty");
  Var xs = pb.param("xs", arr_f64(1));
  Builder& b = pb.body();
  Var out = b.map1(b.lam({f64()},
                         [](Builder& c, const std::vector<Var>& p) {
                           return std::vector<Atom>{Atom(c.exp(p[0]))};
                         }),
                   {xs});
  Prog p = pb.finish({Atom(out)});
  typecheck(p);
  std::vector<Value> args = {rt::make_f64_array({}, {0})};
  for (bool kernels : {false, true}) {
    rt::Interp in({.parallel = false, .use_kernels = kernels});
    auto r = in.run(p, args);
    EXPECT_EQ(rt::as_array(r[0]).outer(), 0) << "kernels=" << kernels;
    EXPECT_EQ(rt::to_f64_vec(rt::as_array(r[0])).size(), 0u);
  }
}

// Parallel runtime: parallel and sequential execution must agree for
// reductions and scans across a size sweep (chunked combine correctness).
class ParallelAgree : public ::testing::TestWithParam<int64_t> {};

TEST_P(ParallelAgree, ReduceAndScan) {
  const int64_t n = GetParam();
  support::Rng rng(static_cast<uint64_t>(n));
  ProgBuilder pb("rs");
  Var xs = pb.param("xs", arr_f64(1));
  Builder& b = pb.body();
  Var s = b.reduce1(b.add_op(), cf64(0.0), {xs});
  Var mx = b.reduce1(b.max_op(), cf64(-1e300), {xs});
  Var sc = b.scan1(b.add_op(), cf64(0.0), {xs});
  Prog p = pb.finish({Atom(s), Atom(mx), Atom(sc)});
  typecheck(p);
  std::vector<Value> args = {
      rt::make_f64_array(rng.uniform_vec(static_cast<size_t>(n), -1.0, 1.0), {n})};
  rt::Interp par({.parallel = true, .use_kernels = true, .grain = 64});
  rt::Interp seq({.parallel = false, .use_kernels = true, .grain = 64});
  auto r1 = par.run(p, args);
  auto r2 = seq.run(p, args);
  EXPECT_NEAR(rt::as_f64(r1[0]), rt::as_f64(r2[0]), 1e-9 * static_cast<double>(n));
  EXPECT_EQ(rt::as_f64(r1[1]), rt::as_f64(r2[1]));
  auto s1 = rt::to_f64_vec(rt::as_array(r1[2]));
  auto s2 = rt::to_f64_vec(rt::as_array(r2[2]));
  for (size_t i = 0; i < s1.size(); ++i) EXPECT_NEAR(s1[i], s2[i], 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ParallelAgree,
                         ::testing::Values<int64_t>(0, 1, 7, 63, 64, 65, 1000, 4096));

// ------------------------------------------- reduce/scan kernel conformance
//
// The compiled reduction path must agree with the general interpreter across
// {fused, unfused} x {lanes 1, 8} x {empty, tail-sized, large} extents
// (only the reduce fuses: a scan keeps its producer map). The
// fold bodies are deliberately not single recognized binops, so the old
// hand-rolled fast path cannot mask the kernel — but they must still be
// associative (the reduce/scan contract): lane partials and chunk partials
// recombine through the fold body itself, exactly like the existing chunked
// general path. Non-associative element work belongs in the redomap
// pre-lambda, where the fused cases put it. Lane partials reorder float
// adds, so agreement is to tolerance, not bitwise.

// Addition written as two statements — associative, kernelizable, and not
// recognize_binop, so it exercises the register machine, not the hand loop.
LambdaPtr slow_add_op(Builder& b) {
  return b.lam({f64(), f64()}, [](Builder& c, const std::vector<Var>& p) {
    Var t = c.add(p[0], p[1]);
    return std::vector<Atom>{Atom(c.mul(t, cf64(1.0)))};
  });
}

Prog redomap_prog(bool with_map) {
  ProgBuilder pb("rk");
  Var xs = pb.param("xs", arr_f64(1));
  Builder& b = pb.body();
  auto affine = [&](Builder& c) {
    return c.lam({f64()}, [](Builder& cc, const std::vector<Var>& p) {
      Var t = cc.mul(p[0], cf64(1.3));
      return std::vector<Atom>{Atom(cc.add(t, cf64(0.2)))};
    });
  };
  // Separate producers for the reduce and the scan: a producer with two
  // consumers is (correctly) not fusable.
  Var rin = xs, sin = xs;
  if (with_map) {
    rin = b.map1(affine(b), {xs});
    sin = b.map1(affine(b), {xs});
  }
  Var r = b.reduce1(slow_add_op(b), cf64(0.0), {rin});
  Var sc = b.scan1(slow_add_op(b), cf64(0.0), {sin});
  Prog p = pb.finish({Atom(r), Atom(sc)});
  typecheck(p);
  return p;
}

struct RedomapCase {
  bool fused;
  int lanes;
  int64_t n;
};

class RedomapConformance : public ::testing::TestWithParam<RedomapCase> {};

TEST_P(RedomapConformance, KernelMatchesGeneral) {
  const auto [fused, lanes, n] = GetParam();
  support::Rng rng(static_cast<uint64_t>(n) * 7 + (fused ? 1 : 0));
  Prog p = redomap_prog(/*with_map=*/true);
  Prog run = p;
  if (fused) {
    opt::FuseStats fs;
    run = opt::fuse_maps(p, &fs);
    typecheck(run);
    ASSERT_EQ(fs.fused_redomaps, 1);  // the producer folds into the reduce only
  }
  std::vector<Value> args = {
      rt::make_f64_array(rng.uniform_vec(static_cast<size_t>(n), -1.0, 1.0), {n})};
  rt::Interp slow({.parallel = false, .use_kernels = false});
  auto ref = slow.run(p, args);
  rt::Interp fast({.parallel = false, .use_kernels = true, .kernel_lanes = lanes});
  auto got = fast.run(run, args);
  EXPECT_EQ(fast.stats().kernel_reduces.load(), 1u);
  EXPECT_EQ(fast.stats().kernel_scans.load(), 1u);
  EXPECT_EQ(fast.stats().general_reduces.load(), 0u);
  EXPECT_EQ(fast.stats().general_scans.load(), 0u);
  if (fused) {
    EXPECT_EQ(fast.stats().fused_reduces.load(), 1u);
    // The reduce's mapped intermediate is gone: no launch requests a pooled
    // buffer for it. The scan's producer map and the scan's output remain.
    EXPECT_LE(fast.stats().pool_hits.load() + fast.stats().pool_misses.load(), 2u);
  }
  const double tol = 1e-12 * std::max<double>(1, static_cast<double>(n));
  EXPECT_NEAR(rt::as_f64(got[0]), rt::as_f64(ref[0]), tol);
  auto sref = rt::to_f64_vec(rt::as_array(ref[1]));
  auto sgot = rt::to_f64_vec(rt::as_array(got[1]));
  ASSERT_EQ(sgot.size(), sref.size());
  for (size_t i = 0; i < sgot.size(); ++i) EXPECT_NEAR(sgot[i], sref[i], tol) << i;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, RedomapConformance,
    ::testing::Values(RedomapCase{false, 1, 0}, RedomapCase{false, 1, 5},
                      RedomapCase{false, 1, 5000}, RedomapCase{false, 8, 0},
                      RedomapCase{false, 8, 5}, RedomapCase{false, 8, 67},
                      RedomapCase{false, 8, 5000}, RedomapCase{true, 1, 0},
                      RedomapCase{true, 1, 5}, RedomapCase{true, 1, 5000},
                      RedomapCase{true, 8, 0}, RedomapCase{true, 8, 5},
                      RedomapCase{true, 8, 67}, RedomapCase{true, 8, 5000}));

TEST(RedomapConformance, ParallelChunkedReduceAgrees) {
  // Chunked kernel reduces tree-merge their partials through the fold
  // subprogram; sequential and parallel execution must agree to tolerance.
  support::Rng rng(91);
  Prog p = redomap_prog(/*with_map=*/true);
  opt::FuseStats fs;
  Prog q = opt::fuse_maps(p, &fs);
  const int64_t n = 50000;
  std::vector<Value> args = {
      rt::make_f64_array(rng.uniform_vec(static_cast<size_t>(n), -1.0, 1.0), {n})};
  rt::Interp par({.parallel = true, .use_kernels = true, .grain = 512});
  rt::Interp seq({.parallel = false, .use_kernels = true, .grain = 512});
  auto r1 = par.run(q, args);
  auto r2 = seq.run(q, args);
  EXPECT_NEAR(rt::as_f64(r1[0]), rt::as_f64(r2[0]), 1e-9);
  auto s1 = rt::to_f64_vec(rt::as_array(r1[1]));
  auto s2 = rt::to_f64_vec(rt::as_array(r2[1]));
  ASSERT_EQ(s1.size(), s2.size());
  for (size_t i = 0; i < s1.size(); ++i) EXPECT_NEAR(s1[i], s2[i], 1e-9) << i;
}

TEST(RedomapConformance, TwoInputDotProductFuses) {
  // reduce(custom fold, map2(*, xs, ys)): the fused pre-lambda keeps both
  // element inputs.
  ProgBuilder pb("dot");
  Var xs = pb.param("xs", arr_f64(1));
  Var ys = pb.param("ys", arr_f64(1));
  Builder& b = pb.body();
  Var prods = b.map(b.lam({f64(), f64()},
                          [](Builder& c, const std::vector<Var>& p) {
                            return std::vector<Atom>{Atom(c.mul(p[0], p[1]))};
                          }),
                    {xs, ys})[0];
  Var r = b.reduce1(slow_add_op(b), cf64(0.0), {prods});
  Prog p = pb.finish({Atom(r)});
  typecheck(p);
  opt::FuseStats fs;
  Prog q = opt::fuse_maps(p, &fs);
  typecheck(q);
  EXPECT_EQ(fs.fused_redomaps, 1);
  support::Rng rng(17);
  const int64_t n = 999;
  std::vector<Value> args = {
      rt::make_f64_array(rng.uniform_vec(static_cast<size_t>(n), -1.0, 1.0), {n}),
      rt::make_f64_array(rng.uniform_vec(static_cast<size_t>(n), -1.0, 1.0), {n})};
  rt::Interp slow({.parallel = false, .use_kernels = false});
  rt::Interp fast({.parallel = false, .use_kernels = true, .kernel_lanes = 8});
  EXPECT_NEAR(rt::as_f64(fast.run(q, args)[0]), rt::as_f64(slow.run(p, args)[0]), 1e-10);
  EXPECT_EQ(fast.stats().kernel_reduces.load(), 1u);
  EXPECT_EQ(fast.stats().fused_reduces.load(), 1u);
}

TEST(RedomapConformance, LogSumExpFoldKernelizes) {
  // log-sum-exp pieces: an associative multi-instruction fold —
  // op(a, b) = max(a,b) + log(exp(a-max) + exp(b-max)) — with neutral
  // -inf-ish. Exactly the fold shape the GMM tables lean on.
  ProgBuilder pb("lse");
  Var xs = pb.param("xs", arr_f64(1));
  Builder& b = pb.body();
  LambdaPtr lse = b.lam({f64(), f64()}, [](Builder& c, const std::vector<Var>& p) {
    Var m = c.max(p[0], p[1]);
    Var ea = c.exp(Atom(c.sub(p[0], m)));
    Var eb = c.exp(Atom(c.sub(p[1], m)));
    Var r = c.add(m, Atom(c.log(Atom(c.add(ea, eb)))));
    return std::vector<Atom>{Atom(r)};
  });
  Var r = b.reduce1(std::move(lse), cf64(-1e300), {xs});
  Prog p = pb.finish({Atom(r)});
  typecheck(p);
  support::Rng rng(3);
  const int64_t n = 1777;
  std::vector<Value> args = {
      rt::make_f64_array(rng.uniform_vec(static_cast<size_t>(n), -3.0, 3.0), {n})};
  rt::Interp slow({.parallel = false, .use_kernels = false});
  const double ref = rt::as_f64(slow.run(p, args)[0]);
  for (int lanes : {1, 8}) {
    rt::Interp fast({.parallel = false, .use_kernels = true, .kernel_lanes = lanes});
    EXPECT_NEAR(rt::as_f64(fast.run(p, args)[0]), ref, 1e-10) << "W=" << lanes;
    EXPECT_EQ(fast.stats().kernel_reduces.load(), 1u) << "W=" << lanes;
  }
}

TEST(RedomapConformance, NonCommutativeAssociativeFoldPreservesOrder) {
  // Linear-recurrence fold op((a1,b1),(a2,b2)) = (a1*a2, b1*a2 + b2):
  // associative (affine-map composition) but NOT commutative, neutral
  // (1, 0). Lanes and chunks are contiguous blocks combined in order, so
  // the multi-result kernel must match the sequential general fold — a
  // strided lane decomposition (which silently requires commutativity)
  // would diverge structurally, not just by rounding.
  ProgBuilder pb("linrec");
  Var as = pb.param("as", arr_f64(1));
  Var bs = pb.param("bs", arr_f64(1));
  Builder& b = pb.body();
  LambdaPtr op = b.lam({f64(), f64(), f64(), f64()},
                       [](Builder& c, const std::vector<Var>& p) {
                         Var a = c.mul(p[0], p[2]);
                         Var t = c.mul(p[1], p[2]);
                         Var bb = c.add(t, p[3]);
                         return std::vector<Atom>{Atom(a), Atom(bb)};
                       });
  auto rs = b.reduce(std::move(op), {cf64(1.0), cf64(0.0)}, {as, bs});
  Prog p = pb.finish({Atom(rs[0]), Atom(rs[1])});
  typecheck(p);
  support::Rng rng(7);
  for (int64_t n : {int64_t{0}, int64_t{9}, int64_t{4000}}) {
    // Multipliers near 1 keep the product well-conditioned.
    std::vector<double> av = rng.uniform_vec(static_cast<size_t>(n), 0.999, 1.001);
    std::vector<double> bv = rng.uniform_vec(static_cast<size_t>(n), -0.01, 0.01);
    std::vector<Value> args = {rt::make_f64_array(av, {n}), rt::make_f64_array(bv, {n})};
    rt::Interp slow({.parallel = false, .use_kernels = false});
    auto ref = slow.run(p, args);
    for (int lanes : {1, 8}) {
      rt::Interp fast({.parallel = false, .use_kernels = true, .kernel_lanes = lanes});
      auto got = fast.run(p, args);
      EXPECT_EQ(fast.stats().kernel_reduces.load(), 1u) << "n=" << n << " W=" << lanes;
      EXPECT_NEAR(rt::as_f64(got[0]), rt::as_f64(ref[0]), 1e-10) << "n=" << n << " W=" << lanes;
      EXPECT_NEAR(rt::as_f64(got[1]), rt::as_f64(ref[1]), 1e-10) << "n=" << n << " W=" << lanes;
    }
    // Parallel chunked execution must preserve order too.
    rt::Interp par({.parallel = true, .use_kernels = true, .grain = 256});
    auto gpar = par.run(p, args);
    EXPECT_NEAR(rt::as_f64(gpar[0]), rt::as_f64(ref[0]), 1e-10) << "n=" << n;
    EXPECT_NEAR(rt::as_f64(gpar[1]), rt::as_f64(ref[1]), 1e-10) << "n=" << n;
  }
}

TEST(RedomapConformance, TinyGrainBlockedScanEmptyTrailingChunk) {
  // Regression: with a tiny grain the blocked scan can produce empty
  // trailing chunks (lo == n); the phase-1 loop must not touch in[n].
  support::Rng rng(13);
  const int64_t n = 10;
  ProgBuilder pb("tg");
  Var xs = pb.param("xs", arr_f64(1));
  Builder& b = pb.body();
  Var sc = b.scan1(b.add_op(), cf64(0.0), {xs});
  Prog p = pb.finish({Atom(sc)});
  typecheck(p);
  std::vector<Value> args = {
      rt::make_f64_array(rng.uniform_vec(static_cast<size_t>(n), -1.0, 1.0), {n})};
  rt::Interp par({.parallel = true, .use_kernels = true, .grain = 1});
  rt::Interp seq({.parallel = false, .use_kernels = true, .grain = 1});
  auto s1 = rt::to_f64_vec(rt::as_array(par.run(p, args)[0]));
  auto s2 = rt::to_f64_vec(rt::as_array(seq.run(p, args)[0]));
  ASSERT_EQ(s1.size(), s2.size());
  for (size_t i = 0; i < s1.size(); ++i) EXPECT_NEAR(s1[i], s2[i], 1e-12) << i;
}

TEST(RedomapConformance, EmptyRank2ScanKeepsInnerExtent) {
  // Regression: a general scan over an empty rank-2 array must keep the
  // argument's inner extent in its (empty) result shape.
  ProgBuilder pb("e2");
  Var xs = pb.param("xs", arr_f64(2));
  Builder& b = pb.body();
  LambdaPtr op = b.lam({arr_f64(1), arr_f64(1)},
                       [](Builder& c, const std::vector<Var>& p) {
                         Var r = c.map(c.lam({f64(), f64()},
                                             [](Builder& cc, const std::vector<Var>& q) {
                                               return std::vector<Atom>{
                                                   Atom(cc.add(q[0], q[1]))};
                                             }),
                                       {p[0], p[1]})[0];
                         return std::vector<Atom>{Atom(r)};
                       });
  Var ne = b.replicate(ci64(3), cf64(0.0));
  Var sc = b.scan(std::move(op), {Atom(ne)}, {xs})[0];
  Prog p = pb.finish({Atom(sc)});
  typecheck(p);
  std::vector<Value> args = {rt::ArrayVal::alloc(ScalarType::F64, {0, 3})};
  auto r = rt::run_prog(p, args, {.parallel = false});
  const auto& a = rt::as_array(r[0]);
  ASSERT_EQ(a.rank(), 2);
  EXPECT_EQ(a.shape[0], 0);
  EXPECT_EQ(a.shape[1], 3);
}

// ------------------------------------------------------ hist conformance
//
// The parallel privatized/atomic/kernel hist strategies must agree with the
// strictly sequential general path across {sequential, privatized, atomic}
// x input shapes {empty inds, out-of-range inds, all-same-bin contention,
// uniform}, and each row must take the strategy it names. Combinable binops
// (+, min) exercise the hand-rolled tier; a two-statement add and an LSE
// fold exercise the compiled-kernel tier (where the "atomic" strategy
// legitimately runs the sequential kernel loop — arbitrary folds have no
// atomic fallback). Merged subhistograms regroup float adds, so agreement is
// to tolerance; min is exact.

enum class HistStrategy { Sequential, Privatized, Atomic };
enum class HistOp { Add, Min, SlowAdd, Lse };

struct HistCase {
  HistStrategy strategy;
  HistOp op;
};

LambdaPtr hist_op(Builder& b, HistOp op) {
  switch (op) {
    case HistOp::Add: return b.add_op();
    case HistOp::Min: return b.min_op();
    case HistOp::SlowAdd: return slow_add_op(b);
    case HistOp::Lse:
      return b.lam({f64(), f64()}, [](Builder& c, const std::vector<Var>& p) {
        Var m = c.max(p[0], p[1]);
        Var ea = c.exp(Atom(c.sub(p[0], m)));
        Var eb = c.exp(Atom(c.sub(p[1], m)));
        return std::vector<Atom>{Atom(c.add(m, Atom(c.log(Atom(c.add(ea, eb))))))};
      });
  }
  return nullptr;
}

Atom hist_neutral(HistOp op) {
  switch (op) {
    case HistOp::Min: return cf64(1e300);
    case HistOp::Lse: return cf64(-1e300);
    default: return cf64(0.0);
  }
}

Prog hist_prog(HistOp op, bool with_map) {
  ProgBuilder pb("h");
  Var dest = pb.param("dest", arr_f64(1));
  Var inds = pb.param("inds", arr(ScalarType::I64, 1));
  Var vals = pb.param("vals", arr_f64(1));
  Builder& b = pb.body();
  Var vs = vals;
  if (with_map) {
    vs = b.map1(b.lam({f64()},
                      [](Builder& c, const std::vector<Var>& p) {
                        Var t = c.mul(p[0], cf64(1.3));
                        return std::vector<Atom>{Atom(c.add(t, cf64(0.2)))};
                      }),
                {vals});
  }
  Var h = b.hist(hist_op(b, op), hist_neutral(op), dest, inds, vs);
  Prog p = pb.finish({Atom(h)});
  typecheck(p);
  return p;
}

class HistConformance : public ::testing::TestWithParam<HistCase> {};

// Crossings of the fault site `name` in the current counting session.
uint64_t site_crossings(const std::string& name) {
  const auto& fi = support::FaultInjector::global();
  for (int s = 0; s < fi.num_sites(); ++s) {
    if (fi.site_name(s) == name) return fi.crossings(s);
  }
  return 0;
}

TEST_P(HistConformance, StrategiesMatchGeneralPath) {
  const auto [strategy, op] = GetParam();
  const bool kernel_op = op == HistOp::SlowAdd || op == HistOp::Lse;
  Prog p = hist_prog(op, /*with_map=*/true);
  const int64_t grain = 16;
  rt::InterpOptions opts{
      .parallel = strategy != HistStrategy::Sequential, .use_kernels = true, .grain = grain};
  if (strategy == HistStrategy::Atomic) opts.privatize_budget = 0;
  const auto workers = static_cast<int64_t>(support::ThreadPool::global().thread_count());
  const std::string tier = kernel_op ? "hist.kernel_" : "hist.hand_";

  struct Shape {
    const char* name;
    int64_t n;
    int64_t lo, hi;  // index range (may exceed [0, m))
  };
  const int64_t m = 32;
  // n = 4096 reaches the privatization floor (4096 updates).
  const Shape shapes[] = {
      {"empty", 0, 0, 1},
      {"uniform", 4096, 0, m},
      {"out-of-range", 4096, -5, m + 5},
      {"same-bin", 4096, 3, 4},
  };
  for (const auto& sh : shapes) {
    support::Rng rng(static_cast<uint64_t>(sh.n) + static_cast<uint64_t>(op) * 13);
    std::vector<int64_t> iv(static_cast<size_t>(sh.n));
    for (auto& x : iv) x = sh.lo + rng.uniform_int(sh.hi - sh.lo);
    std::vector<Value> args = {
        rt::make_f64_array(rng.uniform_vec(static_cast<size_t>(m), -1.0, 1.0), {m}),
        rt::make_i64_array(iv, {sh.n}),
        rt::make_f64_array(rng.uniform_vec(static_cast<size_t>(sh.n), -1.0, 1.0), {sh.n})};
    rt::Interp slow({.parallel = false, .use_kernels = false});
    auto ref = rt::to_f64_vec(rt::as_array(slow.run(p, args)[0]));
    rt::Interp fast(opts);
    auto& fi = support::FaultInjector::global();
    fi.start_counting();
    auto got = rt::to_f64_vec(rt::as_array(fast.run(p, args)[0]));
    fi.stop();
    ASSERT_EQ(got.size(), ref.size()) << sh.name;
    const double tol = op == HistOp::Min ? 0.0 : 1e-10;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_NEAR(got[i], ref[i], tol) << sh.name << " bin " << i;
    }
    if (kernel_op) {
      EXPECT_GE(fast.stats().kernel_hists.load(), 1u) << sh.name;
    } else {
      EXPECT_GE(fast.stats().hand_hists.load(), 1u) << sh.name;
    }

    // The strategy the row names, as its counters and fault sites see it.
    const auto updates = static_cast<uint64_t>(
        std::count_if(iv.begin(), iv.end(), [&](int64_t b) { return b >= 0 && b < m; }));
    const bool fans = strategy != HistStrategy::Sequential && workers > 1 && sh.n > grain;
    const auto& st = fast.stats();
    if (fans && strategy == HistStrategy::Privatized) {
      const int64_t chunks = std::min(workers, (sh.n + grain - 1) / grain);
      EXPECT_EQ(site_crossings(tier + "chunk"), static_cast<uint64_t>(chunks)) << sh.name;
      EXPECT_EQ(site_crossings(kernel_op ? "hist.kernel_merge" : "hist.merge"), 1u) << sh.name;
      EXPECT_EQ(st.privatized_hist_updates.load(), updates) << sh.name;
      EXPECT_EQ(st.atomic_hist_updates.load(), 0u) << sh.name;
    } else if (fans && strategy == HistStrategy::Atomic && !kernel_op) {
      EXPECT_GE(site_crossings("hist.atomic_chunk"), 2u) << sh.name;
      EXPECT_EQ(site_crossings("hist.hand_chunk"), 0u) << sh.name;
      EXPECT_EQ(st.atomic_hist_updates.load(), updates) << sh.name;
      EXPECT_EQ(st.privatized_hist_updates.load(), 0u) << sh.name;
    } else {
      // Sequential: one chunk straight into the destination, no merge.
      EXPECT_EQ(site_crossings(tier + "chunk"), 1u) << sh.name;
      EXPECT_EQ(site_crossings("hist.merge") + site_crossings("hist.kernel_merge"), 0u)
          << sh.name;
      EXPECT_EQ(st.privatized_hist_updates.load(), updates) << sh.name;
      EXPECT_EQ(st.atomic_hist_updates.load(), 0u) << sh.name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, HistConformance,
    ::testing::Values(
        HistCase{HistStrategy::Sequential, HistOp::Add},
        HistCase{HistStrategy::Privatized, HistOp::Add},
        HistCase{HistStrategy::Atomic, HistOp::Add},
        HistCase{HistStrategy::Sequential, HistOp::Min},
        HistCase{HistStrategy::Privatized, HistOp::Min},
        HistCase{HistStrategy::Atomic, HistOp::Min},
        HistCase{HistStrategy::Sequential, HistOp::SlowAdd},
        HistCase{HistStrategy::Privatized, HistOp::SlowAdd},
        HistCase{HistStrategy::Atomic, HistOp::SlowAdd},
        HistCase{HistStrategy::Sequential, HistOp::Lse},
        HistCase{HistStrategy::Privatized, HistOp::Lse},
        HistCase{HistStrategy::Atomic, HistOp::Lse}));

TEST(HistConformance, StrategyCountersReportTheTakenPath) {
  // The privatized strategy must report non-atomic updates, the atomic
  // fallback must report atomic updates, and the hand tier must not touch
  // the kernel counters.
  Prog p = hist_prog(HistOp::Add, /*with_map=*/false);
  support::Rng rng(41);
  const int64_t n = 4096, m = 64;
  std::vector<int64_t> iv(static_cast<size_t>(n));
  for (auto& x : iv) x = rng.uniform_int(m);
  std::vector<Value> args = {
      rt::make_f64_array(rng.uniform_vec(static_cast<size_t>(m), -1.0, 1.0), {m}),
      rt::make_i64_array(iv, {n}),
      rt::make_f64_array(rng.uniform_vec(static_cast<size_t>(n), -1.0, 1.0), {n})};

  rt::Interp priv({.parallel = true, .grain = 64});
  priv.run(p, args);
  EXPECT_EQ(priv.stats().privatized_hist_updates.load(), static_cast<uint64_t>(n));
  EXPECT_EQ(priv.stats().atomic_hist_updates.load(), 0u);
  EXPECT_EQ(priv.stats().kernel_hists.load(), 0u);
  EXPECT_EQ(priv.stats().hand_hists.load(), 1u);
  EXPECT_EQ(priv.stats().general_hists.load(), 0u);

  rt::Interp atom({.parallel = true, .grain = 64, .privatize_budget = 0});
  atom.run(p, args);
  EXPECT_EQ(atom.stats().atomic_hist_updates.load(), static_cast<uint64_t>(n));
  EXPECT_EQ(atom.stats().privatized_hist_updates.load(), 0u);

  Prog lse = hist_prog(HistOp::Lse, /*with_map=*/false);
  rt::Interp kern({.parallel = false});
  kern.run(lse, args);
  EXPECT_EQ(kern.stats().kernel_hists.load(), 1u);
  EXPECT_EQ(kern.stats().general_hists.load(), 0u);
}

TEST(HistConformance, ParallelOffTakesSequentialPathBitExactly) {
  // Regression for the old fast path ignoring opts_.parallel: with the
  // parallel runtime disabled, hist must run the strictly sequential loop —
  // bit-identical to a hand fold in element order (float adds are not
  // reassociated) — and must not perform a single atomic update.
  Prog p = hist_prog(HistOp::Add, /*with_map=*/false);
  support::Rng rng(43);
  const int64_t n = 10000, m = 16;
  // Adversarial magnitudes: reassociating these adds changes the result,
  // so a privatized or atomic execution could not pass the bitwise check.
  std::vector<double> vv(static_cast<size_t>(n));
  for (size_t i = 0; i < vv.size(); ++i) {
    vv[i] = (i % 3 == 0 ? 1e16 : 1.0) * (i % 2 == 0 ? 1.0 : -1.0) + rng.uniform(0.0, 1.0);
  }
  std::vector<int64_t> iv(static_cast<size_t>(n));
  for (auto& x : iv) x = rng.uniform_int(m);
  std::vector<double> dv = rng.uniform_vec(static_cast<size_t>(m), -1.0, 1.0);
  std::vector<Value> args = {rt::make_f64_array(dv, {m}), rt::make_i64_array(iv, {n}),
                             rt::make_f64_array(vv, {n})};
  std::vector<double> expect = dv;
  for (int64_t i = 0; i < n; ++i) {
    const int64_t b = iv[static_cast<size_t>(i)];
    expect[static_cast<size_t>(b)] += vv[static_cast<size_t>(i)];
  }
  rt::Interp seq({.parallel = false});
  auto got = rt::to_f64_vec(rt::as_array(seq.run(p, args)[0]));
  ASSERT_EQ(got.size(), expect.size());
  for (size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], expect[i]) << i;  // bit-identical
  EXPECT_EQ(seq.stats().atomic_hist_updates.load(), 0u);
  EXPECT_EQ(seq.stats().privatized_hist_updates.load(), static_cast<uint64_t>(n));
}

TEST(HistConformance, Rank2RowBinsStaySequentialGeneral) {
  // Vector bins (rank-2 destination, the op combines rows element-wise) take
  // the strictly sequential general path under every configuration.
  ProgBuilder pb("h2");
  Var dest = pb.param("dest", arr_f64(2));
  Var inds = pb.param("inds", arr(ScalarType::I64, 1));
  Var vals = pb.param("vals", arr_f64(2));
  Builder& b = pb.body();
  LambdaPtr op = b.lam({arr_f64(1), arr_f64(1)},
                       [](Builder& c, const std::vector<Var>& p) {
                         Var r = c.map(c.lam({f64(), f64()},
                                             [](Builder& cc, const std::vector<Var>& q) {
                                               return std::vector<Atom>{
                                                   Atom(cc.add(q[0], q[1]))};
                                             }),
                                       {p[0], p[1]})[0];
                         return std::vector<Atom>{Atom(r)};
                       });
  Var ne = b.replicate(ci64(3), cf64(0.0));
  Var h = b.hist(std::move(op), Atom(ne), dest, inds, vals);
  Prog p = pb.finish({Atom(h)});
  typecheck(p);
  support::Rng rng(44);
  const int64_t n = 200, m = 8;
  std::vector<int64_t> iv(static_cast<size_t>(n));
  for (auto& x : iv) x = rng.uniform_int(m + 2) - 1;  // includes out-of-range
  std::vector<Value> args = {
      rt::make_f64_array(rng.uniform_vec(static_cast<size_t>(m * 3), -1.0, 1.0), {m, 3}),
      rt::make_i64_array(iv, {n}),
      rt::make_f64_array(rng.uniform_vec(static_cast<size_t>(n * 3), -1.0, 1.0), {n, 3})};
  rt::Interp slow({.parallel = false, .use_kernels = false});
  auto ref = rt::to_f64_vec(rt::as_array(slow.run(p, args)[0]));
  rt::Interp par({.parallel = true, .use_kernels = true, .grain = 16});
  auto got = rt::to_f64_vec(rt::as_array(par.run(p, args)[0]));
  ASSERT_EQ(got.size(), ref.size());
  for (size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], ref[i]) << i;
  EXPECT_EQ(par.stats().general_hists.load(), 1u);
  EXPECT_EQ(par.stats().atomic_hist_updates.load(), 0u);
}

// ------------------------------------------------------- launch schedule
//
// Pins the launch schedule of every SOAC tier at 4 workers and grain 64:
// whether a launch fans out, into how many chunks, and how per-chunk state
// merges back. Each row runs one launch at an extent on one side of a
// fan-out floor (map and hist n > 64, reduce n >= 128, scan n >= 256) or of
// the privatization floor (4096 updates), counts the crossings of every
// per-chunk fault site and of the pool's tasks, and reads the strategy
// counters. A row lists every site and counter it expects to be nonzero.

enum class SchedSoac { Map, AccMap, Reduce, Scan, Hist };
enum class SchedTier { Hand, Kernel, General };

struct SchedRow {
  SchedSoac soac;
  SchedTier tier;
  int64_t n;
  const char* expect;  // "name=count ..." over sites and counters
};

Prog sched_prog(SchedSoac soac, SchedTier tier) {
  if (soac == SchedSoac::Hist) {
    return hist_prog(tier == SchedTier::Hand ? HistOp::Add : HistOp::SlowAdd, false);
  }
  ProgBuilder pb("sched");
  Builder& b = pb.body();
  if (soac == SchedSoac::AccMap) {
    Var dest = pb.param("dest", arr_f64(1));
    Var is = pb.param("is", arr(ScalarType::I64, 1));
    Var vs = pb.param("vs", arr_f64(1));
    auto outs = b.withacc({dest}, [&](Builder& c, const std::vector<Var>& accs) {
      LambdaPtr f = c.lam({i64(), f64(), acc_of(arr_f64(1))},
                          [](Builder& cc, const std::vector<Var>& p) {
                            Var v2 = cc.mul(p[1], p[1]);
                            return std::vector<Atom>{
                                Atom(cc.upd_acc(p[2], {Atom(p[0])}, Atom(v2)))};
                          });
      return std::vector<Atom>{Atom(c.map(f, {is, vs, accs[0]})[0])};
    });
    Prog p = pb.finish({Atom(outs[0])});
    typecheck(p);
    return p;
  }
  Var xs = pb.param("xs", arr_f64(1));
  Var r;
  if (soac == SchedSoac::Map) {
    r = b.map1(b.lam({f64()},
                     [](Builder& c, const std::vector<Var>& p) {
                       return std::vector<Atom>{Atom(c.mul(p[0], cf64(2.0)))};
                     }),
               {xs});
  } else {
    LambdaPtr op = tier == SchedTier::Hand ? b.add_op() : slow_add_op(b);
    r = soac == SchedSoac::Reduce ? b.reduce1(std::move(op), cf64(0.0), {xs})
                                  : b.scan1(std::move(op), cf64(0.0), {xs});
  }
  Prog p = pb.finish({Atom(r)});
  typecheck(p);
  return p;
}

std::vector<Value> sched_args(SchedSoac soac, int64_t n) {
  support::Rng rng(static_cast<uint64_t>(n) + 3);
  const int64_t m = 32;
  if (soac == SchedSoac::Hist) {
    return {rt::make_f64_array(rng.uniform_vec(static_cast<size_t>(m), -1.0, 1.0), {m}),
            rt::make_i64_array(rng.index_vec(static_cast<size_t>(n), m), {n}),
            rt::make_f64_array(rng.uniform_vec(static_cast<size_t>(n), -1.0, 1.0), {n})};
  }
  if (soac == SchedSoac::AccMap) {
    return {rt::make_f64_array(std::vector<double>(static_cast<size_t>(m), 0.0), {m}),
            rt::make_i64_array(rng.index_vec(static_cast<size_t>(n), m), {n}),
            rt::make_f64_array(rng.normal_vec(static_cast<size_t>(n)), {n})};
  }
  return {rt::make_f64_array(rng.uniform_vec(static_cast<size_t>(n), -1.0, 1.0), {n})};
}

std::map<std::string, uint64_t> parse_expect(const char* s) {
  std::map<std::string, uint64_t> out;
  std::istringstream in(s);
  std::string tok;
  while (in >> tok) {
    const size_t eq = tok.find('=');
    out[tok.substr(0, eq)] = std::stoull(tok.substr(eq + 1));
  }
  return out;
}

TEST(Schedule, ChunkCountsPerTier) {
  if (support::ThreadPool::global().thread_count() != 4) {
    GTEST_SKIP() << "the pinned counts are for a 4-worker pool";
  }
  using S = SchedSoac;
  using T = SchedTier;
  const SchedRow rows[] = {
      {S::Map, T::General, 64, "general_maps=1 map.general_chunk=1"},
      {S::Map, T::General, 65, "general_maps=1 map.general_chunk=2 threadpool.chunk=2"},
      {S::Map, T::General, 4096, "general_maps=1 map.general_chunk=16 threadpool.chunk=16"},
      {S::Map, T::Kernel, 64, "kernel_maps=1 map.kernel_chunk=1"},
      {S::Map, T::Kernel, 65, "kernel_maps=1 map.kernel_chunk=2 threadpool.chunk=2"},
      {S::Map, T::Kernel, 4096, "kernel_maps=1 map.kernel_chunk=16 threadpool.chunk=16"},
      {S::AccMap, T::General, 64,
       "general_maps=1 privatized_updates=64 withacc.body=1 map.general_chunk=1"},
      {S::AccMap, T::General, 65,
       "general_maps=1 atomic_updates=65 withacc.body=1 map.general_chunk=2 "
       "threadpool.chunk=2"},
      {S::AccMap, T::General, 4095,
       "general_maps=1 atomic_updates=4095 withacc.body=1 map.general_chunk=16 "
       "threadpool.chunk=16"},
      {S::AccMap, T::General, 4096,
       "general_maps=1 atomic_updates=1 privatized_updates=4095 privatized_launches=1 "
       "withacc.body=1 map.general_priv_chunk=4 acc.merge=1 threadpool.chunk=6"},
      {S::AccMap, T::Kernel, 64,
       "kernel_maps=1 privatized_updates=64 withacc.body=1 map.kernel_chunk=1"},
      {S::AccMap, T::Kernel, 65,
       "kernel_maps=1 atomic_updates=65 withacc.body=1 map.kernel_chunk=2 threadpool.chunk=2"},
      {S::AccMap, T::Kernel, 4095,
       "kernel_maps=1 atomic_updates=4095 withacc.body=1 map.kernel_chunk=16 "
       "threadpool.chunk=16"},
      {S::AccMap, T::Kernel, 4096,
       "kernel_maps=1 privatized_updates=4096 privatized_launches=1 withacc.body=1 "
       "map.kernel_priv_chunk=4 acc.merge=1 threadpool.chunk=6"},
      {S::Reduce, T::Hand, 127, "hand_reduces=1 reduce.general_chunk=1"},
      {S::Reduce, T::Hand, 128, "hand_reduces=1 reduce.general_chunk=2 threadpool.chunk=2"},
      {S::Reduce, T::Hand, 4096, "hand_reduces=1 reduce.general_chunk=4 threadpool.chunk=4"},
      {S::Reduce, T::Kernel, 127, "kernel_reduces=1 reduce.kernel_chunk=1"},
      {S::Reduce, T::Kernel, 128,
       "kernel_reduces=1 reduce.kernel_chunk=2 reduce.partial_merge=1 threadpool.chunk=2"},
      {S::Reduce, T::Kernel, 4096,
       "kernel_reduces=1 reduce.kernel_chunk=4 reduce.partial_merge=1 threadpool.chunk=4"},
      {S::Reduce, T::General, 127, "general_reduces=1 reduce.general_chunk=1"},
      {S::Reduce, T::General, 128,
       "general_reduces=1 reduce.general_chunk=2 threadpool.chunk=2"},
      {S::Reduce, T::General, 4096,
       "general_reduces=1 reduce.general_chunk=4 threadpool.chunk=4"},
      {S::Scan, T::Hand, 255, "hand_scans=1 scan.hand_chunk=1"},
      {S::Scan, T::Hand, 256,
       "hand_scans=1 scan.hand_chunk=4 scan.hand_rescale=3 threadpool.chunk=8"},
      {S::Scan, T::Hand, 4096,
       "hand_scans=1 scan.hand_chunk=4 scan.hand_rescale=3 threadpool.chunk=8"},
      {S::Scan, T::Kernel, 255, "kernel_scans=1 scan.kernel_chunk=1"},
      {S::Scan, T::Kernel, 256,
       "kernel_scans=1 scan.kernel_chunk=4 scan.kernel_rescale=3 threadpool.chunk=8"},
      {S::Scan, T::Kernel, 4096,
       "kernel_scans=1 scan.kernel_chunk=4 scan.kernel_rescale=3 threadpool.chunk=8"},
      {S::Scan, T::General, 255, "general_scans=1 scan.general=1"},
      {S::Scan, T::General, 256, "general_scans=1 scan.general=1"},
      {S::Scan, T::General, 4096, "general_scans=1 scan.general=1"},
      {S::Hist, T::Hand, 64, "hand_hists=1 privatized_hist_updates=64 hist.hand_chunk=1"},
      {S::Hist, T::Hand, 65,
       "hand_hists=1 atomic_hist_updates=65 hist.atomic_chunk=2 threadpool.chunk=2"},
      {S::Hist, T::Hand, 4095,
       "hand_hists=1 atomic_hist_updates=4095 hist.atomic_chunk=16 threadpool.chunk=16"},
      {S::Hist, T::Hand, 4096,
       "hand_hists=1 privatized_hist_updates=4096 hist.hand_chunk=4 hist.merge=1 "
       "threadpool.chunk=4"},
      {S::Hist, T::Kernel, 64, "kernel_hists=1 privatized_hist_updates=64 hist.kernel_chunk=1"},
      {S::Hist, T::Kernel, 65, "kernel_hists=1 privatized_hist_updates=65 hist.kernel_chunk=1"},
      {S::Hist, T::Kernel, 4095,
       "kernel_hists=1 privatized_hist_updates=4095 hist.kernel_chunk=1"},
      {S::Hist, T::Kernel, 4096,
       "kernel_hists=1 privatized_hist_updates=4096 hist.kernel_chunk=4 hist.kernel_merge=1 "
       "threadpool.chunk=4"},
      {S::Hist, T::General, 64, "general_hists=1 privatized_hist_updates=64 hist.general=1"},
      {S::Hist, T::General, 65, "general_hists=1 privatized_hist_updates=65 hist.general=1"},
      {S::Hist, T::General, 4096,
       "general_hists=1 privatized_hist_updates=4096 hist.general=1"},
  };
  // Allocation and vexec-dispatch crossings depend on the buffer pool and the
  // executor, not on the schedule.
  const std::set<std::string> unpinned = {"pool.acquire", "vexec.dispatch"};
  const char* const pinned_counters[] = {
      "kernel_maps",         "general_maps",            "privatized_updates",
      "atomic_updates",      "privatized_launches",     "hand_reduces",
      "kernel_reduces",      "general_reduces",         "hand_scans",
      "kernel_scans",        "general_scans",           "hand_hists",
      "kernel_hists",        "general_hists",           "privatized_hist_updates",
      "atomic_hist_updates"};
  auto& fi = support::FaultInjector::global();
  for (const SchedRow& row : rows) {
    const Prog p = sched_prog(row.soac, row.tier);
    const auto args = sched_args(row.soac, row.n);
    rt::Interp in({.parallel = true, .use_kernels = row.tier != SchedTier::General, .grain = 64});
    fi.start_counting();
    in.run(p, args);
    fi.stop();
    std::map<std::string, uint64_t> got;
    for (int s = 0; s < fi.num_sites(); ++s) {
      if (fi.crossings(s) > 0 && unpinned.count(fi.site_name(s)) == 0) {
        got[fi.site_name(s)] = fi.crossings(s);
      }
    }
    const auto counters = in.stats().counters();
    for (const char* c : pinned_counters) {
      if (counters.at(c) > 0) got[c] = counters.at(c);
    }
    EXPECT_EQ(got, parse_expect(row.expect))
        << "soac " << static_cast<int>(row.soac) << " tier " << static_cast<int>(row.tier)
        << " n " << row.n;
  }
}

// A plain (+) reduce and scan over one f64 array run on the hand-rolled
// tier, which counts itself and no other tier.
TEST(RedomapConformance, HandTierCountsItsOwnLaunches) {
  ProgBuilder pb("hand_tier");
  Var xs = pb.param("xs", arr_f64(1));
  Builder& b = pb.body();
  Var r = b.reduce1(b.add_op(), cf64(0.0), {xs});
  Var sc = b.scan1(b.add_op(), cf64(0.0), {xs});
  Prog p = pb.finish({Atom(r), Atom(sc)});
  typecheck(p);
  rt::Interp in({.parallel = false});
  in.run(p, {rt::make_f64_array({1.0, 2.0, 3.0}, {3})});
  EXPECT_EQ(in.stats().hand_reduces.load(), 1u);
  EXPECT_EQ(in.stats().hand_scans.load(), 1u);
  EXPECT_EQ(in.stats().kernel_reduces.load() + in.stats().general_reduces.load(), 0u);
  EXPECT_EQ(in.stats().kernel_scans.load() + in.stats().general_scans.load(), 0u);
}

TEST(RedomapConformance, GeneralFallbackHandlesRedomap) {
  // With kernels disabled the general interpreter must still execute the
  // redomap form (pre applied per element before the fold).
  support::Rng rng(5);
  Prog p = redomap_prog(/*with_map=*/true);
  opt::FuseStats fs;
  Prog q = opt::fuse_maps(p, &fs);
  ASSERT_GE(fs.fused_redomaps, 1);
  const int64_t n = 333;
  std::vector<Value> args = {
      rt::make_f64_array(rng.uniform_vec(static_cast<size_t>(n), -1.0, 1.0), {n})};
  rt::Interp slow({.parallel = false, .use_kernels = false});
  auto ref = slow.run(p, args);
  rt::Interp gen({.parallel = false, .use_kernels = false});
  auto got = gen.run(q, args);
  EXPECT_EQ(gen.stats().general_reduces.load(), 1u);
  EXPECT_EQ(gen.stats().general_scans.load(), 1u);
  EXPECT_NEAR(rt::as_f64(got[0]), rt::as_f64(ref[0]), 1e-12);
  auto sref = rt::to_f64_vec(rt::as_array(ref[1]));
  auto sgot = rt::to_f64_vec(rt::as_array(got[1]));
  ASSERT_EQ(sgot.size(), sref.size());
  for (size_t i = 0; i < sgot.size(); ++i) EXPECT_NEAR(sgot[i], sref[i], 1e-12) << i;
}

// --------------------------------------------------------- regular nests
//
// A map over the rows of rank-2 arrays whose lambda maps, folds or returns
// whole rows runs as ONE whole-lambda kernel launch: inline folds over row
// streams (vexec's fused dot and one-stream loops), and row results — a
// rank-1 virtual result stored row by row into an [n][len] launch output.
// With parallelism off every output is bit-identical (compared as bits, so
// signed zeros count) to the general interpreter with kernels off, with
// vexec on and off (the register machine), at W = 1 and 8, over empty
// outer, empty inner row, odd and larger shapes.

// map(λrow. map(g, row)) — rank-2 in, rank-2 out, affine+tanh scalar body.
Prog nested_map_prog() {
  ProgBuilder pb("nm");
  Var xss = pb.param("xss", arr_f64(2));
  Builder& b = pb.body();
  Var out = b.map1(
      b.lam({arr_f64(1)},
            [](Builder& c, const std::vector<Var>& row) {
              return std::vector<Atom>{Atom(c.map1(
                  c.lam({f64()},
                        [](Builder& cc, const std::vector<Var>& p) {
                          Var t = cc.mul(p[0], cf64(1.3));
                          return std::vector<Atom>{Atom(cc.tanh(Atom(cc.add(t, cf64(0.2)))))};
                        }),
                  {row[0]}))};
            }),
      {xss});
  Prog p = pb.finish({Atom(out)});
  typecheck(p);
  return p;
}

// map(λrow. reduce(+, 0, row)) — a one-stream inline fold.
Prog nested_sum_prog() {
  ProgBuilder pb("ns");
  Var xss = pb.param("xss", arr_f64(2));
  Builder& b = pb.body();
  Var out = b.map1(b.lam({arr_f64(1)},
                         [](Builder& c, const std::vector<Var>& row) {
                           return std::vector<Atom>{
                               Atom(c.reduce1(c.add_op(), cf64(0.0), {row[0]}))};
                         }),
                   {xss});
  Prog p = pb.finish({Atom(out)});
  typecheck(p);
  return p;
}

// map(λrow. reduce(lse, -inf, row)) — a multi-statement inline fold.
Prog nested_lse_prog() {
  ProgBuilder pb("nl");
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
  Prog p = pb.finish({Atom(out)});
  typecheck(p);
  return p;
}

// map(λra,rb. reduce(+, 0, map(*, ra, rb))) — fuses to a redomap nest, the
// row-wise-dot shape of kmeans/GMM inner loops.
Prog nested_dot_prog() {
  ProgBuilder pb("nd");
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
  Prog p = pb.finish({Atom(out)});
  typecheck(p);
  return p;
}

// Row results next to a scalar: (Σ row, map(g, row)) — one vmap over the
// row stream — and, with `two`, (Σ row, map(λj. j·s, iota m), replicate m s)
// — an iota vmap and a replicate of a per-row scalar.
Prog row_results_prog(bool two) {
  ProgBuilder pb(two ? "rr2" : "rr1");
  Var xss = pb.param("xss", arr_f64(2));
  Builder& b = pb.body();
  std::vector<Var> outs = b.map(
      b.lam({arr_f64(1)},
            [two](Builder& c, const std::vector<Var>& row) {
              Var s = c.reduce1(c.add_op(), cf64(0.0), {row[0]});
              if (!two) {
                Var g = c.map1(c.lam({f64()},
                                     [s](Builder& cc, const std::vector<Var>& p) {
                                       Var t = cc.mul(p[0], s);
                                       return std::vector<Atom>{Atom(cc.sub(t, cf64(0.25)))};
                                     }),
                               {row[0]});
                return std::vector<Atom>{Atom(s), Atom(g)};
              }
              Var m = c.length(row[0]);
              Var js = c.map1(c.lam({i64()},
                                    [s](Builder& cc, const std::vector<Var>& q) {
                                      Var j = cc.to_f64(q[0]);
                                      return std::vector<Atom>{Atom(cc.mul(j, s))};
                                    }),
                              {c.iota(Atom(m))});
              Var rep = c.replicate(Atom(m), Atom(s));
              return std::vector<Atom>{Atom(s), Atom(js), Atom(rep)};
            }),
      {xss});
  std::vector<Atom> res(outs.begin(), outs.end());
  Prog p = pb.finish(res);
  typecheck(p);
  return p;
}

enum class Nest { MapOfMap, MapOfSum, MapOfLse, MapOfDot, Row1, Row2 };
enum class VexecMode { On, Off };

Prog nest_prog(Nest k) {
  switch (k) {
    case Nest::MapOfMap: return nested_map_prog();
    case Nest::MapOfSum: return nested_sum_prog();
    case Nest::MapOfLse: return nested_lse_prog();
    case Nest::MapOfDot: {
      opt::FuseStats fs;
      Prog p = opt::fuse_maps(nested_dot_prog(), &fs);
      typecheck(p);
      return p;
    }
    case Nest::Row1: return row_results_prog(false);
    case Nest::Row2: return row_results_prog(true);
  }
  return nested_map_prog();
}

std::vector<Value> nest_args(Nest k, int64_t n, int64_t m, uint64_t seed) {
  support::Rng rng(seed);
  const auto elems = static_cast<size_t>(n * m);
  std::vector<Value> args;
  args.push_back(rt::make_f64_array(rng.uniform_vec(elems, -1.0, 1.0), {n, m}));
  if (k == Nest::MapOfDot) {
    args.push_back(rt::make_f64_array(rng.uniform_vec(elems, -1.0, 1.0), {n, m}));
  }
  return args;
}

// Bit patterns of every element, so -0.0 and +0.0 differ.
std::vector<uint64_t> output_bits(const Value& v) {
  std::vector<uint64_t> out;
  for (double d : rt::to_f64_vec(rt::as_array(v))) {
    uint64_t u = 0;
    std::memcpy(&u, &d, sizeof u);
    out.push_back(u);
  }
  return out;
}

struct NestShape {
  int64_t n, m;
};
using NestCase = std::tuple<Nest, int, NestShape, VexecMode>;

class NestConformance : public ::testing::TestWithParam<NestCase> {};

TEST_P(NestConformance, OneKernelBitExact) {
  const auto [kind, lanes, shape, mode] = GetParam();
  const Prog p = nest_prog(kind);
  const auto args = nest_args(kind, shape.n, shape.m,
                              static_cast<uint64_t>(shape.n * 31 + shape.m * 7 + lanes));
  rt::Interp slow({.parallel = false, .use_kernels = false});
  const auto ref = slow.run(p, args);
  rt::InterpOptions o{.parallel = false, .use_kernels = true, .kernel_lanes = lanes};
  o.use_vexec = mode != VexecMode::Off;
  rt::Interp fast(o);
  const auto got = fast.run(p, args);
  ASSERT_EQ(got.size(), ref.size());
  for (size_t r = 0; r < got.size(); ++r) {
    EXPECT_EQ(rt::as_array(got[r]).shape, rt::as_array(ref[r]).shape) << "output " << r;
    EXPECT_EQ(output_bits(got[r]), output_bits(ref[r])) << "output " << r;
  }
  EXPECT_EQ(fast.stats().kernel_maps.load(), 1u);
  EXPECT_EQ(fast.stats().general_maps.load(), 0u);
}

std::string nest_name(const ::testing::TestParamInfo<NestCase>& info) {
  static const char* kinds[] = {"MapOfMap", "MapOfSum", "MapOfLse", "MapOfDot", "Row1", "Row2"};
  static const char* modes[] = {"On", "Off"};
  const NestShape sh = std::get<2>(info.param);
  return std::string(kinds[static_cast<int>(std::get<0>(info.param))]) + "W" +
         std::to_string(std::get<1>(info.param)) + "_" + std::to_string(sh.n) + "x" +
         std::to_string(sh.m) + modes[static_cast<int>(std::get<3>(info.param))];
}

INSTANTIATE_TEST_SUITE_P(
    Grid, NestConformance,
    ::testing::Combine(::testing::Values(Nest::MapOfMap, Nest::MapOfSum, Nest::MapOfLse,
                                         Nest::MapOfDot, Nest::Row1, Nest::Row2),
                       ::testing::Values(1, 8),
                       // empty outer, empty inner row, odd, larger
                       ::testing::Values(NestShape{0, 5}, NestShape{4, 0}, NestShape{7, 13},
                                         NestShape{300, 37}),
                       ::testing::Values(VexecMode::On, VexecMode::Off)),
    nest_name);

TEST(NestConformance, ParallelRowResultsBitExact) {
  // Rows are independent, so a parallel launch cut into many small chunks,
  // each storing its own rows of the uninitialized [n][len] outputs, is
  // still bit-exact: a chunk that skipped or overlapped a row would show.
  for (Nest kind : {Nest::MapOfMap, Nest::Row1, Nest::Row2}) {
    for (NestShape shape : {NestShape{37, 11}, NestShape{300, 37}}) {
      const Prog p = nest_prog(kind);
      const auto args = nest_args(kind, shape.n, shape.m, static_cast<uint64_t>(shape.n + 5));
      const auto ref = rt::Interp({.parallel = false, .use_kernels = false}).run(p, args);
      for (VexecMode mode : {VexecMode::On, VexecMode::Off}) {
        rt::InterpOptions o{.parallel = true, .use_kernels = true, .kernel_lanes = 8, .grain = 4};
        o.use_vexec = mode != VexecMode::Off;
        rt::Interp fast(o);
        const auto got = fast.run(p, args);
        ASSERT_EQ(got.size(), ref.size());
        for (size_t r = 0; r < got.size(); ++r) {
          EXPECT_EQ(rt::as_array(got[r]).shape, rt::as_array(ref[r]).shape) << "output " << r;
          EXPECT_EQ(output_bits(got[r]), output_bits(ref[r])) << "output " << r;
        }
        EXPECT_EQ(fast.stats().kernel_maps.load(), 1u);
        EXPECT_EQ(fast.stats().general_maps.load(), 0u);
      }
    }
  }
}

// Runs `p` with kernels off and on (parallelism off): either both succeed
// with bit-identical outputs, or both raise the same error type and message
// — a kernel that cannot honor the shapes falls back to the general path.
void expect_general_outcome(const Prog& p, const std::vector<Value>& args) {
  auto outcome = [&](bool kernels, std::vector<Value>& out) -> std::string {
    try {
      out = rt::Interp({.parallel = false, .use_kernels = kernels}).run(p, args);
      return "";
    } catch (const ShapeError& e) {
      return std::string("ShapeError: ") + e.what();
    } catch (const TypeError& e) {
      return std::string("TypeError: ") + e.what();
    }
  };
  std::vector<Value> ref, got;
  const std::string want = outcome(false, ref);
  EXPECT_EQ(outcome(true, got), want);
  ASSERT_EQ(got.size(), ref.size());
  for (size_t r = 0; r < got.size(); ++r) EXPECT_EQ(output_bits(got[r]), output_bits(ref[r]));
}

TEST(NestConformance, RaggedRowStreamsRaiseGeneralShapeError) {
  // map(λra rb. map2(+, ra, rb)): rows of unequal length fail the kernel's
  // stream guard, and the general path's inner map raises.
  ProgBuilder pb("rag");
  Var as = pb.param("as", arr_f64(2));
  Var bs = pb.param("bs", arr_f64(2));
  Builder& b = pb.body();
  Var out = b.map1(b.lam({arr_f64(1), arr_f64(1)},
                         [](Builder& c, const std::vector<Var>& rows) {
                           return std::vector<Atom>{Atom(c.map1(
                               c.lam({f64(), f64()},
                                     [](Builder& cc, const std::vector<Var>& q) {
                                       return std::vector<Atom>{Atom(cc.add(q[0], q[1]))};
                                     }),
                               {rows[0], rows[1]}))};
                         }),
                   {as, bs});
  Prog p = pb.finish({Atom(out)});
  typecheck(p);
  support::Rng rng(81);
  const std::vector<Value> ragged = {rt::make_f64_array(rng.uniform_vec(5 * 3, -1, 1), {5, 3}),
                                     rt::make_f64_array(rng.uniform_vec(5 * 4, -1, 1), {5, 4})};
  EXPECT_THROW(rt::Interp({.parallel = false, .use_kernels = false}).run(p, ragged), ShapeError);
  expect_general_outcome(p, ragged);
  // Equal rows take the kernel.
  const std::vector<Value> even = {rt::make_f64_array(rng.uniform_vec(5 * 4, -1, 1), {5, 4}),
                                   rt::make_f64_array(rng.uniform_vec(5 * 4, -1, 1), {5, 4})};
  rt::Interp fast({.parallel = false, .use_kernels = true});
  fast.run(p, even);
  EXPECT_EQ(fast.stats().kernel_maps.load(), 1u);
  expect_general_outcome(p, even);
}

TEST(NestConformance, TiedExtentsGuardAtBind) {
  // Inner maps whose arguments' lengths agree only at run time: a row
  // stream of B next to `replicate (length ra)` (two array extents), and
  // `iota k` next to a row (an extent and a free scalar). Guards tie them
  // when the launch binds: agreeing shapes run one kernel, disagreeing ones
  // fall back to the general path, which raises its ShapeError.
  ProgBuilder pb("tie");
  Var as = pb.param("as", arr_f64(2));
  Var bs = pb.param("bs", arr_f64(2));
  Var k = pb.param("k", i64());
  Builder& b = pb.body();
  std::vector<Var> outs = b.map(
      b.lam({arr_f64(1), arr_f64(1)},
            [k](Builder& c, const std::vector<Var>& rows) {
              Var rep = c.replicate(Atom(c.length(rows[0])), cf64(2.0));
              Var scaled = c.map1(c.lam({f64(), f64()},
                                        [](Builder& cc, const std::vector<Var>& q) {
                                          return std::vector<Atom>{Atom(cc.mul(q[0], q[1]))};
                                        }),
                                  {rows[1], rep});
              Var ramp = c.map1(c.lam({i64(), f64()},
                                      [](Builder& cc, const std::vector<Var>& q) {
                                        Var j = cc.to_f64(q[0]);
                                        return std::vector<Atom>{Atom(cc.add(j, q[1]))};
                                      }),
                                {c.iota(Atom(k)), rows[0]});
              return std::vector<Atom>{Atom(scaled), Atom(ramp)};
            }),
      {as, bs});
  Prog p = pb.finish({Atom(outs[0]), Atom(outs[1])});
  typecheck(p);
  support::Rng rng(83);
  auto args = [&](int64_t ma, int64_t mb, int64_t kv) {
    return std::vector<Value>{rt::make_f64_array(rng.uniform_vec(6 * ma, -1, 1), {6, ma}),
                              rt::make_f64_array(rng.uniform_vec(6 * mb, -1, 1), {6, mb}),
                              Value(kv)};
  };
  const auto even = args(5, 5, 5);
  rt::Interp fast({.parallel = false, .use_kernels = true});
  fast.run(p, even);
  EXPECT_EQ(fast.stats().kernel_maps.load(), 1u);
  EXPECT_EQ(fast.stats().general_maps.load(), 0u);
  expect_general_outcome(p, even);
  for (const auto& bad : {args(5, 4, 5), args(5, 5, 4)}) {
    EXPECT_THROW(rt::Interp({.parallel = false, .use_kernels = false}).run(p, bad), ShapeError);
    expect_general_outcome(p, bad);
  }
}

TEST(NestConformance, RankMismatchedInputFallsBack) {
  // A rank-3 argument for the rank-2 param: the argument contract refuses it
  // on both paths with a ShapeError naming the param, before any launch.
  const Prog p = nested_map_prog();
  support::Rng rng(82);
  rt::Interp fast({.parallel = false, .use_kernels = true});
  const std::vector<Value> cube = {rt::make_f64_array(rng.uniform_vec(3 * 4 * 5, -1, 1), {3, 4, 5})};
  expect_general_outcome(p, cube);
  try {
    fast.run(p, cube);
    ADD_FAILURE() << "rank-3 argument accepted";
  } catch (const ShapeError& e) {
    EXPECT_NE(std::string(e.what()).find("(xss) expects rank 2, got rank 3"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(fast.stats().kernel_maps.load(), 0u);
  // A rank-2 row view of a rank-3 array (nonzero buffer offset) binds and
  // runs as one kernel.
  rt::ArrayVal big = rt::make_f64_array(rng.uniform_vec(3 * 6 * 5, -1.0, 1.0), {3, 6, 5});
  const std::vector<Value> view = {rt::row_view(big, 2)};
  expect_general_outcome(p, view);
  rt::Interp viewed({.parallel = false, .use_kernels = true});
  viewed.run(p, view);
  EXPECT_EQ(viewed.stats().kernel_maps.load(), 1u);
  EXPECT_EQ(viewed.stats().general_maps.load(), 0u);
}

// ------------------------------------------------- vexec conformance grid --

// The vectorized execution tier (runtime/vexec.hpp) must be bit-exact
// against the scalar register machine on every launch shape it can take
// over: {vexec on, off} x {map, fused redomap, row nest, hist, scalar block,
// inline loop} x {empty, tail-only, large}, plus chunked rows — a kernel-tier
// reduce, blocked scan and privatized hist run in parallel with a grain
// small enough that every launch splits, so the fold re-entries (chunk-
// partial merges, scan phase 3, subhistogram bin merges) run on the tier too.

enum class VexKind {
  Map, Redomap, Nest, Hist, ScalarBlock, InlineLoop,
  ChunkedReduce, ChunkedScan, ChunkedHist,
};

struct VexCase {
  VexKind kind;
  int64_t n;  // driving extent: 0 = empty, 3 = tail-only (< lane width), 4096 = large
};

bool chunked(VexKind k) {
  return k == VexKind::ChunkedReduce || k == VexKind::ChunkedScan || k == VexKind::ChunkedHist;
}

// One SOAC over xs whose operator recognize_binop does not take, so it runs
// on the kernel tier: a reduce with slow_add_op, or a scan with `+` written
// with swapped operands.
Prog kernel_fold_prog(bool scan) {
  ProgBuilder pb("kf");
  Var xs = pb.param("xs", arr_f64(1));
  Builder& b = pb.body();
  Var r = scan ? b.scan1(b.lam({f64(), f64()},
                               [](Builder& c, const std::vector<Var>& p) {
                                 return std::vector<Atom>{Atom(c.add(p[1], p[0]))};
                               }),
                         cf64(0.0), {xs})
               : b.reduce1(slow_add_op(b), cf64(0.0), {xs});
  Prog p = pb.finish({Atom(r)});
  typecheck(p);
  return p;
}

// map(λx. Σ_i ws[i]*x) over a virtual iota domain: after fusion the inner
// redomap compiles to an InlineLoop inside the outer map's kernel — the
// shape the vexec tier lowers to its whole-loop micro-kernels.
Prog inline_loop_prog() {
  ProgBuilder pb("il");
  Var xs = pb.param("xs", arr_f64(1));
  Var ws = pb.param("ws", arr_f64(1));
  Builder& b = pb.body();
  Var out = b.map1(
      b.lam({f64()},
            [&](Builder& c, const std::vector<Var>& p) {
              Var is = c.iota(Atom(c.length(ws)));
              Var prods = c.map1(c.lam({i64()},
                                       [&](Builder& cc, const std::vector<Var>& q) {
                                         Var w = cc.index(ws, {Atom(q[0])});
                                         return std::vector<Atom>{Atom(cc.mul(w, p[0]))};
                                       }),
                                 {is});
              return std::vector<Atom>{Atom(c.reduce1(c.add_op(), cf64(0.0), {prods}))};
            }),
      {xs});
  Prog p = pb.finish({Atom(out)});
  typecheck(p);
  opt::FuseStats fs;
  p = opt::fuse_maps(p, &fs);
  typecheck(p);
  return p;
}

// A scalar-only body: slot resolution folds it into one scalar-glue block,
// which the vexec tier executes through its width-1 program (run_scalar).
Prog scalar_block_prog() {
  ProgBuilder pb("sb");
  Var x = pb.param("x", f64());
  Var y = pb.param("y", f64());
  Builder& b = pb.body();
  Var t = b.mul(x, y);
  Var u = b.tanh(Atom(b.add(t, Atom(b.sin(x)))));
  Var v = b.max(u, Atom(b.mul(t, cf64(0.5))));
  Prog p = pb.finish({Atom(v)});
  typecheck(p);
  return p;
}

// Flattens every output (arrays element-wise, scalars directly) so one
// comparison loop covers all workload shapes. EXPECT_EQ on doubles is the
// bit-exactness check (no NaNs in these workloads).
std::vector<double> flatten_outputs(const std::vector<Value>& vs) {
  std::vector<double> out;
  for (const auto& v : vs) {
    if (rt::is_array(v)) {
      const auto& a = rt::as_array(v);
      for (int64_t i = 0; i < a.elems(); ++i) out.push_back(a.get_f64(i));
    } else {
      out.push_back(rt::as_f64(v));
    }
  }
  return out;
}

class VexecConformance : public ::testing::TestWithParam<VexCase> {};

TEST_P(VexecConformance, BitExactAgainstRegisterMachine) {
  const auto [kind, n] = GetParam();
  support::Rng rng(static_cast<uint64_t>(n) * 13 + static_cast<uint64_t>(kind) + 3);

  Prog p = [&] {
    switch (kind) {
      case VexKind::Map: {
        ProgBuilder pb("vm");
        Var xs = pb.param("xs", arr_f64(1));
        Builder& b = pb.body();
        Var out = b.map1(b.lam({f64()},
                               [](Builder& c, const std::vector<Var>& q) {
                                 Var t = c.mul(q[0], cf64(1.3));
                                 return std::vector<Atom>{Atom(c.tanh(Atom(c.add(t, cf64(0.2)))))};
                               }),
                         {xs});
        Prog r = pb.finish({Atom(out)});
        typecheck(r);
        return r;
      }
      case VexKind::Redomap: {
        Prog r = redomap_prog(/*with_map=*/true);
        opt::FuseStats fs;
        r = opt::fuse_maps(r, &fs);
        typecheck(r);
        return r;
      }
      case VexKind::Nest: return nested_lse_prog();  // an inline LSE fold per row
      case VexKind::Hist: return hist_prog(HistOp::SlowAdd, /*with_map=*/true);
      case VexKind::ScalarBlock: return scalar_block_prog();
      case VexKind::InlineLoop: return inline_loop_prog();
      case VexKind::ChunkedReduce: return kernel_fold_prog(/*scan=*/false);
      case VexKind::ChunkedScan: return kernel_fold_prog(/*scan=*/true);
      case VexKind::ChunkedHist: return hist_prog(HistOp::SlowAdd, /*with_map=*/true);
    }
    return scalar_block_prog();
  }();

  std::vector<Value> args;
  switch (kind) {
    case VexKind::Map:
    case VexKind::Redomap:
    case VexKind::ChunkedReduce:
    case VexKind::ChunkedScan:
      args.push_back(rt::make_f64_array(rng.uniform_vec(static_cast<size_t>(n), -1.0, 1.0), {n}));
      break;
    case VexKind::Nest:
      args.push_back(
          rt::make_f64_array(rng.uniform_vec(static_cast<size_t>(n * 7), -1.0, 1.0), {n, 7}));
      break;
    case VexKind::Hist:
    case VexKind::ChunkedHist: {
      args.push_back(rt::make_f64_array(rng.uniform_vec(8, -1.0, 1.0), {8}));  // dest
      std::vector<int64_t> inds(static_cast<size_t>(n));
      for (size_t i = 0; i < inds.size(); ++i) inds[i] = static_cast<int64_t>(i) % 8;
      args.push_back(rt::make_i64_array(std::move(inds), {n}));
      args.push_back(rt::make_f64_array(rng.uniform_vec(static_cast<size_t>(n), -1.0, 1.0), {n}));
      break;
    }
    case VexKind::ScalarBlock:
      args.emplace_back(0.37 + 0.01 * static_cast<double>(n));
      args.emplace_back(-1.21);
      break;
    case VexKind::InlineLoop:
      args.push_back(rt::make_f64_array(rng.uniform_vec(static_cast<size_t>(n), -1.0, 1.0), {n}));
      args.push_back(rt::make_f64_array(rng.uniform_vec(9, -1.0, 1.0), {9}));
      break;
  }

  rt::InterpOptions base{.parallel = chunked(kind), .use_kernels = true, .kernel_lanes = 8};
  if (chunked(kind)) base.grain = 64;
  base.use_vexec = false;
  rt::Interp off{base};
  const auto ref = flatten_outputs(off.run(p, args));
  EXPECT_EQ(off.stats().vexec_launches.load(), 0u);

  rt::InterpOptions vo = base;
  vo.use_vexec = true;
  rt::Interp on{vo};
  const auto got = flatten_outputs(on.run(p, args));
  ASSERT_EQ(got.size(), ref.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], ref[i]) << "at " << i;  // bit-identical
  }
  // Counter movement: the large rows (and the scalar block, which always
  // dispatches) must actually route through the tier; empty and tail-only
  // rows may legitimately skip it (no launch at all).
  if (n >= 4096 || kind == VexKind::ScalarBlock) {
    EXPECT_GT(on.stats().vexec_launches.load(), 0u);
  }
  // The chunked rows take the kernel tier on both sides.
  for (const rt::Interp* in : {&off, &on}) {
    const rt::InterpStats& st = in->stats();
    switch (kind) {
      case VexKind::ChunkedReduce: EXPECT_GE(st.kernel_reduces.load(), 1u); break;
      case VexKind::ChunkedScan: EXPECT_GE(st.kernel_scans.load(), 1u); break;
      case VexKind::ChunkedHist: EXPECT_GE(st.kernel_hists.load(), 1u); break;
      default: break;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, VexecConformance,
    ::testing::Values(VexCase{VexKind::Map, 0}, VexCase{VexKind::Map, 3},
                      VexCase{VexKind::Map, 4096}, VexCase{VexKind::Redomap, 0},
                      VexCase{VexKind::Redomap, 3}, VexCase{VexKind::Redomap, 4096},
                      VexCase{VexKind::Nest, 0}, VexCase{VexKind::Nest, 3},
                      VexCase{VexKind::Nest, 4096}, VexCase{VexKind::Hist, 0},
                      VexCase{VexKind::Hist, 3}, VexCase{VexKind::Hist, 4096},
                      VexCase{VexKind::ScalarBlock, 0}, VexCase{VexKind::ScalarBlock, 3},
                      VexCase{VexKind::ScalarBlock, 4096}, VexCase{VexKind::InlineLoop, 0},
                      VexCase{VexKind::InlineLoop, 3}, VexCase{VexKind::InlineLoop, 4096},
                      VexCase{VexKind::ChunkedReduce, 5003}, VexCase{VexKind::ChunkedScan, 5003},
                      VexCase{VexKind::ChunkedHist, 5003}));

// ---------------------------------------- sequential loops inside kernels
//
// A for-loop in a kernelized lambda runs as a counted InlineLoop: carries
// in registers, trip from the loop's count. Grid: trip kind × where the loop
// sits × vexec on/off, parallelism off, against the general interpreter —
// bit-exact for plain results, to tolerance for accumulators (lanes reorder
// their updates).

enum class LoopTrip { Uniform, Csr, Zero, Negative };
enum class LoopSite { Scalar, Permute, AccCarry, InFold, RedomapPre };

struct LoopCase {
  LoopTrip trip;
  LoopSite site;
  bool vexec;
};

// Row i's trip count: the free scalar t (Uniform, Zero: launch-invariant),
// its CSR segment length (lane-varying), or minus that (lane-varying, <= 0).
Var row_trip(Builder& c, Var rowptr, Var t, Var i, Var lo, LoopTrip kind) {
  if (kind == LoopTrip::Uniform || kind == LoopTrip::Zero) return t;
  Var hi = c.index(rowptr, {Atom(c.add(i, ci64(1)))});
  return kind == LoopTrip::Csr ? c.sub(hi, lo) : c.sub(lo, hi);
}

// vals[(lo + e) mod nnz]: in bounds whatever the trip.
Var seg_val(Builder& c, Var vals, Var lo, Var e) {
  Var at = c.mod(Atom(c.add(lo, e)), Atom(c.length(vals)));
  return c.index(vals, {Atom(at)});
}

Prog counted_loop_prog(LoopTrip kind, LoopSite site) {
  ProgBuilder pb("cl");
  Var rowptr = pb.param("rowptr", arr(ScalarType::I64, 1));
  Var vals = pb.param("vals", arr_f64(1));
  Var t = pb.param("t", i64());
  Var dest = pb.param("dest", arr_f64(1));
  Builder& b = pb.body();
  Var is = b.iota(Atom(b.sub(Atom(b.length(rowptr)), ci64(1))));
  // x' = 0.9 x + v over the row's segment, from `x0`.
  auto damped = [&](Builder& c, Var i, Atom x0) {
    Var lo = c.index(rowptr, {Atom(i)});
    Var trip = row_trip(c, rowptr, t, i, lo, kind);
    return c.loop_for({x0}, Atom(trip), [&](Builder& cc, Var e, const std::vector<Var>& ps) {
      Var v = seg_val(cc, vals, lo, e);
      return std::vector<Atom>{Atom(cc.add(Atom(cc.mul(ps[0], cf64(0.9))), Atom(v)))};
    })[0];
  };
  // Updates acc[(lo + e) mod m] += v*x + 1 through a carried accumulator.
  auto scatter_loop = [&](Builder& c, Var i, Var acc) {
    Var lo = c.index(rowptr, {Atom(i)});
    Var trip = row_trip(c, rowptr, t, i, lo, kind);
    return c.loop_for(
        {Atom(acc), cf64(0.0)}, Atom(trip), [&](Builder& cc, Var e, const std::vector<Var>& ps) {
          Var v = seg_val(cc, vals, lo, e);
          Var at = cc.mod(Atom(cc.add(lo, e)), Atom(cc.length(dest)));
          Var a = cc.upd_acc(ps[0], {Atom(at)}, Atom(cc.add(Atom(cc.mul(v, ps[1])), cf64(1.0))));
          return std::vector<Atom>{Atom(a), Atom(cc.add(ps[1], cf64(0.25)))};
        });
  };
  std::vector<Atom> outs;
  switch (site) {
    case LoopSite::Scalar:
      outs.emplace_back(b.map1(b.lam({i64()},
                                     [&](Builder& c, const std::vector<Var>& p) {
                                       return std::vector<Atom>{Atom(damped(c, p[0], cf64(0.5)))};
                                     }),
                               {is}));
      break;
    case LoopSite::Permute:
      // (a, b, c) <- (b, c + v*a, a): the write-back must not clobber.
      for (Var r : b.map(b.lam({i64()},
                               [&](Builder& c, const std::vector<Var>& p) {
                                 Var lo = c.index(rowptr, {Atom(p[0])});
                                 Var trip = row_trip(c, rowptr, t, p[0], lo, kind);
                                 auto abc = c.loop_for(
                                     {cf64(1.0), cf64(2.0), Atom(c.to_f64(Atom(p[0])))}, Atom(trip),
                                     [&](Builder& cc, Var e, const std::vector<Var>& ps) {
                                       Var v = seg_val(cc, vals, lo, e);
                                       Var nb = cc.add(Atom(ps[2]), Atom(cc.mul(v, ps[0])));
                                       return std::vector<Atom>{Atom(ps[1]), Atom(nb), Atom(ps[0])};
                                     });
                                 return std::vector<Atom>{Atom(abc[0]), Atom(abc[1]), Atom(abc[2])};
                               }),
                         {is})) {
        outs.emplace_back(r);
      }
      break;
    case LoopSite::AccCarry: {
      auto res = b.withacc({dest}, [&](Builder& c, const std::vector<Var>& accs) {
        auto r = c.map(c.lam({i64(), acc_of(arr_f64(1))},
                             [&](Builder& cc, const std::vector<Var>& p) {
                               auto ax = scatter_loop(cc, p[0], p[1]);
                               return std::vector<Atom>{Atom(ax[0]), Atom(ax[1])};
                             }),
                       {is, accs[0]});
        return std::vector<Atom>{Atom(r[0]), Atom(r[1])};
      });
      outs = {Atom(res[0]), Atom(res[1])};
      break;
    }
    case LoopSite::InFold:
      // Σ_j loop(j) over a virtual iota: the loop runs inside an inline fold.
      outs.emplace_back(b.map1(
          b.lam({i64()},
                [&](Builder& c, const std::vector<Var>& p) {
                  Var js = c.iota(ci64(3));
                  Var ys = c.map1(c.lam({i64()},
                                        [&](Builder& cc, const std::vector<Var>& q) {
                                          Atom x0(cc.to_f64(Atom(q[0])));
                                          return std::vector<Atom>{Atom(damped(cc, p[0], x0))};
                                        }),
                                  {js});
                  return std::vector<Atom>{Atom(c.reduce1(c.add_op(), cf64(0.0), {ys}))};
                }),
          {is}));
      break;
    case LoopSite::RedomapPre: {
      // The vjp's psum shape: a redomap whose pre-lambda threads a free
      // accumulator through the loop. max folds exactly in any grouping.
      auto res = b.withacc({dest}, [&](Builder& c, const std::vector<Var>& accs) {
        Var xs = c.map1(c.lam({i64()},
                              [&](Builder& cc, const std::vector<Var>& p) {
                                return std::vector<Atom>{Atom(scatter_loop(cc, p[0], accs[0])[1])};
                              }),
                        {is});
        Var mx = c.reduce1(c.max_op(), cf64(-1e300), {xs});
        return std::vector<Atom>{Atom(accs[0]), Atom(mx)};
      });
      outs = {Atom(res[0]), Atom(res[1])};
      break;
    }
  }
  Prog p = pb.finish(outs);
  typecheck(p);
  if (site == LoopSite::RedomapPre) {
    opt::FuseStats fs;
    p = opt::fuse_maps(p, &fs);
    typecheck(p);
    EXPECT_EQ(fs.fused_redomaps, 1u);
  }
  return p;
}

// 37 CSR rows of 0..5 entries (37 is not a multiple of the lane width).
std::vector<Value> counted_loop_args(LoopTrip kind, uint64_t seed) {
  support::Rng rng(seed);
  std::vector<int64_t> rowptr{0};
  for (int r = 0; r < 37; ++r) rowptr.push_back(rowptr.back() + rng.uniform_int(6));
  const auto nnz = rowptr.back();
  const int64_t t = kind == LoopTrip::Uniform ? 5 : kind == LoopTrip::Zero ? 0 : 3;
  return {rt::make_i64_array(rowptr, {38}),
          rt::make_f64_array(rng.uniform_vec(static_cast<size_t>(nnz), -1.0, 1.0), {nnz}), t,
          rt::make_f64_array(std::vector<double>(7, 0.0), {7})};
}

class CountedLoopConformance : public ::testing::TestWithParam<LoopCase> {};

TEST_P(CountedLoopConformance, KernelMatchesGeneral) {
  const auto [kind, site, vexec] = GetParam();
  const Prog p = counted_loop_prog(kind, site);
  const auto args = counted_loop_args(kind, 41 + static_cast<uint64_t>(site));
  rt::Interp slow({.parallel = false, .use_kernels = false});
  const auto ref = slow.run(p, args);
  rt::InterpOptions o{.parallel = false, .use_kernels = true, .kernel_lanes = 8};
  o.use_vexec = vexec;
  rt::Interp fast(o);
  const auto got = fast.run(p, args);
  ASSERT_EQ(got.size(), ref.size());
  // Accumulator results (output 0 of the acc sites) take their updates in
  // lane order; everything else must be bit-identical.
  const bool acc_out = site == LoopSite::AccCarry || site == LoopSite::RedomapPre;
  for (size_t r = 0; r < got.size(); ++r) {
    const auto g = flatten_outputs({got[r]}), w = flatten_outputs({ref[r]});
    ASSERT_EQ(g.size(), w.size()) << "output " << r;
    for (size_t i = 0; i < g.size(); ++i) {
      if (acc_out && r == 0) {
        EXPECT_NEAR(g[i], w[i], 1e-12 * std::max(1.0, std::fabs(w[i]))) << "output 0 at " << i;
      } else {
        EXPECT_EQ(g[i], w[i]) << "output " << r << " at " << i;
      }
    }
  }
  const auto& st = fast.stats();
  if (site == LoopSite::RedomapPre) {
    EXPECT_EQ(st.kernel_reduces.load(), 1u);
    // Counted as plain adds, trip by trip: a zero trip issues none.
    EXPECT_EQ(st.privatized_updates.load() > 0, kind != LoopTrip::Zero);
  } else {
    EXPECT_EQ(st.kernel_maps.load(), 1u);
  }
  EXPECT_EQ(st.general_maps.load(), 0u);
  EXPECT_EQ(st.general_reduces.load(), 0u);
  // One-lane rule: only a launch-invariant trip keeps W-lane batches.
  if (!vexec) {
    const bool uniform = kind == LoopTrip::Uniform || kind == LoopTrip::Zero;
    EXPECT_EQ(st.batched_launches.load() > 0, uniform);
  }
}

std::vector<LoopCase> counted_loop_grid() {
  std::vector<LoopCase> g;
  for (LoopTrip k : {LoopTrip::Uniform, LoopTrip::Csr, LoopTrip::Zero, LoopTrip::Negative}) {
    for (LoopSite s : {LoopSite::Scalar, LoopSite::Permute, LoopSite::AccCarry, LoopSite::InFold,
                       LoopSite::RedomapPre}) {
      for (bool v : {true, false}) g.push_back({k, s, v});
    }
  }
  return g;
}

std::string counted_loop_name(const ::testing::TestParamInfo<LoopCase>& info) {
  static const char* const trips[] = {"Uniform", "Csr", "Zero", "Negative"};
  static const char* const sites[] = {"Scalar", "Permute", "AccCarry", "InFold", "RedomapPre"};
  return std::string(trips[static_cast<int>(info.param.trip)]) +
         sites[static_cast<int>(info.param.site)] + (info.param.vexec ? "Vexec" : "Regs");
}

INSTANTIATE_TEST_SUITE_P(Grid, CountedLoopConformance, ::testing::ValuesIn(counted_loop_grid()),
                         counted_loop_name);

TEST(CountedLoopConformance, DotShapedLoopKeepsBoundsChecks) {
  // x + A[i, e] * B[i, e] is the vexec tier's fused dot-product shape, but
  // in a for-loop, whose trip is anything, every gather stays checked.
  ProgBuilder pb("dot");
  Var A = pb.param("A", arr_f64(2));
  Var B = pb.param("B", arr_f64(2));
  Var t = pb.param("t", i64());
  Builder& b = pb.body();
  Var out = b.map1(
      b.lam({i64()},
            [&](Builder& c, const std::vector<Var>& p) {
              auto x = c.loop_for({cf64(0.0)}, Atom(t),
                                  [&](Builder& cc, Var e, const std::vector<Var>& ps) {
                                    Var a = cc.index(A, {Atom(p[0]), Atom(e)});
                                    Var bb = cc.index(B, {Atom(p[0]), Atom(e)});
                                    return std::vector<Atom>{Atom(cc.add(ps[0], cc.mul(a, bb)))};
                                  });
              return std::vector<Atom>{Atom(x[0])};
            }),
      {b.iota(Atom(b.length(A)))});
  Prog p = pb.finish({Atom(out)});
  typecheck(p);
  support::Rng rng(43);
  auto args = [&](int64_t trip) {
    return std::vector<Value>{rt::make_f64_array(rng.uniform_vec(40, -1.0, 1.0), {10, 4}),
                              rt::make_f64_array(rng.uniform_vec(40, -1.0, 1.0), {10, 4}), trip};
  };
  rt::Interp slow({.parallel = false, .use_kernels = false});
  rt::Interp fast({.parallel = false, .use_kernels = true, .kernel_lanes = 8});
  const auto ok = args(4);
  EXPECT_EQ(rt::to_f64_vec(rt::as_array(fast.run(p, ok)[0])),
            rt::to_f64_vec(rt::as_array(slow.run(p, ok)[0])));
  const auto past_end = args(5);
  EXPECT_THROW(slow.run(p, past_end), ShapeError);
  EXPECT_THROW(fast.run(p, past_end), ShapeError);
  EXPECT_EQ(fast.stats().general_maps.load(), 0u);
}

TEST(CountedLoopConformance, FusedFoldOverShortStreamRaisesShapeError) {
  // map(λi. reduce(+, 0, map(λj. xs[j] (* ys[j]), iota k))) over free xs and
  // ys: the vexec tier's one-stream fold (and, with `two`, its dot fold).
  // The trip is k, not a row length, so k past the end of either stream must
  // raise the general path's ShapeError on every tier, not read past it.
  for (bool two : {false, true}) {
    ProgBuilder pb("sfold");
    Var xs = pb.param("xs", arr_f64(1));
    Var ys = pb.param("ys", arr_f64(1));
    Var n = pb.param("n", i64());
    Var k = pb.param("k", i64());
    Builder& b = pb.body();
    Var out = b.map1(
        b.lam({i64()},
              [&](Builder& c, const std::vector<Var>&) {
                Var terms = c.map1(c.lam({i64()},
                                         [&](Builder& cc, const std::vector<Var>& q) {
                                           Var x = cc.index(xs, {Atom(q[0])});
                                           if (!two) return std::vector<Atom>{Atom(x)};
                                           Var y = cc.index(ys, {Atom(q[0])});
                                           return std::vector<Atom>{Atom(cc.mul(x, y))};
                                         }),
                                   {c.iota(Atom(k))});
                return std::vector<Atom>{Atom(c.reduce1(c.add_op(), cf64(0.0), {terms}))};
              }),
        {b.iota(Atom(n))});
    opt::FuseStats fs;
    Prog p = opt::fuse_maps(pb.finish({Atom(out)}), &fs);
    typecheck(p);
    support::Rng rng(47);
    auto args = [&](int64_t nx, int64_t ny, int64_t kv) {
      auto vec = [&](int64_t len) {
        return rt::make_f64_array(rng.uniform_vec(static_cast<size_t>(len), -1, 1), {len});
      };
      return std::vector<Value>{vec(nx), vec(ny), int64_t{11}, Value(kv)};
    };
    rt::Interp slow({.parallel = false, .use_kernels = false});
    const auto ok = args(9, 9, 9);
    const auto short_x = args(8, 9, 9);
    const auto short_y = args(9, 8, 9);
    for (VexecMode m : {VexecMode::On, VexecMode::Off}) {
      rt::InterpOptions o{.parallel = false, .use_kernels = true, .kernel_lanes = 8};
      o.use_vexec = m != VexecMode::Off;
      rt::Interp fast(o);
      EXPECT_EQ(output_bits(fast.run(p, ok)[0]), output_bits(slow.run(p, ok)[0]));
      EXPECT_THROW(slow.run(p, short_x), ShapeError);
      EXPECT_THROW(fast.run(p, short_x), ShapeError) << "two=" << two;
      if (two) {
        EXPECT_THROW(slow.run(p, short_y), ShapeError);
        EXPECT_THROW(fast.run(p, short_y), ShapeError);
      }
      EXPECT_EQ(fast.stats().kernel_maps.load(), two ? 3u : 2u);
      EXPECT_EQ(fast.stats().general_maps.load(), 0u);
    }
  }
}

TEST(CountedLoopConformance, OutOfBoundsGatherRaisesShapeError) {
  // The last row's segment reads one past the end of vals.
  ProgBuilder pb("oob");
  Var rowptr = pb.param("rowptr", arr(ScalarType::I64, 1));
  Var vals = pb.param("vals", arr_f64(1));
  Builder& b = pb.body();
  Var is = b.iota(Atom(b.sub(Atom(b.length(rowptr)), ci64(1))));
  Var out = b.map1(
      b.lam({i64()},
            [&](Builder& c, const std::vector<Var>& p) {
              Var lo = c.index(rowptr, {Atom(p[0])});
              Var hi = c.index(rowptr, {Atom(c.add(p[0], ci64(1)))});
              auto x = c.loop_for({cf64(0.0)}, Atom(c.sub(hi, lo)),
                                  [&](Builder& cc, Var e, const std::vector<Var>& ps) {
                                    Var at = cc.add(Atom(cc.add(lo, e)), ci64(1));
                                    Var v = cc.index(vals, {Atom(at)});
                                    return std::vector<Atom>{Atom(cc.add(ps[0], v))};
                                  });
              return std::vector<Atom>{Atom(x[0])};
            }),
      {is});
  Prog p = pb.finish({Atom(out)});
  typecheck(p);
  const std::vector<Value> args = {rt::make_i64_array({0, 2, 3, 6}, {4}),
                                   rt::make_f64_array({1, 2, 3, 4, 5, 6}, {6})};
  rt::Interp slow({.parallel = false, .use_kernels = false});
  EXPECT_THROW(slow.run(p, args), ShapeError);
  for (bool vexec : {true, false}) {
    rt::InterpOptions o{.parallel = false, .use_kernels = true};
    o.use_vexec = vexec;
    rt::Interp fast(o);
    EXPECT_THROW(fast.run(p, args), ShapeError) << "vexec=" << vexec;
    EXPECT_EQ(fast.stats().kernel_maps.load(), 1u) << "vexec=" << vexec;
    EXPECT_EQ(fast.stats().general_maps.load(), 0u) << "vexec=" << vexec;
  }
}

// ------------------------------------------------ per-point reverse bodies --
//
// The shapes the vjp emits for a per-point reverse map (k-means, GMM):
// a distance vmap over the k centroids, an argmin over it, a one-hot adjoint
// `base with [argm] <- base[argm] + y`, an inner map over (iota k, weights)
// threading accumulators, and a `withacc (zeros_like p)` row returned as the
// point's result. Every form must compile the outer map into one kernel.

enum class VirtForm { OneHotZeros, OneHotVmap, ScalarRead, Thread1, Thread2, Row1, Row2 };
using VirtCase = std::tuple<VirtForm, VexecMode>;

struct VirtShape {
  bool one_hot = true;    // inner-map weights: the one-hot (else the distances)
  bool vmap_base = false; // one-hot over a value map (GMM) instead of zeros
  int shared = 0;         // accumulators threaded through the outer and inner maps
  int rows = 0;           // row-bound withacc accumulators
};

VirtShape virt_shape(VirtForm f) {
  switch (f) {
    case VirtForm::OneHotZeros: return {true, false, 1, 0};
    case VirtForm::OneHotVmap: return {true, true, 1, 0};
    case VirtForm::ScalarRead: return {true, true, 0, 0};
    case VirtForm::Thread1: return {false, false, 1, 0};
    case VirtForm::Thread2: return {false, false, 2, 0};
    case VirtForm::Row1: return {true, false, 0, 1};
    case VirtForm::Row2: return {true, false, 0, 2};
  }
  return {};
}

// Per point p (row of P) with weight y: dist_j = Σ (p - C[j])², argm = argmin.
// Results: the point's scalar (dist[argm] + one-hot and base reads), then
// shared accumulators, then rows. Args: C [k][d], P [n][d], ys [n], D [k][d].
Prog virt_prog(VirtForm form) {
  const VirtShape sh = virt_shape(form);
  ProgBuilder pb("virt");
  Var C = pb.param("C", arr_f64(2));
  Var P = pb.param("P", arr_f64(2));
  Var ys = pb.param("ys", arr_f64(1));
  Var D = pb.param("D", arr_f64(2));
  Builder& b = pb.body();
  auto point = [&](Builder& c, Var p, Var y, const std::vector<Var>& shared) {
    Var ks = c.iota(Atom(c.length(C)));
    Var dist = c.map1(c.lam({i64()},
                            [&](Builder& cc, const std::vector<Var>& q) {
                              Var cj = cc.index(C, {Atom(q[0])});
                              Var sq = cc.map1(cc.lam({f64(), f64()},
                                                      [](Builder& c3, const std::vector<Var>& e) {
                                                        Var t = c3.sub(e[0], e[1]);
                                                        return std::vector<Atom>{Atom(c3.mul(t, t))};
                                                      }),
                                               {p, cj});
                              return std::vector<Atom>{
                                  Atom(cc.reduce1(cc.add_op(), cf64(0.0), {sq}))};
                            }),
                      {ks});
    LambdaPtr argmin = c.lam({f64(), i64(), f64(), i64()}, [](Builder& cc,
                                                              const std::vector<Var>& q) {
      Var take = cc.logical_or(Atom(cc.eq(q[1], ci64(-1))), Atom(cc.lt(q[2], q[0])));
      return std::vector<Atom>{Atom(cc.select(Atom(take), Atom(q[2]), Atom(q[0]))),
                               Atom(cc.select(Atom(take), Atom(q[3]), Atom(q[1])))};
    });
    Var argm = c.reduce(std::move(argmin), {cf64(1e300), ci64(-1)},
                        {dist, c.iota(Atom(c.length(dist)))})[1];
    Var base = sh.vmap_base
                   ? c.map1(c.lam({f64()},
                                  [&](Builder& cc, const std::vector<Var>& q) {
                                    return std::vector<Atom>{
                                        Atom(cc.add(Atom(cc.mul(q[0], cf64(0.5))), y))};
                                  }),
                            {dist})
                   : c.zeros_like(dist);
    Var old = c.index(base, {Atom(argm)});
    Var hot = c.update(base, {Atom(argm)}, Atom(c.add(old, y)));
    Var scalar = c.add(Atom(c.index(dist, {Atom(argm)})),
                       Atom(c.add(old, Atom(c.index(hot, {Atom(argm)})))));
    std::vector<Atom> res{Atom(scalar)};
    if (form == VirtForm::ScalarRead) return res;
    // Inner reverse map over (iota k, weights): contribution w * (p - C[j])
    // into shared accumulator row j (and its negation into the second), and
    // into the point's rows.
    auto inner = [&](Builder& ic, const std::vector<Var>& accs) {
      std::vector<Type> ts{i64(), f64()};
      for (Var a : accs) ts.push_back(ic.types().at(a));
      auto r = ic.map(ic.lam(ts,
                             [&](Builder& cc, const std::vector<Var>& q) {
                               Var cj = cc.index(C, {Atom(q[0])});
                               auto contrib = cc.map(
                                   cc.lam({f64(), f64()},
                                          [&](Builder& c3, const std::vector<Var>& e) {
                                            Var t = c3.mul(q[1], Atom(c3.sub(e[0], e[1])));
                                            return std::vector<Atom>{Atom(t), Atom(c3.neg(t))};
                                          }),
                                   {p, cj});
                               std::vector<Atom> out;
                               for (size_t a = 2; a < q.size(); ++a) {
                                 const bool row = sh.rows > 0;
                                 std::vector<Atom> at;
                                 if (!row) at.emplace_back(q[0]);
                                 out.emplace_back(cc.upd_acc(q[a], at, Atom(contrib[(a - 2) % 2])));
                               }
                               return out;
                             }),
                      [&] {
                        std::vector<Var> args{ks, sh.one_hot ? hot : dist};
                        args.insert(args.end(), accs.begin(), accs.end());
                        return args;
                      }());
      return std::vector<Atom>(r.begin(), r.end());
    };
    if (sh.shared > 0) {
      inner(c, shared);
      for (Var a : shared) res.emplace_back(a);
    }
    if (sh.rows > 0) {
      std::vector<Var> zs;
      for (int r = 0; r < sh.rows; ++r) zs.push_back(c.zeros_like(p));
      for (Var row : c.withacc(zs, [&](Builder& wc, const std::vector<Var>& accs) {
             return inner(wc, accs);
           })) {
        res.emplace_back(row);
      }
    }
    return res;
  };
  std::vector<Atom> outs;
  if (sh.shared > 0) {
    std::vector<Var> inits(static_cast<size_t>(sh.shared), D);
    for (Var v : b.withacc(inits, [&](Builder& wc, const std::vector<Var>& accs) {
           std::vector<Type> ts{arr_f64(1), f64()};
           for (Var a : accs) ts.push_back(wc.types().at(a));
           auto r = wc.map(wc.lam(ts,
                                  [&](Builder& cc, const std::vector<Var>& q) {
                                    std::vector<Var> sh_accs(q.begin() + 2, q.end());
                                    std::vector<Atom> rs = point(cc, q[0], q[1], sh_accs);
                                    // Accumulator results first, in parameter order.
                                    std::rotate(rs.begin(), rs.begin() + 1, rs.end());
                                    return rs;
                                  }),
                           [&] {
                             std::vector<Var> args{P, ys};
                             args.insert(args.end(), accs.begin(), accs.end());
                             return args;
                           }());
           return std::vector<Atom>(r.begin(), r.end());
         })) {
      outs.emplace_back(v);
    }
  } else {
    for (Var v : b.map(b.lam({arr_f64(1), f64()},
                             [&](Builder& cc, const std::vector<Var>& q) {
                               return point(cc, q[0], q[1], {});
                             }),
                       {P, ys})) {
      outs.emplace_back(v);
    }
  }
  Prog prog = pb.finish(outs);
  typecheck(prog);
  return prog;
}

std::vector<Value> virt_args(int64_t n, int64_t k, int64_t d, uint64_t seed) {
  support::Rng rng(seed);
  return {rt::make_f64_array(rng.uniform_vec(static_cast<size_t>(k * d), -1.0, 1.0), {k, d}),
          rt::make_f64_array(rng.uniform_vec(static_cast<size_t>(n * d), -1.0, 1.0), {n, d}),
          rt::make_f64_array(rng.uniform_vec(static_cast<size_t>(n), 0.5, 1.5), {n}),
          rt::make_f64_array(std::vector<double>(static_cast<size_t>(k * d), 0.0), {k, d})};
}

rt::InterpOptions virt_opts(VexecMode m, bool parallel) {
  rt::InterpOptions o{.parallel = parallel, .use_kernels = true, .kernel_lanes = 8};
  o.use_vexec = m != VexecMode::Off;
  return o;
}

class VirtualArrayConformance : public ::testing::TestWithParam<VirtCase> {};

TEST_P(VirtualArrayConformance, OneKernelBitExact) {
  const auto [form, mode] = GetParam();
  const Prog p = virt_prog(form);
  // 37 points (not a lane multiple), 5 centroids, 7 coordinates.
  const auto args = virt_args(37, 5, 7, 50 + static_cast<uint64_t>(form));
  rt::Interp slow({.parallel = false, .use_kernels = false});
  const auto ref = slow.run(p, args);
  rt::Interp fast(virt_opts(mode, /*parallel=*/false));
  const auto got = fast.run(p, args);
  ASSERT_EQ(got.size(), ref.size());
  for (size_t r = 0; r < got.size(); ++r) {
    const auto& g = rt::as_array(got[r]);
    const auto& w = rt::as_array(ref[r]);
    EXPECT_EQ(g.shape, w.shape) << "output " << r;
    EXPECT_EQ(rt::to_f64_vec(g), rt::to_f64_vec(w)) << "output " << r;
  }
  EXPECT_EQ(fast.stats().kernel_maps.load(), 1u);
  EXPECT_EQ(fast.stats().general_maps.load(), 0u);
}

std::string virt_name(const ::testing::TestParamInfo<VirtCase>& info) {
  static const char* forms[] = {"OneHotZeros", "OneHotVmap", "ScalarRead", "Thread1",
                                "Thread2",     "Row1",       "Row2"};
  static const char* modes[] = {"On", "Off"};
  return std::string(forms[static_cast<int>(std::get<0>(info.param))]) +
         modes[static_cast<int>(std::get<1>(info.param))];
}

INSTANTIATE_TEST_SUITE_P(
    Grid, VirtualArrayConformance,
    ::testing::Combine(::testing::Values(VirtForm::OneHotZeros, VirtForm::OneHotVmap,
                                         VirtForm::ScalarRead, VirtForm::Thread1,
                                         VirtForm::Thread2, VirtForm::Row1, VirtForm::Row2),
                       ::testing::Values(VexecMode::On, VexecMode::Off)),
    virt_name);

TEST(VirtualArrayConformance, EmptyCentroidsRaiseShapeError) {
  // k = 0: argmin yields -1 and `base[argm]` is out of range in every tier.
  for (VirtForm form : {VirtForm::OneHotZeros, VirtForm::OneHotVmap, VirtForm::Row1}) {
    const Prog p = virt_prog(form);
    const auto args = virt_args(9, 0, 3, 60);
    rt::Interp slow({.parallel = false, .use_kernels = false});
    EXPECT_THROW(slow.run(p, args), ShapeError);
    for (VexecMode m : {VexecMode::On, VexecMode::Off}) {
      rt::Interp fast(virt_opts(m, /*parallel=*/false));
      EXPECT_THROW(fast.run(p, args), ShapeError);
      EXPECT_EQ(fast.stats().kernel_maps.load(), 1u);
      EXPECT_EQ(fast.stats().general_maps.load(), 0u);
    }
  }
}

TEST(VirtualArrayConformance, OutOfRangeIndexRaisesShapeError) {
  // Data-chosen index j = is[i] into a virtual iota-derived vmap: read it
  // (`a[j]`) or one-hot update it (`a with [j]`), then fold the result.
  for (bool update : {false, true}) {
    ProgBuilder pb("oob");
    Var is = pb.param("is", arr(ScalarType::I64, 1));
    Var n = pb.param("n", i64());
    Builder& b = pb.body();
    Var out = b.map1(
        b.lam({i64()},
              [&](Builder& c, const std::vector<Var>& q) {
                Var vs = c.map1(c.lam({i64()},
                                      [](Builder& cc, const std::vector<Var>& e) {
                                        return std::vector<Atom>{Atom(cc.to_f64(Atom(e[0])))};
                                      }),
                                {c.iota(Atom(n))});
                if (!update) return std::vector<Atom>{Atom(c.index(vs, {Atom(q[0])}))};
                Var hot = c.update(vs, {Atom(q[0])}, cf64(-1.0));
                return std::vector<Atom>{Atom(c.reduce1(c.add_op(), cf64(0.0), {hot}))};
              }),
        {is});
    Prog p = pb.finish({Atom(out)});
    typecheck(p);
    const std::vector<Value> ok = {rt::make_i64_array({0, 3, 1, 2}, {4}), int64_t{4}};
    const std::vector<Value> bad = {rt::make_i64_array({0, 3, 4, 2}, {4}), int64_t{4}};
    const std::vector<Value> neg = {rt::make_i64_array({0, -1, 1, 2}, {4}), int64_t{4}};
    rt::Interp slow({.parallel = false, .use_kernels = false});
    for (VexecMode m : {VexecMode::On, VexecMode::Off}) {
      rt::Interp fast(virt_opts(m, /*parallel=*/false));
      EXPECT_EQ(rt::to_f64_vec(rt::as_array(fast.run(p, ok)[0])),
                rt::to_f64_vec(rt::as_array(slow.run(p, ok)[0])));
      for (const auto& args : {bad, neg}) {
        EXPECT_THROW(slow.run(p, args), ShapeError) << "update=" << update;
        EXPECT_THROW(fast.run(p, args), ShapeError) << "update=" << update;
      }
      EXPECT_EQ(fast.stats().kernel_maps.load(), 3u);
      EXPECT_EQ(fast.stats().general_maps.load(), 0u);
    }
  }
}

TEST(VirtualArrayConformance, HeavyMapFansOutByWork) {
  // 256 points whose reverse body loops over 16 centroids × 25 coordinates:
  // far below the element grain, but heavy enough per element that the
  // launch splits into chunks — observable as a privatized launch of the
  // shared accumulator, which only a fanned-out launch privatizes.
  const Prog p = virt_prog(VirtForm::OneHotZeros);
  const auto args = virt_args(256, 16, 25, 70);
  rt::Interp slow({.parallel = false, .use_kernels = false});
  const auto ref = slow.run(p, args);
  rt::Interp fast(virt_opts(VexecMode::On, /*parallel=*/true));
  const auto got = fast.run(p, args);
  ASSERT_EQ(got.size(), ref.size());
  for (size_t r = 0; r < got.size(); ++r) {
    const auto g = rt::to_f64_vec(rt::as_array(got[r]));
    const auto w = rt::to_f64_vec(rt::as_array(ref[r]));
    ASSERT_EQ(g.size(), w.size());
    for (size_t i = 0; i < g.size(); ++i) {
      EXPECT_NEAR(g[i], w[i], 1e-12 * std::max(1.0, std::fabs(w[i]))) << r << " at " << i;
    }
  }
  EXPECT_EQ(fast.stats().kernel_maps.load(), 1u);
  EXPECT_EQ(fast.stats().privatized_launches.load(), 1u);
  // Every update is counted: k rows of d per point into the shared accumulator.
  EXPECT_EQ(fast.stats().privatized_updates.load(), 256u * 16u * 25u);
}

// ---------------------------------------------- lane-shaped loop operands --
//
// vexec binds every stride-1 access of an inline loop body — a gather, an
// UpdAcc or a row result's StoreIdx whose trailing index is its loop's
// variable and whose leads the loop never writes — once per loop entry,
// and computes expensive ops on lane-uniform operands once. Grid: access
// kind × W ∈ {1, 8} × (outer extent, inner trip) × {vexec on, off} ×
// {privatized, atomic} accumulators, parallelism off. The register machine
// (vexec off) must match the general interpreter bit for bit, and vexec
// must match the register machine bit for bit. Leads are
// per-row (varying across lanes) or a free scalar / an enclosing loop's
// variable (lane-uniform).

enum class StreamKind {
  GatherRow,      // Σ_j f(A[i+off][j]): a varying-row gather stream
  GatherUniform,  // Σ_j A[i][j]·exp(Q[s][j]) + Q[s][j]/c: uniform stream, uniform exp and div
  GatherNested,   // Σ_kk Σ_j (A[i][j] − Q[kk][j])²·exp(Q[kk][j]): lead = outer loop var (GMM)
  UpdAcc,         // G[s][j] += A[i][j]·c (uniform row), H[i+off][j] += … (varying row)
  Axpy2,          // G[s][j] += c·A[i][j], H[i][j] += Q[s][j]·c: the dual-scatter form
  StoreRow,       // row result map(λj. tanh(A[i+off][j])·c, iota mt): StoreIdx stream
  MatMul,         // C[i][j] = Σ_kk A[i][kk]·Q[kk][j]: B's lead is the inner loop's variable
};

constexpr int64_t kStreamCols = 13;  // columns of A, Q, G, H
constexpr int64_t kStreamRows = 5;   // rows of Q and G

// Threads `accs` through map(λj acc…. body(j, acc…), iota mt): `body`
// returns the updated accumulators.
std::vector<Var> thread_accs(Builder& b, Atom mt, const std::vector<Var>& accs,
                             const std::function<std::vector<Atom>(
                                 Builder&, Var, const std::vector<Var>&)>& body) {
  std::vector<Type> ts{i64()};
  for (Var a : accs) ts.push_back(b.types().at(a));
  std::vector<Var> args{b.iota(mt)};
  args.insert(args.end(), accs.begin(), accs.end());
  return b.map(b.lam(ts,
                     [&](Builder& c, const std::vector<Var>& q) {
                       return body(c, q[0], std::vector<Var>(q.begin() + 1, q.end()));
                     }),
               args);
}

// Params: A [n][13], Q [5][13], G [5][13], H [n][13] (accumulator inits),
// s (row of Q and G), mt (inner trip), off (row offset into A and H), c.
Prog stream_prog(StreamKind kind) {
  ProgBuilder pb("stream");
  Var A = pb.param("A", arr_f64(2));
  Var Q = pb.param("Q", arr_f64(2));
  Var G = pb.param("G", arr_f64(2));
  Var H = pb.param("H", arr_f64(2));
  Var s = pb.param("s", i64());
  Var mt = pb.param("mt", i64());
  Var off = pb.param("off", i64());
  Var cv = pb.param("c", f64());
  Builder& b = pb.body();
  auto sum_over = [&](Builder& c, Atom extent, const Builder::LamFn& term) {
    Var terms = c.map1(c.lam({i64()}, term), {c.iota(extent)});
    return c.reduce1(c.add_op(), cf64(0.0), {terms});
  };
  auto per_row = [&](const Builder::LamFn& f) {
    return b.map(b.lam({i64()}, f), {b.iota(Atom(b.length(A)))});
  };
  std::vector<Var> outs;
  switch (kind) {
    case StreamKind::GatherRow:
      outs = per_row([&](Builder& c, const std::vector<Var>& i) {
        Var io = c.add(i[0], off);
        return std::vector<Atom>{Atom(sum_over(c, mt, [&](Builder& cc, const std::vector<Var>& j) {
          Var x = cc.index(A, {Atom(io), Atom(j[0])});
          return std::vector<Atom>{Atom(cc.add(Atom(cc.mul(Atom(cc.tanh(x)), cf64(0.5))), x))};
        }))};
      });
      break;
    case StreamKind::GatherUniform:
      outs = per_row([&](Builder& c, const std::vector<Var>& i) {
        return std::vector<Atom>{Atom(sum_over(c, mt, [&](Builder& cc, const std::vector<Var>& j) {
          Var q = cc.index(Q, {Atom(s), Atom(j[0])});
          Var a = cc.index(A, {Atom(i[0]), Atom(j[0])});
          Var t = cc.mul(a, Atom(cc.exp(q)));
          return std::vector<Atom>{Atom(cc.add(t, Atom(cc.div(q, cv))))};
        }))};
      });
      break;
    case StreamKind::GatherNested:
      outs = per_row([&](Builder& c, const std::vector<Var>& i) {
        return std::vector<Atom>{Atom(sum_over(
            c, Atom(c.length(Q)), [&](Builder& cc, const std::vector<Var>& kk) {
              return std::vector<Atom>{Atom(sum_over(
                  cc, mt, [&](Builder& c3, const std::vector<Var>& j) {
                    Var q = c3.index(Q, {Atom(kk[0]), Atom(j[0])});
                    Var d = c3.sub(Atom(c3.index(A, {Atom(i[0]), Atom(j[0])})), q);
                    return std::vector<Atom>{Atom(c3.mul(Atom(c3.mul(d, d)), Atom(c3.exp(q))))};
                  }))};
            }))};
      });
      break;
    case StreamKind::UpdAcc:
    case StreamKind::Axpy2:
      outs = b.withacc({G, H}, [&](Builder& wc, const std::vector<Var>& accs) {
        std::vector<Type> ts{i64(), wc.types().at(accs[0]), wc.types().at(accs[1])};
        auto r = wc.map(
            wc.lam(ts,
                   [&](Builder& c, const std::vector<Var>& q) {
                     Var io = c.add(q[0], off);
                     auto res = thread_accs(
                         c, Atom(mt), {q[1], q[2]},
                         [&](Builder& cc, Var j, const std::vector<Var>& acc) {
                           Var a = cc.index(A, {Atom(q[0]), Atom(j)});
                           if (kind == StreamKind::UpdAcc) {
                             Var p = cc.mul(a, cv);
                             Var g = cc.upd_acc(acc[0], {Atom(s), Atom(j)}, Atom(p));
                             Var h = cc.upd_acc(acc[1], {Atom(io), Atom(j)},
                                                Atom(cc.add(p, cf64(1.0))));
                             return std::vector<Atom>{Atom(g), Atom(h)};
                           }
                           Var qv = cc.index(Q, {Atom(s), Atom(j)});
                           Var p1 = cc.mul(cv, a);
                           Var p2 = cc.mul(qv, cv);
                           Var g = cc.upd_acc(acc[0], {Atom(s), Atom(j)}, Atom(p1));
                           Var h = cc.upd_acc(acc[1], {Atom(q[0]), Atom(j)}, Atom(p2));
                           return std::vector<Atom>{Atom(g), Atom(h)};
                         });
                     return std::vector<Atom>{Atom(res[0]), Atom(res[1])};
                   }),
            {wc.iota(Atom(wc.length(A))), accs[0], accs[1]});
        return std::vector<Atom>{Atom(r[0]), Atom(r[1])};
      });
      break;
    case StreamKind::StoreRow:
      outs = per_row([&](Builder& c, const std::vector<Var>& i) {
        Var io = c.add(i[0], off);
        Var row = c.map1(c.lam({i64()},
                               [&](Builder& cc, const std::vector<Var>& j) {
                                 Var x = cc.index(A, {Atom(io), Atom(j[0])});
                                 return std::vector<Atom>{Atom(cc.mul(Atom(cc.tanh(x)), cv))};
                               }),
                         {c.iota(Atom(mt))});
        return std::vector<Atom>{Atom(row)};
      });
      break;
    case StreamKind::MatMul:
      outs = per_row([&](Builder& c, const std::vector<Var>& i) {
        Var row = c.map1(
            c.lam({i64()},
                  [&](Builder& cc, const std::vector<Var>& j) {
                    return std::vector<Atom>{Atom(sum_over(
                        cc, Atom(cc.length(Q)), [&](Builder& c3, const std::vector<Var>& kk) {
                          Var a = c3.index(A, {Atom(i[0]), Atom(kk[0])});
                          Var q = c3.index(Q, {Atom(kk[0]), Atom(j[0])});
                          return std::vector<Atom>{Atom(c3.mul(a, q))};
                        }))};
                  }),
            {c.iota(Atom(mt))});
        return std::vector<Atom>{Atom(row)};
      });
      break;
  }
  Prog p = pb.finish(std::vector<Atom>(outs.begin(), outs.end()));
  typecheck(p);
  opt::FuseStats fs;
  p = opt::fuse_maps(p, &fs);
  typecheck(p);
  return p;
}

struct StreamShape {
  int64_t n, mt;
};

std::vector<Value> stream_args(int64_t n, int64_t mt, int64_t s, int64_t off, uint64_t seed) {
  support::Rng rng(seed);
  auto mat = [&](int64_t rows) {
    return rt::make_f64_array(
        rng.uniform_vec(static_cast<size_t>(rows * kStreamCols), -1.0, 1.0), {rows, kStreamCols});
  };
  return {mat(n), mat(kStreamRows), mat(kStreamRows), mat(n), Value(s), Value(mt),
          Value(off), 1.7};
}

rt::InterpOptions stream_opts(VexecMode m, int lanes, bool privatize) {
  rt::InterpOptions o{.parallel = false, .use_kernels = true, .kernel_lanes = lanes};
  o.privatize_accs = privatize;
  o.use_vexec = m != VexecMode::Off;
  return o;
}

std::vector<std::vector<uint64_t>> all_bits(const std::vector<Value>& vs) {
  std::vector<std::vector<uint64_t>> out;
  for (const Value& v : vs) out.push_back(output_bits(v));
  return out;
}

using StreamCase = std::tuple<StreamKind, int, StreamShape, VexecMode, bool>;

class StreamConformance : public ::testing::TestWithParam<StreamCase> {};

TEST_P(StreamConformance, BitExactAgainstRegisterMachine) {
  const auto [kind, lanes, shape, mode, privatize] = GetParam();
  const Prog p = stream_prog(kind);
  const auto args = stream_args(shape.n, shape.mt, /*s=*/3, /*off=*/0,
                                static_cast<uint64_t>(shape.n * 17 + shape.mt + lanes));
  const auto general = rt::Interp({.parallel = false, .use_kernels = false}).run(p, args);
  rt::Interp regs(stream_opts(VexecMode::Off, lanes, privatize));
  const auto ref = regs.run(p, args);
  EXPECT_EQ(all_bits(ref), all_bits(general));
  rt::Interp fast(stream_opts(mode, lanes, privatize));
  const auto got = fast.run(p, args);
  ASSERT_EQ(got.size(), ref.size());
  for (size_t r = 0; r < got.size(); ++r) {
    EXPECT_EQ(rt::as_array(got[r]).shape, rt::as_array(ref[r]).shape) << "output " << r;
    EXPECT_EQ(output_bits(got[r]), output_bits(ref[r])) << "output " << r;
  }
  EXPECT_EQ(fast.stats().general_maps.load(), 0u);
  EXPECT_EQ(fast.stats().kernel_maps.load(), 1u);
}

std::string stream_name(const ::testing::TestParamInfo<StreamCase>& info) {
  static const char* kinds[] = {"GatherRow", "GatherUniform", "GatherNested", "UpdAcc",
                                "Axpy2",     "StoreRow",      "MatMul"};
  static const char* modes[] = {"On", "Off"};
  const StreamShape sh = std::get<2>(info.param);
  return std::string(kinds[static_cast<int>(std::get<0>(info.param))]) + "W" +
         std::to_string(std::get<1>(info.param)) + "_n" + std::to_string(sh.n) + "t" +
         std::to_string(sh.mt) + modes[static_cast<int>(std::get<3>(info.param))] +
         (std::get<4>(info.param) ? "Priv" : "Atomic");
}

INSTANTIATE_TEST_SUITE_P(
    Grid, StreamConformance,
    ::testing::Combine(::testing::Values(StreamKind::GatherRow, StreamKind::GatherUniform,
                                         StreamKind::GatherNested, StreamKind::UpdAcc,
                                         StreamKind::Axpy2, StreamKind::StoreRow,
                                         StreamKind::MatMul),
                       ::testing::Values(1, 8),
                       // zero and one trip; tail-only (n < W); full batches
                       // (+ tail) with a trip short of, and equal to, the columns
                       ::testing::Values(StreamShape{37, 0}, StreamShape{37, 1},
                                         StreamShape{3, 7}, StreamShape{37, 9},
                                         StreamShape{16, kStreamCols}),
                       ::testing::Values(VexecMode::On, VexecMode::Off),
                       ::testing::Bool()),
    stream_name);

// Runs `p` on the general path, the register machine and vexec: all three
// raise ShapeError, the kernel tiers with the register machine's message.
void expect_register_machine_error(const Prog& p, const std::vector<Value>& args,
                                   const std::string& what) {
  EXPECT_THROW(rt::Interp({.parallel = false, .use_kernels = false}).run(p, args), ShapeError)
      << what;
  auto message = [&](VexecMode m, bool privatize) -> std::string {
    try {
      rt::Interp(stream_opts(m, 8, privatize)).run(p, args);
    } catch (const ShapeError& e) {
      return e.what();
    }
    return "no error";
  };
  for (bool privatize : {true, false}) {
    const std::string want = message(VexecMode::Off, privatize);
    EXPECT_NE(want, "no error") << what;
    EXPECT_EQ(message(VexecMode::On, privatize), want) << what;
  }
}

TEST(StreamConformance, ShortStreamRaisesRegisterMachineError) {
  // A trip one past the columns: the stream does not fit its array, stays
  // unbound, and its checked access raises at the register machine's point.
  for (StreamKind kind : {StreamKind::GatherRow, StreamKind::GatherUniform,
                          StreamKind::GatherNested, StreamKind::UpdAcc, StreamKind::Axpy2,
                          StreamKind::StoreRow}) {
    const auto args = stream_args(21, kStreamCols + 1, 3, 0, 91);
    expect_register_machine_error(stream_prog(kind), args,
                                  "kind " + std::to_string(static_cast<int>(kind)));
  }
}

// Runs `p` on the register machine and vexec, privatized and atomic: every
// result is bit-exact against the general path.
void expect_general_result(const Prog& p, const std::vector<Value>& args,
                           const std::string& what) {
  const auto general = all_bits(rt::Interp({.parallel = false, .use_kernels = false}).run(p, args));
  for (bool privatize : {true, false}) {
    for (VexecMode m : {VexecMode::Off, VexecMode::On}) {
      EXPECT_EQ(all_bits(rt::Interp(stream_opts(m, 8, privatize)).run(p, args)), general)
          << what << ", vexec mode " << static_cast<int>(m) << ", privatize " << privatize;
    }
  }
}

TEST(StreamConformance, OutOfRangeLeadRaisesRegisterMachineError) {
  // A uniform lead past Q's and G's rows (s = 5), and a varying lead past
  // A's and H's rows in the last lane only (off = 1). An out-of-range
  // upd_acc is ignored on every tier, as the paper's scatter ignores such
  // writes: the UpdAcc kind must match the general path instead.
  auto check = [](StreamKind kind, const std::vector<Value>& args, const std::string& what) {
    const std::string w = what + ", kind " + std::to_string(static_cast<int>(kind));
    if (kind == StreamKind::UpdAcc) {
      expect_general_result(stream_prog(kind), args, w);
    } else {
      expect_register_machine_error(stream_prog(kind), args, w);
    }
  };
  for (StreamKind kind : {StreamKind::GatherUniform, StreamKind::UpdAcc, StreamKind::Axpy2}) {
    check(kind, stream_args(21, 9, kStreamRows, 0, 92), "uniform lead");
  }
  for (StreamKind kind : {StreamKind::GatherRow, StreamKind::UpdAcc, StreamKind::StoreRow}) {
    check(kind, stream_args(21, 9, 3, 1, 93), "varying lead");
  }
}

// Lowered programs (W = 8) of every map kernel in `p`: the artifacts the
// stream and uniform analyses write into.
struct Lowered {
  std::shared_ptr<const rt::Kernel> k;
  std::shared_ptr<const rt::vexec::Entry> e;
};

void collect_maps(const Body& b, std::vector<LambdaPtr>& out) {
  for (const Stm& st : b.stms) {
    if (const auto* m = std::get_if<OpMap>(&st.e)) out.push_back(m->f);
    for_each_nested(st.e, [&](const NestedScope& sc) { collect_maps(*sc.body, out); });
  }
}

std::vector<Lowered> lowered_maps(const Prog& p) {
  std::vector<LambdaPtr> lams;
  collect_maps(p.fn.body, lams);
  std::vector<Lowered> out;
  for (const LambdaPtr& f : lams) {
    std::optional<rt::Kernel> k = rt::compile_kernel(*f);
    if (!k) continue;
    if (std::optional<rt::vexec::Entry> e = rt::vexec::lower(*k)) {
      out.push_back({std::make_shared<const rt::Kernel>(std::move(*k)),
                     std::make_shared<const rt::vexec::Entry>(std::move(*e))});
    }
  }
  return out;
}

using rt::vexec::VOp;

bool gather_form(VOp op) {
  return op == VOp::Gather || op == VOp::GatherMul || op == VOp::GatherAdd;
}

// Loop-form ops of `lw` whose loop binds at least one stream.
int streamed_loops(const Lowered& lw, VOp form) {
  int n = 0;
  for (const auto& in : lw.e->wide.code) {
    if (in.op == form && !lw.e->wide.loops[static_cast<size_t>(in.slot)].streams.empty()) ++n;
  }
  return n;
}

// Loops of `lw` that run by trip tiles (tile code lowered).
int tiled_loops(const Lowered& lw) {
  int n = 0;
  for (const auto& vl : lw.e->wide.loops) n += vl.tile_end > vl.tile_begin;
  return n;
}

// Loops of `lw` that run their whole trip as one tile whose code is `ops`,
// in order, with no map pass when `fold` (a fold-major fold part only).
int whole_trip_loops(const Lowered& lw, const std::vector<VOp>& ops, bool fold) {
  const auto& w = lw.e->wide;
  int n = 0;
  for (const auto& vl : w.loops) {
    bool same = vl.whole_trip && vl.tile_end - vl.tile_begin == ops.size() &&
                (vl.tile_mid == vl.tile_begin) == fold && (!fold || vl.fold_major);
    for (size_t i = 0; same && i < ops.size(); ++i) same = w.tile_code[vl.tile_begin + i].op == ops[i];
    n += same;
  }
  return n;
}

// Uniform exp/neg-exp ops whose operand a stream gather from a free array
// named `array…` produced.
int uniform_exps_of(const Lowered& lw, const Prog& p, const std::string& array) {
  const auto& code = lw.e->wide.code;
  int n = 0;
  for (const auto& in : code) {
    if ((in.op != VOp::Exp && in.op != VOp::NegExp) || !(in.flags & rt::vexec::kUniform)) continue;
    for (const auto& g : code) {
      if (g.op == VOp::Gather && g.d == in.a && g.s >= 0 &&
          p.mod->name(lw.k->free_arrays[static_cast<size_t>(g.slot)]).rfind(array, 0) == 0) {
        ++n;
      }
    }
  }
  return n;
}

template <class F>
int count_over(const std::vector<Lowered>& ls, F f) {
  int n = 0;
  for (const Lowered& lw : ls) n += f(lw);
  return n;
}

int count_ops(const std::vector<Lowered>& ls, VOp op, bool uniform) {
  return count_over(ls, [&](const Lowered& lw) {
    int n = 0;
    for (const auto& in : lw.e->wide.code) {
      n += in.op == op && ((in.flags & rt::vexec::kUniform) != 0) == uniform;
    }
    return n;
  });
}

TEST(StreamLowering, GridProgramsBindTheirStreams) {
  // Each grid program's outer map kernel (its first map; the later ones are
  // the nested lambdas compiled standalone) lowers as the grid's comments say.
  auto outer = [](StreamKind kind) { return lowered_maps(stream_prog(kind)).front(); };
  auto streams = [](const Lowered& lw, VOp op) {
    int n = 0;
    for (const auto& in : lw.e->wide.code) {
      n += (op == VOp::Gather ? gather_form(in.op) : in.op == op) && in.s >= 0;
    }
    return n;
  };
  auto ops = [](const Lowered& lw, VOp op, bool uniform) { return count_ops({lw}, op, uniform); };

  const Lowered row = outer(StreamKind::GatherRow);
  EXPECT_EQ(streamed_loops(row, VOp::Loop), 1);
  EXPECT_EQ(streams(row, VOp::Gather), 1);
  EXPECT_EQ(ops(row, VOp::Tanh, false), 1);

  const Lowered uni = outer(StreamKind::GatherUniform);
  EXPECT_EQ(streams(uni, VOp::Gather), 2);
  EXPECT_EQ(ops(uni, VOp::Exp, true), 1);
  EXPECT_EQ(ops(uni, VOp::Div, true), 1);

  const Lowered nested = outer(StreamKind::GatherNested);
  EXPECT_EQ(streams(nested, VOp::Gather), 2);
  EXPECT_EQ(ops(nested, VOp::Exp, true), 1);

  const Lowered upd = outer(StreamKind::UpdAcc);
  EXPECT_EQ(streams(upd, VOp::UpdAcc), 2);
  EXPECT_EQ(streams(upd, VOp::Gather), 1);

  // The dual scatter tiles as two MulUpd passes over its stream operands.
  const Lowered axpy2 = outer(StreamKind::Axpy2);
  EXPECT_EQ(tiled_loops(axpy2), 1);
  EXPECT_EQ(whole_trip_loops(axpy2, {VOp::MulUpd, VOp::MulUpd}, false), 1);
  EXPECT_EQ(streams(outer(StreamKind::StoreRow), VOp::StoreIdx), 1);

  // MatMul: A[i][kk] streams in the inner loop; Q[kk][j] trails with the
  // outer loop's variable but leads with the inner one's, which the outer
  // body's nested loop rewrites every trip, so it stays on the checked path.
  const Lowered mm = outer(StreamKind::MatMul);
  EXPECT_EQ(streams(mm, VOp::Gather), 1);
  EXPECT_EQ(streams(mm, VOp::StoreIdx), 1);
  EXPECT_EQ(ops(mm, VOp::GatherMul, false), 1);
}

// The serving artifact: vjp of the pre-fusion primal, then opt::optimize.
Prog optimized_gradient(Prog primal) {
  typecheck(primal);
  Prog g = opt::optimize(ad::vjp(primal));
  typecheck(g);
  return g;
}

TEST(StreamLowering, GmmAndKmeansGradientsBindStreamsAndUniformExp) {
  const Prog gmm = optimized_gradient(apps::gmm_ir_objective());
  const auto gl = lowered_maps(gmm);
  EXPECT_GE(count_over(gl, [](const Lowered& lw) { return streamed_loops(lw, VOp::Loop); }), 1);
  // exp qs[p][t]: the cluster row p is an enclosing loop's variable, the
  // same in every lane, so the exp is computed once per trip.
  EXPECT_GE(count_over(gl, [&](const Lowered& lw) { return uniform_exps_of(lw, gmm, "qs"); }),
            1);
  const auto kl = lowered_maps(optimized_gradient(apps::kmeans_ir_cost()));
  EXPECT_GE(count_over(kl, [](const Lowered& lw) { return streamed_loops(lw, VOp::Loop); }), 1);
  // Their innermost loops (the d-wide folds and scatters) run by tiles.
  EXPECT_GE(count_over(gl, tiled_loops), 2);
  EXPECT_GE(count_over(kl, tiled_loops), 2);
  // Neither has the dual scatter; LSTM's reverse sweep does, and its dot
  // products run as one MulAdd fold pass over two stream operands.
  auto axpy2 = [](const Lowered& lw) {
    return whole_trip_loops(lw, {VOp::MulUpd, VOp::MulUpd}, false);
  };
  EXPECT_EQ(count_over(gl, axpy2), 0);
  EXPECT_EQ(count_over(kl, axpy2), 0);
  const auto ll = lowered_maps(optimized_gradient(apps::lstm_ir_objective()));
  EXPECT_GE(count_over(ll, tiled_loops), 1);
  EXPECT_GE(count_over(ll, axpy2), 1);
  EXPECT_GE(count_over(ll, [](const Lowered& lw) {
              return whole_trip_loops(lw, {VOp::MulAdd}, true);
            }),
            1);
}

// ---------------------------------------------------------------------------
// Trip-tile conformance grid (runtime/vexec.hpp, point 3): kind × W ∈ {1, 8}
// × inner trip around the tile size T = tile_trips(W) (0, 1, T−1, T, T+1,
// 2T+3) × {vexec on, off} × {privatized, atomic} accumulators, parallelism
// off. The register machine and vexec must both match the general
// interpreter bit for bit.

enum class TileKind {
  Fold,      // Σ_j (A[i+off][j] − Q[s][j])²·exp(Q[s][j]) + Q[s][j]/c: uniform exp and div
  Pair,      // (Σ_j A·Q, Σ_j (A + Q)): two folds, as hvp's (primal, tangent) pairs
  Argmin,    // argmin_j of A[i][j]·Q[s][j], with its value and Q[s][j]: a 3-result fold
  Scatter,   // G[s][j] += A[i][j]·c (uniform row), H[i][j] += exp(A[i][j]): UpdAcc streams
  Store,     // row result map(λj. tanh(A[i][j])·c, iota mt): a StoreIdx stream
  Aliased,   // H[i][I[j]] += A[i][j], H[i][J[j]] += c: two UpdAccs that may hit one cell
  Indirect,  // Σ_j A[i][I[j]] + Q[s][J[j]]: two checked gathers in a pure body
  Dot,       // Σ_j A[i][j]·Q[s][j] in all four operand orders, Σ_j A[i][j] in both
  Axpy2,     // G[s][j] += c·Q[s][j], H[i][j] += A[i][j]·c: LSTM's dual scatter
};

constexpr int64_t kTileCols = 2 * rt::vexec::tile_trips(1) + 3;  // the widest trip
constexpr int64_t kTileN = 19;  // two full W = 8 batches and a tail of 3

// Params: A [n][cols], Q [5][cols], G [5][cols], H [n][cols], I [cols],
// J [cols], s, mt (inner trip), off (row offset into A), c.
Prog tile_prog(TileKind kind) {
  ProgBuilder pb("tile");
  Var A = pb.param("A", arr_f64(2));
  Var Q = pb.param("Q", arr_f64(2));
  Var G = pb.param("G", arr_f64(2));
  Var H = pb.param("H", arr_f64(2));
  Var I = pb.param("I", arr(ScalarType::I64, 1));
  Var J = pb.param("J", arr(ScalarType::I64, 1));
  Var s = pb.param("s", i64());
  Var mt = pb.param("mt", i64());
  Var off = pb.param("off", i64());
  Var cv = pb.param("c", f64());
  Builder& b = pb.body();
  // A map over iota mt of `term`, folded by `op` from `ne`.
  auto fold = [&](Builder& c, LambdaPtr op, const std::vector<Atom>& ne,
                  const Builder::LamFn& term) {
    auto terms = c.map(c.lam({i64()}, term), {c.iota(Atom(mt))});
    return c.reduce(std::move(op), ne, terms);
  };
  auto per_row = [&](const Builder::LamFn& f) {
    return b.map(b.lam({i64()}, f), {b.iota(Atom(b.length(A)))});
  };
  std::vector<Var> outs;
  switch (kind) {
    case TileKind::Fold:
      outs = per_row([&](Builder& c, const std::vector<Var>& i) {
        Var io = c.add(i[0], off);
        return std::vector<Atom>{Atom(fold(c, c.add_op(), {cf64(0.0)},
                                           [&](Builder& cc, const std::vector<Var>& j) {
          Var q = cc.index(Q, {Atom(s), Atom(j[0])});
          Var d = cc.sub(Atom(cc.index(A, {Atom(io), Atom(j[0])})), q);
          Var t = cc.mul(Atom(cc.mul(d, d)), Atom(cc.exp(q)));
          return std::vector<Atom>{Atom(cc.add(t, Atom(cc.div(q, cv))))};
        })[0])};
      });
      break;
    case TileKind::Pair:
      outs = per_row([&](Builder& c, const std::vector<Var>& i) {
        LambdaPtr op = c.lam({f64(), f64(), f64(), f64()},
                             [](Builder& cc, const std::vector<Var>& q) {
                               return std::vector<Atom>{Atom(cc.add(q[0], q[2])),
                                                        Atom(cc.add(q[1], q[3]))};
                             });
        auto r = fold(c, std::move(op), {cf64(0.0), cf64(0.0)},
                      [&](Builder& cc, const std::vector<Var>& j) {
                        Var a = cc.index(A, {Atom(i[0]), Atom(j[0])});
                        Var q = cc.index(Q, {Atom(s), Atom(j[0])});
                        return std::vector<Atom>{Atom(cc.mul(a, q)), Atom(cc.add(a, q))};
                      });
        return std::vector<Atom>{Atom(r[0]), Atom(r[1])};
      });
      break;
    case TileKind::Argmin:
      outs = per_row([&](Builder& c, const std::vector<Var>& i) {
        LambdaPtr op = c.lam({f64(), i64(), f64(), f64(), i64(), f64()},
                             [](Builder& cc, const std::vector<Var>& q) {
                               Var take = cc.logical_or(Atom(cc.eq(q[1], ci64(-1))),
                                                        Atom(cc.lt(q[3], q[0])));
                               return std::vector<Atom>{
                                   Atom(cc.select(Atom(take), Atom(q[3]), Atom(q[0]))),
                                   Atom(cc.select(Atom(take), Atom(q[4]), Atom(q[1]))),
                                   Atom(cc.select(Atom(take), Atom(q[5]), Atom(q[2])))};
                             });
        auto r = fold(c, std::move(op), {cf64(1e300), ci64(-1), cf64(0.0)},
                      [&](Builder& cc, const std::vector<Var>& j) {
                        Var q = cc.index(Q, {Atom(s), Atom(j[0])});
                        Var v = cc.mul(Atom(cc.index(A, {Atom(i[0]), Atom(j[0])})), q);
                        return std::vector<Atom>{Atom(v), Atom(j[0]), Atom(q)};
                      });
        return std::vector<Atom>{Atom(r[0]), Atom(r[1]), Atom(r[2])};
      });
      break;
    case TileKind::Dot:
      outs = per_row([&](Builder& c, const std::vector<Var>& i) {
        // The fold adds elem + acc when `flip`, else acc + elem.
        auto sum = [&](bool flip, const Builder::LamFn& term) {
          LambdaPtr op = c.lam({f64(), f64()}, [flip](Builder& cc, const std::vector<Var>& q) {
            return std::vector<Atom>{Atom(flip ? cc.add(q[1], q[0]) : cc.add(q[0], q[1]))};
          });
          return Atom(fold(c, std::move(op), {cf64(0.0)}, term)[0]);
        };
        std::vector<Atom> res;
        for (bool flip : {false, true}) {
          for (bool qa : {false, true}) {
            res.push_back(sum(flip, [&](Builder& cc, const std::vector<Var>& j) {
              Var a = cc.index(A, {Atom(i[0]), Atom(j[0])});
              Var q = cc.index(Q, {Atom(s), Atom(j[0])});
              return std::vector<Atom>{Atom(qa ? cc.mul(q, a) : cc.mul(a, q))};
            }));
          }
          res.push_back(sum(flip, [&](Builder& cc, const std::vector<Var>& j) {
            return std::vector<Atom>{Atom(cc.index(A, {Atom(i[0]), Atom(j[0])}))};
          }));
        }
        return res;
      });
      break;
    case TileKind::Scatter:
    case TileKind::Aliased:
    case TileKind::Axpy2:
      outs = b.withacc({G, H}, [&](Builder& wc, const std::vector<Var>& accs) {
        std::vector<Type> ts{i64(), wc.types().at(accs[0]), wc.types().at(accs[1])};
        auto r = wc.map(
            wc.lam(ts,
                   [&](Builder& c, const std::vector<Var>& q) {
                     auto res = thread_accs(
                         c, Atom(mt), {q[1], q[2]},
                         [&](Builder& cc, Var j, const std::vector<Var>& acc) {
                           Var a = cc.index(A, {Atom(q[0]), Atom(j)});
                           if (kind == TileKind::Axpy2) {
                             Var qv = cc.index(Q, {Atom(s), Atom(j)});
                             Var p1 = cc.mul(a, cv);
                             Var p2 = cc.mul(cv, qv);
                             Var g = cc.upd_acc(acc[0], {Atom(s), Atom(j)}, Atom(p2));
                             Var h = cc.upd_acc(acc[1], {Atom(q[0]), Atom(j)}, Atom(p1));
                             return std::vector<Atom>{Atom(g), Atom(h)};
                           }
                           if (kind == TileKind::Scatter) {
                             Var g = cc.upd_acc(acc[0], {Atom(s), Atom(j)}, Atom(cc.mul(a, cv)));
                             Var h = cc.upd_acc(acc[1], {Atom(q[0]), Atom(j)}, Atom(cc.exp(a)));
                             return std::vector<Atom>{Atom(g), Atom(h)};
                           }
                           Var h = cc.upd_acc(acc[1], {Atom(q[0]), Atom(cc.index(I, {Atom(j)}))},
                                              Atom(a));
                           Var h2 = cc.upd_acc(h, {Atom(q[0]), Atom(cc.index(J, {Atom(j)}))},
                                               Atom(cv));
                           return std::vector<Atom>{Atom(acc[0]), Atom(h2)};
                         });
                     return std::vector<Atom>{Atom(res[0]), Atom(res[1])};
                   }),
            {wc.iota(Atom(wc.length(A))), accs[0], accs[1]});
        return std::vector<Atom>{Atom(r[0]), Atom(r[1])};
      });
      break;
    case TileKind::Store:
      outs = per_row([&](Builder& c, const std::vector<Var>& i) {
        Var row = c.map1(c.lam({i64()},
                               [&](Builder& cc, const std::vector<Var>& j) {
                                 Var x = cc.index(A, {Atom(i[0]), Atom(j[0])});
                                 return std::vector<Atom>{Atom(cc.mul(Atom(cc.tanh(x)), cv))};
                               }),
                         {c.iota(Atom(mt))});
        return std::vector<Atom>{Atom(row)};
      });
      break;
    case TileKind::Indirect:
      outs = per_row([&](Builder& c, const std::vector<Var>& i) {
        return std::vector<Atom>{Atom(fold(c, c.add_op(), {cf64(0.0)},
                                           [&](Builder& cc, const std::vector<Var>& j) {
          Var a = cc.index(A, {Atom(i[0]), Atom(cc.index(I, {Atom(j[0])}))});
          Var q = cc.index(Q, {Atom(s), Atom(cc.index(J, {Atom(j[0])}))});
          return std::vector<Atom>{Atom(cc.add(a, q))};
        })[0])};
      });
      break;
  }
  Prog p = pb.finish(std::vector<Atom>(outs.begin(), outs.end()));
  typecheck(p);
  opt::FuseStats fs;
  p = opt::fuse_maps(p, &fs);
  typecheck(p);
  return p;
}

// I[j] = (7j + 3) mod cols and J[j] = (11j + 5) mod cols: in range, and the
// two scatter targets of one row meet at some trips.
std::vector<Value> tile_args(int64_t mt, int64_t s, int64_t off, uint64_t seed) {
  support::Rng rng(seed);
  auto mat = [&](int64_t rows) {
    return rt::make_f64_array(rng.uniform_vec(static_cast<size_t>(rows * kTileCols), -1.0, 1.0),
                              {rows, kTileCols});
  };
  std::vector<int64_t> is, js;
  for (int64_t j = 0; j < kTileCols; ++j) {
    is.push_back((7 * j + 3) % kTileCols);
    js.push_back((11 * j + 5) % kTileCols);
  }
  return {mat(kTileN),
          mat(kStreamRows),
          mat(kStreamRows),
          mat(kTileN),
          rt::make_i64_array(is, {kTileCols}),
          rt::make_i64_array(js, {kTileCols}),
          Value(s),
          Value(mt),
          Value(off),
          1.7};
}

// Trip number `which` of the grid at lane width W: around the tile size,
// then LSTM's 16 and 24.
int64_t tile_trip(int lanes, int which) {
  const int64_t T = rt::vexec::tile_trips(lanes);
  const int64_t trips[] = {0, 1, T - 1, T, T + 1, 2 * T + 3, 16, 24};
  return trips[which];
}

using TileCase = std::tuple<TileKind, int, int, VexecMode, bool>;

class TileConformance : public ::testing::TestWithParam<TileCase> {};

TEST_P(TileConformance, BitExactAgainstGeneralAndRegisterMachine) {
  const auto [kind, lanes, which, mode, privatize] = GetParam();
  const int64_t mt = tile_trip(lanes, which);
  const Prog p = tile_prog(kind);
  const auto args = tile_args(mt, /*s=*/3, /*off=*/0, static_cast<uint64_t>(mt * 31 + lanes));
  const auto general = all_bits(rt::Interp({.parallel = false, .use_kernels = false}).run(p, args));
  EXPECT_EQ(all_bits(rt::Interp(stream_opts(VexecMode::Off, lanes, privatize)).run(p, args)),
            general);
  rt::Interp fast(stream_opts(mode, lanes, privatize));
  EXPECT_EQ(all_bits(fast.run(p, args)), general);
  EXPECT_EQ(fast.stats().general_maps.load(), 0u);
}

std::string tile_name(const ::testing::TestParamInfo<TileCase>& info) {
  static const char* kinds[] = {"Fold",    "Pair",     "Argmin", "Scatter", "Store",
                                "Aliased", "Indirect", "Dot",    "Axpy2"};
  static const char* trips[] = {"0", "1", "Tm1", "T", "Tp1", "2Tp3", "16", "24"};
  static const char* modes[] = {"On", "Off"};
  return std::string(kinds[static_cast<int>(std::get<0>(info.param))]) + "W" +
         std::to_string(std::get<1>(info.param)) + "_trip" + trips[std::get<2>(info.param)] +
         modes[static_cast<int>(std::get<3>(info.param))] +
         (std::get<4>(info.param) ? "Priv" : "Atomic");
}

INSTANTIATE_TEST_SUITE_P(
    Grid, TileConformance,
    ::testing::Combine(::testing::Values(TileKind::Fold, TileKind::Pair, TileKind::Argmin,
                                         TileKind::Scatter, TileKind::Store, TileKind::Aliased,
                                         TileKind::Indirect, TileKind::Dot, TileKind::Axpy2),
                       ::testing::Values(1, 8), ::testing::Range(0, 8),
                       ::testing::Values(VexecMode::On, VexecMode::Off), ::testing::Bool()),
    tile_name);

TEST(TileLowering, GridBodiesTileExceptTheAliasedScatter) {
  auto loop = [](TileKind kind) {
    const Lowered lw = lowered_maps(tile_prog(kind)).front();
    EXPECT_EQ(lw.e->wide.loops.size(), 1u);
    return lw.e->wide.loops.front();
  };
  auto tiled = [](const rt::vexec::VLoop& vl) { return vl.tile_end > vl.tile_begin; };
  // One fold pass per accumulator when each is a self-fold; the argmin's
  // fold reads all three carries and runs once per trip.
  for (TileKind k : {TileKind::Fold, TileKind::Pair, TileKind::Indirect}) {
    const auto vl = loop(k);
    EXPECT_TRUE(tiled(vl) && vl.fold_major) << static_cast<int>(k);
  }
  const auto am = loop(TileKind::Argmin);
  EXPECT_TRUE(tiled(am) && !am.fold_major);
  EXPECT_TRUE(tiled(loop(TileKind::Scatter)));
  EXPECT_TRUE(tiled(loop(TileKind::Store)));
  EXPECT_TRUE(loop(TileKind::Indirect).may_throw);
  // Non-stream UpdAccs whose cells may coincide keep the per-trip path.
  EXPECT_FALSE(tiled(loop(TileKind::Aliased)));
  // The dot products and one-stream sums read their streams in place: each
  // is one fold pass over the whole trip, a MulAdd or an Add; the dual
  // scatter is two MulUpd passes.
  const Lowered dot = lowered_maps(tile_prog(TileKind::Dot)).front();
  EXPECT_EQ(whole_trip_loops(dot, {VOp::MulAdd}, true), 4);
  EXPECT_EQ(whole_trip_loops(dot, {VOp::Add}, true), 2);
  EXPECT_EQ(whole_trip_loops(lowered_maps(tile_prog(TileKind::Axpy2)).front(),
                             {VOp::MulUpd, VOp::MulUpd}, false),
            1);
}

TEST(TileLowering, FoldDispatchesOncePerTilePass) {
  // W = 8 over 19 rows: two wide batches, then 3 one-lane tail rows. Each
  // entry of the fold runs ceil(mt / T) tiles of a map pass and a fold pass.
  const Prog p = tile_prog(TileKind::Fold);
  const int64_t mt = 2 * rt::vexec::tile_trips(8) + 3;
  rt::Interp fast(stream_opts(VexecMode::On, 8, true));
  fast.run(p, tile_args(mt, 3, 0, 7));
  auto tiles = [&](int w) {
    const int64_t T = rt::vexec::tile_trips(w);
    return (mt + T - 1) / T;
  };
  const int64_t want = 2 * ((kTileN / 8) * tiles(8) + (kTileN % 8) * tiles(1));
  EXPECT_EQ(fast.stats().vexec_body_dispatches.load(), static_cast<uint64_t>(want));
  // The register machine has no vexec dispatches.
  rt::Interp regs(stream_opts(VexecMode::Off, 8, true));
  regs.run(p, tile_args(mt, 3, 0, 7));
  EXPECT_EQ(regs.stats().vexec_body_dispatches.load(), 0u);
}

TEST(TileConformance, UnboundStreamRaisesRegisterMachineError) {
  // A trip one past the columns (the streams do not fit), a uniform lead
  // past Q's rows (s = 5), and a varying lead past A's rows in the last lane
  // (off = 1): each stream stays unbound, its loop runs per trip, and the
  // checked access raises at the register machine's point.
  const Prog fold = tile_prog(TileKind::Fold);
  expect_register_machine_error(fold, tile_args(kTileCols + 1, 3, 0, 94), "short stream");
  expect_register_machine_error(fold, tile_args(40, kStreamRows, 0, 95), "uniform lead");
  expect_register_machine_error(fold, tile_args(40, 3, 1, 96), "varying lead");
  expect_register_machine_error(tile_prog(TileKind::Store), tile_args(kTileCols + 1, 3, 0, 97),
                                "short row result");
}

TEST(TileConformance, CheckedGatherInTileRaisesRegisterMachineError) {
  // Two checked gathers in one tile: I goes out of range at trip T+2, J at
  // trip T+1. Per trip, J's gather raises first (at trip T+1); the tile
  // replays per trip to raise that same error, not I's.
  for (int lanes : {1, 8}) {
    const int64_t T = rt::vexec::tile_trips(lanes);
    auto args = tile_args(2 * T + 3, 3, 0, 98);
    std::vector<int64_t> is(static_cast<size_t>(kTileCols), 0);
    std::vector<int64_t> js(static_cast<size_t>(kTileCols), 1);
    is[static_cast<size_t>(T + 2)] = kTileCols + 5;
    js[static_cast<size_t>(T + 1)] = kTileCols + 9;
    args[4] = rt::make_i64_array(is, {kTileCols});
    args[5] = rt::make_i64_array(js, {kTileCols});
    const Prog p = tile_prog(TileKind::Indirect);
    EXPECT_THROW(rt::Interp({.parallel = false, .use_kernels = false}).run(p, args), ShapeError);
    auto message = [&](VexecMode m) -> std::string {
      try {
        rt::Interp(stream_opts(m, lanes, true)).run(p, args);
      } catch (const ShapeError& e) {
        return e.what();
      }
      return "no error";
    };
    const std::string want = message(VexecMode::Off);
    EXPECT_NE(want.find(std::to_string(kTileCols + 9)), std::string::npos) << want;
    EXPECT_EQ(message(VexecMode::On), want) << "W = " << lanes;
  }
}

} // namespace
