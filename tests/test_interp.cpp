// Interpreter tests: scalar ops, SOAC semantics (map/reduce/scan/hist/
// scatter), loops, accumulators, kernel fast path vs general path agreement.

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "ir/builder.hpp"
#include "ir/typecheck.hpp"
#include "runtime/buffer_pool.hpp"
#include "runtime/interp.hpp"

namespace {

using namespace npad::ir;
using namespace npad::rt;

std::vector<Value> run(const Prog& p, const std::vector<Value>& args, bool kernels = true) {
  typecheck(p);
  InterpOptions opts;
  opts.use_kernels = kernels;
  return run_prog(p, args, opts);
}

TEST(Interp, ScalarArithmetic) {
  ProgBuilder pb("f");
  Var x = pb.param("x", f64());
  Var y = pb.param("y", f64());
  Builder& b = pb.body();
  Var s = b.add(x, b.mul(y, cf64(2.0)));
  Var t = b.sub(s, b.div(x, y));
  Prog p = pb.finish({Atom(t)});
  auto r = run(p, {3.0, 4.0});
  EXPECT_DOUBLE_EQ(as_f64(r[0]), 3.0 + 8.0 - 0.75);
}

TEST(Interp, TranscendentalOps) {
  ProgBuilder pb("f");
  Var x = pb.param("x", f64());
  Builder& b = pb.body();
  Var r = b.add(b.sin(x), b.add(b.exp(x), b.sqrt(x)));
  Prog p = pb.finish({Atom(r)});
  auto out = run(p, {2.0});
  EXPECT_NEAR(as_f64(out[0]), std::sin(2.0) + std::exp(2.0) + std::sqrt(2.0), 1e-12);
}

TEST(Interp, SelectAndCompare) {
  ProgBuilder pb("f");
  Var x = pb.param("x", f64());
  Builder& b = pb.body();
  Var c = b.lt(x, cf64(0.0));
  Var r = b.select(c, b.neg(x), x);  // |x|
  Prog p = pb.finish({Atom(r)});
  EXPECT_DOUBLE_EQ(as_f64(run(p, {-5.0})[0]), 5.0);
  EXPECT_DOUBLE_EQ(as_f64(run(p, {7.0})[0]), 7.0);
}

TEST(Interp, MapSquaresKernelAndGeneralAgree) {
  ProgBuilder pb("f");
  Var xs = pb.param("xs", arr_f64(1));
  Builder& b = pb.body();
  Var ys = b.map1(b.lam({f64()},
                        [](Builder& c, const std::vector<Var>& p) {
                          return std::vector<Atom>{Atom(c.mul(p[0], p[0]))};
                        }),
                  {xs});
  Prog p = pb.finish({Atom(ys)});
  ArrayVal in = make_f64_array({1, 2, 3, 4}, {4});
  auto rk = run(p, {in}, true);
  auto rg = run(p, {in}, false);
  EXPECT_EQ(to_f64_vec(as_array(rk[0])), (std::vector<double>{1, 4, 9, 16}));
  EXPECT_EQ(to_f64_vec(as_array(rg[0])), (std::vector<double>{1, 4, 9, 16}));
}

TEST(Interp, MapWithFreeScalarAndGather) {
  ProgBuilder pb("f");
  Var xs = pb.param("xs", arr_f64(1));
  Var is = pb.param("is", arr(ScalarType::I64, 1));
  Var k = pb.param("k", f64());
  Builder& b = pb.body();
  // ys[j] = k * xs[is[j]]  — gather via free array + free scalar.
  Var ys = b.map1(b.lam({i64()},
                        [&](Builder& c, const std::vector<Var>& p) {
                          Var e = c.index(xs, {Atom(p[0])});
                          return std::vector<Atom>{Atom(c.mul(e, k))};
                        }),
                  {is});
  Prog p = pb.finish({Atom(ys)});
  ArrayVal xv = make_f64_array({10, 20, 30}, {3});
  ArrayVal iv = make_i64_array({2, 0, 1, 2}, {4});
  auto r = run(p, {xv, iv, 2.0});
  EXPECT_EQ(to_f64_vec(as_array(r[0])), (std::vector<double>{60, 20, 40, 60}));

  // The argument contract, on both paths and through run_batched: each
  // mismatch is a typed error naming the param.
  const ArrayVal rank2 = make_f64_array({10, 20, 30}, {3, 1});
  const ArrayVal ints = make_i64_array({10, 20, 30}, {3});
  struct Bad {
    std::vector<Value> args;
    const char* names;  // the param the error must name, or "" for arity
    bool shape;         // ShapeError (rank) rather than TypeError
  };
  const Bad bad[] = {
      {{xv, iv}, "", false},                            // arity
      {{rank2, iv, 2.0}, "(xs) expects rank 1", true},  // rank
      {{ints, iv, 2.0}, "(xs) element type", false},    // element type
      {{xv, iv, int64_t{2}}, "(k) scalar type", false}, // scalar element type
      {{AccVal{xv}, iv, 2.0}, "(xs) is an accumulator", false},
      {{xv, iv, xv}, "(k) expects a scalar", false},
      {{2.0, iv, 2.0}, "(xs) expects a rank-1 array", false},
  };
  for (const Bad& c : bad) {
    auto check = [&](auto&& call) {
      try {
        call();
        ADD_FAILURE() << "accepted: " << c.names;
      } catch (const npad::ShapeError& e) {
        EXPECT_TRUE(c.shape) << e.what();
        EXPECT_NE(std::string(e.what()).find(c.names), std::string::npos) << e.what();
      } catch (const npad::TypeError& e) {
        EXPECT_FALSE(c.shape) << e.what();
        EXPECT_NE(std::string(e.what()).find(c.names), std::string::npos) << e.what();
      }
    };
    for (bool kernels : {true, false}) check([&] { run(p, c.args, kernels); });
    check([&] { Interp().run_batched(p, {{xv, iv, 2.0}, c.args}); });
  }
}

TEST(Interp, MultiOutputMap) {
  ProgBuilder pb("f");
  Var xs = pb.param("xs", arr_f64(1));
  Builder& b = pb.body();
  auto ys = b.map(b.lam({f64()},
                        [](Builder& c, const std::vector<Var>& p) {
                          return std::vector<Atom>{Atom(c.add(p[0], cf64(1.0))),
                                                   Atom(c.mul(p[0], cf64(2.0)))};
                        }),
                  {xs});
  Prog p = pb.finish({Atom(ys[0]), Atom(ys[1])});
  auto r = run(p, {make_f64_array({1, 2}, {2})});
  EXPECT_EQ(to_f64_vec(as_array(r[0])), (std::vector<double>{2, 3}));
  EXPECT_EQ(to_f64_vec(as_array(r[1])), (std::vector<double>{2, 4}));
}

TEST(Interp, NestedMapRankTwo) {
  ProgBuilder pb("f");
  Var xss = pb.param("xss", arr_f64(2));
  Builder& b = pb.body();
  Var yss = b.map1(b.lam({arr_f64(1)},
                         [](Builder& c, const std::vector<Var>& row) {
                           Var r = c.map1(c.lam({f64()},
                                                [](Builder& cc, const std::vector<Var>& p) {
                                                  return std::vector<Atom>{
                                                      Atom(cc.mul(p[0], p[0]))};
                                                }),
                                          {row[0]});
                           return std::vector<Atom>{Atom(r)};
                         }),
                   {xss});
  Prog p = pb.finish({Atom(yss)});
  ArrayVal in = make_f64_array({1, 2, 3, 4, 5, 6}, {2, 3});
  auto r = run(p, {in});
  EXPECT_EQ(to_f64_vec(as_array(r[0])), (std::vector<double>{1, 4, 9, 16, 25, 36}));
  EXPECT_EQ(as_array(r[0]).shape, (std::vector<int64_t>{2, 3}));
}

TEST(Interp, ReduceSumAndMax) {
  ProgBuilder pb("f");
  Var xs = pb.param("xs", arr_f64(1));
  Builder& b = pb.body();
  Var s = b.reduce1(b.add_op(), cf64(0.0), {xs});
  Var m = b.reduce1(b.max_op(), cf64(-1e300), {xs});
  Prog p = pb.finish({Atom(s), Atom(m)});
  auto r = run(p, {make_f64_array({3, 1, 4, 1, 5}, {5})});
  EXPECT_DOUBLE_EQ(as_f64(r[0]), 14.0);
  EXPECT_DOUBLE_EQ(as_f64(r[1]), 5.0);
}

TEST(Interp, ReduceMultiValueArgmin) {
  // argmin via reduce over (value, index) pairs.
  ProgBuilder pb("f");
  Var xs = pb.param("xs", arr_f64(1));
  Builder& b = pb.body();
  Var is = b.iota(b.length(xs));
  LambdaPtr op = b.lam({f64(), i64(), f64(), i64()},
                       [](Builder& c, const std::vector<Var>& p) {
                         Var take_a = c.le(p[0], p[2]);
                         Var v = c.select(take_a, p[0], p[2]);
                         Var i = c.select(take_a, p[1], p[3]);
                         return std::vector<Atom>{Atom(v), Atom(i)};
                       });
  auto mins = b.reduce(op, {cf64(1e300), ci64(-1)}, {xs, is});
  Prog p = pb.finish({Atom(mins[0]), Atom(mins[1])});
  auto r = run(p, {make_f64_array({3, 1, 4, 1, 5}, {5})});
  EXPECT_DOUBLE_EQ(as_f64(r[0]), 1.0);
  EXPECT_EQ(as_i64(r[1]), 1);
}

TEST(Interp, ScanInclusive) {
  ProgBuilder pb("f");
  Var xs = pb.param("xs", arr_f64(1));
  Builder& b = pb.body();
  Var s = b.scan1(b.add_op(), cf64(0.0), {xs});
  Prog p = pb.finish({Atom(s)});
  auto r = run(p, {make_f64_array({1, 2, 3, 4}, {4})});
  EXPECT_EQ(to_f64_vec(as_array(r[0])), (std::vector<double>{1, 3, 6, 10}));
}

TEST(Interp, ScanGeneralOperatorLinearCompose) {
  // scan with (d,c) linear-function composition, as used by the vjp scan rule.
  ProgBuilder pb("f");
  Var ds = pb.param("ds", arr_f64(1));
  Var cs = pb.param("cs", arr_f64(1));
  Builder& b = pb.body();
  LambdaPtr lin = b.lam({f64(), f64(), f64(), f64()},
                        [](Builder& c, const std::vector<Var>& p) {
                          // (d1,c1) o (d2,c2) = (d2 + c2*d1, c2*c1)
                          Var d = c.add(p[2], c.mul(p[3], p[0]));
                          Var cc = c.mul(p[3], p[1]);
                          return std::vector<Atom>{Atom(d), Atom(cc)};
                        });
  auto outs = b.scan(lin, {cf64(0.0), cf64(1.0)}, {ds, cs});
  Prog p = pb.finish({Atom(outs[0]), Atom(outs[1])});
  auto r = run(p, {make_f64_array({1, 1, 1}, {3}), make_f64_array({2, 2, 2}, {3})});
  // d: 1, 1+2*1=3, 1+2*3=7 ; c: 2, 4, 8
  EXPECT_EQ(to_f64_vec(as_array(r[0])), (std::vector<double>{1, 3, 7}));
  EXPECT_EQ(to_f64_vec(as_array(r[1])), (std::vector<double>{2, 4, 8}));
}

TEST(Interp, HistogramAddAndMax) {
  ProgBuilder pb("f");
  Var dest = pb.param("dest", arr_f64(1));
  Var inds = pb.param("inds", arr(ScalarType::I64, 1));
  Var vals = pb.param("vals", arr_f64(1));
  Builder& b = pb.body();
  Var h = b.hist(b.add_op(), cf64(0.0), dest, inds, vals);
  Prog p = pb.finish({Atom(h)});
  auto r = run(p, {make_f64_array({0, 0, 0}, {3}), make_i64_array({0, 1, 0, 5, -1}, {5}),
                   make_f64_array({1, 2, 3, 9, 9}, {5})});
  // Bin 5 and -1 are out of range and ignored.
  EXPECT_EQ(to_f64_vec(as_array(r[0])), (std::vector<double>{4, 2, 0}));
}

TEST(Interp, ScatterWritesRows) {
  ProgBuilder pb("f");
  Var dest = pb.param("dest", arr_f64(2));
  Var inds = pb.param("inds", arr(ScalarType::I64, 1));
  Var vals = pb.param("vals", arr_f64(2));
  Builder& b = pb.body();
  Var s = b.scatter(dest, inds, vals);
  Prog p = pb.finish({Atom(s)});
  auto r = run(p, {make_f64_array({0, 0, 0, 0, 0, 0}, {3, 2}),
                   make_i64_array({2, 0}, {2}), make_f64_array({1, 2, 3, 4}, {2, 2})});
  EXPECT_EQ(to_f64_vec(as_array(r[0])), (std::vector<double>{3, 4, 0, 0, 1, 2}));
}

TEST(Interp, ForLoopGeometric) {
  ProgBuilder pb("f");
  Var x0 = pb.param("x0", f64());
  Var n = pb.param("n", i64());
  Builder& b = pb.body();
  auto outs = b.loop_for({Atom(x0)}, Atom(n), [](Builder& c, Var, const std::vector<Var>& ps) {
    return std::vector<Atom>{Atom(c.mul(ps[0], cf64(2.0)))};
  });
  Prog p = pb.finish({Atom(outs[0])});
  EXPECT_DOUBLE_EQ(as_f64(run(p, {1.5, int64_t{4}})[0]), 1.5 * 16);
}

TEST(Interp, WhileLoopRunsUntilCondFails) {
  ProgBuilder pb("f");
  Var x0 = pb.param("x0", f64());
  Builder& b = pb.body();
  auto outs = b.loop_while(
      {Atom(x0)},
      [](Builder& c, const std::vector<Var>& ps) {
        return std::vector<Atom>{Atom(c.lt(ps[0], cf64(100.0)))};
      },
      [](Builder& c, Var, const std::vector<Var>& ps) {
        return std::vector<Atom>{Atom(c.mul(ps[0], cf64(3.0)))};
      });
  Prog p = pb.finish({Atom(outs[0])});
  EXPECT_DOUBLE_EQ(as_f64(run(p, {1.0})[0]), 243.0);
}

TEST(Interp, UpdateInPlaceAndIndex) {
  ProgBuilder pb("f");
  Var xs = pb.param("xs", arr_f64(1));
  Builder& b = pb.body();
  Var xs2 = b.update(xs, {ci64(1)}, cf64(42.0));
  Var e = b.index(xs2, {ci64(1)});
  Prog p = pb.finish({Atom(xs2), Atom(e)});
  auto r = run(p, {make_f64_array({1, 2, 3}, {3})});
  EXPECT_EQ(to_f64_vec(as_array(r[0])), (std::vector<double>{1, 42, 3}));
  EXPECT_DOUBLE_EQ(as_f64(r[1]), 42.0);
}

// A counted loop that carries an array and updates one element per
// iteration: the carried buffer is written in place (last iteration's
// bindings are released before the params are rebound), so a run makes the
// same number of pool allocations at n and 2n iterations.
TEST(Interp, LoopCarriedUpdateAllocatesIndependentlyOfTripCount) {
  ProgBuilder pb("f");
  Var xs = pb.param("xs", arr_f64(1));
  Builder& b = pb.body();
  Var n = b.length(xs);
  auto outs = b.loop_for({Atom(xs)}, Atom(n), [](Builder& c, Var i, const std::vector<Var>& ps) {
    Var v = c.add(c.mul(c.to_f64(i), cf64(0.5)), cf64(1.0));
    return std::vector<Atom>{Atom(c.update(ps[0], {Atom(i)}, Atom(v)))};
  });
  Prog p = pb.finish({Atom(outs[0])});
  typecheck(p);
  auto allocs = [&](int64_t len) {
    const Value arg = make_f64_array(std::vector<double>(static_cast<size_t>(len), 0.0), {len});
    const BufferPool::Counters before = BufferPool::global().counters();
    auto r = run(p, {arg});
    const BufferPool::Counters after = BufferPool::global().counters();
    std::vector<double> want;
    for (int64_t i = 0; i < len; ++i) want.push_back(static_cast<double>(i) * 0.5 + 1.0);
    EXPECT_EQ(to_f64_vec(as_array(r[0])), want);
    return (after.hits + after.misses) - (before.hits + before.misses);
  };
  EXPECT_EQ(allocs(4000), allocs(8000));
}

TEST(Interp, WithAccAccumulatesAtomically) {
  ProgBuilder pb("f");
  Var dest = pb.param("dest", arr_f64(1));
  Var is = pb.param("is", arr(ScalarType::I64, 1));
  Var vs = pb.param("vs", arr_f64(1));
  Builder& b = pb.body();
  auto outs = b.withacc({dest}, [&](Builder& c, const std::vector<Var>& accs) {
    LambdaPtr f = c.lam({i64(), f64(), acc_of(arr_f64(1))},
                        [](Builder& cc, const std::vector<Var>& p) {
                          Var a2 = cc.upd_acc(p[2], {Atom(p[0])}, Atom(p[1]));
                          return std::vector<Atom>{Atom(a2)};
                        });
    Var acc2 = c.map(f, {is, vs, accs[0]})[0];
    return std::vector<Atom>{Atom(acc2)};
  });
  Prog p = pb.finish({Atom(outs[0])});
  auto r = run(p, {make_f64_array({0, 0}, {2}), make_i64_array({0, 1, 0, 1, 0}, {5}),
                   make_f64_array({1, 2, 3, 4, 5}, {5})});
  EXPECT_EQ(to_f64_vec(as_array(r[0])), (std::vector<double>{9, 6}));
}

TEST(Interp, IotaReplicateReverseTranspose) {
  ProgBuilder pb("f");
  Var n = pb.param("n", i64());
  Builder& b = pb.body();
  Var io = b.iota(n);
  Var rep = b.replicate(ci64(2), io);   // 2 x n
  Var tr = b.transpose(rep);            // n x 2
  Var rv = b.reverse(io);
  Prog p = pb.finish({Atom(tr), Atom(rv)});
  auto r = run(p, {int64_t{3}});
  EXPECT_EQ(as_array(r[0]).shape, (std::vector<int64_t>{3, 2}));
  EXPECT_EQ(to_i64_vec(as_array(r[0])), (std::vector<int64_t>{0, 0, 1, 1, 2, 2}));
  EXPECT_EQ(to_i64_vec(as_array(r[1])), (std::vector<int64_t>{2, 1, 0}));
}

TEST(Interp, KernelStatsCountFastPath) {
  ProgBuilder pb("f");
  Var xs = pb.param("xs", arr_f64(1));
  Builder& b = pb.body();
  Var ys = b.map1(b.lam({f64()},
                        [](Builder& c, const std::vector<Var>& p) {
                          return std::vector<Atom>{Atom(c.tanh(p[0]))};
                        }),
                  {xs});
  Prog p = pb.finish({Atom(ys)});
  typecheck(p);
  Interp in({.parallel = true, .use_kernels = true, .grain = 16});
  auto r = in.run(p, {make_f64_array({0.5, -0.5}, {2})});
  (void)r;
  EXPECT_EQ(in.stats().kernel_maps.load(), 1u);
  EXPECT_EQ(in.stats().general_maps.load(), 0u);
}

TEST(Interp, KernelLanesMustBeOneOrEight) {
  for (int lanes : {1, 8}) {
    EXPECT_NO_THROW(Interp({.kernel_lanes = lanes})) << lanes;
  }
  for (int lanes : {-1, 0, 2, 4, 16}) {
    EXPECT_THROW(Interp({.kernel_lanes = lanes}), std::invalid_argument) << lanes;
    EXPECT_THROW(run_prog(Prog{}, {}, {.kernel_lanes = lanes}), std::invalid_argument) << lanes;
  }
}

} // namespace
