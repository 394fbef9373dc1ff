// Deterministic fault-injection sweep (the robustness acceptance harness).
//
// For each workload: run twice fault-free and assert bit-exact determinism
// (the baseline), count the crossings of every instrumented fault site, then
// arm each crossed (site, occurrence) pair in turn — first and last crossing
// — and assert the robustness contract:
//
//   1. the failure surfaces as a typed npad::Error (never an abort),
//   2. the buffer pool's live footprint returns to its pre-call value
//      (nothing leaked during the unwind), and
//   3. an immediate retry reproduces the baseline bit-exact.
//
// The final test asserts the sweep exercised at least 20 distinct sites
// across the workloads (pool allocations, thread-pool chunks, every SOAC
// tier, merges/rescales, loop iterations, withacc bodies).
//
// Workload design notes: destinations of in-place SOACs (hist/scatter/
// withacc) are created *inside* the program (replicate), never passed as
// arguments, so a run can never corrupt the shared argument values; hist
// extents keep the privatized tier (chunk-ordered merges are bit-exact,
// unlike the atomic tier's reordered float adds); scatter indices are a
// permutation so parallel writes never race on an element.

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "apps/gmm.hpp"
#include "apps/kmeans.hpp"
#include "apps/lstm.hpp"
#include "apps/mc_transport.hpp"
#include "core/ad.hpp"
#include "ir/builder.hpp"
#include "ir/typecheck.hpp"
#include "opt/fuse.hpp"
#include "opt/pipeline.hpp"
#include "runtime/buffer_pool.hpp"
#include "runtime/interp.hpp"
#include "support/error.hpp"
#include "support/fault.hpp"
#include "support/rng.hpp"

namespace {

using namespace npad::ir;
using namespace npad::rt;
using npad::support::FaultInjector;
using npad::support::FaultKind;

// Chunk counts (and so crossing counts of per-chunk sites) depend on the
// pool size; pin it before the global pool is constructed.
[[maybe_unused]] const int force_threads = [] {
  setenv("NPAD_NUM_THREADS", "4", /*overwrite=*/0);
  return 0;
}();

using Runner = std::function<std::vector<Value>()>;

// Distinct site names that fired (typed error observed) across all sweeps.
std::set<std::string>& swept_sites() {
  static std::set<std::string> s;
  return s;
}

uint64_t bits_of(double d) {
  uint64_t u;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

// Bit-exact fingerprint of a result set: scalars as raw bits, arrays as
// shape + per-element bits.
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

// The sweep driver described in the file comment.
void sweep_case(const std::string& cname, const Runner& run_case) {
  auto& fi = FaultInjector::global();
  auto& pool = BufferPool::global();
  fi.stop();

  const auto base1 = fingerprint(run_case());
  const auto base2 = fingerprint(run_case());
  ASSERT_EQ(base1, base2) << cname << ": fault-free baseline is not deterministic";

  fi.start_counting();
  run_case();
  fi.stop();

  struct SiteCount {
    int idx;
    std::string name;
    FaultKind kind;
    uint64_t count;
  };
  std::vector<SiteCount> crossed;
  for (int s = 0; s < fi.num_sites(); ++s) {
    if (fi.crossings(s) > 0) crossed.push_back({s, fi.site_name(s), fi.site_kind(s), fi.crossings(s)});
  }
  ASSERT_FALSE(crossed.empty()) << cname << ": no instrumented site crossed";

  for (const auto& sc : crossed) {
    std::vector<uint64_t> occs{0};
    if (sc.count > 1) occs.push_back(sc.count - 1);
    for (uint64_t occ : occs) {
      const size_t pre_buffers = pool.outstanding_buffers();
      fi.arm(sc.idx, occ);
      bool threw_typed = false;
      try {
        run_case();
      } catch (const npad::Error& e) {
        threw_typed = true;
        const std::string w = e.what();
        EXPECT_NE(w.find("injected fault"), std::string::npos)
            << cname << " site " << sc.name << "#" << occ << ": " << w;
        const char* want = sc.kind == FaultKind::Alloc ? "ResourceError" : "KernelError";
        EXPECT_STREQ(e.kind(), want) << cname << " site " << sc.name << "#" << occ;
      } catch (const std::exception& e) {
        ADD_FAILURE() << cname << " site " << sc.name << "#" << occ
                      << ": untyped exception escaped: " << e.what();
      }
      fi.stop();
      EXPECT_TRUE(threw_typed) << cname << " site " << sc.name << "#" << occ
                               << ": armed fault did not surface";
      // Zero-leak unwind: the pool's live footprint is restored.
      EXPECT_EQ(pool.outstanding_buffers(), pre_buffers)
          << cname << " site " << sc.name << "#" << occ << ": buffers leaked by the unwind";
      // Bit-exact retry.
      EXPECT_EQ(fingerprint(run_case()), base1)
          << cname << " site " << sc.name << "#" << occ << ": retry diverged from baseline";
      if (threw_typed) swept_sites().insert(sc.name);
    }
  }
}

// ------------------------------------------------------------ IR helpers --

LambdaPtr square_lam(Builder& b) {
  return b.lam({f64()}, [](Builder& c, const std::vector<Var>& p) {
    return std::vector<Atom>{Atom(c.mul(p[0], p[0]))};
  });
}

// Log-sum-exp fold: kernelizable but not a recognized plain binop, so it
// forces the kernel tier of reduce/scan past the hand tier.
LambdaPtr lse_op(Builder& b) {
  return b.lam({f64(), f64()}, [](Builder& cc, const std::vector<Var>& p) {
    Var m = cc.max(p[0], p[1]);
    Var ea = cc.exp(Atom(cc.sub(p[0], m)));
    Var eb = cc.exp(Atom(cc.sub(p[1], m)));
    return std::vector<Atom>{Atom(cc.add(m, Atom(cc.log(Atom(cc.add(ea, eb))))))};
  });
}

Prog map_of_map_prog() {
  ProgBuilder pb("mm");
  Var xss = pb.param("xss", arr_f64(2));
  Builder& b = pb.body();
  Var out = b.map1(b.lam({arr_f64(1)},
                         [](Builder& c, const std::vector<Var>& row) {
                           return std::vector<Atom>{Atom(c.map1(
                               c.lam({f64()},
                                     [](Builder& cc, const std::vector<Var>& p) {
                                       Var t = cc.mul(p[0], cf64(1.3));
                                       return std::vector<Atom>{Atom(cc.add(t, cf64(0.2)))};
                                     }),
                               {row[0]}))};
                         }),
                   {xss});
  return pb.finish({Atom(out)});
}

Prog map_of_sum_prog() {
  ProgBuilder pb("ms");
  Var xss = pb.param("xss", arr_f64(2));
  Builder& b = pb.body();
  Var out = b.map1(b.lam({arr_f64(1)},
                         [](Builder& c, const std::vector<Var>& row) {
                           return std::vector<Atom>{
                               Atom(c.reduce1(c.add_op(), cf64(0.0), {row[0]}))};
                         }),
                   {xss});
  return pb.finish({Atom(out)});
}

Prog map_of_dot_prog() {
  ProgBuilder pb("md");
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
  return pb.finish({Atom(out)});
}

Prog fuse_prep(Prog p) {
  typecheck(p);
  npad::opt::FuseStats fs;
  Prog q = npad::opt::fuse_maps(p, &fs);
  typecheck(q);
  return q;
}

ArrayVal rand_f64(npad::support::Rng& rng, std::vector<int64_t> shape) {
  int64_t n = 1;
  for (int64_t s : shape) n *= s;
  return make_f64_array(rng.uniform_vec(static_cast<size_t>(n), -1.0, 1.0), std::move(shape));
}

Runner prog_runner(Prog p, std::vector<Value> args, InterpOptions opts = {}) {
  typecheck(p);
  return [p = std::move(p), args = std::move(args), opts] { return run_prog(p, args, opts); };
}

// ------------------------------------------------------------- the sweep --

TEST(FaultSweep, KernelMap) {
  ProgBuilder pb("f");
  Var xs = pb.param("xs", arr_f64(1));
  Builder& b = pb.body();
  Var ys = b.map1(square_lam(b), {xs});
  Prog p = pb.finish({Atom(ys)});
  npad::support::Rng rng(11);
  sweep_case("kernel_map", prog_runner(std::move(p), {rand_f64(rng, {8192})}));
}

TEST(FaultSweep, GeneralMapOfSum) {
  // Kernels off: the outer map takes the general path, one apply() per row.
  npad::support::Rng rng(12);
  Prog p = map_of_sum_prog();
  InterpOptions opts;
  opts.use_kernels = false;
  sweep_case("general_map_of_sum",
             prog_runner(std::move(p), {rand_f64(rng, {4096, 8})}, opts));
}

// Regular nests run as one whole-lambda kernel launch over the rows
// (map.kernel_chunk): a row result, a one-stream fold and a fused dot.
TEST(FaultSweep, KernelMapOfMap) {
  npad::support::Rng rng(13);
  sweep_case("kernel_map_of_map", prog_runner(map_of_map_prog(), {rand_f64(rng, {512, 64})}));
}

TEST(FaultSweep, KernelMapOfSum) {
  npad::support::Rng rng(14);
  sweep_case("kernel_map_of_sum", prog_runner(map_of_sum_prog(), {rand_f64(rng, {4096, 8})}));
}

TEST(FaultSweep, KernelMapOfDot) {
  npad::support::Rng rng(15);
  ArrayVal a = rand_f64(rng, {4096, 8}), b = rand_f64(rng, {4096, 8});
  sweep_case("kernel_map_of_dot", prog_runner(fuse_prep(map_of_dot_prog()), {a, b}));
}

TEST(FaultSweep, HandReduce) {
  ProgBuilder pb("f");
  Var xs = pb.param("xs", arr_f64(1));
  Builder& b = pb.body();
  Var s = b.reduce1(b.add_op(), cf64(0.0), {xs});
  Prog p = pb.finish({Atom(s)});
  npad::support::Rng rng(16);
  sweep_case("hand_reduce", prog_runner(std::move(p), {rand_f64(rng, {8192})}));
}

TEST(FaultSweep, KernelReduce) {
  ProgBuilder pb("f");
  Var xs = pb.param("xs", arr_f64(1));
  Builder& b = pb.body();
  Var s = b.reduce1(lse_op(b), cf64(-1e300), {xs});
  Prog p = pb.finish({Atom(s)});
  npad::support::Rng rng(17);
  sweep_case("kernel_reduce", prog_runner(std::move(p), {rand_f64(rng, {8192})}));
}

TEST(FaultSweep, HandScan) {
  ProgBuilder pb("f");
  Var xs = pb.param("xs", arr_f64(1));
  Builder& b = pb.body();
  Var ys = b.scan1(b.add_op(), cf64(0.0), {xs});
  Prog p = pb.finish({Atom(ys)});
  npad::support::Rng rng(18);
  sweep_case("hand_scan", prog_runner(std::move(p), {rand_f64(rng, {16384})}));
}

TEST(FaultSweep, KernelScan) {
  ProgBuilder pb("f");
  Var xs = pb.param("xs", arr_f64(1));
  Builder& b = pb.body();
  Var ys = b.scan1(lse_op(b), cf64(-1e300), {xs});
  Prog p = pb.finish({Atom(ys)});
  npad::support::Rng rng(19);
  sweep_case("kernel_scan", prog_runner(std::move(p), {rand_f64(rng, {16384})}));
}

TEST(FaultSweep, GeneralScan) {
  // Rank-2 scan (running elementwise sum of rows): array accumulator, so
  // only the general tier applies.
  ProgBuilder pb("f");
  Var xss = pb.param("xss", arr_f64(2));
  Builder& b = pb.body();
  Var zrow = b.replicate(ci64(4), cf64(0.0));
  LambdaPtr op = b.lam({arr_f64(1), arr_f64(1)},
                       [](Builder& c, const std::vector<Var>& p) {
                         Var s = c.map1(c.lam({f64(), f64()},
                                              [](Builder& cc, const std::vector<Var>& q) {
                                                return std::vector<Atom>{
                                                    Atom(cc.add(q[0], q[1]))};
                                              }),
                                        {p[0], p[1]});
                         return std::vector<Atom>{Atom(s)};
                       });
  Var ys = b.scan1(std::move(op), Atom(zrow), {xss});
  Prog p = pb.finish({Atom(ys)});
  npad::support::Rng rng(20);
  sweep_case("general_scan", prog_runner(std::move(p), {rand_f64(rng, {64, 4})}));
}

TEST(FaultSweep, HandHist) {
  // f64 + over 16 bins at n=8192: privatized hand tier (chunk-ordered merge
  // keeps float sums bit-exact).
  ProgBuilder pb("f");
  Var inds = pb.param("inds", arr(ScalarType::I64, 1));
  Var vals = pb.param("vals", arr_f64(1));
  Builder& b = pb.body();
  Var dest = b.replicate(ci64(16), cf64(0.0));
  Var h = b.hist(b.add_op(), cf64(0.0), dest, inds, vals);
  Prog p = pb.finish({Atom(h)});
  npad::support::Rng rng(21);
  std::vector<int64_t> iv(8192);
  for (size_t i = 0; i < iv.size(); ++i) iv[i] = static_cast<int64_t>((i * 7) % 16);
  sweep_case("hand_hist",
             prog_runner(std::move(p),
                         {make_i64_array(iv, {8192}), rand_f64(rng, {8192})}));
}

TEST(FaultSweep, KernelHist) {
  // Fold a + v*v is kernelizable but not a plain binop: kernel tier.
  ProgBuilder pb("f");
  Var inds = pb.param("inds", arr(ScalarType::I64, 1));
  Var vals = pb.param("vals", arr_f64(1));
  Builder& b = pb.body();
  Var dest = b.replicate(ci64(16), cf64(0.0));
  LambdaPtr op = b.lam({f64(), f64()}, [](Builder& c, const std::vector<Var>& p) {
    return std::vector<Atom>{Atom(c.add(p[0], Atom(c.mul(p[1], p[1]))))};
  });
  Var h = b.hist(std::move(op), cf64(0.0), dest, inds, vals);
  Prog p = pb.finish({Atom(h)});
  npad::support::Rng rng(22);
  std::vector<int64_t> iv(8192);
  for (size_t i = 0; i < iv.size(); ++i) iv[i] = static_cast<int64_t>((i * 5) % 16);
  sweep_case("kernel_hist",
             prog_runner(std::move(p),
                         {make_i64_array(iv, {8192}), rand_f64(rng, {8192})}));
}

TEST(FaultSweep, GeneralHist) {
  // i64 bins: neither the hand nor the kernel tier applies.
  ProgBuilder pb("f");
  Var inds = pb.param("inds", arr(ScalarType::I64, 1));
  Var vals = pb.param("vals", arr(ScalarType::I64, 1));
  Builder& b = pb.body();
  Var dest = b.replicate(ci64(8), ci64(0));
  LambdaPtr op = b.lam({i64(), i64()}, [](Builder& c, const std::vector<Var>& p) {
    return std::vector<Atom>{Atom(c.add(p[0], p[1]))};
  });
  Var h = b.hist(std::move(op), ci64(0), dest, inds, vals);
  Prog p = pb.finish({Atom(h)});
  std::vector<int64_t> iv(1024), vv(1024);
  for (size_t i = 0; i < iv.size(); ++i) {
    iv[i] = static_cast<int64_t>((i * 3) % 8);
    vv[i] = static_cast<int64_t>(i % 11);
  }
  sweep_case("general_hist",
             prog_runner(std::move(p),
                         {make_i64_array(iv, {1024}), make_i64_array(vv, {1024})}));
}

TEST(FaultSweep, Scatter) {
  ProgBuilder pb("f");
  Var inds = pb.param("inds", arr(ScalarType::I64, 1));
  Var vals = pb.param("vals", arr_f64(1));
  Builder& b = pb.body();
  Var dest = b.replicate(ci64(8192), cf64(0.0));
  Var s = b.scatter(dest, inds, vals);
  Prog p = pb.finish({Atom(s)});
  npad::support::Rng rng(23);
  std::vector<int64_t> perm(8192);  // permutation: no racing duplicate writes
  for (size_t i = 0; i < perm.size(); ++i) perm[i] = static_cast<int64_t>(perm.size() - 1 - i);
  sweep_case("scatter",
             prog_runner(std::move(p),
                         {make_i64_array(perm, {8192}), rand_f64(rng, {8192})}));
}

Prog withacc_prog() {
  ProgBuilder pb("f");
  Var is = pb.param("is", arr(ScalarType::I64, 1));
  Var vs = pb.param("vs", arr_f64(1));
  Builder& b = pb.body();
  Var dest = b.replicate(ci64(8), cf64(0.0));
  auto outs = b.withacc({dest}, [&](Builder& c, const std::vector<Var>& accs) {
    LambdaPtr f = c.lam({i64(), f64(), acc_of(arr_f64(1))},
                        [](Builder& cc, const std::vector<Var>& p) {
                          Var a2 = cc.upd_acc(p[2], {Atom(p[0])}, Atom(p[1]));
                          return std::vector<Atom>{Atom(a2)};
                        });
    Var acc2 = c.map(f, {is, vs, accs[0]})[0];
    return std::vector<Atom>{Atom(acc2)};
  });
  return pb.finish({Atom(outs[0])});
}

std::vector<Value> withacc_args() {
  npad::support::Rng rng(24);
  std::vector<int64_t> iv(8192);
  for (size_t i = 0; i < iv.size(); ++i) iv[i] = static_cast<int64_t>((i * 13) % 8);
  return {make_i64_array(iv, {8192}), rand_f64(rng, {8192})};
}

TEST(FaultSweep, WithAccPrivatized) {
  // n=8192 reaches the privatization floor of 4096 updates: per-chunk
  // private accumulators + merge.
  sweep_case("withacc", prog_runner(withacc_prog(), withacc_args()));
}

TEST(FaultSweep, WithAccGeneralPath) {
  InterpOptions opts;
  opts.use_kernels = false;
  sweep_case("withacc_general", prog_runner(withacc_prog(), withacc_args(), opts));
}

TEST(FaultSweep, LoopFor) {
  // 50 sequential iterations, each a map launch: exercises loop.iter.
  ProgBuilder pb("f");
  Var xs = pb.param("xs", arr_f64(1));
  Builder& b = pb.body();
  auto outs = b.loop_for(
      {Atom(xs)}, ci64(50),
      [](Builder& c, Var, const std::vector<Var>& st) {
        Var next = c.map1(c.lam({f64()},
                                [](Builder& cc, const std::vector<Var>& p) {
                                  Var t = cc.mul(p[0], cf64(0.999));
                                  return std::vector<Atom>{Atom(cc.add(t, cf64(0.001)))};
                                }),
                          {st[0]});
        return std::vector<Atom>{Atom(next)};
      });
  Prog p = pb.finish({Atom(outs[0])});
  npad::support::Rng rng(25);
  sweep_case("loop_for", prog_runner(std::move(p), {rand_f64(rng, {4096})}));
}

TEST(FaultSweep, LoopWithScalarGlue) {
  // A loop body with a scalar-glue run (one scalar.block crossing per
  // iteration) and a kernelizable rank-1 map over the carried array.
  ProgBuilder pb("pl");
  Var x = pb.param("x", f64());
  Var xs = pb.param("xs", arr_f64(1));
  Builder& b = pb.body();
  auto outs = b.loop_for(
      {Atom(xs)}, ci64(20),
      [&](Builder& c, Var, const std::vector<Var>& st) {
        Var s1 = c.mul(x, cf64(0.25));
        Var s2 = c.add(s1, cf64(0.001));
        Var next = c.map1(c.lam({f64()},
                                [&](Builder& cc, const std::vector<Var>& p) {
                                  Var t = cc.mul(p[0], cf64(0.999));
                                  return std::vector<Atom>{Atom(cc.add(t, Atom(s2)))};
                                }),
                          {st[0]});
        return std::vector<Atom>{Atom(next)};
      });
  Prog p = pb.finish({Atom(outs[0])});
  npad::support::Rng rng(28);
  sweep_case("glue_loop", prog_runner(std::move(p), {Value(0.5), rand_f64(rng, {4096})}));
}

TEST(FaultSweep, BranchesAndLambdas) {
  // Branchy control flow: a for-loop whose body is an OpIf with
  // kernelizable arms, a top-level OpIf, and a general-path outer map whose
  // lambda body launches an inner map and reduce per row.
  ProgBuilder pb("pb");
  Var x = pb.param("x", f64());
  Var xs = pb.param("xs", arr_f64(1));
  Var xss = pb.param("xss", arr_f64(2));
  Builder& b = pb.body();
  auto outs = b.loop_for(
      {Atom(xs)}, ci64(6),
      [](Builder& lb, Var i, const std::vector<Var>& st) {
        Var even = lb.eq(Atom(lb.mod(i, ci64(2))), ci64(0));
        std::vector<Var> picked = lb.if_(
            Atom(even),
            [&](Builder& tb) {
              Var nx = tb.map1(tb.lam({f64()},
                                      [](Builder& cc, const std::vector<Var>& p) {
                                        return std::vector<Atom>{Atom(cc.mul(p[0], cf64(1.01)))};
                                      }),
                               {st[0]});
              return std::vector<Atom>{Atom(nx)};
            },
            [&](Builder& eb) {
              Var nx = eb.map1(eb.lam({f64()},
                                      [](Builder& cc, const std::vector<Var>& p) {
                                        return std::vector<Atom>{Atom(cc.add(p[0], cf64(0.01)))};
                                      }),
                               {st[0]});
              return std::vector<Atom>{Atom(nx)};
            });
        return std::vector<Atom>{Atom(picked[0])};
      });
  // Top-level OpIf with kernelizable arms.
  Var cnd = b.gt(x, cf64(0.0));
  std::vector<Var> branched = b.if_(
      Atom(cnd),
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
              // The OpIf keeps this body off the kernel tier (row streams
              // would otherwise compile the whole lambda), so the map stays
              // general and every element is one apply().
              std::vector<Var> clamped = c.if_(
                  Atom(c.gt(s, cf64(1e300))),
                  [&](Builder& tb) { return std::vector<Atom>{Atom(tb.mul(s, cf64(0.5)))}; },
                  [&](Builder& eb) { return std::vector<Atom>{Atom(eb.add(s, cf64(0.0)))}; });
              return std::vector<Atom>{Atom(clamped[0])};
            }),
      {xss});
  Var t = b.reduce1(b.add_op(), cf64(0.0), {sums});
  Var u = b.reduce1(b.add_op(), cf64(0.0), {outs[0]});
  Var w = b.reduce1(b.add_op(), cf64(0.0), {branched[0]});
  Var y = b.mul(t, x);
  Var z = b.add(y, Atom(b.add(u, w)));
  Prog p = pb.finish({Atom(z)});
  npad::support::Rng rng(29);
  sweep_case("branches",
             prog_runner(std::move(p),
                         {Value(0.8), rand_f64(rng, {512}), rand_f64(rng, {4096, 8})}));
}

TEST(FaultSweep, GmmObjectiveAndGradient) {
  npad::support::Rng rng(26);
  auto g = npad::apps::gmm_gen(rng, 64, 4, 5);
  Prog p = npad::apps::gmm_ir_objective();
  typecheck(p);
  auto args = npad::apps::gmm_ir_args(g);
  sweep_case("gmm_objective", prog_runner(p, args));

  Prog grad = npad::ad::vjp(p);
  typecheck(grad);
  auto gargs = args;
  gargs.emplace_back(1.0);  // seed for the scalar objective
  sweep_case("gmm_gradient", prog_runner(std::move(grad), std::move(gargs)));
}

TEST(FaultSweep, LstmObjective) {
  npad::support::Rng rng(27);
  auto L = npad::apps::lstm_gen(rng, 2, 4, 6, 8);
  Prog p = npad::apps::lstm_ir_objective();
  typecheck(p);
  sweep_case("lstm_objective", prog_runner(std::move(p), npad::apps::lstm_ir_args(L)));
}

// The optimized vjp (the program serving runs) of a scalar objective, with
// the seed appended to the primal's arguments.
Runner optimized_gradient_runner(const Prog& primal, std::vector<Value> args) {
  typecheck(primal);
  Prog g = npad::opt::optimize(npad::ad::vjp(primal));
  args.emplace_back(1.0);
  return prog_runner(std::move(g), std::move(args));
}

TEST(FaultSweep, KmeansSparseGradient) {
  // CSR segment loops inside kernels: the forward redomap's pre-lambda and
  // the adjoint's accumulator-updating psum redomaps.
  npad::support::Rng rng(28);
  auto data = npad::apps::kmeans_sparse_gen(rng, 64, 16, 4, 4);
  sweep_case("kmeans_sparse_gradient",
             optimized_gradient_runner(npad::apps::kmeans_sparse_ir_cost(),
                                       npad::apps::kmeans_sparse_ir_args(data)));
}

TEST(FaultSweep, GmmOptimizedGradient) {
  // The serving artifact of GMM: the per-point reverse body — log-sum-exp
  // recomputation, the argmax one-hot over a value map and the row-bound
  // adjoint row — runs as one kernel launch.
  npad::support::Rng rng(30);
  auto g = npad::apps::gmm_gen(rng, 64, 4, 5);
  sweep_case("gmm_gradient_optimized", optimized_gradient_runner(npad::apps::gmm_ir_objective(),
                                                                 npad::apps::gmm_ir_args(g)));
}

std::vector<Value> kmeans_args(const npad::apps::KmeansData& km) {
  return {make_f64_array(km.centroids, {km.k, km.d}), make_f64_array(km.points, {km.n, km.d})};
}

TEST(FaultSweep, KmeansGradient) {
  // Dense k-means: the argmin one-hot, the accumulator-threading inner map
  // and the point's adjoint row, all inside the reverse map's kernel.
  npad::support::Rng rng(31);
  auto km = npad::apps::kmeans_gen(rng, 64, 4, 3);
  sweep_case("kmeans_gradient",
             optimized_gradient_runner(npad::apps::kmeans_ir_cost(), kmeans_args(km)));
}

TEST(FaultSweep, KmeansHvp) {
  // jvp(vjp(cost)): the same kernel with (primal, tangent) one-hot pairs and
  // two row-bound accumulators.
  npad::support::Rng rng(32);
  auto km = npad::apps::kmeans_gen(rng, 64, 4, 3);
  Prog p = npad::apps::kmeans_ir_cost();
  typecheck(p);
  Prog hvp = npad::opt::optimize(npad::ad::jvp(npad::ad::vjp(p)));
  std::vector<Value> args = kmeans_args(km);
  args.emplace_back(1.0);  // seed
  args.push_back(rand_f64(rng, {km.k, km.d}));  // centroid tangent
  args.push_back(rand_f64(rng, {km.n, km.d}));  // point tangent
  args.emplace_back(0.0);                       // seed tangent
  sweep_case("kmeans_hvp", prog_runner(std::move(hvp), std::move(args)));
}

TEST(FaultSweep, XsbenchGradient) {
  // The per-lookup binary search runs as a counted loop inside the reverse
  // map's kernel.
  npad::support::Rng rng(29);
  auto data = npad::apps::xs_gen(rng, 4, 32, 64);
  sweep_case("xsbench_gradient", optimized_gradient_runner(npad::apps::xs_ir_objective(),
                                                           npad::apps::xs_ir_args(data)));
}

// Must run after every sweep above (gtest preserves in-file declaration
// order): the acceptance floor from the issue.
TEST(FaultSweep, AtLeastTwentyDistinctSitesExercised) {
  const auto& sites = swept_sites();
  std::string all;
  for (const auto& s : sites) all += s + " ";
  EXPECT_GE(sites.size(), 20u) << "sites swept: " << all;
  // Anchor a few sites the contract names explicitly.
  EXPECT_TRUE(sites.count("pool.acquire")) << all;
  EXPECT_TRUE(sites.count("threadpool.chunk")) << all;
  EXPECT_TRUE(sites.count("loop.iter")) << all;
  // The evaluator's scalar-glue fold (LoopWithScalarGlue).
  EXPECT_TRUE(sites.count("scalar.block")) << all;
  // The vectorized execution tier: when vexec is on (the default; the
  // NPAD_VEXEC=0 CI leg disables it), the sweeps above dispatch through the
  // gate in front of the SIMD schedules, so that site must have been crossed
  // (and survived arming) by at least one vectorized launch.
  if (default_use_vexec()) {
    EXPECT_TRUE(sites.count("vexec.dispatch")) << all;
  }
}

} // namespace
