// The compute workloads, `regular` and `irregular`. The workload's programs
// run round-robin in passes, one evaluation at a time on a fresh rt::Interp
// with default options, so machine drift hits every program alike. Every
// output is checked against the program's reference: the manual
// implementation, a tape gradient, or the direct residual formula.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "programs.hpp"
#include "runtime/buffer_pool.hpp"
#include "runtime/interp.hpp"
#include "serve/registry.hpp"
#include "support/rng.hpp"
#include "tape/tape.hpp"

namespace npad::bench {
namespace {

using rt::Value;
using Outs = std::vector<Value>;
using Want = std::vector<std::pair<size_t, std::vector<double>>>;
using serve::Json;

constexpr int kWindows = 6;    // windows of the measured phase, see window_median()
constexpr double kTol = 1e-9;  // max-norm relative error allowed against the reference

struct Timing {
  int64_t pass;
  double ms;
  bool traced;  // the pass recorded spans (traced runs only)
};

struct Op {
  std::string prog;  // recipe name
  bool deriv = false;
  std::vector<Value> args;
  std::function<Want()> reference;  // expected outputs, computed after set-up
  std::function<void()> baseline;   // manual / tape implementation, timed in traced runs

  const ir::Prog* program = nullptr;
  Want want;
  double first_ms = 0.0;
  double worst_err = 0.0;
  std::vector<Timing> samples;  // one per successful evaluation
  std::vector<double> baseline_ms;

  std::string label() const { return prog + (deriv ? ".deriv" : ".primal"); }
};

std::vector<Value> plus(std::vector<Value> args, std::vector<Value> more) {
  for (Value& v : more) args.push_back(std::move(v));
  return args;
}

Op primal_op(std::string prog, std::vector<Value> args, std::function<Want()> ref) {
  Op op;
  op.prog = std::move(prog);
  op.args = std::move(args);
  op.reference = std::move(ref);
  return op;
}

Op deriv_op(std::string prog, std::vector<Value> args, std::function<Want()> ref,
            std::function<void()> baseline) {
  Op op = primal_op(std::move(prog), std::move(args), std::move(ref));
  op.deriv = true;
  op.baseline = std::move(baseline);
  return op;
}

template <class T>
void keep(const T& v) {
  asm volatile("" : : "g"(&v) : "memory");
}

// ---------------------------------------------------------------- regular --

// Table-bench sizes: GMM D0 (256,16,25), LSTM D0 (16,10,24,16), dense
// k-means w0 (n 4096, d 16, k 5).
std::vector<Op> regular_ops(support::Rng& rng) {
  std::vector<Op> ops;

  auto g = std::make_shared<const apps::GmmData>(apps::gmm_gen(rng, 256, 16, 25));
  const std::vector<Value> gmm_args = apps::gmm_ir_args(*g);
  ops.push_back(deriv_op(
      "gmm", plus(gmm_args, {1.0}),
      [g] {
        const apps::GmmManualResult m = apps::gmm_manual(*g);
        return Want{{0, {m.objective}}, {1, m.d_alphas}, {2, m.d_means}, {3, m.d_qs}};
      },
      [g] { keep(apps::gmm_manual(*g)); }));

  auto L = std::make_shared<const apps::LstmData>(apps::lstm_gen(rng, 16, 10, 24, 16));
  const std::vector<Value> lstm_args = apps::lstm_ir_args(*L);
  ops.push_back(deriv_op(
      "lstm", plus(lstm_args, {1.0}),
      [L] {
        const apps::LstmResult m = apps::lstm_manual(*L);
        return Want{{0, {m.objective}}, {1, m.d_wx}, {2, m.d_wh}, {3, m.d_b}};
      },
      [L] { keep(apps::lstm_manual(*L)); }));

  auto km = std::make_shared<const apps::KmeansData>(apps::kmeans_gen(rng, 4096, 16, 5));
  const std::vector<Value> km_args = {rt::make_f64_array(km->centroids, {km->k, km->d}),
                                      rt::make_f64_array(km->points, {km->n, km->d})};
  ops.push_back(deriv_op(
      "kmeans", plus(km_args, {1.0}),
      [km] {
        const apps::KmeansManualResult m = apps::kmeans_manual(*km);
        return Want{{0, {m.cost}}, {1, m.grad}};
      },
      [km] { keep(apps::kmeans_manual(*km)); }));

  // Hessian-vector product along the first centroid coordinate. The k-means
  // Hessian is diagonal (2 * count_k per coordinate of centroid k), so the
  // probed column is hess_diag[0] at index 0 and zero elsewhere.
  const int64_t kd = km->k * km->d;
  std::vector<double> dir(static_cast<size_t>(kd), 0.0);
  dir[0] = 1.0;
  ops.push_back(deriv_op(
      "kmeans_hvp",
      plus(km_args, {1.0, rt::make_f64_array(dir, {km->k, km->d}),
                     rt::make_f64_array(std::vector<double>(km->points.size(), 0.0),
                                        {km->n, km->d}),
                     0.0}),
      [km, kd] {
        const apps::KmeansManualResult m = apps::kmeans_manual(*km);
        std::vector<double> column(static_cast<size_t>(kd), 0.0);
        column[0] = m.hess_diag[0];
        // (cost, dC, dP, cost', dC', dP')
        return Want{{0, {m.cost}}, {1, m.grad}, {4, column}};
      },
      nullptr));

  ops.push_back(primal_op("gmm", gmm_args, [g] {
    return Want{{0, {apps::gmm_manual(*g).objective}}};
  }));
  ops.push_back(primal_op("lstm", lstm_args, [L] {
    return Want{{0, {apps::lstm_manual(*L).objective}}};
  }));
  ops.push_back(primal_op("kmeans", km_args, [km] {
    return Want{{0, {apps::kmeans_manual(*km).cost}}};
  }));
  return ops;
}

// -------------------------------------------------------------- irregular --

// Tape adjoints of the XSBench objective w.r.t. the cross sections and the
// concentrations (the tape stand-in treats energies and queries as data).
Want xs_tape_reference(const apps::XsData& d) {
  using tape::Adouble;
  tape::Tape::active().clear();
  std::vector<Adouble> xs(d.xs.begin(), d.xs.end()), conc(d.conc.begin(), d.conc.end());
  Adouble total = apps::xs_objective<Adouble>(d, xs.data(), conc.data());
  total.seed(1.0);
  tape::Tape::active().reverse();
  Want w{{0, {total.value()}}, {2, {}}, {3, {}}};
  for (const Adouble& a : xs) w[1].second.push_back(a.adjoint());
  for (const Adouble& a : conc) w[2].second.push_back(a.adjoint());
  tape::Tape::active().clear();
  return w;
}

Want rs_tape_reference(const apps::RsData& d) {
  using tape::Adouble;
  tape::Tape::active().clear();
  std::vector<Adouble> pe(d.pole_e.begin(), d.pole_e.end());
  std::vector<Adouble> pw(d.pole_w.begin(), d.pole_w.end());
  std::vector<Adouble> pa(d.pole_a.begin(), d.pole_a.end());
  std::vector<Adouble> conc(d.conc.begin(), d.conc.end());
  Adouble total = apps::rs_objective<Adouble>(d, pe.data(), pw.data(), pa.data(), conc.data());
  total.seed(1.0);
  tape::Tape::active().reverse();
  Want w{{0, {total.value()}}, {1, {}}, {2, {}}, {3, {}}, {4, {}}};
  const std::vector<Adouble>* params[] = {&pe, &pw, &pa, &conc};
  for (size_t i = 0; i < 4; ++i) {
    for (const Adouble& a : *params[i]) w[i + 1].second.push_back(a.adjoint());
  }
  tape::Tape::active().clear();
  return w;
}

// Bundle-adjustment residuals and their directional derivative along
// (tc, tp, tw): the rows of the tape Jacobian (11 camera + 3 point + 1 weight
// entries per residual) multiplied by the tangent.
Want ba_reference(const apps::BaData& d, const std::vector<double>& tc,
                  const std::vector<double>& tp, const std::vector<double>& tw, bool deriv) {
  const size_t n = static_cast<size_t>(d.n_obs);
  std::vector<double> e0(n), e1(n), werr(n), de0(n), de1(n), dwerr(n);
  std::vector<double> rows;
  if (deriv) apps::ba_tape_jacobian(d, &rows);
  for (size_t o = 0; o < n; ++o) {
    const size_t cam = static_cast<size_t>(d.cam_idx[o]), pt = static_cast<size_t>(d.pt_idx[o]);
    double proj[2];
    apps::ba_project(d.cams.data() + cam * 11, d.pts.data() + pt * 3, proj);
    const double w = d.weights[o];
    e0[o] = w * (proj[0] - d.feats[o * 2]);
    e1[o] = w * (proj[1] - d.feats[o * 2 + 1]);
    werr[o] = 1.0 - w * w;
    if (!deriv) continue;
    for (size_t comp = 0; comp < 2; ++comp) {
      const double* row = rows.data() + (o * 2 + comp) * 15;
      double s = 0.0;
      for (size_t j = 0; j < 11; ++j) s += row[j] * tc[cam * 11 + j];
      for (size_t j = 0; j < 3; ++j) s += row[11 + j] * tp[pt * 3 + j];
      s += row[14] * tw[o];
      (comp == 0 ? de0 : de1)[o] = s;
    }
    dwerr[o] = -2.0 * w * tw[o];
  }
  Want want{{0, e0}, {1, e1}, {2, werr}};
  if (deriv) want.insert(want.end(), {{3, de0}, {4, de1}, {5, dwerr}});
  return want;
}

// Table 4's first workload shape at n 256 (CSR, d 512, k 10, 16 nnz/row);
// XSBench (8,128,512) and RSBench (8,24,512) as in bench_mc_transport; BA
// with 8 cameras, 32 points, 64 observations.
std::vector<Op> irregular_ops(support::Rng& rng) {
  std::vector<Op> ops;

  auto sp = std::make_shared<const apps::KmeansSparseData>(
      apps::kmeans_sparse_gen(rng, 256, 512, 10, 16));
  const std::vector<Value> sp_args = apps::kmeans_sparse_ir_args(*sp);
  ops.push_back(deriv_op(
      "kmeans_sparse", plus(sp_args, {1.0}),
      [sp] {
        const apps::KmeansManualResult m = apps::kmeans_sparse_manual(*sp);
        return Want{{0, {m.cost}}, {1, m.grad}};
      },
      [sp] { keep(apps::kmeans_sparse_manual(*sp)); }));

  auto xs = std::make_shared<const apps::XsData>(apps::xs_gen(rng, 8, 128, 512));
  const std::vector<Value> xs_args = apps::xs_ir_args(*xs);
  ops.push_back(deriv_op(
      "xsbench", plus(xs_args, {1.0}), [xs] { return xs_tape_reference(*xs); },
      [xs] {
        std::vector<double> grad;
        keep(apps::xs_tape_gradient(*xs, &grad));
      }));

  auto rs = std::make_shared<const apps::RsData>(apps::rs_gen(rng, 8, 24, 512));
  const std::vector<Value> rs_args = apps::rs_ir_args(*rs);
  ops.push_back(deriv_op("rsbench", plus(rs_args, {1.0}), [rs] { return rs_tape_reference(*rs); },
                         [rs] { keep(apps::rs_tape_gradient(*rs)); }));

  auto ba = std::make_shared<const apps::BaData>(apps::ba_gen(rng, 8, 32, 64));
  auto tc = rng.uniform_vec(static_cast<size_t>(ba->n_cams * 11), -1.0, 1.0);
  auto tp = rng.uniform_vec(static_cast<size_t>(ba->n_pts * 3), -1.0, 1.0);
  auto tw = rng.uniform_vec(static_cast<size_t>(ba->n_obs), -1.0, 1.0);
  const std::vector<Value> ba_args = apps::ba_ir_args(*ba);
  ops.push_back(deriv_op(
      "ba",
      plus(ba_args, {rt::make_f64_array(tc, {ba->n_cams, 11}), rt::make_f64_array(tp, {ba->n_pts, 3}),
                     rt::make_f64_array(tw, {ba->n_obs}),
                     rt::make_f64_array(std::vector<double>(ba->feats.size(), 0.0),
                                        {ba->n_obs, 2})}),
      [ba, tc, tp, tw] { return ba_reference(*ba, tc, tp, tw, /*deriv=*/true); },
      [ba] {
        std::vector<double> rows;
        keep(apps::ba_tape_jacobian(*ba, &rows));
      }));

  ops.push_back(primal_op("kmeans_sparse", sp_args, [sp] {
    return Want{{0, {apps::kmeans_sparse_manual(*sp).cost}}};
  }));
  ops.push_back(primal_op("xsbench", xs_args, [xs] { return Want{{0, {apps::xs_primal(*xs)}}}; }));
  ops.push_back(primal_op("rsbench", rs_args, [rs] { return Want{{0, {apps::rs_primal(*rs)}}}; }));
  ops.push_back(primal_op("ba", ba_args, [ba] { return ba_reference(*ba, {}, {}, {}, false); }));
  return ops;
}

std::string fmt_err(double e) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3g", e);
  return buf;
}

void check(Op& op, const Outs& out, Result& res) {
  const double e = max_err(out, op.want);
  op.worst_err = std::max(op.worst_err, e);
  res.record(e <= kTol, op.label() + ": max rel error " + fmt_err(e) + " > " + fmt_err(kTol));
}


// The op's times in passes [lo, hi); traced: -1 all passes, 0 untraced
// passes only, 1 traced passes only.
std::vector<double> times(const Op& op, int64_t lo, int64_t hi, int traced = -1) {
  std::vector<double> v;
  for (const Timing& t : op.samples) {
    if (t.pass >= lo && t.pass < hi && (traced < 0 || t.traced == (traced == 1))) {
      v.push_back(t.ms);
    }
  }
  return v;
}

// Median over equal ranges of passes of f(first pass, end pass). The
// end-to-end statistics are read this way so that a slow stretch of the
// machine (another tenant's burst) confined to part of the run does not move
// them.
template <class F>
double window_median(int64_t passes, F f) {
  const int64_t k = std::min<int64_t>(kWindows, passes);
  std::vector<double> v;
  for (int64_t i = 0; i < k; ++i) v.push_back(f(passes * i / k, passes * (i + 1) / k));
  return percentile(v, 0.5);
}

} // namespace

void run_compute(const Options& opts, Result& res, Trace& trace) {
  const bool regular = opts.workload == "regular";
  support::Rng rng(opts.seed ^ (regular ? 0x7265677560000000ull : 0x6972726567000000ull));
  std::vector<Op> ops = regular ? regular_ops(rng) : irregular_ops(rng);
  rt::Interp interp;

  // ---- set-up (timed): the registry, the workload's programs, and one cold
  // run of each. Input generation and references are outside it.
  const uint64_t setup_span = trace.new_id();
  const Clock::time_point t_setup = Clock::now();
  BuildStats built;
  const Clock::time_point t_reg = Clock::now();
  serve::register_builtin_programs();
  const double registry_ms = ms_between(t_reg, Clock::now());
  trace.add(setup_span, "serve.register_builtin_programs", t_reg, Clock::now());
  std::map<std::string, Programs> progs;
  for (const Op& op : ops) {
    if (progs.count(op.prog) != 0) continue;
    const uint64_t span = trace.new_id();
    const Clock::time_point t0 = Clock::now();
    progs[op.prog] = load(recipe(op.prog), &built, trace, span);
    trace.add(span, setup_span, 0, "setup." + op.prog, t0, Clock::now());
  }
  std::vector<Outs> first(ops.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    Op& op = ops[i];
    const Programs& p = progs.at(op.prog);
    op.program = op.deriv ? &p.deriv : &p.primal;
    const Clock::time_point t0 = Clock::now();
    first[i] = interp.run(*op.program, op.args);
    op.first_ms = ms_between(t0, Clock::now());
    trace.add(setup_span, "runtime.first_run", t0, Clock::now(),
              Json::object().set("op", Json::string(op.label())));
  }
  res.setup_s = ms_between(t_setup, Clock::now()) / 1e3;
  trace.add(setup_span, 0, 0, "setup", t_setup, Clock::now());
  if (opts.setup_only) return;

  // ---- references (untimed); the cold runs are checked too.
  for (size_t i = 0; i < ops.size(); ++i) {
    ops[i].want = ops[i].reference();
    check(ops[i], first[i], res);
  }
  first.clear();

  // Traced runs rebuild the registry's programs with the recipe, for the
  // per-layer set-up breakdown, and check the rebuild reproduced them.
  int mismatches = 0;
  if (trace.on()) {
    for (auto& [name, p] : progs) {
      const Recipe& r = recipe(name);
      if (r.registry == nullptr) continue;
      const uint64_t span = trace.new_id();
      const Clock::time_point t0 = Clock::now();
      const Programs rebuilt = build(r, &built, trace, span);
      trace.add(span, 0, 0, "rebuild." + name, t0, Clock::now());
      if (!same_program(rebuilt.primal, p.primal) || !same_program(rebuilt.deriv, p.deriv)) {
        ++mismatches;
      }
    }
  }

  // ---- measured phase: passes until the deadline.
  const std::map<std::string, uint64_t> c0 = interp.stats().counters();
  const rt::BufferPool::Counters pool0 = rt::BufferPool::global().stats();
  std::vector<double> pass_ms;  // summed evaluation time per pass
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(opts.seconds));
  while (Clock::now() < deadline) {
    const int64_t pass = static_cast<int64_t>(pass_ms.size());
    // Traced runs trace every other pass; the untraced passes are the base
    // trace.overhead_pct is measured against.
    const bool traced_pass = trace.on() && pass % 2 == 0;
    const uint64_t pass_span = trace.new_id();
    const Clock::time_point t_pass = Clock::now();
    double pass_sum = 0.0;
    for (Op& op : ops) {
      std::map<std::string, uint64_t> cb;
      rt::BufferPool::Counters pb;
      if (traced_pass) {
        cb = interp.stats().counters();
        pb = rt::BufferPool::global().stats();
      }
      Outs out;
      std::string error;
      const Clock::time_point t0 = Clock::now();
      try {
        out = interp.run(*op.program, op.args);
      } catch (const npad::Error& e) {
        error = e.what();
      }
      const Clock::time_point t1 = Clock::now();
      const double ms = ms_between(t0, t1);
      if (error.empty()) {
        op.samples.push_back(Timing{pass, ms, traced_pass});
        pass_sum += ms;
        check(op, out, res);
      } else {
        res.record(false, op.label() + ": " + error);
      }
      if (traced_pass) {
        Json args = Json::object();
        args.set("op", Json::string(op.label()));
        for (const auto& [k, v] : interp.stats().counters()) {
          if (v != cb.at(k)) args.set(k, Json::number(static_cast<double>(v - cb.at(k))));
        }
        const rt::BufferPool::Counters pa = rt::BufferPool::global().stats();
        args.set("pool.hits", Json::number(static_cast<double>(pa.hits - pb.hits)));
        args.set("pool.misses", Json::number(static_cast<double>(pa.misses - pb.misses)));
        trace.add(pass_span, "runtime.run", t0, t1, std::move(args));
      }
    }
    for (Op& op : ops) {
      if (!traced_pass || !op.baseline) continue;
      const Clock::time_point t0 = Clock::now();
      op.baseline();
      op.baseline_ms.push_back(ms_between(t0, Clock::now()));
    }
    pass_ms.push_back(pass_sum);
    if (traced_pass) trace.add(pass_span, 0, 0, "pass", t_pass, Clock::now());
  }
  const int64_t passes = static_cast<int64_t>(pass_ms.size());
  if (passes == 0) throw ResourceError("bench: no pass completed");
  report_peak_rss(res);

  // ---- end-to-end metrics: deriv_ms / primal_ms, the geometric mean over
  // the programs of each program's typical() time per evaluation, as a
  // median over windows of passes.
  auto by_program = [&](bool deriv) {
    return window_median(passes, [&](int64_t lo, int64_t hi) {
      std::vector<double> v;
      for (const Op& op : ops) {
        if (op.deriv == deriv) v.push_back(typical(times(op, lo, hi)));
      }
      return geomean(v);
    });
  };
  int64_t dn = std::numeric_limits<int64_t>::max(), pn = dn;
  Json worst = Json::object(), op_ms = Json::object();
  for (const Op& op : ops) {
    int64_t& fewest = op.deriv ? dn : pn;
    fewest = std::min(fewest, static_cast<int64_t>(op.samples.size()));
    worst.set(op.label(), Json::number(op.worst_err));
    op_ms.set(op.label(), Json::number(typical(times(op, 0, passes))));
  }
  res.info.set("max_rel_err", std::move(worst));
  res.info.set("op_ms", std::move(op_ms));
  res.metrics["deriv_ms"] = Metric{by_program(true), "ms", dn};
  res.metrics["primal_ms"] = Metric{by_program(false), "ms", pn};
  if (!trace.on()) return;

  // ---- per-layer metrics (traced runs).
  // latency_ms_*: time of one pass over all the programs, the whole
  // distribution rather than typical().
  auto pass_stat = [&](double q) {
    return window_median(passes, [&](int64_t lo, int64_t hi) {
      return percentile(std::vector<double>(pass_ms.begin() + lo, pass_ms.begin() + hi), q);
    });
  };
  res.layer("latency_ms_p50", pass_stat(0.5), "ms", passes);
  res.layer("latency_ms_p90", pass_stat(0.9), "ms", passes);
  res.layer("serve.registry_ms", registry_ms, "ms");
  res.layer("serve.registry_mismatches", mismatches, "count");
  report_build(res, built);
  double first_extra = 0.0, traced_ratio = 0.0;
  int traced_ops = 0;
  for (const Op& op : ops) {
    const double warm = typical(times(op, 0, passes));
    res.layer("runtime." + op.prog + (op.deriv ? ".deriv_ms" : ".primal_ms"), warm, "ms",
              static_cast<int64_t>(op.samples.size()));
    first_extra += op.first_ms - warm;
    if (!op.baseline_ms.empty()) {
      res.layer("ref." + op.prog + ".ms", typical(op.baseline_ms), "ms",
                static_cast<int64_t>(op.baseline_ms.size()));
    }
    const std::vector<double> traced = times(op, 0, passes, 1), plain = times(op, 0, passes, 0);
    if (op.deriv && !traced.empty() && !plain.empty()) {
      traced_ratio += std::log(typical(traced) / typical(plain));
      ++traced_ops;
    }
  }
  res.layer("runtime.first_run_ms", first_extra, "ms", static_cast<int64_t>(ops.size()));
  res.layer("trace.overhead_pct",
            traced_ops == 0 ? 0.0 : 100.0 * (std::exp(traced_ratio / traced_ops) - 1.0), "%",
            passes);
  report_runtime(res, c0, interp.stats().counters(), pool0, rt::BufferPool::global().stats(),
                 static_cast<double>(passes));
}

} // namespace npad::bench
