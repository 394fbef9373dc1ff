// Table 1 (Section 7.1): ADBench sequential performance — time to compute
// the full Jacobian relative to the objective, per tool. "Futhark" is npad
// (vjp for gradient-shaped Jacobians; seed-vector jvp columns for the
// block-sparse BA/HAND Jacobians, exactly the sparsity exploitation the
// paper describes); "Tapenade" is the tape baseline (one tape reversal per
// Jacobian row, or one gradient pass when the Jacobian is a gradient);
// "Manual" is the hand-derived implementation (GMM and D-LSTM; the paper's
// BA/HAND manual implementations are not reproduced).

#include "common.hpp"

#include <functional>

#include "apps/ba.hpp"
#include "apps/gmm.hpp"
#include "apps/hand.hpp"
#include "apps/lstm.hpp"
#include "core/ad.hpp"
#include "ir/typecheck.hpp"
#include "runtime/interp.hpp"
#include "tape/tape.hpp"

using namespace npad;

namespace {

// Templated diagonal-GMM objective shared with the tape baseline.
template <class Real>
Real gmm_obj_t(const apps::GmmData& g, const Real* alphas, const Real* means, const Real* qs) {
  using std::exp;
  using std::log;
  using std::max;
  const int64_t n = g.n, d = g.d, k = g.k;
  Real total(0.0);
  std::vector<Real> qsum(static_cast<size_t>(k), Real(0.0));
  for (int64_t c = 0; c < k; ++c)
    for (int64_t j = 0; j < d; ++j) qsum[static_cast<size_t>(c)] = qsum[static_cast<size_t>(c)] + qs[c * d + j];
  for (int64_t i = 0; i < n; ++i) {
    Real mx(-1e300);
    std::vector<Real> inner(static_cast<size_t>(k), Real(0.0));
    for (int64_t c = 0; c < k; ++c) {
      Real sq(0.0);
      for (int64_t j = 0; j < d; ++j) {
        Real w = (Real(g.x[static_cast<size_t>(i * d + j)]) - means[c * d + j]) * exp(qs[c * d + j]);
        sq = sq + w * w;
      }
      inner[static_cast<size_t>(c)] = alphas[c] + qsum[static_cast<size_t>(c)] - 0.5 * sq;
      mx = max(mx, inner[static_cast<size_t>(c)]);
    }
    Real den(0.0);
    for (int64_t c = 0; c < k; ++c) den = den + exp(inner[static_cast<size_t>(c)] - mx);
    total = total + mx + log(den);
  }
  Real amx(-1e300);
  for (int64_t c = 0; c < k; ++c) amx = max(amx, alphas[c]);
  Real aden(0.0);
  for (int64_t c = 0; c < k; ++c) aden = aden + exp(alphas[c] - amx);
  total = total - double(n) * (amx + log(aden));
  for (int64_t c = 0; c < k; ++c)
    for (int64_t j = 0; j < d; ++j) total = total + 0.5 * exp(2.0 * qs[c * d + j]) - qs[c * d + j];
  return total;
}

// Templated LSTM objective for the tape baseline.
template <class Real>
Real lstm_obj_t(const apps::LstmData& L, const Real* wx, const Real* wh, const Real* bb) {
  using std::exp;
  using std::tanh;
  const int64_t bs = L.bs, n = L.n, d = L.d, h = L.h;
  std::vector<Real> hS(static_cast<size_t>(bs * h), Real(0.0)), cS(hS);
  Real loss(0.0);
  for (int64_t t = 0; t < n; ++t) {
    const double* xt = L.x.data() + t * bs * d;
    std::vector<Real> hn(static_cast<size_t>(bs * h), Real(0.0)), cn(hn);
    for (int64_t r = 0; r < bs; ++r) {
      for (int64_t j = 0; j < h; ++j) {
        Real pre[4];
        for (int g = 0; g < 4; ++g) {
          const int64_t row = g * h + j;
          Real s = bb[row];
          for (int64_t q = 0; q < d; ++q) s = s + wx[row * d + q] * xt[r * d + q];
          for (int64_t q = 0; q < h; ++q) s = s + wh[row * h + q] * hS[static_cast<size_t>(r * h + q)];
          pre[g] = s;
        }
        const size_t ix = static_cast<size_t>(r * h + j);
        Real ig = 1.0 / (1.0 + exp(Real(0.0) - pre[0]));
        Real fg = 1.0 / (1.0 + exp(Real(0.0) - pre[1]));
        Real og = 1.0 / (1.0 + exp(Real(0.0) - pre[2]));
        Real cgv = tanh(pre[3]);
        cn[ix] = fg * cS[ix] + ig * cgv;
        hn[ix] = og * tanh(cn[ix]);
        loss = loss + hn[ix] * hn[ix];
      }
    }
    hS = hn;
    cS = cn;
  }
  return loss;
}

} // namespace

int main(int argc, char** argv) {
  const int64_t S = bench::scale_factor();
  support::Rng rng(42);
  rt::Interp interp;

  // ---- GMM ----
  auto gmm = apps::gmm_gen(rng, 128 * S, 8, 5);
  ir::Prog gmm_p = apps::gmm_ir_objective();
  ir::typecheck(gmm_p);
  ir::Prog gmm_g = bench::serving_artifact(ad::vjp(gmm_p));
  gmm_p = bench::serving_artifact(gmm_p);
  auto gmm_args = apps::gmm_ir_args(gmm);
  auto gmm_gargs = gmm_args;
  gmm_gargs.emplace_back(1.0);

  // ---- D-LSTM ----
  auto lstm = apps::lstm_gen(rng, 4, 8 * S, 10, 10);
  ir::Prog lstm_p = apps::lstm_ir_objective();
  ir::typecheck(lstm_p);
  ir::Prog lstm_g = bench::serving_artifact(ad::vjp(lstm_p));
  lstm_p = bench::serving_artifact(lstm_p);
  auto lstm_args = apps::lstm_ir_args(lstm);
  auto lstm_gargs = lstm_args;
  lstm_gargs.emplace_back(1.0);

  // ---- BA ----
  auto ba = apps::ba_gen(rng, 8, 32, 64 * S);
  ir::Prog ba_p = apps::ba_ir_residuals();
  ir::typecheck(ba_p);
  ir::Prog ba_j = bench::serving_artifact(ad::jvp(ba_p));
  ba_p = bench::serving_artifact(ba_p);
  auto ba_args = apps::ba_ir_args(ba);
  auto ba_jvp_all_columns = [&] {
    // 15 seed-vector columns: 11 camera, 3 point, 1 weight.
    for (int col = 0; col < 15; ++col) {
      std::vector<double> cam_t(static_cast<size_t>(ba.n_cams * 11), 0.0);
      std::vector<double> pt_t(static_cast<size_t>(ba.n_pts * 3), 0.0);
      std::vector<double> w_t(static_cast<size_t>(ba.n_obs), 0.0);
      if (col < 11) {
        for (int64_t c = 0; c < ba.n_cams; ++c) cam_t[static_cast<size_t>(c * 11 + col)] = 1.0;
      } else if (col < 14) {
        for (int64_t p = 0; p < ba.n_pts; ++p) pt_t[static_cast<size_t>(p * 3 + col - 11)] = 1.0;
      } else {
        std::fill(w_t.begin(), w_t.end(), 1.0);
      }
      auto args = ba_args;
      args.push_back(rt::make_f64_array(cam_t, {ba.n_cams, 11}));
      args.push_back(rt::make_f64_array(pt_t, {ba.n_pts, 3}));
      args.push_back(rt::make_f64_array(w_t, {ba.n_obs}));
      args.push_back(rt::make_f64_array(
          std::vector<double>(static_cast<size_t>(ba.n_obs * 2), 0.0), {ba.n_obs, 2}));
      benchmark::DoNotOptimize(interp.run(ba_j, args));
    }
  };

  // ---- HAND ----
  auto hand = apps::hand_gen(rng, 8, 32 * S);
  ir::Prog hand_s = apps::hand_ir_residuals(false);
  ir::Prog hand_c = apps::hand_ir_residuals(true);
  ir::typecheck(hand_s);
  ir::typecheck(hand_c);
  ir::Prog hand_s_j = bench::serving_artifact(ad::jvp(hand_s));
  ir::Prog hand_c_j = bench::serving_artifact(ad::jvp(hand_c));
  hand_s = bench::serving_artifact(hand_s);
  hand_c = bench::serving_artifact(hand_c);
  auto hand_jvp_columns = [&](bool complicated) {
    const int64_t ncols = 3 * hand.nbones + (complicated ? 2 : 0);
    for (int64_t col = 0; col < ncols; ++col) {
      std::vector<double> th_t(static_cast<size_t>(3 * hand.nbones), 0.0);
      std::vector<double> us_t(static_cast<size_t>(2 * hand.nverts), 0.0);
      if (col < 3 * hand.nbones) {
        th_t[static_cast<size_t>(col)] = 1.0;
      } else {
        // All same-parity us entries at once (disjoint Jacobian rows).
        for (int64_t v = 0; v < hand.nverts; ++v)
          us_t[static_cast<size_t>(2 * v + (col - 3 * hand.nbones))] = 1.0;
      }
      auto args = apps::hand_ir_args(hand, complicated);
      args.push_back(rt::make_f64_array(th_t, {3 * hand.nbones}));
      if (complicated) args.push_back(rt::make_f64_array(us_t, {2 * hand.nverts}));
      args.push_back(rt::make_f64_array(
          std::vector<double>(static_cast<size_t>(hand.nverts * 3), 0.0), {hand.nverts, 3}));
      args.push_back(rt::make_f64_array(
          std::vector<double>(static_cast<size_t>(hand.nverts * 6), 0.0), {hand.nverts, 6}));
      args.push_back(rt::make_f64_array(
          std::vector<double>(static_cast<size_t>(hand.nverts * 3), 0.0), {hand.nverts, 3}));
      benchmark::DoNotOptimize(interp.run(complicated ? hand_c_j : hand_s_j, args));
    }
  };

  auto reg = [&](const char* name, std::function<void()> fn) {
    benchmark::RegisterBenchmark(name, [fn](benchmark::State& st) {
      for (auto _ : st) fn();
    })->Unit(benchmark::kMillisecond)->MinTime(0.05);
  };

  reg("gmm/obj", [&] { benchmark::DoNotOptimize(interp.run(gmm_p, gmm_args)); });
  reg("gmm/jac", [&] { benchmark::DoNotOptimize(interp.run(gmm_g, gmm_gargs)); });
  reg("gmm/tape_obj", [&] {
    benchmark::DoNotOptimize(gmm_obj_t<double>(gmm, gmm.alphas.data(), gmm.means.data(),
                                               gmm.qs.data()));
  });
  reg("gmm/tape_jac", [&] {
    tape::Tape::active().clear();
    std::vector<tape::Adouble> a, m, q;
    for (double v : gmm.alphas) a.emplace_back(v);
    for (double v : gmm.means) m.emplace_back(v);
    for (double v : gmm.qs) q.emplace_back(v);
    tape::Adouble y = gmm_obj_t<tape::Adouble>(gmm, a.data(), m.data(), q.data());
    y.seed(1.0);
    tape::Tape::active().reverse();
    benchmark::DoNotOptimize(a[0].adjoint());
  });
  reg("gmm/manual_obj", [&] {
    benchmark::DoNotOptimize(gmm_obj_t<double>(gmm, gmm.alphas.data(), gmm.means.data(),
                                               gmm.qs.data()));
  });
  reg("gmm/manual_jac", [&] { benchmark::DoNotOptimize(apps::gmm_manual(gmm)); });

  reg("lstm/obj", [&] { benchmark::DoNotOptimize(interp.run(lstm_p, lstm_args)); });
  reg("lstm/jac", [&] { benchmark::DoNotOptimize(interp.run(lstm_g, lstm_gargs)); });
  reg("lstm/tape_obj", [&] {
    benchmark::DoNotOptimize(lstm_obj_t<double>(lstm, lstm.wx.data(), lstm.wh.data(),
                                                lstm.b.data()));
  });
  reg("lstm/tape_jac", [&] {
    tape::Tape::active().clear();
    std::vector<tape::Adouble> wx, wh, bb;
    for (double v : lstm.wx) wx.emplace_back(v);
    for (double v : lstm.wh) wh.emplace_back(v);
    for (double v : lstm.b) bb.emplace_back(v);
    tape::Adouble y = lstm_obj_t<tape::Adouble>(lstm, wx.data(), wh.data(), bb.data());
    y.seed(1.0);
    tape::Tape::active().reverse();
    benchmark::DoNotOptimize(wx[0].adjoint());
  });
  reg("lstm/manual_obj",
      [&] { benchmark::DoNotOptimize(apps::lstm_manual_objective_only(lstm)); });
  reg("lstm/manual_jac", [&] { benchmark::DoNotOptimize(apps::lstm_manual(lstm)); });

  reg("ba/obj", [&] { benchmark::DoNotOptimize(interp.run(ba_p, ba_args)); });
  reg("ba/jac", ba_jvp_all_columns);
  reg("ba/tape_obj", [&] { benchmark::DoNotOptimize(apps::ba_primal_sum(ba)); });
  reg("ba/tape_jac", [&] { benchmark::DoNotOptimize(apps::ba_tape_jacobian(ba, nullptr)); });

  reg("hand_s/obj",
      [&] { benchmark::DoNotOptimize(interp.run(hand_s, apps::hand_ir_args(hand, false))); });
  reg("hand_s/jac", [&] { hand_jvp_columns(false); });
  reg("hand_c/obj",
      [&] { benchmark::DoNotOptimize(interp.run(hand_c, apps::hand_ir_args(hand, true))); });
  reg("hand_c/jac", [&] { hand_jvp_columns(true); });
  std::vector<double> href(static_cast<size_t>(hand.nverts * 3));
  reg("hand/tape_obj", [&] {
    apps::hand_residuals<double>(hand, hand.theta.data(), hand.us.data(), href.data());
    benchmark::DoNotOptimize(href[0]);
  });
  reg("hand_s/tape_jac", [&] { benchmark::DoNotOptimize(apps::hand_tape_jacobian(hand, false)); });
  reg("hand_c/tape_jac", [&] { benchmark::DoNotOptimize(apps::hand_tape_jacobian(hand, true)); });

  auto col = bench::run_benchmarks(argc, argv);

  support::Table t({"Tool", "BA", "D-LSTM", "GMM", "HAND Comp.", "HAND Simple"});
  t.add_row({"Paper: Futhark", "13.0x", "3.2x", "5.1x", "49.8x", "45.4x"});
  t.add_row({"npad (measured)", bench::ratio(col.ms("ba/jac"), col.ms("ba/obj"), 1),
             bench::ratio(col.ms("lstm/jac"), col.ms("lstm/obj"), 1),
             bench::ratio(col.ms("gmm/jac"), col.ms("gmm/obj"), 1),
             bench::ratio(col.ms("hand_c/jac"), col.ms("hand_c/obj"), 1),
             bench::ratio(col.ms("hand_s/jac"), col.ms("hand_s/obj"), 1)});
  t.add_row({"Paper: Tapenade", "10.3x", "4.5x", "5.4x", "3758.7x", "59.2x"});
  t.add_row({"tape (measured)", bench::ratio(col.ms("ba/tape_jac"), col.ms("ba/tape_obj"), 1),
             bench::ratio(col.ms("lstm/tape_jac"), col.ms("lstm/tape_obj"), 1),
             bench::ratio(col.ms("gmm/tape_jac"), col.ms("gmm/tape_obj"), 1),
             bench::ratio(col.ms("hand_c/tape_jac"), col.ms("hand/tape_obj"), 1),
             bench::ratio(col.ms("hand_s/tape_jac"), col.ms("hand/tape_obj"), 1)});
  t.add_row({"Paper: Manual", "8.6x", "6.2x", "4.6x", "4.6x", "4.4x"});
  t.add_row({"manual (measured)", "-",
             bench::ratio(col.ms("lstm/manual_jac"), col.ms("lstm/manual_obj"), 1),
             bench::ratio(col.ms("gmm/manual_jac"), col.ms("gmm/manual_obj"), 1), "-", "-"});
  std::cout << "\nTable 1: full-Jacobian time / objective time (lower is better)\n";
  t.print();

  bench::write_bench_json("table1_adbench", col, interp.stats().counters());
  return 0;
}
