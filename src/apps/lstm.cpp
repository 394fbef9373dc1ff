#include "apps/lstm.hpp"

#include <cmath>

#include "eager/autograd.hpp"
#include "ir/builder.hpp"

namespace npad::apps {

using namespace ir;

LstmData lstm_gen(support::Rng& rng, int64_t bs, int64_t n, int64_t d, int64_t h) {
  LstmData L;
  L.bs = bs;
  L.n = n;
  L.d = d;
  L.h = h;
  const double sx = 1.0 / std::sqrt(static_cast<double>(d));
  const double sh = 1.0 / std::sqrt(static_cast<double>(h));
  L.wx = rng.normal_vec(static_cast<size_t>(4 * h * d), 0.0, sx);
  L.wh = rng.normal_vec(static_cast<size_t>(4 * h * h), 0.0, sh);
  L.b = rng.normal_vec(static_cast<size_t>(4 * h), 0.0, 0.1);
  L.x = rng.normal_vec(static_cast<size_t>(n * bs * d), 0.0, 1.0);
  return L;
}

ir::Prog lstm_ir_objective() {
  ProgBuilder pb("lstm_objective");
  Var wx = pb.param("wx", arr_f64(2));  // [4h, d]
  Var wh = pb.param("wh", arr_f64(2));  // [4h, h]
  Var bb = pb.param("b", arr_f64(1));   // [4h]
  Var x = pb.param("x", arr_f64(3));    // [n, bs, d]
  Builder& b = pb.body();
  Var n = b.length(x);
  Var fourh = b.length(bb);
  Var h = b.div(Atom(fourh), ci64(4));
  // Initial h, c: zeros [bs, h] — build by mapping over one x slice.
  Var x0 = b.index(x, {ci64(0)});
  Var zrow = b.map1(b.lam({arr_f64(1)},
                          [&](Builder& c, const std::vector<Var>& p) {
                            (void)p;
                            Var ih = c.iota(Atom(h));
                            Var z = c.map1(c.lam({i64()},
                                                 [](Builder&, const std::vector<Var>&) {
                                                   return std::vector<Atom>{cf64(0.0)};
                                                 }),
                                           {ih});
                            return std::vector<Atom>{Atom(z)};
                          }),
                    {x0}, "zeros_bh");
  // Sequential time loop carrying (h_state, c_state, loss).
  auto outs = b.loop_for(
      {Atom(zrow), Atom(zrow), cf64(0.0)}, Atom(n),
      [&](Builder& lb, Var t, const std::vector<Var>& st) {
        Var hprev = st[0], cprev = st[1], loss = st[2];
        Var xt = lb.index(x, {Atom(t)});  // [bs, d]
        // Per batch row: compute gates and new (h, c), plus row loss.
        auto hc = lb.map(
            lb.lam({arr_f64(1), arr_f64(1), arr_f64(1)},
                   [&](Builder& c1, const std::vector<Var>& row) {
                     Var xr = row[0], hr = row[1], cr = row[2];
                     Var ih = c1.iota(Atom(h));
                     auto newhc = c1.map(
                         c1.lam({i64()},
                                [&](Builder& c2, const std::vector<Var>& jj) {
                                  auto dotrow = [&](Var W, Atom grow, Var vec, Var len) {
                                    Var il = c2.iota(Atom(len));
                                    Var prods = c2.map1(
                                        c2.lam({i64()},
                                               [&](Builder& c3, const std::vector<Var>& q) {
                                                 Var wv = c3.index(W, {grow, Atom(q[0])});
                                                 Var xv = c3.index(vec, {Atom(q[0])});
                                                 return std::vector<Atom>{
                                                     Atom(c3.mul(wv, xv))};
                                               }),
                                        {il});
                                    return c2.reduce1(c2.add_op(), cf64(0.0), {prods});
                                  };
                                  Var d_ = c2.length(xr);
                                  auto pre = [&](int g) {
                                    Var grow = c2.add(Atom(jj[0]),
                                                      Atom(c2.mul(ci64(g), Atom(h))));
                                    Var s1 = dotrow(wx, Atom(grow), xr, d_);
                                    Var s2 = dotrow(wh, Atom(grow), hr, h);
                                    Var bv = c2.index(bb, {Atom(grow)});
                                    return c2.add(Atom(c2.add(s1, Atom(s2))), Atom(bv));
                                  };
                                  Var ig = c2.sigmoid(Atom(pre(0)));
                                  Var fg = c2.sigmoid(Atom(pre(1)));
                                  Var og = c2.sigmoid(Atom(pre(2)));
                                  Var cg = c2.tanh(Atom(pre(3)));
                                  Var cold = c2.index(cr, {Atom(jj[0])});
                                  Var cnew = c2.add(Atom(c2.mul(fg, cold)),
                                                    Atom(c2.mul(ig, cg)));
                                  Var hnew = c2.mul(og, c2.tanh(cnew));
                                  return std::vector<Atom>{Atom(hnew), Atom(cnew)};
                                }),
                         {ih});
                     Var hn = newhc[0], cn = newhc[1];
                     Var sq = c1.map1(c1.lam({f64()},
                                             [](Builder& cc, const std::vector<Var>& q) {
                                               return std::vector<Atom>{
                                                   Atom(cc.mul(q[0], q[0]))};
                                             }),
                                      {hn});
                     Var rl = c1.reduce1(c1.add_op(), cf64(0.0), {sq});
                     return std::vector<Atom>{Atom(hn), Atom(cn), Atom(rl)};
                   }),
            {xt, hprev, cprev});
        Var lsum = lb.reduce1(lb.add_op(), cf64(0.0), {hc[2]});
        return std::vector<Atom>{Atom(hc[0]), Atom(hc[1]), Atom(lb.add(loss, Atom(lsum)))};
      });
  return pb.finish({Atom(outs[2])});
}

std::vector<rt::Value> lstm_ir_args(const LstmData& L) {
  return {rt::make_f64_array(L.wx, {4 * L.h, L.d}), rt::make_f64_array(L.wh, {4 * L.h, L.h}),
          rt::make_f64_array(L.b, {4 * L.h}), rt::make_f64_array(L.x, {L.n, L.bs, L.d})};
}

LstmResult lstm_eager(const LstmData& L, bool with_grad) {
  using namespace eager;
  const int64_t bs = L.bs, n = L.n, d = L.d, h = L.h;
  eager::Var wxT(Tensor::from([&] {  // store transposed for [bs,d] x [d,4h]
           std::vector<double> t(static_cast<size_t>(d * 4 * h));
           for (int64_t i = 0; i < 4 * h; ++i)
             for (int64_t j = 0; j < d; ++j) t[static_cast<size_t>(j * 4 * h + i)] = L.wx[static_cast<size_t>(i * d + j)];
           return t;
         }(), {d, 4 * h}),
          true);
  eager::Var whT(Tensor::from([&] {
           std::vector<double> t(static_cast<size_t>(h * 4 * h));
           for (int64_t i = 0; i < 4 * h; ++i)
             for (int64_t j = 0; j < h; ++j) t[static_cast<size_t>(j * 4 * h + i)] = L.wh[static_cast<size_t>(i * h + j)];
           return t;
         }(), {h, 4 * h}),
          true);
  eager::Var bias(Tensor::from(L.b, {4 * h}), true);
  eager::Var hS(Tensor::zeros({bs, h}), false);
  eager::Var cS(Tensor::zeros({bs, h}), false);
  eager::Var loss;
  for (int64_t t = 0; t < n; ++t) {
    std::vector<double> xt(L.x.begin() + t * bs * d, L.x.begin() + (t + 1) * bs * d);
    eager::Var xv(Tensor::from(std::move(xt), {bs, d}), false);
    eager::Var pre = add_rowvec(add(matmul(xv, wxT), matmul(hS, whT)), bias);  // [bs,4h]
    // Split gates by slicing columns: emulate with elementwise masks is
    // wasteful; instead compute per-gate matmuls on column blocks.
    // Simpler: build gate tensors by copying column ranges.
    auto slice_cols = [&](const eager::Var& m, int64_t c0, int64_t c1) {
      const int64_t rows = m.value().dim(0), cols = m.value().dim(1);
      Tensor out({rows, c1 - c0});
      for (int64_t i = 0; i < rows; ++i)
        for (int64_t j = c0; j < c1; ++j)
          out.ptr()[i * (c1 - c0) + (j - c0)] = m.value().ptr()[i * cols + j];
      auto node = std::make_shared<Node>();
      node->value = std::move(out);
      node->requires_grad = m.requires_grad();
      node->parents.push_back(m.node());
      node->backward_fn = [c0, c1, cols, rows](Node& nd) {
        Tensor g({rows, cols});
        for (int64_t i = 0; i < rows; ++i)
          for (int64_t j = c0; j < c1; ++j)
            g.ptr()[i * cols + j] = nd.grad.ptr()[i * (c1 - c0) + (j - c0)];
        nd.parents[0]->accumulate(g);
      };
      return eager::Var::from_node(std::move(node));
    };
    eager::Var ig = sigmoid(slice_cols(pre, 0, h));
    eager::Var fg = sigmoid(slice_cols(pre, h, 2 * h));
    eager::Var og = sigmoid(slice_cols(pre, 2 * h, 3 * h));
    eager::Var cg = tanh(slice_cols(pre, 3 * h, 4 * h));
    cS = add(mul(fg, cS), mul(ig, cg));
    hS = mul(og, tanh(cS));
    eager::Var l = sum(square(hS));
    loss = loss.defined() ? add(loss, l) : l;
  }
  LstmResult r;
  r.objective = loss.value().item();
  if (!with_grad) return r;
  backward(loss);
  // Transpose gradients back to [4h, d] layout.
  r.d_wx.resize(static_cast<size_t>(4 * h * d));
  for (int64_t i = 0; i < 4 * h; ++i)
    for (int64_t j = 0; j < d; ++j)
      r.d_wx[static_cast<size_t>(i * d + j)] = wxT.grad().ptr()[j * 4 * h + i];
  r.d_wh.resize(static_cast<size_t>(4 * h * h));
  for (int64_t i = 0; i < 4 * h; ++i)
    for (int64_t j = 0; j < h; ++j)
      r.d_wh[static_cast<size_t>(i * h + j)] = whT.grad().ptr()[j * 4 * h + i];
  r.d_b = bias.grad().data();
  return r;
}

namespace {

struct LstmActs {
  // Per time step: gates and states, each bs*h.
  std::vector<std::vector<double>> ig, fg, og, cg, c, h, cprev, hprev;
};

double lstm_forward_manual(const LstmData& L, LstmActs* acts) {
  const int64_t bs = L.bs, n = L.n, d = L.d, h = L.h;
  std::vector<double> hS(static_cast<size_t>(bs * h), 0.0), cS(static_cast<size_t>(bs * h), 0.0);
  double loss = 0;
  for (int64_t t = 0; t < n; ++t) {
    std::vector<double> ig(static_cast<size_t>(bs * h)), fg(ig), og(ig), cg(ig);
    std::vector<double> hprev = hS, cprev = cS;
    const double* xt = L.x.data() + t * bs * d;
    for (int64_t r = 0; r < bs; ++r) {
      for (int64_t j = 0; j < h; ++j) {
        double pre[4];
        for (int g = 0; g < 4; ++g) {
          const int64_t row = g * h + j;
          double s = L.b[static_cast<size_t>(row)];
          const double* wxr = L.wx.data() + row * d;
          for (int64_t q = 0; q < d; ++q) s += wxr[q] * xt[r * d + q];
          const double* whr = L.wh.data() + row * h;
          for (int64_t q = 0; q < h; ++q) s += whr[q] * hprev[static_cast<size_t>(r * h + q)];
          pre[g] = s;
        }
        const size_t ix = static_cast<size_t>(r * h + j);
        ig[ix] = 1.0 / (1.0 + std::exp(-pre[0]));
        fg[ix] = 1.0 / (1.0 + std::exp(-pre[1]));
        og[ix] = 1.0 / (1.0 + std::exp(-pre[2]));
        cg[ix] = std::tanh(pre[3]);
        cS[ix] = fg[ix] * cprev[ix] + ig[ix] * cg[ix];
        hS[ix] = og[ix] * std::tanh(cS[ix]);
        loss += hS[ix] * hS[ix];
      }
    }
    if (acts) {
      acts->ig.push_back(ig);
      acts->fg.push_back(fg);
      acts->og.push_back(og);
      acts->cg.push_back(cg);
      acts->c.push_back(cS);
      acts->h.push_back(hS);
      acts->cprev.push_back(cprev);
      acts->hprev.push_back(hprev);
    }
  }
  return loss;
}

} // namespace

double lstm_manual_objective_only(const LstmData& L) { return lstm_forward_manual(L, nullptr); }

LstmResult lstm_manual(const LstmData& L) {
  const int64_t bs = L.bs, n = L.n, d = L.d, h = L.h;
  LstmActs acts;
  LstmResult r;
  r.objective = lstm_forward_manual(L, &acts);
  r.d_wx.assign(static_cast<size_t>(4 * h * d), 0.0);
  r.d_wh.assign(static_cast<size_t>(4 * h * h), 0.0);
  r.d_b.assign(static_cast<size_t>(4 * h), 0.0);
  std::vector<double> dh(static_cast<size_t>(bs * h), 0.0), dc(static_cast<size_t>(bs * h), 0.0);
  for (int64_t t = n - 1; t >= 0; --t) {
    const double* xt = L.x.data() + t * bs * d;
    const auto& ig = acts.ig[static_cast<size_t>(t)];
    const auto& fg = acts.fg[static_cast<size_t>(t)];
    const auto& og = acts.og[static_cast<size_t>(t)];
    const auto& cg = acts.cg[static_cast<size_t>(t)];
    const auto& cS = acts.c[static_cast<size_t>(t)];
    const auto& hS = acts.h[static_cast<size_t>(t)];
    const auto& cprev = acts.cprev[static_cast<size_t>(t)];
    const auto& hprev = acts.hprev[static_cast<size_t>(t)];
    std::vector<double> dh_next(static_cast<size_t>(bs * h), 0.0);
    std::vector<double> dc_next(static_cast<size_t>(bs * h), 0.0);
    for (int64_t rr = 0; rr < bs; ++rr) {
      for (int64_t j = 0; j < h; ++j) {
        const size_t ix = static_cast<size_t>(rr * h + j);
        const double dht = dh[ix] + 2.0 * hS[ix];  // loss contributes 2h each step
        const double tc = std::tanh(cS[ix]);
        const double dog = dht * tc;
        const double dct = dht * og[ix] * (1.0 - tc * tc) + dc[ix];
        const double dig = dct * cg[ix];
        const double dfg = dct * cprev[ix];
        const double dcg = dct * ig[ix];
        dc_next[ix] = dct * fg[ix];
        const double dpre[4] = {dig * ig[ix] * (1 - ig[ix]), dfg * fg[ix] * (1 - fg[ix]),
                                dog * og[ix] * (1 - og[ix]), dcg * (1 - cg[ix] * cg[ix])};
        for (int g = 0; g < 4; ++g) {
          const int64_t row = g * h + j;
          r.d_b[static_cast<size_t>(row)] += dpre[g];
          double* dwxr = r.d_wx.data() + row * d;
          for (int64_t q = 0; q < d; ++q) dwxr[q] += dpre[g] * xt[rr * d + q];
          double* dwhr = r.d_wh.data() + row * h;
          const double* whr = L.wh.data() + row * h;
          for (int64_t q = 0; q < h; ++q) {
            dwhr[q] += dpre[g] * hprev[static_cast<size_t>(rr * h + q)];
            dh_next[static_cast<size_t>(rr * h + q)] += dpre[g] * whr[q];
          }
        }
      }
    }
    dh = std::move(dh_next);
    dc = std::move(dc_next);
  }
  return r;
}

} // namespace npad::apps
