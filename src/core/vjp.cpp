// Reverse-mode AD by redundant execution (Sections 4 and 5).
//
// The tape is the lexical scope: whenever the return sweep enters a scope,
// the scope's forward sweep is re-emitted first, bringing every primal
// variable the adjoint code may need back into scope (rule vjp_body of
// Fig. 3). Sequential loops are the only construct that checkpoints:
// loop-variant variables are saved per iteration into scratch arrays (or
// once at entry under the §6.2 no-false-dependencies annotation). Parallel
// combinators are differentiated with the rewrite rules of Section 5:
//
//   map      — free arrays become accumulators (withacc/upd_acc), free
//              scalars become per-element partial sums reduced with (+),
//              bound inputs yield per-element adjoint arrays (§5.4);
//   reduce   — specialized rules for +, *, min/max, and the general
//              exclusive-scan-from-both-sides rule (§5.1);
//   scan     — + special case and the general linear-recurrence rule solved
//              by a scan with linear-function composition (§5.2);
//   hist     — reduce_by_index specials for +, *, min/max (§5.1.2);
//   scatter  — gather the overwritten adjoints, zero them out (§5.3).
//
// Deviation from the paper noted in docs/ARCHITECTURE.md § Substitutions and
// deviations from the paper: the runtime is copy-on-write,
// so the explicit save/restore of overwritten elements (xs_saved in §5.3)
// is implicit — the primal array bound by the re-executed forward sweep is
// still live when the return sweep reads it.

#include <optional>
#include <unordered_map>

#include "core/ad.hpp"
#include "ir/analysis.hpp"
#include "ir/builder.hpp"
#include "ir/patterns.hpp"
#include "ir/visit.hpp"

namespace npad::ad {

namespace {

using namespace ir;

constexpr double kBig = 1e300;

class VjpCtx {
public:
  VjpCtx(Module& mod, TypeMap& tm) : mod_(mod), tm_(tm) {}

  using AdjMap = std::unordered_map<uint32_t, Var>;

  struct FwdInfo {
    std::vector<Var> chk;  // loop checkpoint arrays, one per loop param
  };

  static bool diff_t(const Type& t) { return t.elem == ScalarType::F64; }

  // ------------------------------------------------------ adjoint helpers --

  std::optional<Var> adjoint_opt(const AdjMap& adj, Var v) const {
    auto it = adj.find(v.id);
    if (it == adj.end()) return std::nullopt;
    return it->second;
  }

  Var adjoint_or_zero(Builder& b, AdjMap& adj, Var v) {
    if (auto a = adjoint_opt(adj, v)) return *a;
    Type t = tm_.at(v);
    assert(diff_t(t));
    Var z = t.rank == 0 ? b.rebind(cf64(0.0), mod_.name(v) + "_adj") : b.zeros_like(v);
    adj[v.id] = z;
    return z;
  }

  // Adds contribution `c` (same shape as v) to v's adjoint.
  void contribute(Builder& b, AdjMap& adj, Var v, Atom c) {
    if (!diff_t(tm_.at(v))) return;
    auto it = adj.find(v.id);
    if (it == adj.end()) {
      adj[v.id] = c.is_var() ? c.var() : b.rebind(c, mod_.name(v) + "_adj");
      return;
    }
    Var cur = it->second;
    if (tm_.at(cur).is_acc) {
      adj[v.id] = b.upd_acc(cur, {}, c);
    } else {
      adj[v.id] = vec_add(b, Atom(cur), c);
    }
  }

  // Adds contribution `c` to v's adjoint at index prefix `idx`.
  void contribute_at(Builder& b, AdjMap& adj, Var v, const std::vector<Atom>& idx, Atom c) {
    if (!diff_t(tm_.at(v))) return;
    Var cur = adjoint_or_zero(b, adj, v);
    if (tm_.at(cur).is_acc) {
      adj[v.id] = b.upd_acc(cur, idx, c);
      return;
    }
    Var old = b.index(cur, idx, "old");
    Var nv = vec_add(b, Atom(old), c);
    adj[v.id] = b.update(cur, idx, Atom(nv));
  }

  // Elementwise addition at any rank.
  Var vec_add(Builder& b, Atom x, Atom y) {
    Type t = tm_.at(x);
    if (t.rank == 0) return b.add(x, y);
    Var xv = x.var(), yv = y.is_var() ? y.var() : Var{};
    assert(yv.valid());
    Type et = elem_of(t);
    LambdaPtr l = b.lam({et, et}, [&](Builder& c, const std::vector<Var>& p) {
      return std::vector<Atom>{Atom(vec_add(c, Atom(p[0]), Atom(p[1])))};
    });
    return b.map1(std::move(l), {xv, yv}, "adds");
  }

  // Binds an existing variable id to an expression (used for re-installing
  // loop parameters / indices during re-execution).
  void bind_existing(Builder& b, Var v, Exp e) { b.push(stm1(v, tm_.at(v), std::move(e))); }

  Var as_var(Builder& b, const Atom& a) { return a.is_var() ? a.var() : b.rebind(a, "c"); }

  // ------------------------------------------------------------ the core --

  // Differentiates a scope: re-emits the forward sweep of `body`, seeds the
  // result adjoints, runs the return sweep in reverse statement order, and
  // returns the adjoints of `want`. res_adj must align with body.result
  // (entries for non-f64 results are ignored).
  std::vector<Atom> vjp_scope(Builder& b, const Body& body, const std::vector<Atom>& res_adj,
                              const std::vector<Var>& want, AdjMap adj) {
    std::vector<FwdInfo> info(body.stms.size());
    for (size_t i = 0; i < body.stms.size(); ++i) info[i] = fwd_stm(b, body.stms[i]);
    assert(res_adj.size() == body.result.size());
    for (size_t j = 0; j < body.result.size(); ++j) {
      const Atom& r = body.result[j];
      if (r.is_var() && diff_t(tm_.at(r.var()))) contribute(b, adj, r.var(), res_adj[j]);
    }
    for (size_t i = body.stms.size(); i-- > 0;) rev_stm(b, adj, body.stms[i], info[i]);
    std::vector<Atom> out;
    out.reserve(want.size());
    for (Var w : want) out.emplace_back(adjoint_or_zero(b, adj, w));
    return out;
  }

  // ----------------------------------------------------------- fwd sweep --

  FwdInfo fwd_stm(Builder& b, const Stm& st) {
    const auto* lp = std::get_if<OpLoop>(&st.e);
    if (lp == nullptr) {
      b.push(st);
      return {};
    }
    if (lp->while_cond) {
      // Tolerated only when no derivative flows through it (e.g. the
      // inspector loops emitted by opt::bound_whiles); rev_loop enforces
      // this when the return sweep reaches the statement.
      b.push(st);
      return {};
    }
    if (lp->checkpoint_entry) {
      // §6.2: no-false-dependency loops need no per-iteration checkpointing;
      // the COW runtime keeps the initial values alive, so the loop runs
      // unmodified and the return sweep re-executes against carried state.
      b.push(st);
      return {};
    }
    // Fig. 3: per-iteration checkpointing of all loop-variant variables.
    // Only loops of the current scope are checkpointed; nested loops are
    // re-executed (and then checkpointed) when the return sweep reaches them.
    FwdInfo info;
    OpLoop nl;
    nl.idx = lp->idx;
    nl.count = lp->count;
    nl.params = lp->params;
    nl.init = lp->init;
    Builder lb(mod_, tm_);
    std::vector<Atom> extra_res;
    std::vector<Param> extra_params;
    for (size_t j = 0; j < lp->params.size(); ++j) {
      Var iv = as_var(b, lp->init[j]);
      Var chk0 = b.scratch(lp->count, iv);
      Var cp = mod_.fresh("chkp");
      Type ct = lift(lp->params[j].type);
      tm_.bind(cp, ct);
      extra_params.push_back(Param{cp, ct});
      nl.init.emplace_back(chk0);
      Var cp2 = lb.update(cp, {Atom(lp->idx)}, Atom(lp->params[j].var));
      extra_res.emplace_back(cp2);
    }
    for (auto& p : extra_params) nl.params.push_back(p);
    for (const auto& s : lp->body->stms) lb.push(s);
    Body nb;
    nb.stms = lb.take_stms();
    nb.result = lp->body->result;
    for (auto& a : extra_res) nb.result.push_back(a);
    nl.body = make_body(std::move(nb));

    Stm ns;
    ns.vars = st.vars;
    ns.types = st.types;
    for (size_t j = 0; j < lp->params.size(); ++j) {
      Var cv = mod_.fresh("chk");
      Type ct = lift(lp->params[j].type);
      tm_.bind(cv, ct);
      ns.vars.push_back(cv);
      ns.types.push_back(ct);
      info.chk.push_back(cv);
    }
    ns.e = std::move(nl);
    b.push(std::move(ns));
    return info;
  }

  // -------------------------------------------------------- return sweep --

  void rev_stm(Builder& b, AdjMap& adj, const Stm& st, const FwdInfo& info) {
    std::visit(Overload{
                   [&](const OpAtom& o) {
                     if (auto y = out_adj(adj, st, 0); y && o.a.is_var()) {
                       contribute(b, adj, o.a.var(), Atom(*y));
                     }
                   },
                   [&](const OpBin& o) { rev_bin(b, adj, st, o); },
                   [&](const OpUn& o) { rev_un(b, adj, st, o); },
                   [&](const OpSelect& o) {
                     auto y = out_adj(adj, st, 0);
                     if (!y) return;
                     if (o.t.is_var()) {
                       contribute(b, adj, o.t.var(), Atom(b.select(o.c, Atom(*y), cf64(0.0))));
                     }
                     if (o.f.is_var()) {
                       contribute(b, adj, o.f.var(), Atom(b.select(o.c, cf64(0.0), Atom(*y))));
                     }
                   },
                   [&](const OpIndex& o) {
                     if (auto y = out_adj(adj, st, 0)) {
                       contribute_at(b, adj, o.arr, o.idx, Atom(*y));
                     }
                   },
                   [&](const OpUpdate& o) { rev_update(b, adj, st, o); },
                   [&](const OpUpdAcc&) {
                     throw ADError("vjp: user accumulators cannot be differentiated");
                   },
                   [&](const OpIota&) {},
                   [&](const OpLength&) {},
                   [&](const OpZerosLike&) {},
                   [&](const OpScratch&) {},
                   [&](const OpReplicate& o) { rev_replicate(b, adj, st, o); },
                   [&](const OpReverse& o) {
                     if (auto y = out_adj(adj, st, 0)) {
                       contribute(b, adj, o.arr, Atom(b.reverse(*y)));
                     }
                   },
                   [&](const OpTranspose& o) {
                     if (auto y = out_adj(adj, st, 0)) {
                       contribute(b, adj, o.arr, Atom(b.transpose(*y)));
                     }
                   },
                   [&](const OpCopy& o) {
                     if (auto y = out_adj(adj, st, 0)) contribute(b, adj, o.v, Atom(*y));
                   },
                   [&](const OpIf& o) { rev_if(b, adj, st, o); },
                   [&](const OpLoop& o) { rev_loop(b, adj, st, o, info); },
                   [&](const OpMap& o) { rev_map(b, adj, st, o); },
                   [&](const OpReduce& o) { rev_reduce(b, adj, st, o); },
                   [&](const OpScan& o) { rev_scan(b, adj, st, o); },
                   [&](const OpHist& o) { rev_hist(b, adj, st, o); },
                   [&](const OpScatter& o) { rev_scatter(b, adj, st, o); },
                   [&](const OpWithAcc&) {
                     throw ADError("vjp: withacc cannot be differentiated in reverse mode");
                   },
               },
               st.e);
  }

  // Adjoint of the i-th output if present and differentiable.
  std::optional<Var> out_adj(const AdjMap& adj, const Stm& st, size_t i) const {
    if (!diff_t(st.types[i])) return std::nullopt;
    return adjoint_opt(adj, st.vars[i]);
  }

  // ------------------------------------------------------------- scalars --

  void rev_bin(Builder& b, AdjMap& adj, const Stm& st, const OpBin& o) {
    auto yo = out_adj(adj, st, 0);
    if (!yo) return;
    Atom y{*yo};
    auto give = [&](const Atom& a, Atom c) {
      if (a.is_var()) contribute(b, adj, a.var(), c);
    };
    switch (o.op) {
      case BinOp::Add:
        give(o.a, y);
        give(o.b, y);
        break;
      case BinOp::Sub:
        give(o.a, y);
        give(o.b, Atom(b.neg(y)));
        break;
      case BinOp::Mul:
        give(o.a, Atom(b.mul(y, o.b)));
        give(o.b, Atom(b.mul(y, o.a)));
        break;
      case BinOp::Div:
        give(o.a, Atom(b.div(y, o.b)));
        // d(a/b)/db = -a/b^2 = -v/b
        give(o.b, Atom(b.neg(b.div(b.mul(y, Atom(st.vars[0])), o.b))));
        break;
      case BinOp::Pow:
        give(o.a, Atom(b.mul(y, b.mul(o.b, b.pow(o.a, b.sub(o.b, cf64(1.0)))))));
        if (o.b.is_var()) {
          give(o.b, Atom(b.mul(y, b.mul(Atom(st.vars[0]), b.log(o.a)))));
        }
        break;
      case BinOp::Min: {
        Var c = b.le(o.a, o.b);
        give(o.a, Atom(b.select(c, y, cf64(0.0))));
        give(o.b, Atom(b.select(c, cf64(0.0), y)));
        break;
      }
      case BinOp::Max: {
        Var c = b.ge(o.a, o.b);
        give(o.a, Atom(b.select(c, y, cf64(0.0))));
        give(o.b, Atom(b.select(c, cf64(0.0), y)));
        break;
      }
      default:
        break;  // comparisons / logic / mod: no adjoint
    }
  }

  void rev_un(Builder& b, AdjMap& adj, const Stm& st, const OpUn& o) {
    auto yo = out_adj(adj, st, 0);
    if (!yo || !o.a.is_var()) return;
    Atom y{*yo};
    Var a = o.a.var();
    if (!diff_t(tm_.at(a))) return;
    switch (o.op) {
      case UnOp::Neg: contribute(b, adj, a, Atom(b.neg(y))); break;
      case UnOp::Exp: contribute(b, adj, a, Atom(b.mul(y, Atom(st.vars[0])))); break;
      case UnOp::Log: contribute(b, adj, a, Atom(b.div(y, o.a))); break;
      case UnOp::Sqrt:
        contribute(b, adj, a, Atom(b.div(y, b.mul(cf64(2.0), Atom(st.vars[0])))));
        break;
      case UnOp::Sin: contribute(b, adj, a, Atom(b.mul(y, b.cos(o.a)))); break;
      case UnOp::Cos: contribute(b, adj, a, Atom(b.neg(b.mul(y, b.sin(o.a))))); break;
      case UnOp::Tanh: {
        Var v = st.vars[0];
        contribute(b, adj, a, Atom(b.mul(y, b.sub(cf64(1.0), b.mul(Atom(v), Atom(v))))));
        break;
      }
      case UnOp::Abs: contribute(b, adj, a, Atom(b.mul(y, b.un(UnOp::Sign, o.a)))); break;
      case UnOp::Sign: break;
      case UnOp::LGamma:
        contribute(b, adj, a, Atom(b.mul(y, b.un(UnOp::Digamma, o.a))));
        break;
      case UnOp::Digamma:
        throw ADError("vjp: derivative of digamma (trigamma) not implemented");
      case UnOp::ToF64: break;  // integral source: no adjoint
      default: break;
    }
  }

  void rev_update(Builder& b, AdjMap& adj, const Stm& st, const OpUpdate& o) {
    auto yo = out_adj(adj, st, 0);
    if (!yo) return;
    Var ybar = *yo;
    // Contribution of the written value, then zero out the written position
    // and hand the rest of the adjoint to the consumed array.
    Var velt = b.index(ybar, o.idx, "velt_adj");
    if (o.v.is_var()) contribute(b, adj, o.v.var(), Atom(velt));
    Atom z = o.v.is_var() && tm_.at(o.v).rank > 0 ? Atom(b.zeros_like(o.v.var())) : cf64(0.0);
    Var xsbar = b.update(ybar, o.idx, z);
    adj[o.arr.id] = xsbar;  // xs was consumed: its adjoint starts here
  }

  void rev_replicate(Builder& b, AdjMap& adj, const Stm& st, const OpReplicate& o) {
    auto yo = out_adj(adj, st, 0);
    if (!yo || !o.v.is_var()) return;
    Var v = o.v.var();
    if (!diff_t(tm_.at(v))) return;
    Type vt = tm_.at(v);
    if (vt.rank == 0) {
      Var s = b.reduce1(b.add_op(), cf64(0.0), {*yo}, "rsum");
      contribute(b, adj, v, Atom(s));
    } else {
      Var ne = b.zeros_like(v);
      LambdaPtr op = b.lam({vt, vt}, [&](Builder& c, const std::vector<Var>& p) {
        return std::vector<Atom>{Atom(vec_add(c, Atom(p[0]), Atom(p[1])))};
      });
      Var s = b.reduce1(std::move(op), Atom(ne), {*yo}, "rsum");
      contribute(b, adj, v, Atom(s));
    }
  }

  // ------------------------------------------------------------------ if --

  void rev_if(Builder& b, AdjMap& adj, const Stm& st, const OpIf& o) {
    // Adjoint seeds of the outputs; skip the whole branch rev when no
    // derivative flows in.
    bool any = false;
    std::vector<Atom> seeds(st.vars.size(), cf64(0.0));
    for (size_t i = 0; i < st.vars.size(); ++i) {
      if (auto y = out_adj(adj, st, i)) {
        seeds[i] = Atom(*y);
        any = true;
      }
    }
    if (!any) return;
    for (size_t i = 0; i < st.vars.size(); ++i) {
      if (diff_t(st.types[i]) && seeds[i].is_const()) {
        seeds[i] = st.types[i].rank == 0 ? cf64(0.0) : Atom(b.zeros_like(st.vars[i]));
      }
    }
    // Union of differentiable free variables of both branches.
    std::vector<Var> fvs;
    {
      std::unordered_map<uint32_t, bool> seen;
      for (const Body* body : {o.tb.get(), o.fb.get()}) {
        for (Var v : free_vars(*body)) {
          if (diff_t(tm_.at(v)) && !seen.count(v.id)) {
            seen[v.id] = true;
            fvs.push_back(v);
          }
        }
      }
    }
    std::vector<Var> cur;
    for (Var fv : fvs) cur.push_back(adjoint_or_zero(b, adj, fv));

    auto rev_branch = [&](const Body& body) -> BodyPtr {
      Builder cb(mod_, tm_);
      AdjMap child;
      for (size_t i = 0; i < fvs.size(); ++i) child[fvs[i].id] = cur[i];
      std::vector<Atom> outs = vjp_scope(cb, body, seeds, fvs, std::move(child));
      return make_body(Body{cb.take_stms(), std::move(outs)});
    };
    BodyPtr tb = rev_branch(*o.tb);
    BodyPtr fb = rev_branch(*o.fb);
    Stm ns;
    for (size_t i = 0; i < fvs.size(); ++i) {
      Var nv = mod_.fresh(mod_.name(fvs[i]) + "_adj");
      Type t = tm_.at(cur[i]);
      tm_.bind(nv, t);
      ns.vars.push_back(nv);
      ns.types.push_back(t);
    }
    ns.e = OpIf{o.c, std::move(tb), std::move(fb)};
    std::vector<Var> nvars = ns.vars;
    b.push(std::move(ns));
    for (size_t i = 0; i < fvs.size(); ++i) adj[fvs[i].id] = nvars[i];
  }

  // ---------------------------------------------------------------- loop --

  void rev_loop(Builder& b, AdjMap& adj, const Stm& st, const OpLoop& o, const FwdInfo& info) {
    const size_t np = o.params.size();
    // Seeds: adjoints of the loop outputs.
    std::vector<Var> ybar(np);
    bool any = false;
    for (size_t j = 0; j < np; ++j) {
      if (!diff_t(o.params[j].type)) continue;
      if (auto y = out_adj(adj, st, j)) {
        ybar[j] = *y;
        any = true;
      }
    }
    if (!any) return;
    if (o.while_cond) {
      throw ADError("vjp: while loops must be bounded first (opt::prepare_for_ad)");
    }
    for (size_t j = 0; j < np; ++j) {
      if (!diff_t(o.params[j].type) || ybar[j].valid()) continue;
      ybar[j] = o.params[j].type.rank == 0 ? b.rebind(cf64(0.0), "yz")
                                           : b.zeros_like(st.vars[j]);
    }
    // Differentiable free variables of the loop body.
    std::vector<Var> bound;
    for (const auto& p : o.params) bound.push_back(p.var);
    if (o.idx.valid()) bound.push_back(o.idx);
    std::vector<Var> fvs;
    for (Var v : free_vars(*o.body, bound)) {
      if (diff_t(tm_.at(v))) fvs.push_back(v);
    }
    std::vector<Var> fv_cur;
    for (Var fv : fvs) fv_cur.push_back(adjoint_or_zero(b, adj, fv));

    // Reversed loop: carries (primal params, param adjoints, free adjoints).
    OpLoop rl;
    rl.idx = mod_.fresh("ir");
    tm_.bind(rl.idx, i64());
    rl.count = o.count;
    std::vector<Var> xp(np);
    for (size_t j = 0; j < np; ++j) {
      xp[j] = mod_.fresh("xp");
      tm_.bind(xp[j], o.params[j].type);
      rl.params.push_back(Param{xp[j], o.params[j].type});
      rl.init.emplace_back(st.vars[j]);  // final value (entry-mode re-exec)
    }
    std::vector<Var> xb(np);
    for (size_t j = 0; j < np; ++j) {
      if (!diff_t(o.params[j].type)) continue;
      xb[j] = mod_.fresh("xb");
      tm_.bind(xb[j], o.params[j].type);
      rl.params.push_back(Param{xb[j], o.params[j].type});
      rl.init.emplace_back(ybar[j]);
    }
    std::vector<Var> fb(fvs.size());
    for (size_t i = 0; i < fvs.size(); ++i) {
      fb[i] = mod_.fresh("fb");
      Type t = tm_.at(fv_cur[i]);
      tm_.bind(fb[i], t);
      rl.params.push_back(Param{fb[i], t});
      rl.init.emplace_back(fv_cur[i]);
    }

    Builder lb(mod_, tm_);
    Var ri = lb.sub(b_sub1(lb, o.count), Atom(rl.idx));
    bind_existing(lb, o.idx, OpAtom{Atom(ri)});
    for (size_t j = 0; j < np; ++j) {
      if (!o.checkpoint_entry) {
        bind_existing(lb, o.params[j].var, OpIndex{info.chk[j], {Atom(ri)}});
      } else {
        bind_existing(lb, o.params[j].var, OpAtom{Atom(xp[j])});
      }
    }
    // Seeds for the body results (aligned with body.result = next params).
    std::vector<Atom> seeds;
    for (size_t j = 0; j < np; ++j) {
      seeds.emplace_back(diff_t(o.params[j].type) ? Atom(xb[j]) : cf64(0.0));
    }
    AdjMap child;
    for (size_t i = 0; i < fvs.size(); ++i) child[fvs[i].id] = fb[i];
    std::vector<Var> want;
    for (size_t j = 0; j < np; ++j) {
      if (diff_t(o.params[j].type)) want.push_back(o.params[j].var);
    }
    for (Var fv : fvs) want.push_back(fv);
    std::vector<Atom> outs = vjp_scope(lb, *o.body, seeds, want, std::move(child));
    Body rb;
    rb.stms = lb.take_stms();
    for (size_t j = 0; j < np; ++j) rb.result.emplace_back(xp[j]);
    for (const auto& a : outs) rb.result.push_back(a);
    rl.body = make_body(std::move(rb));

    Stm ns;
    for (const auto& p : rl.params) {
      Var nv = mod_.fresh("rlo");
      tm_.bind(nv, p.type);
      ns.vars.push_back(nv);
      ns.types.push_back(p.type);
    }
    std::vector<Var> rvars = ns.vars;
    ns.e = std::move(rl);
    b.push(std::move(ns));
    size_t pos = np;  // skip primal carries
    for (size_t j = 0; j < np; ++j) {
      if (!diff_t(o.params[j].type)) continue;
      if (o.init[j].is_var()) contribute(b, adj, o.init[j].var(), Atom(rvars[pos]));
      ++pos;
    }
    for (size_t i = 0; i < fvs.size(); ++i) adj[fvs[i].id] = rvars[pos + i];
  }

  // ----------------------------------------------------------------- map --

  void rev_map(Builder& b, AdjMap& adj, const Stm& st, const OpMap& o) {
    const Lambda& f = *o.f;
    for (const auto& p : f.params) {
      if (p.type.is_acc) throw ADError("vjp: map over accumulators cannot be re-differentiated");
    }
    // Output adjoints (zeros for unused differentiable outputs).
    bool any = false;
    std::vector<Var> ybar;
    std::vector<size_t> diff_out;
    for (size_t i = 0; i < st.vars.size(); ++i) {
      if (!diff_t(st.types[i])) continue;
      diff_out.push_back(i);
      if (auto y = out_adj(adj, st, i)) {
        ybar.push_back(*y);
        any = true;
      } else {
        ybar.push_back(Var{});
      }
    }
    if (!any) return;
    for (size_t k = 0; k < diff_out.size(); ++k) {
      if (!ybar[k].valid()) ybar[k] = b.zeros_like(st.vars[diff_out[k]]);
    }

    // Free variables: arrays get accumulator adjoints, scalars get partial
    // sums. Free arrays whose adjoint is already an accumulator (nested
    // reverse maps) are passed through as free accumulator variables.
    std::vector<Var> farr_new, farr_acc, fsca;
    for (Var v : free_vars(f)) {
      Type t = tm_.at(v);
      if (!diff_t(t)) continue;
      if (t.rank == 0) {
        fsca.push_back(v);
      } else if (auto a = adjoint_opt(adj, v); a && tm_.at(*a).is_acc) {
        farr_acc.push_back(v);
      } else {
        farr_new.push_back(v);
      }
    }

    // The reverse lambda. Element params reuse the original ids so the
    // re-emitted forward sweep of the lambda body resolves them. The free
    // arrays' accumulators are included in `want` so vjp_scope returns their
    // final threaded vars first (the withacc contract).
    Lambda rf;
    rf.params = f.params;
    std::vector<Var> ybe(diff_out.size());
    for (size_t k = 0; k < diff_out.size(); ++k) {
      Type et = elem_of(st.types[diff_out[k]]);
      ybe[k] = mod_.fresh("ye_adj");
      tm_.bind(ybe[k], et);
      rf.params.push_back(Param{ybe[k], et});
    }
    std::vector<Var> acc_params(farr_new.size());
    for (size_t i = 0; i < farr_new.size(); ++i) {
      Type at = acc_of(tm_.at(farr_new[i]));
      acc_params[i] = mod_.fresh("acc");
      tm_.bind(acc_params[i], at);
      rf.params.push_back(Param{acc_params[i], at});
    }
    {
      Builder cb(mod_, tm_);
      AdjMap child;
      for (size_t i = 0; i < farr_new.size(); ++i) child[farr_new[i].id] = acc_params[i];
      for (Var v : farr_acc) child[v.id] = *adjoint_opt(adj, v);
      std::vector<Atom> seeds(f.body.result.size(), cf64(0.0));
      size_t k = 0;
      for (size_t i = 0; i < f.body.result.size(); ++i) {
        if (diff_t(f.rets[i])) seeds[i] = Atom(ybe[k++]);
      }
      std::vector<Var> want;
      for (Var v : farr_new) want.push_back(v);  // final acc vars come back first
      for (const auto& p : f.params) {
        if (diff_t(p.type)) want.push_back(p.var);
      }
      for (Var v : fsca) want.push_back(v);
      std::vector<Atom> outs = vjp_scope(cb, f.body, seeds, want, std::move(child));
      rf.body = Body{cb.take_stms(), std::move(outs)};
      for (const auto& a : rf.body.result) rf.rets.push_back(tm_.at(a));
    }
    LambdaPtr revlam = make_lambda(std::move(rf));

    // Assemble: map args = xs ++ ybar arrays ++ accs.
    const size_t n_param_adj = [&] {
      size_t c = 0;
      for (const auto& p : f.params) c += diff_t(p.type) ? 1 : 0;
      return c;
    }();

    std::vector<Var> results;
    if (!farr_new.empty()) {
      std::vector<Var> a0;
      for (Var v : farr_new) a0.push_back(adjoint_or_zero(b, adj, v));
      results = b.withacc(a0, [&](Builder& wb, const std::vector<Var>& accs) {
        std::vector<Var> margs = o.args;
        for (Var y : ybar) margs.push_back(y);
        for (Var a : accs) margs.push_back(a);
        std::vector<Var> mres = wb.map(revlam, margs, "radj");
        std::vector<Atom> res;
        for (Var v : mres) res.emplace_back(v);
        return res;
      });
    } else {
      std::vector<Var> margs = o.args;
      for (Var y : ybar) margs.push_back(y);
      results = b.map(revlam, margs, "radj");
    }

    // Unpack: [acc arrays (farr_new)] ++ [param adjoint arrays] ++ [parts].
    size_t pos = 0;
    for (Var v : farr_new) adj[v.id] = results[pos++];
    for (size_t i = 0; i < f.params.size(); ++i) {
      if (!diff_t(f.params[i].type)) continue;
      contribute(b, adj, o.args[i], Atom(results[pos++]));
    }
    (void)n_param_adj;
    for (Var v : fsca) {
      Var s = b.reduce1(b.add_op(), cf64(0.0), {results[pos++]}, "psum");
      contribute(b, adj, v, Atom(s));
    }
  }

  // -------------------------------------------------------------- reduce --

  void rev_reduce(Builder& b, AdjMap& adj, const Stm& st, const OpReduce& o) {
    if (o.pre) throw ADError("vjp: redomap must be fused after differentiation, not before");
    auto yo = out_adj(adj, st, 0);
    if (o.args.size() != 1) {
      if (!yo && !out_adj_any(adj, st)) return;
      throw ADError("vjp: multi-array reduce differentiation unsupported");
    }
    if (!yo) return;
    Var ybar = *yo;
    Var xs = o.args[0];
    const Type et = elem_of(tm_.at(xs));
    auto bop = recognize_binop(*o.op);
    auto vop = recognize_vectorized_binop(*o.op);
    Var n = b.length(xs);
    if ((bop && *bop == BinOp::Add) || (vop && *vop == BinOp::Add)) {
      contribute(b, adj, xs, Atom(b.replicate(Atom(n), Atom(ybar))));
      return;
    }
    if (bop && *bop == BinOp::Mul && et.rank == 0) {
      rev_reduce_mul(b, adj, st, xs, ybar);
      return;
    }
    if (bop && (*bop == BinOp::Min || *bop == BinOp::Max) && et.rank == 0) {
      rev_reduce_minmax(b, adj, xs, ybar, *bop == BinOp::Min);
      return;
    }
    if (et.rank == 0) {
      rev_reduce_general(b, adj, o, xs, ybar);
      return;
    }
    throw ADError("vjp: reduce with non-scalar elements and non-(+) operator unsupported");
  }

  bool out_adj_any(const AdjMap& adj, const Stm& st) const {
    for (size_t i = 0; i < st.vars.size(); ++i) {
      if (diff_t(st.types[i]) && adjoint_opt(adj, st.vars[i])) return true;
    }
    return false;
  }

  // §5.1.1 multiplication: track the product of nonzeros and the zero count.
  void rev_reduce_mul(Builder& b, AdjMap& adj, const Stm& st, Var xs, Var ybar) {
    Var y = st.vars[0];
    Var masked = b.map1(b.lam({f64()},
                              [](Builder& c, const std::vector<Var>& p) {
                                Var z = c.eq(p[0], cf64(0.0));
                                return std::vector<Atom>{Atom(c.select(z, cf64(1.0), p[0]))};
                              }),
                        {xs}, "nz");
    Var prod_nz = b.reduce1(b.mul_op(), cf64(1.0), {masked}, "prod_nz");
    Var zmask = b.map1(b.lam({f64()},
                             [](Builder& c, const std::vector<Var>& p) {
                               Var z = c.eq(p[0], cf64(0.0));
                               return std::vector<Atom>{Atom(c.select(z, cf64(1.0), cf64(0.0)))};
                             }),
                       {xs}, "zm");
    Var zcnt = b.reduce1(b.add_op(), cf64(0.0), {zmask}, "zcnt");
    Var contrib =
        b.map1(b.lam({f64()},
                     [&](Builder& c, const std::vector<Var>& p) {
                       Var no_zero = c.eq(zcnt, cf64(0.0));
                       Var one_zero = c.eq(zcnt, cf64(1.0));
                       Var xz = c.eq(p[0], cf64(0.0));
                       Var safe_x = c.select(xz, cf64(1.0), p[0]);
                       Var t_all = c.mul(ybar, c.div(y, safe_x));
                       Var t_one = c.select(c.logical_and(one_zero, xz),
                                            c.mul(ybar, prod_nz), cf64(0.0));
                       return std::vector<Atom>{Atom(c.select(no_zero, t_all, t_one))};
                     }),
               {xs}, "mul_adj");
    contribute(b, adj, xs, Atom(contrib));
  }

  // §5.1.1 min/max: only the (first) extremal element receives the adjoint.
  void rev_reduce_minmax(Builder& b, AdjMap& adj, Var xs, Var ybar, bool is_min) {
    Var n = b.length(xs);
    Var is = b.iota(Atom(n));
    LambdaPtr op = b.lam(
        {f64(), i64(), f64(), i64()}, [&](Builder& c, const std::vector<Var>& p) {
          Var take_a = is_min ? c.le(p[0], p[2]) : c.ge(p[0], p[2]);
          // Prefer the earlier index on ties (and skip the neutral's -1).
          Var a_neutral = c.eq(p[1], ci64(-1));
          Var pick_b = c.logical_or(a_neutral, c.logical_not(take_a));
          Var v = c.select(pick_b, p[2], p[0]);
          Var i = c.select(pick_b, p[3], p[1]);
          return std::vector<Atom>{Atom(v), Atom(i)};
        });
    auto mi = b.reduce(op, {cf64(is_min ? kBig : -kBig), ci64(-1)}, {xs, is}, "argm");
    contribute_at(b, adj, xs, {Atom(mi[1])}, Atom(ybar));
  }

  // §5.1 general rule: exclusive prefixes from the left and right, then a
  // map applying the vjp of (l, x, r) -> l ⊙ x ⊙ r with respect to x.
  void rev_reduce_general(Builder& b, AdjMap& adj, const OpReduce& o, Var xs, Var ybar) {
    const Atom ne = o.neutral[0];
    Var n = b.length(xs);
    Var inc = b.scan1(o.op, ne, {xs}, "linc");
    // Flipped operator for the right-to-left scan.
    LambdaPtr flip = b.lam({f64(), f64()}, [&](Builder& c, const std::vector<Var>& p) {
      auto [stms, res] = inline_lambda(mod_, *o.op, {Atom(p[1]), Atom(p[0])});
      c.splice(std::move(stms));
      return res;
    });
    Var rxs = b.reverse(xs);
    Var rinc = b.scan1(std::move(flip), ne, {rxs}, "rinc");
    Var iot = b.iota(Atom(n));
    auto exclusive = [&](Var incl) {
      return b.map1(b.lam({i64()},
                          [&](Builder& c, const std::vector<Var>& p) {
                            Var im1 = c.max(c.sub(p[0], ci64(1)), ci64(0));
                            Var prev = c.index(incl, {Atom(im1)});
                            Var first = c.eq(p[0], ci64(0));
                            return std::vector<Atom>{Atom(c.select(first, ne, Atom(prev)))};
                          }),
                    {iot}, "excl");
    };
    Var ls = exclusive(inc);
    Var rs_rev = exclusive(rinc);
    Var rs = b.reverse(rs_rev);
    // Per-element adjoint: vjp of l ⊙ x ⊙ r with respect to x, seeded ybar.
    Var contrib = b.map1(
        b.lam({f64(), f64(), f64()},
              [&](Builder& c, const std::vector<Var>& p) {
                Builder ib(mod_, tm_);
                auto [s1, r1] = inline_lambda(mod_, *o.op, {Atom(p[0]), Atom(p[1])});
                Body tiny;
                tiny.stms = std::move(s1);
                auto [s2, r2] = inline_lambda(mod_, *o.op, {r1[0], Atom(p[2])});
                for (auto& s : s2) tiny.stms.push_back(std::move(s));
                tiny.result = {r2[0]};
                std::vector<Atom> outs =
                    vjp_scope(c, tiny, {Atom(ybar)}, {p[1]}, AdjMap{});
                (void)ib;
                return outs;
              }),
        {ls, xs, rs}, "red_adj");
    contribute(b, adj, xs, Atom(contrib));
  }

  // ---------------------------------------------------------------- scan --

  void rev_scan(Builder& b, AdjMap& adj, const Stm& st, const OpScan& o) {
    auto yo = out_adj(adj, st, 0);
    if (o.args.size() != 1) {
      if (!out_adj_any(adj, st)) return;
      throw ADError("vjp: multi-array scan differentiation unsupported");
    }
    if (!yo) return;
    Var ybar = *yo;
    Var xs = o.args[0];
    Var rs = st.vars[0];
    const Type et = elem_of(tm_.at(xs));
    if (et.rank != 0) throw ADError("vjp: scan with non-scalar elements unsupported");
    auto bop = recognize_binop(*o.op);
    if (bop && *bop == BinOp::Add) {
      Var r1 = b.reverse(ybar);
      Var sc = b.scan1(b.add_op(), cf64(0.0), {r1}, "sufsum");
      Var contrib = b.reverse(sc);
      contribute(b, adj, xs, Atom(contrib));
      return;
    }
    // General rule (§5.2): the adjoint of the scan result is a backward
    // linear recurrence r̄_i = ȳ_i + c_i r̄_{i+1}, solved by a scan with
    // linear-function composition over the reversed sequences.
    const Atom ne = o.neutral[0];
    Var n = b.length(xs);
    Var iot = b.iota(Atom(n));
    Var nm1 = b.sub(Atom(n), ci64(1));
    // c_i = d(rs_i ⊙ x_{i+1}) / d rs_i   (0 at i = n-1)
    Var cvals = b.map1(
        b.lam({i64()},
              [&](Builder& c, const std::vector<Var>& p) {
                Var ip1 = c.min(c.add(p[0], ci64(1)), Atom(nm1));
                Var l = c.index(rs, {Atom(p[0])});
                Var x = c.index(xs, {Atom(ip1)});
                auto [stms, res] = inline_lambda(mod_, *o.op, {Atom(l), Atom(x)});
                Body tiny{std::move(stms), {res[0]}};
                std::vector<Atom> dl = vjp_scope(c, tiny, {cf64(1.0)}, {l}, AdjMap{});
                Var last = c.eq(p[0], Atom(nm1));
                return std::vector<Atom>{Atom(c.select(last, cf64(0.0), dl[0]))};
              }),
        {iot}, "cvals");
    Var dr = b.reverse(ybar);
    Var cr = b.reverse(cvals);
    LambdaPtr lin = b.lam({f64(), f64(), f64(), f64()},
                          [](Builder& c, const std::vector<Var>& p) {
                            // (d1,c1) o (d2,c2) = (d2 + c2*d1, c2*c1)
                            Var d = c.add(p[2], c.mul(p[3], p[0]));
                            Var cc = c.mul(p[3], p[1]);
                            return std::vector<Atom>{Atom(d), Atom(cc)};
                          });
    auto vs = b.scan(std::move(lin), {cf64(0.0), cf64(1.0)}, {dr, cr}, "lrec");
    Var rsbar = b.reverse(vs[0]);
    // ā_i = d(l_i ⊙ x_i)/d x_i · r̄s_i with l_i = rs_{i-1} (ne at i = 0).
    Var contrib = b.map1(
        b.lam({i64()},
              [&](Builder& c, const std::vector<Var>& p) {
                Var im1 = c.max(c.sub(p[0], ci64(1)), ci64(0));
                Var prev = c.index(rs, {Atom(im1)});
                Var first = c.eq(p[0], ci64(0));
                Var l = c.select(first, ne, Atom(prev));
                Var x = c.index(xs, {Atom(p[0])});
                Var seed = c.index(rsbar, {Atom(p[0])});
                auto [stms, res] = inline_lambda(mod_, *o.op, {Atom(l), Atom(x)});
                Body tiny{std::move(stms), {res[0]}};
                std::vector<Atom> dx = vjp_scope(c, tiny, {Atom(seed)}, {x}, AdjMap{});
                return dx;
              }),
        {iot}, "scan_adj");
    contribute(b, adj, xs, Atom(contrib));
  }

  // ---------------------------------------------------------------- hist --

  void rev_hist(Builder& b, AdjMap& adj, const Stm& st, const OpHist& o) {
    auto yo = out_adj(adj, st, 0);
    if (!yo) return;
    Var hbar = *yo;
    auto bop = recognize_binop(*o.op);
    auto vop = recognize_vectorized_binop(*o.op);
    const Type et = elem_of(tm_.at(o.dest));
    Var m = b.length(o.dest);
    if ((bop && *bop == BinOp::Add) || (vop && *vop == BinOp::Add)) {
      // dest passes its adjoint through; values gather theirs from the bins.
      contribute(b, adj, o.dest, Atom(hbar));
      Var contrib = guarded_gather(b, hbar, o.inds, m, et);
      contribute(b, adj, o.vals, Atom(contrib));
      return;
    }
    if (bop && *bop == BinOp::Mul && et.rank == 0) {
      rev_hist_mul(b, adj, st, o, hbar, m);
      return;
    }
    if (bop && (*bop == BinOp::Min || *bop == BinOp::Max) && et.rank == 0) {
      rev_hist_minmax(b, adj, st, o, hbar, m);
      return;
    }
    throw ADError("vjp: reduce_by_index with general operators unsupported (paper WIP)");
  }

  // Gather src[inds[i]] with zero for out-of-range bins.
  Var guarded_gather(Builder& b, Var src, Var inds, Var m, Type et) {
    return b.map1(
        b.lam({i64()},
              [&](Builder& c, const std::vector<Var>& p) {
                Var valid = c.logical_and(c.ge(p[0], ci64(0)), c.lt(p[0], Atom(m)));
                Var cl = c.max(c.min(p[0], c.sub(Atom(m), ci64(1))), ci64(0));
                if (et.rank == 0) {
                  Var v = c.index(src, {Atom(cl)});
                  return std::vector<Atom>{Atom(c.select(valid, Atom(v), cf64(0.0)))};
                }
                Var row = c.index(src, {Atom(cl)});
                Var mask = c.select(valid, cf64(1.0), cf64(0.0));
                Var scaled = scale_by(c, row, mask);
                return std::vector<Atom>{Atom(scaled)};
              }),
        {inds}, "hgath");
  }

  Var scale_by(Builder& b, Var arr, Var s) {
    Type t = tm_.at(arr);
    if (t.rank == 0) return b.mul(Atom(arr), Atom(s));
    LambdaPtr l = b.lam({elem_of(t)}, [&](Builder& c, const std::vector<Var>& p) {
      return std::vector<Atom>{Atom(scale_by(c, p[0], s))};
    });
    return b.map1(std::move(l), {arr}, "scl");
  }

  void rev_hist_mul(Builder& b, AdjMap& adj, const Stm& st, const OpHist& o, Var hbar, Var m) {
    Var y = st.vars[0];
    // Per-bin zero count (values + dest) and product of nonzeros.
    Var zmask = b.map1(b.lam({f64()},
                             [](Builder& c, const std::vector<Var>& p) {
                               Var z = c.eq(p[0], cf64(0.0));
                               return std::vector<Atom>{Atom(c.select(z, cf64(1.0), cf64(0.0)))};
                             }),
                       {o.vals}, "zm");
    Var zdest = b.zeros_like(o.dest);
    Var zc_vals = b.hist(b.add_op(), cf64(0.0), zdest, o.inds, zmask);
    Var zcnt = b.map(b.lam({f64(), f64()},
                           [](Builder& c, const std::vector<Var>& p) {
                             Var dz = c.eq(p[1], cf64(0.0));
                             Var add = c.select(dz, cf64(1.0), cf64(0.0));
                             return std::vector<Atom>{Atom(c.add(p[0], Atom(add)))};
                           }),
                     {zc_vals, o.dest}, "zcnt")[0];
    Var masked_vals = b.map1(b.lam({f64()},
                                   [](Builder& c, const std::vector<Var>& p) {
                                     Var z = c.eq(p[0], cf64(0.0));
                                     return std::vector<Atom>{
                                         Atom(c.select(z, cf64(1.0), p[0]))};
                                   }),
                             {o.vals}, "mv");
    Var ones = b.map1(b.lam({f64()},
                            [](Builder&, const std::vector<Var>&) {
                              return std::vector<Atom>{cf64(1.0)};
                            }),
                      {o.dest}, "ones");
    Var nz_hist = b.hist(b.mul_op(), cf64(1.0), ones, o.inds, masked_vals);
    Var nzp = b.map(b.lam({f64(), f64()},
                          [](Builder& c, const std::vector<Var>& p) {
                            Var dz = c.eq(p[1], cf64(0.0));
                            Var d = c.select(dz, cf64(1.0), p[1]);
                            return std::vector<Atom>{Atom(c.mul(p[0], Atom(d)))};
                          }),
                    {nz_hist, o.dest}, "nzp")[0];
    auto bin_contrib = [&](Builder& c, Var val, Var bin) -> Var {
      Var hb = c.index(hbar, {Atom(bin)});
      Var zcb = c.index(zcnt, {Atom(bin)});
      Var nzb = c.index(nzp, {Atom(bin)});
      Var yb = c.index(y, {Atom(bin)});
      Var xz = c.eq(val, cf64(0.0));
      Var safe = c.select(xz, cf64(1.0), val);
      Var t_all = c.mul(Atom(hb), c.div(Atom(yb), Atom(safe)));
      Var one = c.logical_and(c.eq(zcb, cf64(1.0)), xz);
      Var t_one = c.select(one, c.mul(Atom(hb), Atom(nzb)), cf64(0.0));
      return c.select(c.eq(zcb, cf64(0.0)), Atom(t_all), Atom(t_one));
    };
    Var adj_vals = b.map1(b.lam({f64(), i64()},
                                [&](Builder& c, const std::vector<Var>& p) {
                                  Var valid = c.logical_and(c.ge(p[1], ci64(0)),
                                                            c.lt(p[1], Atom(m)));
                                  Var cl = c.max(c.min(p[1], c.sub(Atom(m), ci64(1))), ci64(0));
                                  Var r = bin_contrib(c, p[0], cl);
                                  return std::vector<Atom>{
                                      Atom(c.select(valid, Atom(r), cf64(0.0)))};
                                }),
                          {o.vals, o.inds}, "hmul_adj");
    contribute(b, adj, o.vals, Atom(adj_vals));
    Var iot = b.iota(Atom(m));
    Var adj_dest = b.map1(b.lam({f64(), i64()},
                                [&](Builder& c, const std::vector<Var>& p) {
                                  Var r = bin_contrib(c, p[0], p[1]);
                                  return std::vector<Atom>{Atom(r)};
                                }),
                          {o.dest, iot}, "hmul_dadj");
    contribute(b, adj, o.dest, Atom(adj_dest));
  }

  void rev_hist_minmax(Builder& b, AdjMap& adj, const Stm& st, const OpHist& o, Var hbar,
                       Var m) {
    Var y = st.vars[0];
    Var n = b.length(o.inds);
    Var iot = b.iota(Atom(n));
    // Candidate winners: the position of a value equal to the bin's result.
    Var cand = b.map1(
        b.lam({i64()},
              [&](Builder& c, const std::vector<Var>& p) {
                Var ind = c.index(o.inds, {Atom(p[0])});
                Var valid = c.logical_and(c.ge(ind, ci64(0)), c.lt(Atom(ind), Atom(m)));
                Var cl = c.max(c.min(Atom(ind), c.sub(Atom(m), ci64(1))), ci64(0));
                Var v = c.index(o.vals, {Atom(p[0])});
                Var yb = c.index(y, {Atom(cl)});
                Var hit = c.logical_and(valid, c.eq(Atom(v), Atom(yb)));
                return std::vector<Atom>{
                    Atom(c.select(hit, c.to_f64(p[0]), cf64(kBig)))};
              }),
        {iot}, "cand");
    Var bigs = b.map1(b.lam({f64()},
                            [](Builder&, const std::vector<Var>&) {
                              return std::vector<Atom>{cf64(kBig)};
                            }),
                      {o.dest}, "bigs");
    Var winner = b.hist(b.min_op(), cf64(kBig), bigs, o.inds, cand);
    Var adj_vals = b.map1(
        b.lam({i64()},
              [&](Builder& c, const std::vector<Var>& p) {
                Var ind = c.index(o.inds, {Atom(p[0])});
                Var valid = c.logical_and(c.ge(ind, ci64(0)), c.lt(Atom(ind), Atom(m)));
                Var cl = c.max(c.min(Atom(ind), c.sub(Atom(m), ci64(1))), ci64(0));
                Var w = c.index(winner, {Atom(cl)});
                Var me = c.eq(Atom(w), c.to_f64(p[0]));
                Var hb = c.index(hbar, {Atom(cl)});
                Var r = c.select(c.logical_and(valid, me), Atom(hb), cf64(0.0));
                return std::vector<Atom>{Atom(r)};
              }),
        {iot}, "hmm_adj");
    contribute(b, adj, o.vals, Atom(adj_vals));
    // The destination keeps the adjoint in bins where no value won.
    Var adj_dest = b.map(b.lam({f64(), f64()},
                               [&](Builder& c, const std::vector<Var>& p) {
                                 Var none = c.eq(p[1], cf64(kBig));
                                 Var r = c.select(none, p[0], cf64(0.0));
                                 return std::vector<Atom>{Atom(r)};
                               }),
                         {hbar, winner}, "hmm_dadj")[0];
    contribute(b, adj, o.dest, Atom(adj_dest));
  }

  // ------------------------------------------------------------- scatter --

  void rev_scatter(Builder& b, AdjMap& adj, const Stm& st, const OpScatter& o) {
    auto yo = out_adj(adj, st, 0);
    if (!yo) return;
    Var ybar = *yo;
    Var m = b.length(o.dest);
    const Type et = elem_of(tm_.at(o.dest));
    Var gath = guarded_gather(b, ybar, o.inds, m, et);
    contribute(b, adj, o.vals, Atom(gath));
    Var zv = b.zeros_like(o.vals);
    Var xsbar = b.scatter(ybar, o.inds, zv);
    adj[o.dest.id] = xsbar;  // dest was consumed: its adjoint starts here
  }

  // --------------------------------------------------------------- misc ---

  Var b_sub1(Builder& b, const Atom& n) { return b.sub(n, ci64(1)); }

  Module& mod_;
  TypeMap& tm_;
};

} // namespace

Prog vjp(const Prog& p) {
  auto mod = p.mod;
  TypeMap tm = collect_types(p.fn);
  VjpCtx ctx(*mod, tm);
  Builder b(*mod, tm);

  Function f;
  f.name = p.fn.name + "_vjp";
  f.params = p.fn.params;
  // One adjoint seed per differentiable result.
  std::vector<Atom> res_adj(p.fn.body.result.size(), cf64(0.0));
  for (size_t i = 0; i < p.fn.body.result.size(); ++i) {
    if (!differentiable(p.fn.rets[i])) continue;
    Var s = mod->fresh("seed");
    tm.bind(s, p.fn.rets[i]);
    f.params.push_back(Param{s, p.fn.rets[i]});
    res_adj[i] = Atom(s);
  }
  std::vector<Var> want;
  for (const auto& pr : p.fn.params) {
    if (differentiable(pr.type)) want.push_back(pr.var);
  }
  std::vector<Atom> grads = ctx.vjp_scope(b, p.fn.body, res_adj, want, {});
  std::vector<Atom> res = p.fn.body.result;
  for (const auto& g : grads) res.push_back(g);
  f.body = Body{b.take_stms(), res};
  for (const auto& a : res) f.rets.push_back(tm.at(a));
  return Prog{mod, std::move(f)};
}

} // namespace npad::ad
