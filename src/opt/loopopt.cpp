#include "opt/loopopt.hpp"

#include "ir/analysis.hpp"
#include "ir/builder.hpp"
#include "ir/visit.hpp"

namespace npad::opt {

namespace {

using namespace ir;

// Rewrites every statement of every scope with a per-statement callback;
// the callback may emit replacement statements into the builder.
class StmRewriter {
public:
  using Fn = std::function<bool(Builder&, const Stm&)>;  // true = handled

  StmRewriter(Module& mod, TypeMap& tm, Fn fn) : mod_(mod), tm_(tm), fn_(std::move(fn)) {}

  Body body(const Body& in) {
    Builder b(mod_, tm_);
    for (const auto& st : in.stms) {
      Stm ns = st;
      if (auto ne = map_nested(st.e, [&](const NestedScope& s) {
            return std::optional<Body>(body(*s.body));
          })) {
        ns.e = std::move(*ne);
      }
      if (!fn_(b, ns)) b.push(std::move(ns));
    }
    return Body{b.take_stms(), in.result};
  }

private:
  Module& mod_;
  TypeMap& tm_;
  Fn fn_;
};

// --------------------------------------------------------- while-bounding --

bool rewrite_while(Builder& b, const Stm& st, Module& mod, TypeMap& tm) {
  const auto* lp = std::get_if<OpLoop>(&st.e);
  if (lp == nullptr || !lp->while_cond) return false;
  const OpLoop& o = *lp;
  const size_t np = o.params.size();

  Atom count = cf64(0.0);
  bool guarded = false;
  if (o.while_bound) {
    // §6.2: user-annotated iteration bound; the body runs under an if-guard.
    count = *o.while_bound;
    guarded = true;
  } else {
    // Inspector: a cloned counting loop computes the exact trip count, so the
    // bounded loop needs no guard (the condition holds for all i < count).
    OpLoop insp;
    std::vector<Atom> cond_args;
    Var cparam = mod.fresh("cnt");
    tm.bind(cparam, i64());
    insp.params.push_back(Param{cparam, i64()});
    insp.init.push_back(ci64(0));
    Subst s;
    Cloner cl(mod);
    for (size_t j = 0; j < np; ++j) {
      Var pv = cl.bind(o.params[j].var, s);
      tm.bind(pv, o.params[j].type);
      insp.params.push_back(Param{pv, o.params[j].type});
      insp.init.push_back(o.init[j]);
      cond_args.emplace_back(pv);
    }
    // Condition over the cloned params.
    Lambda wc;
    Var wcnt = mod.fresh("w");
    tm.bind(wcnt, i64());
    wc.params.push_back(Param{wcnt, i64()});
    std::vector<Atom> cargs;
    for (size_t j = 0; j < np; ++j) {
      Var wv = mod.fresh("w");
      tm.bind(wv, o.params[j].type);
      wc.params.push_back(Param{wv, o.params[j].type});
      cargs.emplace_back(wv);
    }
    auto [cstms, cres] = inline_lambda(mod, *o.while_cond, cargs);
    wc.body = Body{std::move(cstms), std::move(cres)};
    wc.rets = {boolean()};
    insp.while_cond = make_lambda(std::move(wc));
    // Body: increment the counter, run a refreshed clone of the body.
    Builder ib(mod, tm);
    Var c1 = ib.add(Atom(cparam), ci64(1));
    Body cloned = cl.body(*o.body, s);
    for (auto& cs : cloned.stms) ib.push(std::move(cs));
    Body ibody;
    ibody.stms = ib.take_stms();
    ibody.result.emplace_back(c1);
    for (auto& r : cloned.result) ibody.result.push_back(r);
    insp.body = make_body(std::move(ibody));

    Stm is;
    Var cnt_out = mod.fresh("trip");
    tm.bind(cnt_out, i64());
    is.vars.push_back(cnt_out);
    is.types.push_back(i64());
    for (size_t j = 0; j < np; ++j) {
      Var dv = mod.fresh("insp");
      tm.bind(dv, o.params[j].type);
      is.vars.push_back(dv);
      is.types.push_back(o.params[j].type);
    }
    is.e = std::move(insp);
    b.push(std::move(is));
    count = Atom(cnt_out);
  }

  // The bounded for-loop.
  OpLoop fl;
  fl.params = o.params;
  fl.init = o.init;
  fl.idx = mod.fresh("i");
  tm.bind(fl.idx, i64());
  fl.count = count;
  fl.stripmine = o.stripmine;
  fl.checkpoint_entry = o.checkpoint_entry;
  if (guarded) {
    Builder gb(mod, tm);
    std::vector<Atom> cargs;
    for (const auto& p : o.params) cargs.emplace_back(p.var);
    auto [cstms, cres] = inline_lambda(mod, *o.while_cond, cargs);
    gb.splice(std::move(cstms));
    Var cond = cres[0].is_var() ? cres[0].var() : gb.rebind(cres[0], "c");
    std::vector<Type> rets;
    for (const auto& p : o.params) rets.push_back(p.type);
    Stm ifs;
    ifs.e = OpIf{Atom(cond), o.body,
                 make_body(Body{{}, [&] {
                             std::vector<Atom> id;
                             for (const auto& p : o.params) id.emplace_back(p.var);
                             return id;
                           }()})};
    std::vector<Atom> res;
    for (const auto& t : rets) {
      Var v = mod.fresh("g");
      tm.bind(v, t);
      ifs.vars.push_back(v);
      ifs.types.push_back(t);
      res.emplace_back(v);
    }
    gb.push(std::move(ifs));
    fl.body = make_body(Body{gb.take_stms(), std::move(res)});
  } else {
    fl.body = o.body;
  }
  Stm ns;
  ns.vars = st.vars;
  ns.types = st.types;
  ns.e = std::move(fl);
  b.push(std::move(ns));
  return true;
}

// ----------------------------------------------------------- strip-mining --

bool rewrite_stripmine(Builder& b, const Stm& st, Module& mod, TypeMap& tm) {
  const auto* lp = std::get_if<OpLoop>(&st.e);
  if (lp == nullptr || lp->while_cond || lp->stripmine <= 1) return false;
  const OpLoop& o = *lp;
  const int64_t f = o.stripmine;

  // n_outer = ceil(n / f); i = io*f + ii, body guarded by i < n.
  Var n = b.rebind(o.count, "n");
  Var no = b.div(b.add(Atom(n), ci64(f - 1)), ci64(f));

  OpLoop outer;
  outer.params = o.params;
  outer.init = o.init;
  outer.idx = mod.fresh("io");
  tm.bind(outer.idx, i64());
  outer.count = Atom(no);

  Builder ob(mod, tm);
  OpLoop inner;
  // Inner params mirror the outer ones (same types) with fresh ids.
  std::vector<Atom> inner_res_id;
  Subst s;
  Cloner cl(mod);
  for (size_t j = 0; j < o.params.size(); ++j) {
    Var pv = cl.bind(o.params[j].var, s);
    tm.bind(pv, o.params[j].type);
    inner.params.push_back(Param{pv, o.params[j].type});
    inner.init.emplace_back(o.params[j].var);
    inner_res_id.emplace_back(pv);
  }
  inner.idx = mod.fresh("ii");
  tm.bind(inner.idx, i64());
  inner.count = ci64(f);

  Builder ib(mod, tm);
  Var i_full = ib.add(ib.mul(Atom(outer.idx), ci64(f)), Atom(inner.idx));
  // Rebind the original index var so the cloned body sees it.
  Var orig_idx_clone = cl.bind(o.idx, s);
  tm.bind(orig_idx_clone, i64());
  ib.push(stm1(orig_idx_clone, i64(), OpAtom{Atom(i_full)}));
  Var guard = ib.lt(Atom(i_full), Atom(n));
  Body cloned = cl.body(*o.body, s);
  Stm ifs;
  ifs.e = OpIf{Atom(guard), make_body(std::move(cloned)),
               make_body(Body{{}, inner_res_id})};
  std::vector<Atom> ires;
  for (const auto& p : inner.params) {
    Var v = mod.fresh("sm");
    tm.bind(v, p.type);
    ifs.vars.push_back(v);
    ifs.types.push_back(p.type);
    ires.emplace_back(v);
  }
  ib.push(std::move(ifs));
  inner.body = make_body(Body{ib.take_stms(), std::move(ires)});

  Stm is;
  std::vector<Atom> ores;
  for (const auto& p : inner.params) {
    Var v = mod.fresh("smo");
    tm.bind(v, p.type);
    is.vars.push_back(v);
    is.types.push_back(p.type);
    ores.emplace_back(v);
  }
  is.e = std::move(inner);
  ob.push(std::move(is));
  outer.body = make_body(Body{ob.take_stms(), std::move(ores)});

  Stm ns;
  ns.vars = st.vars;
  ns.types = st.types;
  ns.e = std::move(outer);
  b.push(std::move(ns));
  return true;
}

Prog run_rewriter(const Prog& p, const StmRewriter::Fn& fn, TypeMap& tm) {
  StmRewriter rw(*p.mod, tm, fn);
  Prog out = p;
  out.fn.body = rw.body(p.fn.body);
  return out;
}

} // namespace

Prog bound_whiles(const Prog& p) {
  TypeMap tm = collect_types(p.fn);
  return run_rewriter(
      p, [&](Builder& b, const Stm& st) { return rewrite_while(b, st, *p.mod, tm); }, tm);
}

Prog apply_stripmining(const Prog& p) {
  TypeMap tm = collect_types(p.fn);
  return run_rewriter(
      p, [&](Builder& b, const Stm& st) { return rewrite_stripmine(b, st, *p.mod, tm); }, tm);
}

Prog prepare_for_ad(const Prog& p) { return apply_stripmining(bound_whiles(p)); }

} // namespace npad::opt
