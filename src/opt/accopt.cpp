#include "opt/accopt.hpp"

#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "ir/analysis.hpp"
#include "ir/builder.hpp"
#include "ir/visit.hpp"

namespace npad::opt {

namespace {

using namespace ir;

// One rewritable accumulation site: the position of an upd_acc statement
// directly inside the top-level map of a withacc.
struct Site {
  size_t stm_index = 0;        // index in the map lambda's body
  size_t acc_param = 0;        // which lambda param is the accumulator
  bool invariant = false;      // true: Rule R; false (1 index): Rule H
};

class AccOpt {
public:
  AccOpt(Module& mod, TypeMap& tm, AccOptStats& stats) : mod_(mod), tm_(tm), stats_(stats) {}

  // Rewrites `in`; nullopt when nothing in it (nested scopes included)
  // changed.
  std::optional<Body> body(const Body& in) {
    Builder b(mod_, tm_);
    bool changed = false;
    size_t done = 0;  // in.stms[0, done) are in b
    auto catch_up = [&](size_t i) {
      for (; done < i; ++done) b.push(in.stms[done]);
    };
    for (size_t i = 0; i < in.stms.size(); ++i) {
      const Stm& st = in.stms[i];
      auto ne = map_nested(st.e, [&](const NestedScope& s) { return body(*s.body); });
      if (!ne && !std::holds_alternative<OpWithAcc>(st.e)) continue;
      catch_up(i);
      Stm ns = ne ? Stm{st.vars, st.types, std::move(*ne)} : st;
      if (try_withacc(b, ns)) {
        changed = true;
      } else {
        changed = changed || ne.has_value();
        b.push(std::move(ns));
      }
      done = i + 1;
    }
    if (!changed) return std::nullopt;
    catch_up(in.stms.size());
    return Body{b.take_stms(), in.result};
  }

private:
  // Attempts to rewrite `withacc (A..) (\accs -> let outs = map f (..accs..)
  // in (..))` by peeling accumulators whose updates follow Rule R or Rule H.
  bool try_withacc(Builder& b, const Stm& st) {
    const auto* wa = std::get_if<OpWithAcc>(&st.e);
    if (wa == nullptr || !wa->f) return false;
    const Lambda& wl = *wa->f;
    // Expect the canonical reverse-map shape: exactly one map statement whose
    // args include the accumulator params, with the lambda results first
    // returning the accs.
    if (wl.body.stms.size() != 1) return false;
    const auto* mp = std::get_if<OpMap>(&wl.body.stms[0].e);
    if (mp == nullptr || !mp->f) return false;
    const Lambda& mf = *mp->f;

    // Map withacc params (accs) -> map arg position and map lambda param.
    std::unordered_map<uint32_t, size_t> acc_arg_pos;
    for (size_t i = 0; i < mp->args.size(); ++i) {
      for (size_t w = 0; w < wl.params.size(); ++w) {
        if (mp->args[i] == wl.params[w].var) acc_arg_pos[wl.params[w].var.id] = i;
      }
    }

    // Find rewritable sites: a single upd_acc per accumulator, directly in
    // the map lambda's body, whose threaded result is only returned.
    std::vector<std::pair<size_t, Site>> rewrites;  // (withacc param idx, site)
    for (size_t w = 0; w < wl.params.size(); ++w) {
      auto site = find_site(mf, wl, mp->args, w);
      if (site) rewrites.emplace_back(w, *site);
    }
    if (rewrites.empty()) return false;

    // Everything from here on emits statements into the enclosing builder,
    // so ALL feasibility checks must pass first: bailing out after emission
    // would leave the half-built peel map behind, referencing the withacc's
    // accumulator params out of scope (a withacc mixing rule-R/H accs with
    // non-matching ones — e.g. the LSTM adjoint's 3-acc sweeps — used to
    // trip exactly this).
    if (rewrites.size() != wl.params.size()) return false;  // partial peel unsupported
    if (st.vars.size() != wl.body.result.size()) return false;
    {
      std::unordered_set<uint32_t> acc_vars;
      for (auto& [w, s] : rewrites) {
        for (Var v : mf.body.stms[s.stm_index].vars) acc_vars.insert(v.id);
        acc_vars.insert(mf.params[s.acc_param].var.id);
      }
      std::unordered_set<size_t> kept;  // non-acc map-lambda result indices
      for (size_t r = 0; r < mf.body.result.size(); ++r) {
        const Atom& a = mf.body.result[r];
        if (!(a.is_var() && acc_vars.count(a.var().id))) kept.insert(r);
      }
      std::unordered_map<uint32_t, size_t> mop;  // map output var -> position
      const Stm& mstm0 = wl.body.stms[0];
      for (size_t i = 0; i < mstm0.vars.size(); ++i) mop[mstm0.vars[i].id] = i;
      // Every extra withacc output must be a kept map output, or the final
      // rebinding below cannot be expressed.
      for (size_t oi = wa->arrs.size(); oi < st.vars.size(); ++oi) {
        const Atom& a = wl.body.result[oi];
        if (!a.is_var() || !mop.count(a.var().id)) return false;
        if (!kept.count(mop[a.var().id])) return false;
      }
    }

    // Build the new map lambda: drop the upd_acc statements and the acc
    // plumbing, return (ix.., v) extras per site.
    std::unordered_set<size_t> dropped_stms;
    std::unordered_set<size_t> dropped_params;
    for (auto& [w, s] : rewrites) {
      dropped_stms.insert(s.stm_index);
      dropped_params.insert(s.acc_param);
    }
    Lambda nf;
    std::vector<Var> nargs;
    for (size_t i = 0; i < mf.params.size(); ++i) {
      if (dropped_params.count(i)) continue;
      nf.params.push_back(mf.params[i]);
      nargs.push_back(mp->args[i]);
    }
    Body nb;
    for (size_t i = 0; i < mf.body.stms.size(); ++i) {
      if (dropped_stms.count(i)) continue;
      nb.stms.push_back(mf.body.stms[i]);
    }
    // Results: keep non-acc results; append (idx.., value) per site.
    std::unordered_set<uint32_t> acc_result_vars;
    for (auto& [w, s] : rewrites) {
      const auto* ua = std::get_if<OpUpdAcc>(&mf.body.stms[s.stm_index].e);
      (void)ua;
      for (Var v : mf.body.stms[s.stm_index].vars) acc_result_vars.insert(v.id);
      acc_result_vars.insert(mf.params[s.acc_param].var.id);
    }
    std::vector<size_t> kept_results;
    for (size_t r = 0; r < mf.body.result.size(); ++r) {
      const Atom& a = mf.body.result[r];
      if (a.is_var() && acc_result_vars.count(a.var().id)) continue;
      kept_results.push_back(r);
      nb.result.push_back(a);
    }
    struct Extra {
      size_t w;
      Site site;
      size_t first_out;  // index of the first extra output (indices then value)
      size_t n_idx;
    };
    std::vector<Extra> extras;
    for (auto& [w, s] : rewrites) {
      const auto* ua = std::get_if<OpUpdAcc>(&mf.body.stms[s.stm_index].e);
      Extra ex{w, s, nb.result.size(), ua->idx.size()};
      if (!s.invariant) {
        for (const auto& ix : ua->idx) nb.result.push_back(ix);
      }
      nb.result.push_back(ua->v);
      extras.push_back(ex);
    }
    nf.body = std::move(nb);
    // Ret types.
    TypeMap& tm = tm_;
    for (const auto& a : nf.body.result) nf.rets.push_back(tm.at(a));

    // Emit the new map.
    std::vector<Var> mres = b.map(make_lambda(std::move(nf)), nargs, "peel");

    // Per site: Rule H -> hist into the initial array; Rule R -> reduce + rmw.
    std::unordered_map<size_t, Var> replaced;  // withacc param idx -> new array
    for (const auto& ex : extras) {
      const auto* ua = std::get_if<OpUpdAcc>(&mf.body.stms[ex.site.stm_index].e);
      Var a0 = wa->arrs[ex.w];
      if (ex.site.invariant) {
        Var vs = mres[ex.first_out];
        Var s = b.reduce1(b.add_op(), cf64(0.0), {vs}, "accsum");
        Var old = b.index(a0, ua->idx, "accold");
        Var nv = b.add(Atom(old), Atom(s));
        replaced[ex.w] = b.update(a0, ua->idx, Atom(nv));
        ++stats_.to_reduction;
      } else {
        Var ixs = mres[ex.first_out];
        Var vs = mres[ex.first_out + 1];
        replaced[ex.w] = b.hist(b.add_op(), cf64(0.0), a0, ixs, vs);
        ++stats_.to_histogram;
      }
    }

    // Every accumulator was peeled (validated before emission), so the
    // withacc construct disappears entirely. Map original withacc outputs to
    // new values. Original outputs: [per-acc arrays][extras = non-acc map
    // results in original order]. The kept (non-acc) map results must also
    // flow through.
    assert(replaced.size() == wl.params.size() && "partial peel emitted");
    std::unordered_map<size_t, Var> kept_res_var;  // original result idx -> var
    for (size_t i = 0; i < kept_results.size(); ++i) {
      kept_res_var[kept_results[i]] = mres[i];
    }
    // Rebind the withacc statement outputs: first |arrs| arrays, then extras
    // (the map's non-acc results, which the withacc lambda returned).
    // Original wl results: accs first, then extras referencing map outputs.
    // We require that extras reference the map statement's outputs directly.
    const Stm& mstm = wl.body.stms[0];
    std::unordered_map<uint32_t, size_t> map_out_pos;
    for (size_t i = 0; i < mstm.vars.size(); ++i) map_out_pos[mstm.vars[i].id] = i;
    // Map original map-output position -> original lambda result position.
    // mf results (non-acc) correspond to map outputs in order.
    std::vector<size_t> out_to_res(mstm.vars.size(), SIZE_MAX);
    for (size_t r = 0; r < mf.body.result.size(); ++r) out_to_res[r] = r;

    for (size_t oi = 0; oi < st.vars.size(); ++oi) {
      Var target = st.vars[oi];
      Exp e;
      if (oi < wa->arrs.size()) {
        e = OpAtom{Atom(replaced.at(oi))};
      } else {
        // Extra output: a kept map output (validated before emission).
        const Atom& a = wl.body.result[oi];
        assert(a.is_var() && map_out_pos.count(a.var().id) && "unvalidated extra output");
        const size_t mo = map_out_pos[a.var().id];
        // Which original lambda result does output `mo` correspond to?
        const size_t orig_res = out_to_res[mo];
        auto it = kept_res_var.find(orig_res);
        assert(it != kept_res_var.end() && "unvalidated extra output");
        e = OpAtom{Atom(it->second)};
      }
      b.push(stm1(target, tm_.at(target), std::move(e)));
    }
    return true;
  }

  // A site qualifies when the upd_acc targets the given withacc accumulator
  // (as a lambda param), its value is a scalar computed per iteration, and
  // either (R) every index is invariant to the lambda params, or (H) there
  // is exactly one index and it varies per iteration.
  std::optional<Site> find_site(const Lambda& mf, const Lambda& wl,
                                const std::vector<Var>& margs, size_t w) {
    // Locate the lambda param bound to this accumulator.
    size_t acc_param = SIZE_MAX;
    for (size_t i = 0; i < mf.params.size(); ++i) {
      if (mf.params[i].type.is_acc && margs[i] == wl.params[w].var) acc_param = i;
    }
    if (acc_param == SIZE_MAX) return std::nullopt;
    // Exactly one direct upd_acc on it; no other uses (incl. nested scopes).
    std::optional<size_t> site;
    const Var acc_var = mf.params[acc_param].var;
    std::unordered_set<uint32_t> acc_ids{acc_var.id};
    for (size_t i = 0; i < mf.body.stms.size(); ++i) {
      const Stm& s = mf.body.stms[i];
      const auto* ua = std::get_if<OpUpdAcc>(&s.e);
      bool uses = false;
      for_each_atom(s.e, [&](const Atom& a) {
        if (a.is_var() && acc_ids.count(a.var().id)) uses = true;
      });
      bool nested_uses = false;
      for_each_nested(s.e, [&](const NestedScope& ns) {
        for (Var v : free_vars(*ns.body, ns.bound)) {
          if (acc_ids.count(v.id)) nested_uses = true;
        }
      });
      if (nested_uses) return std::nullopt;
      if (ua != nullptr && acc_ids.count(ua->acc.id)) {
        if (site) return std::nullopt;  // multiple updates: leave alone
        if (!ua->v.is_var() && !ua->v.is_const()) return std::nullopt;
        if (tm_.at(ua->v).rank != 0) return std::nullopt;
        site = i;
        acc_ids.insert(s.vars[0].id);  // threaded result
        continue;
      }
      if (uses) return std::nullopt;
    }
    if (!site) return std::nullopt;
    const auto* ua = std::get_if<OpUpdAcc>(&mf.body.stms[*site].e);
    // Classify index dependence on the lambda's per-iteration bindings: a
    // variable defined inside the lambda body (or a param) varies.
    std::unordered_set<uint32_t> varying;
    for (const auto& p : mf.params) varying.insert(p.var.id);
    for (const auto& s : mf.body.stms) {
      bool dep = false;
      for_each_atom(s.e, [&](const Atom& a) {
        if (a.is_var() && varying.count(a.var().id)) dep = true;
      });
      for_each_nested(s.e, [&](const NestedScope& ns) {
        for (Var v : free_vars(*ns.body, ns.bound)) {
          if (varying.count(v.id)) dep = true;
        }
      });
      if (dep) {
        for (Var v : s.vars) varying.insert(v.id);
      }
    }
    bool any_varying = false;
    for (const auto& ix : ua->idx) {
      if (ix.is_var() && varying.count(ix.var().id)) any_varying = true;
    }
    Site out;
    out.stm_index = *site;
    out.acc_param = acc_param;
    out.invariant = !any_varying;
    if (!out.invariant && (ua->idx.size() != 1 || tm_.at(acc_var).rank != 1)) {
      return std::nullopt;
    }
    // The value must vary per iteration for these rewrites to be profitable;
    // either way they are correct, so no further checks.
    return out;
  }

  Module& mod_;
  TypeMap& tm_;
  AccOptStats& stats_;
};

} // namespace

Prog optimize_accumulators(const Prog& p, AccOptStats* stats) {
  TypeMap tm = collect_types(p.fn);
  AccOptStats local;
  AccOpt pass(*p.mod, tm, stats ? *stats : local);
  Prog out = p;
  if (auto b = pass.body(p.fn.body)) out.fn.body = std::move(*b);
  return out;
}

} // namespace npad::opt
