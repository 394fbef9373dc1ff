#include "opt/fuse.hpp"

#include <unordered_map>
#include <unordered_set>

#include "ir/analysis.hpp"
#include "ir/patterns.hpp"
#include "ir/visit.hpp"

namespace npad::opt {

namespace {

using namespace ir;

class Fuser {
public:
  Fuser(Module& mod, FuseStats& stats) : mod_(mod), stats_(stats) {}

  Body body(const Body& in) {
    Body cur;
    cur.result = in.result;
    cur.stms.reserve(in.stms.size());
    // Fuse inside nested scopes first, then at this level to a fixpoint so
    // chains collapse transitively.
    for (const auto& st : in.stms) {
      Stm ns = st;
      ns.e = map_nested(st.e, [&](const NestedScope& s) { return body(*s.body); });
      cur.stms.push_back(std::move(ns));
    }
    redirect_lengths(cur);
    while (fuse_once(cur)) {
    }
    return cur;
  }

  // length(map f xs..) == length(xs): redirects length statements from a
  // map's result to the map's first array argument, so a measured producer
  // can still fuse into its one real consumer. The reverse-mode reduce rule
  // emits exactly this shape — the adjoint replicate needs the reduce
  // argument's extent — and without the redirect every vjp adjoint chain
  // ending in a reduce would keep its intermediate alive just to measure it.
  void redirect_lengths(Body& b) {
    std::unordered_map<uint32_t, int> bind_count;
    for (const auto& st : b.stms) {
      for (Var v : st.vars) ++bind_count[v.id];
    }
    std::unordered_map<uint32_t, Var> len_src;
    for (const auto& st : b.stms) {
      const auto* mp = std::get_if<OpMap>(&st.e);
      if (mp == nullptr || st.vars.size() != 1 || bind_count[st.vars[0].id] != 1) continue;
      for (size_t i = 0; i < mp->args.size(); ++i) {
        if (mp->f->params[i].type.is_acc) continue;
        // The source must not be shadowed anywhere in this body: a unique
        // (or param) binding is the one the map itself read.
        if (bind_count[mp->args[i].id] <= 1) len_src[st.vars[0].id] = mp->args[i];
        break;
      }
    }
    if (len_src.empty()) return;
    for (auto& st : b.stms) {
      auto* ln = std::get_if<OpLength>(&st.e);
      if (ln == nullptr) continue;
      // Chase map-of-map chains to the root argument so every intermediate
      // of the chain stays single-consumer (cycles are impossible: each
      // source is bound strictly before its map).
      auto it = len_src.find(ln->arr.id);
      while (it != len_src.end()) {
        ln->arr = it->second;
        it = len_src.find(ln->arr.id);
      }
    }
  }

private:
  // A lambda is a fusable producer when it threads no accumulators: its
  // computation is purely per-element, so it can be replayed inside the
  // consumer at the same iteration index.
  static bool pure_elementwise(const Lambda& f) {
    for (const auto& p : f.params) {
      if (p.type.is_acc) return false;
    }
    for (const auto& t : f.rets) {
      if (t.is_acc) return false;
    }
    return true;
  }

  // True when `e` (or any statement nested inside it, at any depth) consumes
  // an array in `needed` via an in-place-mutating construct.
  static bool consumes_needed(const Exp& e, const std::unordered_set<uint32_t>& needed) {
    bool bad = false;
    std::visit(Overload{
                   [&](const OpUpdate& o) { bad = needed.count(o.arr.id) > 0; },
                   [&](const OpScatter& o) { bad = needed.count(o.dest.id) > 0; },
                   [&](const OpHist& o) { bad = needed.count(o.dest.id) > 0; },
                   [&](const OpWithAcc& o) {
                     for (Var a : o.arrs) bad = bad || needed.count(a.id) > 0;
                   },
                   [&](const auto&) {},
               },
               e);
    if (bad) return true;
    for_each_nested(e, [&](const NestedScope& s) {
      for (const auto& st : s.body->stms) bad = bad || consumes_needed(st.e, needed);
    });
    return bad;
  }

  // One fusion step over `b`; returns true when a producer was folded in.
  // The bind/use tables are recomputed per step — quadratic in the length of
  // a fusable chain, accepted because real chains (vjp adjoint plumbing) are
  // a handful of maps while table reuse across mutations is easy to get
  // subtly wrong.
  bool fuse_once(Body& b) {
    // Binding multiplicity (shadowed ids are never fused) and use counts.
    // free_vars() deduplicates per nested scope, but any nonzero extra use
    // already disqualifies exclusivity, so dedup does not matter here.
    std::unordered_map<uint32_t, int> bind_count;
    for (const auto& st : b.stms) {
      for (Var v : st.vars) ++bind_count[v.id];
    }
    std::unordered_map<uint32_t, int> uses;
    for (const auto& st : b.stms) {
      for_each_atom(st.e, [&](const Atom& a) {
        if (a.is_var()) ++uses[a.var().id];
      });
      for_each_nested(st.e, [&](const NestedScope& s) {
        for (Var v : free_vars(*s.body, s.bound)) ++uses[v.id];
      });
    }
    for (const auto& a : b.result) {
      if (a.is_var()) ++uses[a.var().id];
    }

    for (size_t j = 0; j < b.stms.size(); ++j) {
      // Consumers: maps (classic fusion), reduce/scan (redomap form) and
      // hist (histomap form) — the producer folds into the consumer's
      // element-wise pre-lambda. For hist only the `vals` stream is
      // element-wise (dest is consumed whole, inds select bins), so it is
      // the single fusion candidate.
      const auto* cmap = std::get_if<OpMap>(&b.stms[j].e);
      const auto* cred = std::get_if<OpReduce>(&b.stms[j].e);
      const auto* cscan = std::get_if<OpScan>(&b.stms[j].e);
      const auto* chist = std::get_if<OpHist>(&b.stms[j].e);
      std::vector<Var> hist_cand;
      if (chist != nullptr) hist_cand.push_back(chist->vals);
      const std::vector<Var>* cargs = cmap   ? &cmap->args
                                     : cred  ? &cred->args
                                     : cscan ? &cscan->args
                                     : chist ? &hist_cand
                                             : nullptr;
      if (cargs == nullptr) continue;
      for (Var v : *cargs) {
        if (bind_count[v.id] != 1) continue;
        // The producer's result must be used only as argument positions of
        // this consumer (no gathers from it inside the lambda, no other
        // statement, no body result).
        int occurrences = 0;
        for (Var a : *cargs) occurrences += a == v ? 1 : 0;
        if (uses[v.id] != occurrences) continue;
        // Locate the producing statement.
        size_t i = b.stms.size();
        for (size_t s = 0; s < j; ++s) {
          if (b.stms[s].vars.size() == 1 && b.stms[s].vars[0] == v) {
            i = s;
            break;
          }
        }
        if (i == b.stms.size()) continue;
        const auto* prod = std::get_if<OpMap>(&b.stms[i].e);
        if (prod == nullptr || prod->args.empty()) continue;
        if (!pure_elementwise(*prod->f)) continue;
        // Reduce/scan/hist consumers only take *scalar* producers into their
        // element-wise pre-lambda: a row-level producer (rank>=1 params or
        // results) would make the pre non-scalar, which cannot
        // kernel-compile (runtime/kernel.cpp) — strictly worse than leaving
        // the nest alone.
        if (cmap == nullptr && !lambda_scalar(*prod->f)) continue;
        // OpHist has a single vals slot, so only single-input producers can
        // fold into its pre-lambda.
        if (chist != nullptr && prod->args.size() != 1) continue;
        // Everything the producer references must still mean the same thing
        // at the consumer: no statement in between may re-bind its arguments
        // or its lambda's free variables, and none may consume one of them —
        // update/scatter/hist/withacc mutate their array's buffer in place
        // when it is uniquely owned, so deferring the producer's reads past
        // such a statement would observe post-mutation data. (Pure renames
        // that alias a needed array are collapsed by simplify's copy
        // propagation before fusion runs in the pipeline.)
        std::unordered_set<uint32_t> needed;
        for (Var a : prod->args) needed.insert(a.id);
        for (Var fv : free_vars(*prod->f)) needed.insert(fv.id);
        bool blocked = false;
        // The scan includes the consumer statement itself (s == j): a hist
        // consumer mutates its dest in place, so a producer that reads that
        // same array must not be deferred into it — fused, the pre-lambda
        // would observe bins earlier iterations already updated.
        for (size_t s = i + 1; s <= j && !blocked; ++s) {
          if (s < j) {
            for (Var bound : b.stms[s].vars) blocked = blocked || needed.count(bound.id) > 0;
          }
          blocked = blocked || consumes_needed(b.stms[s].e, needed);
        }
        if (blocked) continue;

        if (cmap) {
          fuse_pair(b, i, j, v);
        } else if (chist) {
          fuse_hist_pair(b, i, j, v);
        } else {
          fuse_red_pair(b, i, j, v);
        }
        return true;
      }
    }
    return false;
  }

  // Folds producer map `prod` into the element-wise consumer lambda `f`
  // applied over `cargs`, substituting every occurrence of `v` (the
  // producer's result) by the producer's computed element. Shared by map
  // consumers (f = the consumer map's lambda) and reduce/scan consumers
  // (f = the redomap pre-lambda). Returns the fused lambda and its new
  // argument list (producer inputs spliced in place of v).
  std::pair<LambdaPtr, std::vector<Var>> fuse_into(const OpMap& prod, const Lambda& f,
                                                   const std::vector<Var>& cargs, Var v) {
    Lambda fused;
    std::vector<Var> fargs;
    std::vector<Atom> prod_param_atoms;
    for (size_t k = 0; k < prod.args.size(); ++k) {
      Var p = mod_.fresh(mod_.name(prod.f->params[k].var));
      fused.params.push_back(Param{p, prod.f->params[k].type});
      fargs.push_back(prod.args[k]);
      prod_param_atoms.push_back(Atom(p));
    }
    auto [stms1, res1] = inline_lambda(mod_, *prod.f, prod_param_atoms);
    Atom fused_elem = res1[0];
    if (fused_elem.is_const()) {
      // Bind the constant so array/binding positions in the consumer body
      // can still be substituted by a variable.
      Var t = mod_.fresh("fe");
      stms1.push_back(stm1(t, prod.f->rets[0], OpAtom{fused_elem}));
      fused_elem = Atom(t);
    }
    std::vector<Atom> cons_args;
    for (size_t k = 0; k < cargs.size(); ++k) {
      if (cargs[k] == v) {
        cons_args.push_back(fused_elem);
        continue;
      }
      Var p = mod_.fresh(mod_.name(f.params[k].var));
      fused.params.push_back(Param{p, f.params[k].type});
      fargs.push_back(cargs[k]);
      cons_args.push_back(Atom(p));
    }
    auto [stms2, res2] = inline_lambda(mod_, f, cons_args);
    fused.body.stms = std::move(stms1);
    fused.body.stms.insert(fused.body.stms.end(), std::make_move_iterator(stms2.begin()),
                           std::make_move_iterator(stms2.end()));
    fused.body.result = std::move(res2);
    fused.rets = f.rets;
    return {make_lambda(std::move(fused)), std::move(fargs)};
  }

  // Folds producer statement `i` (binding `v`) into consumer map `j`.
  void fuse_pair(Body& b, size_t i, size_t j, Var v) {
    const OpMap prod = std::get<OpMap>(b.stms[i].e);
    const OpMap cons = std::get<OpMap>(b.stms[j].e);
    auto [fused, fargs] = fuse_into(prod, *cons.f, cons.args, v);
    b.stms[j].e = OpMap{std::move(fused), std::move(fargs), prod.fused + cons.fused + 1};
    b.stms.erase(b.stms.begin() + static_cast<long>(i));
    ++stats_.fused_maps;
  }

  // The trivial pre-lambda a plain reduce/scan starts from before producers
  // fold in: \e1..ek -> (e1..ek) with the fold operator's element param
  // types (op params k..2k-1, which typecheck pins to the arg element
  // types).
  Lambda identity_pre(const Lambda& op) {
    const size_t k = op.params.size() / 2;
    Lambda id;
    for (size_t i = 0; i < k; ++i) {
      Var p = mod_.fresh("e");
      id.params.push_back(Param{p, op.params[k + i].type});
      id.body.result.push_back(Atom(p));
      id.rets.push_back(op.params[k + i].type);
    }
    return id;
  }

  // Folds producer statement `i` (binding `v`) into hist consumer `j`: the
  // producer disappears into the hist's pre-lambda (created from the
  // identity on first fusion — identity_pre on the binary combine op yields
  // exactly the unary \e -> e over elem_of(dest)), turning the consumer
  // into histomap form — hist(op, dest, is, map(f, vs)) scatters f(v) per
  // element with no intermediate array.
  void fuse_hist_pair(Body& b, size_t i, size_t j, Var v) {
    const OpMap prod = std::get<OpMap>(b.stms[i].e);
    const auto& h = std::get<OpHist>(b.stms[j].e);
    const Lambda pre = h.pre ? *h.pre : identity_pre(*h.op);
    auto [npre, nargs] = fuse_into(prod, pre, {v}, v);
    b.stms[j].e = OpHist{h.op,     h.neutral,       h.dest, h.inds, nargs[0],
                         std::move(npre), prod.fused + h.fused + 1};
    b.stms.erase(b.stms.begin() + static_cast<long>(i));
    ++stats_.fused_hists;
  }

  // Folds producer statement `i` (binding `v`) into reduce/scan consumer
  // `j`: the producer disappears into the consumer's pre-lambda (created
  // from the identity on first fusion), turning the consumer into redomap
  // form — the intermediate array is never materialized.
  void fuse_red_pair(Body& b, size_t i, size_t j, Var v) {
    const OpMap prod = std::get<OpMap>(b.stms[i].e);
    if (const auto* red = std::get_if<OpReduce>(&b.stms[j].e)) {
      const Lambda pre = red->pre ? *red->pre : identity_pre(*red->op);
      auto [npre, nargs] = fuse_into(prod, pre, red->args, v);
      b.stms[j].e = OpReduce{red->op, red->neutral, std::move(nargs), std::move(npre),
                             prod.fused + red->fused + 1};
    } else {
      const auto& sc = std::get<OpScan>(b.stms[j].e);
      const Lambda pre = sc.pre ? *sc.pre : identity_pre(*sc.op);
      auto [npre, nargs] = fuse_into(prod, pre, sc.args, v);
      b.stms[j].e = OpScan{sc.op, sc.neutral, std::move(nargs), std::move(npre),
                           prod.fused + sc.fused + 1};
    }
    b.stms.erase(b.stms.begin() + static_cast<long>(i));
    ++stats_.fused_redomaps;
  }

  Module& mod_;
  FuseStats& stats_;
};

} // namespace

Prog fuse_maps(const Prog& p, FuseStats* stats) {
  FuseStats local;
  FuseStats& st = stats != nullptr ? *stats : local;
  Prog out = p;
  Fuser f(*out.mod, st);
  out.fn.body = f.body(p.fn.body);
  return out;
}

} // namespace npad::opt
