#include "opt/fuse.hpp"

#include <algorithm>
#include <optional>
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

  // Fuses `in`; nullopt when nothing in it (nested scopes included) changed.
  std::optional<Body> body(const Body& in) {
    // Fuse inside nested scopes first, then at this level to a fixpoint so
    // chains collapse transitively.
    std::vector<std::optional<Exp>> nested(in.stms.size());
    bool changed = false;
    for (size_t k = 0; k < in.stms.size(); ++k) {
      nested[k] = map_nested(in.stms[k].e, [&](const NestedScope& s) { return body(*s.body); });
      changed = changed || nested[k].has_value();
    }
    // Only a single-result map can be a producer (or feed a length
    // redirect): a body without one has nothing to fuse at this level.
    const bool fusable = std::any_of(in.stms.begin(), in.stms.end(), [](const Stm& st) {
      return st.vars.size() == 1 && std::holds_alternative<OpMap>(st.e);
    });
    if (!changed && !fusable) return std::nullopt;
    Body cur;
    cur.result = in.result;
    cur.stms.reserve(in.stms.size());
    for (size_t k = 0; k < in.stms.size(); ++k) {
      const Stm& st = in.stms[k];
      cur.stms.push_back(nested[k] ? Stm{st.vars, st.types, std::move(*nested[k])} : st);
    }
    if (fusable) {
      changed = redirect_lengths(cur) || changed;
      changed = fuse_all(cur) || changed;
    }
    if (!changed) return std::nullopt;
    return cur;
  }

  // length(map f xs..) == length(xs): redirects length statements from a
  // map's result to the map's first array argument, so a measured producer
  // can still fuse into its one real consumer. The reverse-mode reduce rule
  // emits exactly this shape — the adjoint replicate needs the reduce
  // argument's extent — and without the redirect every vjp adjoint chain
  // ending in a reduce would keep its intermediate alive just to measure it.
  // Returns whether it redirected any.
  bool redirect_lengths(Body& b) {
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
    bool redirected = false;
    for (auto& st : b.stms) {
      auto* ln = std::get_if<OpLength>(&st.e);
      if (ln == nullptr) continue;
      // Chase map-of-map chains to the root argument so every intermediate
      // of the chain stays single-consumer (cycles are impossible: each
      // source is bound strictly before its map).
      auto it = len_src.find(ln->arr.id);
      while (it != len_src.end()) {
        ln->arr = it->second;
        redirected = true;
        it = len_src.find(ln->arr.id);
      }
    }
    return redirected;
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

  // Per-body fusion state, kept up to date as producers fold into
  // consumers, so a step costs only the two statements it touches.
  struct Tables {
    // Per statement: the free variables of each nested scope, in
    // for_each_nested order.
    std::vector<std::vector<std::vector<Var>>> scope_fv;
    std::unordered_map<uint32_t, int> bind_count;  // shadowed ids are never fused
    // Uses per id: each atom occurrence, plus one per nested scope it is
    // free in. Any nonzero use outside the consumer's argument positions
    // disqualifies a producer, so per-scope dedup does not matter.
    std::unordered_map<uint32_t, int> uses;
    std::unordered_map<uint32_t, size_t> def_at;   // single-binding statement of each id
    std::vector<char> dead;                        // producers folded away
  };

  static void count_uses(Tables& t, const Stm& st, const std::vector<std::vector<Var>>& fv,
                         int sign) {
    for_each_atom(st.e, [&](const Atom& a) {
      if (a.is_var()) t.uses[a.var().id] += sign;
    });
    for (const auto& scope : fv) {
      for (Var v : scope) t.uses[v.id] += sign;
    }
  }

  static std::vector<Var> union_of(const std::vector<Var>& a, const std::vector<Var>& b) {
    std::vector<Var> out = a;
    std::unordered_set<uint32_t> seen;
    for (Var v : a) seen.insert(v.id);
    for (Var v : b) {
      if (seen.insert(v.id).second) out.push_back(v);
    }
    return out;
  }

  // True when a statement nested in `e` consumes an array in place
  // (update/scatter/hist/withacc): such a statement can block a fusion
  // across it (consumes_needed).
  static bool may_block(const Exp& e) {
    bool found = false;
    for_each_nested(e, [&](const NestedScope& s) {
      for (const auto& st : s.body->stms) {
        found = found || std::holds_alternative<OpUpdate>(st.e) ||
                std::holds_alternative<OpScatter>(st.e) || std::holds_alternative<OpHist>(st.e) ||
                std::holds_alternative<OpWithAcc>(st.e) || may_block(st.e);
      }
    });
    return found;
  }

  // Fuses `b` to a fixpoint. Consumers are scanned in order and each fusion
  // re-examines the fused consumer in place. That is the order of a scan
  // restarted from the top after every fusion: removing a producer changes
  // no earlier statement's bindings and only merges uses, so no earlier
  // candidate can become fusable — unless the producer could have blocked
  // one (may_block), in which case the scan does restart from the top.
  // Returns whether anything fused.
  bool fuse_all(Body& b) {
    const size_t n = b.stms.size();
    Tables t;
    t.scope_fv.resize(n);
    t.dead.assign(n, 0);
    for (size_t k = 0; k < n; ++k) {
      for_each_nested(b.stms[k].e, [&](const NestedScope& s) {
        t.scope_fv[k].push_back(free_vars(*s.body, s.bound));
      });
      for (Var v : b.stms[k].vars) ++t.bind_count[v.id];
      if (b.stms[k].vars.size() == 1) t.def_at[b.stms[k].vars[0].id] = k;
      count_uses(t, b.stms[k], t.scope_fv[k], +1);
    }
    for (const auto& a : b.result) {
      if (a.is_var()) ++t.uses[a.var().id];
    }
    bool fused = false;
    for (size_t j = 0; j < n;) {
      if (t.dead[j] != 0) {
        ++j;
        continue;
      }
      const std::optional<size_t> i = fuse_at(b, t, j);
      if (!i) {
        ++j;
        continue;
      }
      fused = true;
      if (may_block(b.stms[*i].e)) j = 0;
    }
    if (!fused) return false;
    std::vector<Stm> kept;
    kept.reserve(n);
    for (size_t k = 0; k < n; ++k) {
      if (t.dead[k] == 0) kept.push_back(std::move(b.stms[k]));
    }
    b.stms = std::move(kept);
    return true;
  }

  // Tries to fold one producer into consumer statement `j`; returns the
  // producer's index (now dead) when it did.
  std::optional<size_t> fuse_at(Body& b, Tables& t, size_t j) {
    // Consumers: maps (classic fusion) and reduces (redomap form, the
    // producer folds into the reduce's element-wise pre-lambda).
    const auto* cmap = std::get_if<OpMap>(&b.stms[j].e);
    const auto* cred = std::get_if<OpReduce>(&b.stms[j].e);
    const std::vector<Var>* cargs = cmap ? &cmap->args : cred ? &cred->args : nullptr;
    if (cargs == nullptr) return std::nullopt;
    for (Var v : *cargs) {
      if (t.bind_count[v.id] != 1) continue;
      // The producer's result must be used only as argument positions of
      // this consumer (no gathers from it inside the lambda, no other
      // statement, no body result).
      int occurrences = 0;
      for (Var a : *cargs) occurrences += a == v ? 1 : 0;
      if (t.uses[v.id] != occurrences) continue;
      // Locate the producing statement.
      auto def = t.def_at.find(v.id);
      if (def == t.def_at.end() || def->second >= j) continue;
      const size_t i = def->second;
      const auto* prod = std::get_if<OpMap>(&b.stms[i].e);
      if (prod == nullptr || prod->args.empty()) continue;
      if (!pure_elementwise(*prod->f)) continue;
      // Reduce consumers only take *scalar* producers into their
      // element-wise pre-lambda: a row-level producer (rank>=1 params or
      // results) would make the pre non-scalar, which cannot
      // kernel-compile (runtime/kernel.cpp) — strictly worse than leaving
      // the nest alone.
      if (cmap == nullptr && !lambda_scalar(*prod->f)) continue;
      // Everything the producer references must still mean the same thing
      // at the consumer: no statement in between may re-bind its arguments
      // or its lambda's free variables, and none may consume one of them —
      // update/scatter/hist/withacc mutate their array's buffer in place
      // when it is uniquely owned, so deferring the producer's reads past
      // such a statement would observe post-mutation data. (Pure renames
      // that alias a needed array are collapsed by simplify's copy
      // propagation before fusion runs in the pipeline.)
      const std::vector<Var>& prod_fv = t.scope_fv[i][0];
      std::unordered_set<uint32_t> needed;
      for (Var a : prod->args) needed.insert(a.id);
      for (Var fv : prod_fv) needed.insert(fv.id);
      bool blocked = false;
      // The consumer itself (s == j) is checked too: its nested scopes must
      // not consume a needed array in place either.
      for (size_t s = i + 1; s <= j && !blocked; ++s) {
        if (t.dead[s] != 0) continue;
        if (s < j) {
          for (Var bound : b.stms[s].vars) blocked = blocked || needed.count(bound.id) > 0;
        }
        blocked = blocked || consumes_needed(b.stms[s].e, needed);
      }
      if (blocked) continue;

      // The fused consumer's scopes: the consumer's own, with the
      // producer's free variables joining the scope it folds into (the
      // map's lambda, or the pre-lambda after a reduce's op).
      // Inlining gives every binding a fresh name, so nothing is captured
      // and the union is exact.
      std::vector<std::vector<Var>> fused_fv = t.scope_fv[j];
      if (cmap != nullptr) {
        fused_fv[0] = union_of(prod_fv, fused_fv[0]);
      } else if (fused_fv.size() == 2) {
        fused_fv[1] = union_of(prod_fv, fused_fv[1]);
      } else {
        fused_fv.push_back(prod_fv);
      }
      count_uses(t, b.stms[i], t.scope_fv[i], -1);
      count_uses(t, b.stms[j], t.scope_fv[j], -1);
      if (cmap) {
        fuse_pair(b, i, j, v);
      } else {
        fuse_red_pair(b, i, j, v);
      }
      t.scope_fv[j] = std::move(fused_fv);
      count_uses(t, b.stms[j], t.scope_fv[j], +1);
      --t.bind_count[v.id];
      t.dead[i] = 1;
      return i;
    }
    return std::nullopt;
  }

  // Folds producer map `prod` into the element-wise consumer lambda `f`
  // applied over `cargs`, substituting every occurrence of `v` (the
  // producer's result) by the producer's computed element. Shared by map
  // consumers (f = the consumer map's lambda) and reduce consumers
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
    ++stats_.fused_maps;
  }

  // The trivial pre-lambda a plain reduce starts from before producers
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

  // Folds producer statement `i` (binding `v`) into reduce consumer `j`:
  // the producer disappears into the consumer's pre-lambda (created from
  // the identity on first fusion), turning the consumer into redomap form —
  // the intermediate array is never materialized.
  void fuse_red_pair(Body& b, size_t i, size_t j, Var v) {
    const OpMap prod = std::get<OpMap>(b.stms[i].e);
    const auto& red = std::get<OpReduce>(b.stms[j].e);
    const Lambda pre = red.pre ? *red.pre : identity_pre(*red.op);
    auto [npre, nargs] = fuse_into(prod, pre, red.args, v);
    b.stms[j].e = OpReduce{red.op, red.neutral, std::move(nargs), std::move(npre),
                           prod.fused + red.fused + 1};
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
  if (auto b = f.body(p.fn.body)) out.fn.body = std::move(*b);
  return out;
}

} // namespace npad::opt
