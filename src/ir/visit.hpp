#pragma once

// Generic traversal and cloning utilities over the IR:
//   visit_atoms      — the atom and var positions an Exp uses directly (no
//                      nested bodies); rewrites them in place on a mutable Exp
//   for_each_atom    — read-only visit_atoms, every use as an Atom
//   visit_scopes     — THE enumeration of the nested scopes each op carries
//                      (if arms, loop body + while condition, SOAC lambdas);
//                      hands out the BodyPtr/LambdaPtr slots themselves
//   for_each_nested  — read-only walk of those scopes (built on visit_scopes)
//   map_nested       — copy an op, rebuilding the nested bodies a callback
//                      changes (built on visit_scopes) and sharing the rest;
//                      every non-scope field, annotations included, rides
//                      along unchanged
//   Cloner           — deep-copy with variable substitution and
//                      alpha-renaming of bindings (used to inline lambdas)
// Only visit_scopes knows which scopes an op has; the rewrite passes in
// src/opt descend through map_nested, so adding a scope (or an annotation)
// to an op touches this file, not every pass (see src/opt/README.md).

#include <functional>
#include <optional>
#include <type_traits>
#include <unordered_map>

#include "ir/ast.hpp"

namespace npad::ir {

// ------------------------------------------------------------- traversal ---

// Enumerates the atoms and variables `e` (an Exp or const Exp) uses directly,
// nested bodies excluded, in field order: atom positions go to on_atom(Atom&),
// var-only positions (arrays, accumulators, SOAC arguments) to on_var(Var&).
// With a mutable Exp the callbacks may rewrite the positions in place.
template <class E, class OnAtom, class OnVar>
void visit_atoms(E& e, OnAtom&& at, OnVar&& av) {
  static_assert(std::is_same_v<std::remove_const_t<E>, Exp>);
  auto ats = [&](auto& as) {
    for (auto& a : as) at(a);
  };
  auto avs = [&](auto& vs) {
    for (auto& v : vs) av(v);
  };
  std::visit(
      [&](auto& o) {
        using T = std::remove_cvref_t<decltype(o)>;
        if constexpr (std::is_same_v<T, OpAtom>) {
          at(o.a);
        } else if constexpr (std::is_same_v<T, OpBin>) {
          at(o.a); at(o.b);
        } else if constexpr (std::is_same_v<T, OpUn>) {
          at(o.a);
        } else if constexpr (std::is_same_v<T, OpSelect>) {
          at(o.c); at(o.t); at(o.f);
        } else if constexpr (std::is_same_v<T, OpIndex>) {
          av(o.arr); ats(o.idx);
        } else if constexpr (std::is_same_v<T, OpUpdate>) {
          av(o.arr); ats(o.idx); at(o.v);
        } else if constexpr (std::is_same_v<T, OpUpdAcc>) {
          av(o.acc); ats(o.idx); at(o.v);
        } else if constexpr (std::is_same_v<T, OpIota>) {
          at(o.n);
        } else if constexpr (std::is_same_v<T, OpReplicate>) {
          at(o.n); at(o.v);
        } else if constexpr (std::is_same_v<T, OpZerosLike> || std::is_same_v<T, OpCopy>) {
          av(o.v);
        } else if constexpr (std::is_same_v<T, OpScratch>) {
          at(o.n); av(o.like);
        } else if constexpr (std::is_same_v<T, OpLength> || std::is_same_v<T, OpReverse> ||
                             std::is_same_v<T, OpTranspose>) {
          av(o.arr);
        } else if constexpr (std::is_same_v<T, OpIf>) {
          at(o.c);
        } else if constexpr (std::is_same_v<T, OpLoop>) {
          ats(o.init);
          if (!o.while_cond) at(o.count);
          if (o.while_bound) at(*o.while_bound);
        } else if constexpr (std::is_same_v<T, OpMap>) {
          avs(o.args);
        } else if constexpr (std::is_same_v<T, OpReduce> || std::is_same_v<T, OpScan>) {
          ats(o.neutral); avs(o.args);
        } else if constexpr (std::is_same_v<T, OpHist>) {
          at(o.neutral); av(o.dest); av(o.inds); av(o.vals);
        } else if constexpr (std::is_same_v<T, OpScatter>) {
          av(o.dest); av(o.inds); av(o.vals);
        } else if constexpr (std::is_same_v<T, OpWithAcc>) {
          avs(o.arrs);
        } else {
          static_assert(sizeof(T) == 0, "visit_atoms: unhandled op");
        }
      },
      e);
}

// Read-only visit_atoms: every use as an Atom, var positions included.
template <class FnAtom>
void for_each_atom(const Exp& e, FnAtom&& fn) {
  visit_atoms(e, [&](const Atom& a) { fn(a); }, [&](Var v) { fn(Atom(v)); });
}

// Enumerates the nested scopes of `e` (an Exp or const Exp) in field order:
//   OpIf                  on_body(tb, {}), on_body(fb, {})
//   OpLoop                on_body(body, params ++ [idx]), then on_lambda(while_cond)
//   OpMap / OpWithAcc     on_lambda(f)
//   OpReduce              on_lambda(op), then on_lambda(pre)
//   OpScan / OpHist       on_lambda(op)
// on_body receives the BodyPtr slot plus the variables the op binds in that
// body; on_lambda receives the LambdaPtr slot (its params are its bindings).
// Absent lambdas (no while_cond, no pre) are skipped. The slots are
// references into `e`, so a caller holding a mutable Exp may replace them.
template <class E, class OnBody, class OnLambda>
void visit_scopes(E& e, OnBody&& on_body, OnLambda&& on_lambda) {
  static_assert(std::is_same_v<std::remove_const_t<E>, Exp>);
  auto lam = [&](auto& l) {
    if (l) on_lambda(l);
  };
  std::visit(
      [&](auto& o) {
        using T = std::remove_cvref_t<decltype(o)>;
        if constexpr (std::is_same_v<T, OpIf>) {
          on_body(o.tb, std::vector<Var>{});
          on_body(o.fb, std::vector<Var>{});
        } else if constexpr (std::is_same_v<T, OpLoop>) {
          std::vector<Var> bound;
          for (const auto& p : o.params) bound.push_back(p.var);
          if (o.idx.valid()) bound.push_back(o.idx);
          on_body(o.body, std::move(bound));
          lam(o.while_cond);
        } else if constexpr (std::is_same_v<T, OpMap> || std::is_same_v<T, OpWithAcc>) {
          lam(o.f);
        } else if constexpr (std::is_same_v<T, OpReduce>) {
          lam(o.op);
          lam(o.pre);
        } else if constexpr (std::is_same_v<T, OpScan> || std::is_same_v<T, OpHist>) {
          lam(o.op);
        }
      },
      e);
}

// One nested scope of an op: its body, the variables bound on entry (lambda
// params, or loop params and index), and the owning lambda — null for if
// arms and loop bodies. The bound list lets free-variable analysis subtract
// bindings.
struct NestedScope {
  const Body* body;
  std::vector<Var> bound;
  const Lambda* lam = nullptr;
};

inline NestedScope lambda_scope(const Lambda& l) {
  NestedScope s{&l.body, {}, &l};
  s.bound.reserve(l.params.size());
  for (const auto& p : l.params) s.bound.push_back(p.var);
  return s;
}

// Visits the nested scopes of `e` in visit_scopes order.
template <class Fn>
void for_each_nested(const Exp& e, Fn&& fn) {
  visit_scopes(
      e,
      [&](const BodyPtr& b, std::vector<Var> bound) {
        fn(NestedScope{b.get(), std::move(bound), nullptr});
      },
      [&](const LambdaPtr& l) { fn(lambda_scope(*l)); });
}

// Returns `e` with each nested body replaced by `fn(scope)`, in visit_scopes
// order. `fn` returns std::optional<Body>: nullopt keeps the scope as it is
// (shared, not copied). Returns nullopt when every scope was kept, so an op
// a pass does not change is not copied at all. Lambdas keep their params and
// rets; every other field (OpMap::fused, OpLoop::stripmine, ...) rides along
// as is.
template <class Fn>
std::optional<Exp> map_nested(const Exp& e, Fn&& fn) {
  std::vector<std::optional<Body>> bodies;
  bool changed = false;
  for_each_nested(e, [&](const NestedScope& s) {
    bodies.push_back(fn(s));
    changed = changed || bodies.back().has_value();
  });
  if (!changed) return std::nullopt;
  Exp out = e;
  size_t k = 0;
  visit_scopes(
      out,
      [&](BodyPtr& b, const std::vector<Var>&) {
        if (auto& nb = bodies[k++]) b = make_body(std::move(*nb));
      },
      [&](LambdaPtr& l) {
        if (auto& nb = bodies[k++]) l = make_lambda(Lambda{l->params, std::move(*nb), l->rets});
      });
  return out;
}

// ---------------------------------------------------------------- clone ----

// Variable substitution map. Array-position uses (e.g. OpIndex::arr) must be
// substituted by variables; scalar atom positions may receive constants.
using Subst = std::unordered_map<uint32_t, Atom>;

class Cloner {
public:
  // Every binding introduced inside the cloned tree gets a fresh variable
  // (alpha-renaming), so the clone can be spliced into a scope where its
  // bindings would otherwise collide.
  explicit Cloner(Module& m) : mod_(m) {}

  Atom atom(const Atom& a, const Subst& s) const {
    if (a.is_var()) {
      auto it = s.find(a.var().id);
      if (it != s.end()) return it->second;
    }
    return a;
  }

  Var var(Var v, const Subst& s) const {
    auto it = s.find(v.id);
    if (it == s.end()) return v;
    // The substituted binding does not exist in the output, so a constant
    // for an array/binding position is a caller bug.
    assert(it->second.is_var() && "array/binding position substituted by constant");
    return it->second.var();
  }

  Var bind(Var v, Subst& s) {
    Var nv = mod_.fresh(mod_.name(v));
    s[v.id] = Atom(nv);
    return nv;
  }

  Body body(const Body& b, Subst s) {
    Body out;
    out.stms.reserve(b.stms.size());
    for (const auto& st : b.stms) {
      Exp ce = exp(st.e, s);  // uses see bindings made so far
      Stm ns;
      ns.types = st.types;
      ns.e = std::move(ce);
      ns.vars.reserve(st.vars.size());
      for (Var v : st.vars) ns.vars.push_back(bind(v, s));
      out.stms.push_back(std::move(ns));
    }
    out.result.reserve(b.result.size());
    for (const auto& a : b.result) out.result.push_back(atom(a, s));
    return out;
  }

  Lambda lambda(const Lambda& l, Subst s) {
    Lambda out;
    out.rets = l.rets;
    out.params.reserve(l.params.size());
    for (const auto& p : l.params) out.params.push_back(Param{bind(p.var, s), p.type});
    out.body = body(l.body, std::move(s));
    return out;
  }

  Exp exp(const Exp& e, Subst& s) {
    auto A = [&](const Atom& a) { return atom(a, s); };
    auto V = [&](Var v) { return var(v, s); };
    auto AS = [&](const std::vector<Atom>& as) {
      std::vector<Atom> r;
      r.reserve(as.size());
      for (auto& a : as) r.push_back(A(a));
      return r;
    };
    auto VS = [&](const std::vector<Var>& vs) {
      std::vector<Var> r;
      r.reserve(vs.size());
      for (auto v : vs) r.push_back(V(v));
      return r;
    };
    auto L = [&](const LambdaPtr& l) -> LambdaPtr {
      return l ? make_lambda(lambda(*l, s)) : nullptr;
    };
    auto B = [&](const BodyPtr& b) -> BodyPtr { return make_body(body(*b, s)); };
    return std::visit(
        Overload{
            [&](const OpAtom& o) -> Exp { return OpAtom{A(o.a)}; },
            [&](const OpBin& o) -> Exp { return OpBin{o.op, A(o.a), A(o.b)}; },
            [&](const OpUn& o) -> Exp { return OpUn{o.op, A(o.a)}; },
            [&](const OpSelect& o) -> Exp { return OpSelect{A(o.c), A(o.t), A(o.f)}; },
            [&](const OpIndex& o) -> Exp { return OpIndex{V(o.arr), AS(o.idx)}; },
            [&](const OpUpdate& o) -> Exp { return OpUpdate{V(o.arr), AS(o.idx), A(o.v)}; },
            [&](const OpUpdAcc& o) -> Exp { return OpUpdAcc{V(o.acc), AS(o.idx), A(o.v)}; },
            [&](const OpIota& o) -> Exp { return OpIota{A(o.n)}; },
            [&](const OpReplicate& o) -> Exp { return OpReplicate{A(o.n), A(o.v)}; },
            [&](const OpZerosLike& o) -> Exp { return OpZerosLike{V(o.v)}; },
            [&](const OpScratch& o) -> Exp { return OpScratch{A(o.n), V(o.like)}; },
            [&](const OpLength& o) -> Exp { return OpLength{V(o.arr)}; },
            [&](const OpReverse& o) -> Exp { return OpReverse{V(o.arr)}; },
            [&](const OpTranspose& o) -> Exp { return OpTranspose{V(o.arr)}; },
            [&](const OpCopy& o) -> Exp { return OpCopy{V(o.v)}; },
            [&](const OpIf& o) -> Exp { return OpIf{A(o.c), B(o.tb), B(o.fb)}; },
            [&](const OpLoop& o) -> Exp {
              OpLoop n;
              n.init = AS(o.init);
              if (!o.while_cond) n.count = A(o.count);
              n.while_cond = L(o.while_cond);
              n.stripmine = o.stripmine;
              n.checkpoint_entry = o.checkpoint_entry;
              if (o.while_bound) n.while_bound = A(*o.while_bound);
              Subst inner = s;
              n.params.reserve(o.params.size());
              for (const auto& p : o.params) n.params.push_back(Param{bind(p.var, inner), p.type});
              if (o.idx.valid()) n.idx = bind(o.idx, inner);
              n.body = make_body(body(*o.body, std::move(inner)));
              return n;
            },
            [&](const OpMap& o) -> Exp { return OpMap{L(o.f), VS(o.args), o.fused}; },
            [&](const OpReduce& o) -> Exp {
              return OpReduce{L(o.op), AS(o.neutral), VS(o.args), L(o.pre), o.fused};
            },
            [&](const OpScan& o) -> Exp {
              return OpScan{L(o.op), AS(o.neutral), VS(o.args)};
            },
            [&](const OpHist& o) -> Exp {
              return OpHist{L(o.op), A(o.neutral), V(o.dest), V(o.inds), V(o.vals)};
            },
            [&](const OpScatter& o) -> Exp { return OpScatter{V(o.dest), V(o.inds), V(o.vals)}; },
            [&](const OpWithAcc& o) -> Exp { return OpWithAcc{VS(o.arrs), L(o.f)}; },
        },
        e);
  }

private:
  Module& mod_;
};

// Inlines a lambda application: alpha-renames the body's bindings and
// substitutes parameters by the argument atoms. Returns the statements to
// splice plus the (substituted) result atoms.
inline std::pair<std::vector<Stm>, std::vector<Atom>> inline_lambda(
    Module& m, const Lambda& l, const std::vector<Atom>& args) {
  assert(l.params.size() == args.size());
  Subst s;
  for (size_t i = 0; i < args.size(); ++i) s[l.params[i].var.id] = args[i];
  Body b = Cloner(m).body(l.body, std::move(s));
  return {std::move(b.stms), std::move(b.result)};
}

} // namespace npad::ir
