#pragma once

// Program analyses shared by passes: free variables of bodies/lambdas, a
// program-wide variable-type table, and structural signatures/hashes used to
// key the runtime caches.

#include <algorithm>
#include <bit>
#include <cstring>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "ir/ast.hpp"
#include "ir/visit.hpp"

namespace npad::ir {

namespace detail {

// One walk over a body with a single bound set. Entering a scope records the
// ids it newly binds in an undo log; leaving it erases exactly those, so an id
// that was already bound outside (a shadowing re-binding) stays bound.
class FreeVarWalk {
public:
  explicit FreeVarWalk(std::vector<Var>& out) : out_(out) {}

  void bind(Var v) {
    if (bound_.insert(v.id).second) undo_.push_back(v.id);
  }

  void body(const Body& b) {
    const size_t mark = undo_.size();
    for (const auto& st : b.stms) {
      exp(st.e);
      for (Var v : st.vars) bind(v);
    }
    for (const auto& a : b.result) {
      if (a.is_var()) use(a.var());
    }
    unwind(mark);
  }

private:
  void use(Var v) {
    if (!v.valid() || bound_.count(v.id) > 0) return;
    if (seen_.insert(v.id).second) out_.push_back(v);
  }

  void exp(const Exp& e) {
    for_each_atom(e, [&](const Atom& a) {
      if (a.is_var()) use(a.var());
    });
    for_each_nested(e, [&](const NestedScope& s) {
      const size_t mark = undo_.size();
      for (Var v : s.bound) bind(v);
      body(*s.body);
      unwind(mark);
    });
  }

  void unwind(size_t mark) {
    while (undo_.size() > mark) {
      bound_.erase(undo_.back());
      undo_.pop_back();
    }
  }

  std::vector<Var>& out_;
  std::unordered_set<uint32_t> bound_, seen_;
  std::vector<uint32_t> undo_;
};

} // namespace detail

// Free variables of a body, in first-use order (deterministic).
inline std::vector<Var> free_vars(const Body& b,
                                  const std::vector<Var>& extra_bound = {}) {
  std::vector<Var> out;
  detail::FreeVarWalk w(out);
  for (Var v : extra_bound) w.bind(v);
  w.body(b);
  return out;
}

inline std::vector<Var> free_vars(const Lambda& l) {
  std::vector<Var> bound;
  for (const auto& p : l.params) bound.push_back(p.var);
  return free_vars(l.body, bound);
}

// -------------------------------------------------------------- type map ---

// Types of all variables in a program. Shadowed re-bindings must agree in
// type with the original binding (the AD passes only re-bind identical ids
// when re-emitting a forward sweep, so this invariant holds by construction).
class TypeMap {
public:
  void bind(Var v, Type t) {
    if (v.id >= types_.size()) {
      types_.resize(v.id + 1);
      known_.resize(v.id + 1, false);
    }
    types_[v.id] = t;
    known_[v.id] = true;
  }

  bool known(Var v) const { return v.valid() && v.id < known_.size() && known_[v.id]; }

  Type at(Var v) const {
    assert(known(v) && "type queried for unbound variable");
    return types_[v.id];
  }

  Type at(const Atom& a) const {
    if (a.is_const()) return Type{a.cval().t, 0, false};
    return at(a.var());
  }

private:
  std::vector<Type> types_;
  std::vector<bool> known_;
};

namespace detail {

inline void collect_body(const Body& b, TypeMap& tm);

inline void collect_exp(const Exp& e, TypeMap& tm) {
  for_each_nested(e, [&](const NestedScope& s) { collect_body(*s.body, tm); });
  // Scope bindings: loop params and index carry their types on the OpLoop,
  // lambda params on the lambda.
  if (const auto* o = std::get_if<OpLoop>(&e)) {
    for (const auto& p : o->params) tm.bind(p.var, p.type);
    if (o->idx.valid()) tm.bind(o->idx, i64());
  }
  for_each_nested(e, [&](const NestedScope& s) {
    if (s.lam != nullptr)
      for (const auto& p : s.lam->params) tm.bind(p.var, p.type);
  });
}

inline void collect_body(const Body& b, TypeMap& tm) {
  for (const auto& st : b.stms) {
    for (size_t i = 0; i < st.vars.size(); ++i) tm.bind(st.vars[i], st.types[i]);
    collect_exp(st.e, tm);
  }
}

} // namespace detail

inline TypeMap collect_types(const Function& f) {
  TypeMap tm;
  for (const auto& p : f.params) tm.bind(p.var, p.type);
  detail::collect_body(f.body, tm);
  return tm;
}

inline void collect_types_into(const Body& b, TypeMap& tm) { detail::collect_body(b, tm); }

// ---------------------------------------------- structural signature/hash ---
//
// A structural signature of a lambda or function: bound variables are
// numbered positionally (alpha-invariant), free variables keep their raw ids,
// constants contribute their bit patterns. Two nodes with equal signatures
// evaluate identically in any environment that agrees on the free variables,
// which is what the runtime's resolved-program cache (ProgCache,
// runtime/resolve.hpp) needs for safe sharing.
// Equality of cached entries is decided by comparing signatures, so hash
// collisions are harmless.

namespace detail {

class SigBuilder {
public:
  explicit SigBuilder(std::vector<uint64_t>& out) : out_(out) {}

  void lambda(const Lambda& l) {
    const size_t mark = undo_.size();
    t(0x70u, l.params.size());
    for (const auto& p : l.params) {
      type(p.type);
      bind(p.var);
    }
    body_scoped(l.body);
    t(0x71u, l.rets.size());
    for (const auto& tt : l.rets) type(tt);
    unwind(mark);
  }

  void function(const Function& f) {
    const size_t mark = undo_.size();
    t(0x72u, f.params.size());
    for (const auto& p : f.params) {
      type(p.type);
      bind(p.var);
    }
    body_scoped(f.body);
    t(0x73u, f.rets.size());
    for (const auto& tt : f.rets) type(tt);
    unwind(mark);
  }

private:
  void t(uint64_t tag, uint64_t payload = 0) { out_.push_back((tag << 48) ^ payload); }

  void type(Type ty) {
    t(0x01u, static_cast<uint64_t>(ty.elem) | (static_cast<uint64_t>(ty.rank) << 8) |
                 (static_cast<uint64_t>(ty.is_acc) << 24));
  }

  void bind(Var v) {
    auto it = ord_.find(v.id);
    undo_.emplace_back(v.id, it == ord_.end() ? UINT32_MAX : it->second);
    ord_[v.id] = next_++;
  }

  void unwind(size_t mark) {
    while (undo_.size() > mark) {
      auto [id, prev] = undo_.back();
      undo_.pop_back();
      if (prev == UINT32_MAX) {
        ord_.erase(id);
      } else {
        ord_[id] = prev;
      }
    }
  }

  void use(Var v) {
    auto it = ord_.find(v.id);
    if (it != ord_.end()) {
      t(0x02u, it->second);  // bound: positional ordinal
    } else {
      t(0x03u, v.id);        // free: identity matters
    }
  }

  void atom(const Atom& a) {
    if (a.is_var()) {
      use(a.var());
      return;
    }
    const ConstVal& c = a.cval();
    t(0x04u, static_cast<uint64_t>(c.t));
    out_.push_back(c.t == ScalarType::F64 ? std::bit_cast<uint64_t>(c.f)
                                          : static_cast<uint64_t>(c.i));
  }

  // A body is a scope: bindings made inside must not leak to the enclosing
  // signature context (mirrors the interpreter's lexical scoping).
  void body_scoped(const Body& b) {
    const size_t mark = undo_.size();
    t(0x05u, b.stms.size());
    for (const auto& st : b.stms) {
      exp(st.e);
      t(0x06u, st.vars.size());
      for (size_t i = 0; i < st.vars.size(); ++i) {
        type(st.types[i]);
        bind(st.vars[i]);
      }
    }
    t(0x07u, b.result.size());
    for (const auto& a : b.result) atom(a);
    unwind(mark);
  }

  void exp(const Exp& e) {
    t(0x10u, e.index());
    std::visit(
        Overload{
            [&](const OpAtom& o) { atom(o.a); },
            [&](const OpBin& o) {
              t(0x11u, static_cast<uint64_t>(o.op));
              atom(o.a);
              atom(o.b);
            },
            [&](const OpUn& o) {
              t(0x12u, static_cast<uint64_t>(o.op));
              atom(o.a);
            },
            [&](const OpSelect& o) { atom(o.c); atom(o.t); atom(o.f); },
            [&](const OpIndex& o) {
              use(o.arr);
              t(0x13u, o.idx.size());
              for (const auto& i : o.idx) atom(i);
            },
            [&](const OpUpdate& o) {
              use(o.arr);
              t(0x13u, o.idx.size());
              for (const auto& i : o.idx) atom(i);
              atom(o.v);
            },
            [&](const OpUpdAcc& o) {
              use(o.acc);
              t(0x13u, o.idx.size());
              for (const auto& i : o.idx) atom(i);
              atom(o.v);
            },
            [&](const OpIota& o) { atom(o.n); },
            [&](const OpReplicate& o) { atom(o.n); atom(o.v); },
            [&](const OpZerosLike& o) { use(o.v); },
            [&](const OpScratch& o) { atom(o.n); use(o.like); },
            [&](const OpLength& o) { use(o.arr); },
            [&](const OpReverse& o) { use(o.arr); },
            [&](const OpTranspose& o) { use(o.arr); },
            [&](const OpCopy& o) { use(o.v); },
            [&](const OpIf& o) {
              atom(o.c);
              body_scoped(*o.tb);
              body_scoped(*o.fb);
            },
            [&](const OpLoop& o) {
              t(0x14u, o.params.size());
              for (const auto& i : o.init) atom(i);
              if (!o.while_cond) atom(o.count);
              t(0x15u, (static_cast<uint64_t>(o.stripmine) << 2) |
                           (static_cast<uint64_t>(o.checkpoint_entry) << 1) |
                           static_cast<uint64_t>(o.while_cond != nullptr));
              if (o.while_bound) atom(*o.while_bound);
              if (o.while_cond) lambda(*o.while_cond);
              const size_t mark = undo_.size();
              for (const auto& p : o.params) {
                type(p.type);
                bind(p.var);
              }
              if (o.idx.valid()) bind(o.idx);
              body_scoped(*o.body);
              unwind(mark);
            },
            [&](const OpMap& o) {
              lambda(*o.f);
              t(0x16u, o.args.size());
              for (Var v : o.args) use(v);
            },
            [&](const OpReduce& o) {
              lambda(*o.op);
              // The redomap pre-lambda is semantic (it maps the elements the
              // fold sees) and must distinguish signatures; `fused` is a
              // stats-only annotation and stays out, as with OpMap::fused.
              t(0x17u, o.pre != nullptr);
              if (o.pre) lambda(*o.pre);
              for (const auto& n : o.neutral) atom(n);
              t(0x16u, o.args.size());
              for (Var v : o.args) use(v);
            },
            [&](const OpScan& o) {
              lambda(*o.op);
              for (const auto& n : o.neutral) atom(n);
              t(0x16u, o.args.size());
              for (Var v : o.args) use(v);
            },
            [&](const OpHist& o) {
              lambda(*o.op);
              atom(o.neutral);
              use(o.dest);
              use(o.inds);
              use(o.vals);
            },
            [&](const OpScatter& o) { use(o.dest); use(o.inds); use(o.vals); },
            [&](const OpWithAcc& o) {
              t(0x16u, o.arrs.size());
              for (Var v : o.arrs) use(v);
              lambda(*o.f);
            },
        },
        e);
  }

  std::vector<uint64_t>& out_;
  std::unordered_map<uint32_t, uint32_t> ord_;
  std::vector<std::pair<uint32_t, uint32_t>> undo_;
  uint32_t next_ = 0;
};

} // namespace detail

inline std::vector<uint64_t> structural_sig(const Lambda& l) {
  std::vector<uint64_t> sig;
  detail::SigBuilder(sig).lambda(l);
  return sig;
}

inline std::vector<uint64_t> structural_sig(const Function& f) {
  std::vector<uint64_t> sig;
  detail::SigBuilder(sig).function(f);
  return sig;
}

// FNV-1a over the signature words.
inline uint64_t structural_hash(const std::vector<uint64_t>& sig) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (uint64_t w : sig) {
    for (int b = 0; b < 8; ++b) {
      h ^= (w >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

inline uint64_t structural_hash(const Lambda& l) { return structural_hash(structural_sig(l)); }
inline uint64_t structural_hash(const Function& f) { return structural_hash(structural_sig(f)); }

} // namespace npad::ir
