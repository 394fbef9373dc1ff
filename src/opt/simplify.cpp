#include "opt/simplify.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "ir/analysis.hpp"
#include "ir/patterns.hpp"
#include "ir/print.hpp"
#include "ir/visit.hpp"

namespace npad::opt {

namespace {

using namespace ir;

// ------------------------------------------------------------------ DCE ----

// A set of variable ids on a dense table: insert, erase and lookup cost
// O(1) and allocate nothing once the table has grown; clear() costs the
// number of distinct ids inserted since the last clear.
class IdSet {
public:
  bool contains(uint32_t id) const { return id < state_.size() && state_[id] == kIn; }

  void insert(uint32_t id) {
    if (id >= state_.size()) state_.resize(id + 1, kNever);
    if (state_[id] == kNever) ids_.push_back(id);
    state_[id] = kIn;
  }

  void erase(uint32_t id) {
    if (contains(id)) state_[id] = kOut;
  }

  template <class Fn>
  void for_each(Fn&& fn) const {
    for (uint32_t id : ids_) {
      if (state_[id] == kIn) fn(id);
    }
  }

  void clear() {
    for (uint32_t id : ids_) state_[id] = kNever;
    ids_.clear();
  }

private:
  // kNever: not in ids_; kOut: listed in ids_ but erased.
  enum : uint8_t { kNever, kIn, kOut };
  std::vector<uint8_t> state_;
  std::vector<uint32_t> ids_;
};

class Dce {
public:
  // Prunes `in` given `live`, the ids read after it; nullopt when nothing
  // in it (nested scopes included) was pruned. On return `live` holds the
  // body's live-in set: the ids the pruned body reads before binding them,
  // i.e. its free variables.
  std::optional<Body> body(const Body& in, IdSet& live) {
    for (const auto& a : in.result) {
      if (a.is_var()) live.insert(a.var().id);
    }
    // Kept statements in reverse, filled from the first change on; until
    // then every statement after the current one was kept as it is.
    std::vector<Stm> kept;
    bool changed = false;
    auto change = [&](size_t i) {
      if (changed) return;
      changed = true;
      for (size_t k = in.stms.size(); k-- > i + 1;) kept.push_back(in.stms[k]);
    };
    std::vector<uint32_t> nested_reads;
    for (size_t i = in.stms.size(); i-- > 0;) {
      const Stm& st = in.stms[i];
      if (!needed(st, live)) {
        change(i);
        continue;
      }
      std::optional<Stm> ns;
      if (const auto* lp = std::get_if<OpLoop>(&st.e)) ns = drop_dead_carries(st, *lp, live);
      // Nested scopes are pruned against their own result liveness; what
      // each one reads from outside is its live-in set minus the variables
      // the scope binds on entry.
      nested_reads.clear();
      auto ne = map_nested(ns ? ns->e : st.e, [&](const NestedScope& s) {
        if (inner_.size() == depth_) inner_.emplace_back();
        IdSet& inner = inner_[depth_++];
        std::optional<Body> pruned = body(*s.body, inner);
        --depth_;
        for (Var v : s.bound) inner.erase(v.id);
        inner.for_each([&](uint32_t id) { nested_reads.push_back(id); });
        inner.clear();
        return pruned;
      });
      if (ne) {
        if (!ns) ns = st;
        ns->e = std::move(*ne);
      }
      const Stm& cur = ns ? *ns : st;
      // Liveness before the statement: bindings kill, uses generate.
      for (Var v : cur.vars) live.erase(v.id);
      for_each_atom(cur.e, [&](const Atom& a) {
        if (a.is_var()) live.insert(a.var().id);
      });
      for (uint32_t id : nested_reads) live.insert(id);
      if (ns) {
        change(i);
        kept.push_back(std::move(*ns));
      } else if (changed) {
        kept.push_back(st);
      }
    }
    if (!changed) return std::nullopt;
    Body out;
    out.result = in.result;
    out.stms.assign(std::make_move_iterator(kept.rbegin()), std::make_move_iterator(kept.rend()));
    return out;
  }

private:
  // The live sets of the nested scopes being pruned, one per depth below
  // the caller's body: scopes at one depth are pruned one after another, so
  // each depth needs one set, emptied after every use. A deque keeps the
  // references valid as it grows.
  std::deque<IdSet> inner_;
  size_t depth_ = 0;
  // drop_dead_carries' scratch set, shared by every loop so that each one
  // costs its body's reads, not a table the size of the module's ids.
  IdSet carry_reads_;

  static bool needed(const Stm& st, const IdSet& live) {
    for (Var v : st.vars) {
      if (live.contains(v.id)) return true;
    }
    // Accumulator updates mutate shared buffers in place: a statement
    // whose nested bodies upd_acc a free accumulator is observable even
    // when it binds nothing (vjp adjoint sweeps emit zero-result maps of
    // exactly this shape), so it can never be dropped.
    return has_acc_effects(st.e);
  }

  // Appends every variable `e` reads, nested scopes included. A re-binding
  // in a nested scope does not hide later uses of its id: an
  // over-approximation that can only keep more, and much cheaper than
  // free_vars.
  static void reads_of(const Exp& e, std::vector<uint32_t>& out) {
    auto read = [&](const Atom& a) {
      if (a.is_var()) out.push_back(a.var().id);
    };
    for_each_atom(e, read);
    for_each_nested(e, [&](const NestedScope& s) {
      for (const auto& st : s.body->stms) reads_of(st.e, out);
      for (const auto& a : s.body->result) read(a);
    });
  }

  // Dead loop-carried state. A carried param stays when its result is live
  // after the loop, it is an accumulator, or the while condition reads it;
  // then, to a fixpoint, when the body still reads it while computing the
  // kept results and its accumulator effects (nested scopes count whole).
  // Everything else — checkpoint arrays the reverse sweep never reads,
  // pass-through params, chains of dead carries — goes with its init and
  // result slot. A loop that would keep no param at all is left whole
  // (nullopt, as when every param stays).
  std::optional<Stm> drop_dead_carries(const Stm& st, const OpLoop& o, const IdSet& live) {
    const size_t n = o.params.size();
    std::unordered_set<uint32_t> cond_reads;
    if (o.while_cond) {
      for (Var v : free_vars(o.while_cond->body)) cond_reads.insert(v.id);
    }
    std::vector<bool> keep(n);
    for (size_t j = 0; j < n; ++j) {
      keep[j] = live.contains(st.vars[j].id) || o.params[j].type.is_acc ||
                (o.while_cond && cond_reads.count(o.while_cond->params[j].var.id) > 0);
    }
    if (std::find(keep.begin(), keep.end(), false) == keep.end()) return std::nullopt;
    // What each body statement reads and whether it has accumulator
    // effects, taken once: the fixpoint rounds below only replay them.
    const std::vector<Stm>& stms = o.body->stms;
    std::vector<std::vector<uint32_t>> stm_reads(stms.size());
    std::vector<bool> stm_acc(stms.size());
    for (size_t i = 0; i < stms.size(); ++i) {
      reads_of(stms[i].e, stm_reads[i]);
      stm_acc[i] = has_acc_effects(stms[i].e);
    }
    IdSet& reads = carry_reads_;
    for (bool grew = true; grew;) {
      grew = false;
      reads.clear();
      for (size_t j = 0; j < n; ++j) {
        const Atom& r = o.body->result[j];
        if (keep[j] && r.is_var()) reads.insert(r.var().id);
      }
      for (size_t i = stms.size(); i-- > 0;) {
        bool need = stm_acc[i];
        for (Var v : stms[i].vars) need = need || reads.contains(v.id);
        if (!need) continue;
        for (Var v : stms[i].vars) reads.erase(v.id);
        for (uint32_t id : stm_reads[i]) reads.insert(id);
      }
      for (size_t j = 0; j < n; ++j) {
        if (!keep[j] && reads.contains(o.params[j].var.id)) {
          keep[j] = true;
          grew = true;
        }
      }
    }
    const auto kept = static_cast<size_t>(std::count(keep.begin(), keep.end(), true));
    if (kept == n || kept == 0) return std::nullopt;
    OpLoop nl = o;
    nl.params.clear();
    nl.init.clear();
    Body nb = *o.body;
    nb.result.clear();
    Stm ns = st;
    ns.vars.clear();
    ns.types.clear();
    Lambda cond = o.while_cond ? *o.while_cond : Lambda{};
    cond.params.clear();
    for (size_t j = 0; j < n; ++j) {
      if (!keep[j]) continue;
      nl.params.push_back(o.params[j]);
      nl.init.push_back(o.init[j]);
      nb.result.push_back(o.body->result[j]);
      ns.vars.push_back(st.vars[j]);
      ns.types.push_back(st.types[j]);
      if (o.while_cond) cond.params.push_back(o.while_cond->params[j]);
    }
    nl.body = make_body(std::move(nb));
    if (o.while_cond) nl.while_cond = make_lambda(std::move(cond));
    ns.e = std::move(nl);
    return ns;
  }
};

// ------------------------------------------------- copy-prop + cfold -------

// One alias table for the whole walk. Entering a scope marks the undo log;
// every kill and every new alias is logged, and leaving the scope replays the
// log backwards, so each scope sees exactly the aliases of its enclosing
// scopes without copying them. A target -> sources index makes killing the
// aliases *to* a re-bound variable cost only those aliases.
class Folder {
public:
  // Folds `in`; nullopt when nothing in it (nested scopes included) changed.
  std::optional<Body> body(const Body& in) {
    const size_t mark = undo_.size();
    std::optional<Body> out;  // built from the first change on
    for (size_t i = 0; i < in.stms.size(); ++i) {
      const Stm& st = in.stms[i];
      std::optional<Exp> ne = rewrite(st.e);
      const Exp& e = ne ? *ne : st.e;
      // Shadowing: a re-binding invalidates aliases of and to that id.
      for (Var v : st.vars) kill(v);
      // Record folding opportunities for single-binding statements.
      if (st.vars.size() == 1) {
        if (auto folded = fold(e)) {
          ne = OpAtom{*folded};
          set(st.vars[0], *folded);
        } else if (const auto* oa = std::get_if<OpAtom>(&e)) {
          set(st.vars[0], oa->a);
        }
      }
      if (ne && !out) {
        out.emplace();
        out->stms.reserve(in.stms.size());
        out->stms.assign(in.stms.begin(), in.stms.begin() + static_cast<long>(i));
      }
      if (out) out->stms.push_back(ne ? Stm{st.vars, st.types, std::move(*ne)} : st);
    }
    std::vector<Atom> result;
    result.reserve(in.result.size());
    for (const auto& a : in.result) result.push_back(subst(a));
    unwind(mark);
    if (!out && result == in.result) return std::nullopt;
    if (!out) out.emplace(Body{in.stms, {}});
    out->result = std::move(result);
    return out;
  }

private:
  Atom subst(const Atom& a) const {
    if (!a.is_var()) return a;
    auto it = alias_.find(a.var().id);
    return it == alias_.end() ? a : it->second;
  }

  // Var-only positions (OpScratch::like, OpZerosLike, ...) take only var
  // aliases; a var aliased to a constant stays, and so does its binding.
  Var subst_var(Var v) const {
    auto it = alias_.find(v.id);
    return it != alias_.end() && it->second.is_var() ? it->second.var() : v;
  }

  // Folds each nested scope with the scope's own bindings killed, then
  // substitutes the statement's own atom and var positions; nullopt when
  // nothing changed.
  std::optional<Exp> rewrite(const Exp& e) {
    std::optional<Exp> out = map_nested(e, [&](const NestedScope& scope) {
      const size_t mark = undo_.size();
      for (Var v : scope.bound) kill(v);
      std::optional<Body> b = body(*scope.body);
      unwind(mark);
      return b;
    });
    bool own = false;
    visit_atoms(
        e, [&](const Atom& a) { own = own || !(subst(a) == a); },
        [&](Var v) { own = own || !(subst_var(v) == v); });
    if (!own) return out;
    if (!out) out = e;
    visit_atoms(*out, [&](Atom& a) { a = subst(a); }, [&](Var& v) { v = subst_var(v); });
    return out;
  }

  // A (re-)binding of `v` invalidates aliases *from* v and aliases *to* v:
  // keeping an X -> v entry across a shadowing re-binding of v would
  // capture uses of X (the AD passes re-install forward sweeps re-using
  // ids, so same-id re-binding is routine, including inside nested scopes).
  void kill(Var v) {
    if (auto it = alias_.find(v.id); it != alias_.end()) {
      undo_.push_back({v.id, it->second});
      alias_.erase(it);
    }
    auto src = sources_.find(v.id);
    if (src == sources_.end()) return;
    for (uint32_t x : src->second) {
      auto it = alias_.find(x);
      if (it != alias_.end() && it->second.is_var() && it->second.var() == v) {
        undo_.push_back({x, it->second});
        alias_.erase(it);
      }
    }
    sources_.erase(src);
  }

  // Records v -> a; v has just been killed, so it holds no alias.
  void set(Var v, const Atom& a) {
    undo_.push_back({v.id, std::nullopt});
    alias_.emplace(v.id, a);
    if (a.is_var()) sources_[a.var().id].push_back(v.id);
  }

  void unwind(size_t mark) {
    while (undo_.size() > mark) {
      const auto [id, prev] = undo_.back();
      undo_.pop_back();
      if (!prev) {
        alias_.erase(id);
        continue;
      }
      alias_[id] = *prev;
      if (prev->is_var()) sources_[prev->var().id].push_back(id);
    }
  }

  struct Undo {
    uint32_t id;
    std::optional<Atom> prev;  // the alias to restore; nullopt: erase it
  };

  std::unordered_map<uint32_t, Atom> alias_;  // var -> var or const
  // target -> ids that may alias it (stale entries are skipped by kill)
  std::unordered_map<uint32_t, std::vector<uint32_t>> sources_;
  std::vector<Undo> undo_;

  static bool is_c(const Atom& a, double v) {
    return a.is_const() && a.cval().t == ScalarType::F64 && a.cval().f == v;
  }

  std::optional<Atom> fold(const Exp& e) {
    const auto* bin = std::get_if<OpBin>(&e);
    if (bin != nullptr) {
      const Atom &a = bin->a, &b = bin->b;
      if (a.is_const() && b.is_const() && a.cval().t == ScalarType::F64 &&
          b.cval().t == ScalarType::F64) {
        const double x = a.cval().f, y = b.cval().f;
        switch (bin->op) {
          case BinOp::Add: return cf64(x + y);
          case BinOp::Sub: return cf64(x - y);
          case BinOp::Mul: return cf64(x * y);
          case BinOp::Div: return cf64(x / y);
          case BinOp::Pow: return cf64(std::pow(x, y));
          case BinOp::Min: return cf64(std::min(x, y));
          case BinOp::Max: return cf64(std::max(x, y));
          default: return std::nullopt;
        }
      }
      if (a.is_const() && b.is_const() && a.cval().t == ScalarType::I64 &&
          b.cval().t == ScalarType::I64) {
        const int64_t x = a.cval().i, y = b.cval().i;
        switch (bin->op) {
          case BinOp::Add: return ci64(x + y);
          case BinOp::Sub: return ci64(x - y);
          case BinOp::Mul: return ci64(x * y);
          default: return std::nullopt;
        }
      }
      switch (bin->op) {
        case BinOp::Add:
          if (is_c(a, 0.0)) return b;
          if (is_c(b, 0.0)) return a;
          break;
        case BinOp::Sub:
          if (is_c(b, 0.0)) return a;
          break;
        case BinOp::Mul:
          if (is_c(a, 1.0)) return b;
          if (is_c(b, 1.0)) return a;
          if (is_c(a, 0.0) || is_c(b, 0.0)) return cf64(0.0);
          break;
        case BinOp::Div:
          if (is_c(b, 1.0)) return a;
          break;
        case BinOp::Pow:
          if (is_c(b, 1.0)) return a;
          break;
        default: break;
      }
      return std::nullopt;
    }
    if (const auto* sel = std::get_if<OpSelect>(&e)) {
      if (sel->c.is_const()) return sel->c.cval().i != 0 ? sel->t : sel->f;
      if (sel->t == sel->f) return sel->t;
      return std::nullopt;
    }
    if (const auto* un = std::get_if<OpUn>(&e)) {
      if (!un->a.is_const()) return std::nullopt;
      if (un->a.cval().t == ScalarType::F64) {
        const double x = un->a.cval().f;
        switch (un->op) {
          case UnOp::Neg: return cf64(-x);
          case UnOp::Exp: return cf64(std::exp(x));
          case UnOp::Log: return cf64(std::log(x));
          case UnOp::Sqrt: return cf64(std::sqrt(x));
          case UnOp::Sin: return cf64(std::sin(x));
          case UnOp::Cos: return cf64(std::cos(x));
          case UnOp::Tanh: return cf64(std::tanh(x));
          case UnOp::Abs: return cf64(std::fabs(x));
          case UnOp::ToI64: return ci64(static_cast<int64_t>(x));
          default: return std::nullopt;
        }
      }
      if (un->a.cval().t == ScalarType::I64 && un->op == UnOp::ToF64) {
        return cf64(static_cast<double>(un->a.cval().i));
      }
      return std::nullopt;
    }
    return std::nullopt;
  }
};

} // namespace

Prog dead_code_elim(const Prog& p) {
  Prog out = p;
  IdSet live;
  if (auto b = Dce().body(p.fn.body, live)) out.fn.body = std::move(*b);
  return out;
}

Prog fold_constants(const Prog& p) {
  Prog out = p;
  if (auto b = Folder().body(p.fn.body)) out.fn.body = std::move(*b);
  return out;
}

Prog simplify(const Prog& p) {
  Prog cur = p;
  size_t prev = SIZE_MAX;
  for (int iter = 0; iter < 8; ++iter) {
    cur = fold_constants(cur);
    cur = dead_code_elim(cur);
    const size_t n = count_stms(cur.fn.body);
    if (n == prev) break;
    prev = n;
  }
  return cur;
}

} // namespace npad::opt
