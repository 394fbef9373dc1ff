#include "opt/simplify.hpp"

#include <algorithm>
#include <cmath>
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

class Dce {
public:
  Body body(const Body& in, std::unordered_set<uint32_t> live) {
    for (const auto& a : in.result) {
      if (a.is_var()) live.insert(a.var().id);
    }
    std::vector<Stm> kept;
    for (size_t i = in.stms.size(); i-- > 0;) {
      const Stm& st = in.stms[i];
      if (!needed(st, live)) continue;
      Stm ns = st;
      if (const auto* lp = std::get_if<OpLoop>(&st.e)) ns = drop_dead_carries(st, *lp, live);
      // Nested scopes are pruned against their own result liveness.
      ns.e = map_nested(ns.e, [&](const NestedScope& s) { return body(*s.body, {}); });
      use(ns, live);
      kept.push_back(std::move(ns));
    }
    Body out;
    out.result = in.result;
    out.stms.assign(kept.rbegin(), kept.rend());
    return out;
  }

private:
  static bool needed(const Stm& st, const std::unordered_set<uint32_t>& live) {
    for (Var v : st.vars) {
      if (live.count(v.id) > 0) return true;
    }
    // Accumulator updates mutate shared buffers in place: a statement
    // whose nested bodies upd_acc a free accumulator is observable even
    // when it binds nothing (vjp adjoint sweeps emit zero-result maps of
    // exactly this shape), so it can never be dropped.
    return has_acc_effects(st.e);
  }

  // Liveness before a needed statement: bindings kill, uses (incl. free
  // vars of nests) generate.
  static void use(const Stm& st, std::unordered_set<uint32_t>& live) {
    for (Var v : st.vars) live.erase(v.id);
    for_each_atom(st.e, [&](const Atom& a) {
      if (a.is_var()) live.insert(a.var().id);
    });
    for_each_nested(st.e, [&](const NestedScope& s) {
      for (Var v : free_vars(*s.body, s.bound)) live.insert(v.id);
    });
  }

  // Adds every variable `e` reads, nested scopes included. A re-binding in
  // a nested scope does not hide later uses of its id: an over-approximation
  // that can only keep more, and much cheaper than free_vars.
  static void reads_of(const Exp& e, std::unordered_set<uint32_t>& out) {
    auto read = [&](const Atom& a) {
      if (a.is_var()) out.insert(a.var().id);
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
  // result slot. A loop that would keep no param at all is left whole.
  static Stm drop_dead_carries(const Stm& st, const OpLoop& o,
                               const std::unordered_set<uint32_t>& live) {
    const size_t n = o.params.size();
    std::unordered_set<uint32_t> cond_reads;
    if (o.while_cond) {
      for (Var v : free_vars(o.while_cond->body)) cond_reads.insert(v.id);
    }
    std::vector<bool> keep(n);
    for (size_t j = 0; j < n; ++j) {
      keep[j] = live.count(st.vars[j].id) > 0 || o.params[j].type.is_acc ||
                (o.while_cond && cond_reads.count(o.while_cond->params[j].var.id) > 0);
    }
    for (bool grew = std::find(keep.begin(), keep.end(), false) != keep.end(); grew;) {
      grew = false;
      std::unordered_set<uint32_t> reads;
      for (size_t j = 0; j < n; ++j) {
        const Atom& r = o.body->result[j];
        if (keep[j] && r.is_var()) reads.insert(r.var().id);
      }
      for (size_t i = o.body->stms.size(); i-- > 0;) {
        const Stm& bs = o.body->stms[i];
        if (!needed(bs, reads)) continue;
        for (Var v : bs.vars) reads.erase(v.id);
        reads_of(bs.e, reads);
      }
      for (size_t j = 0; j < n; ++j) {
        if (!keep[j] && reads.count(o.params[j].var.id) > 0) {
          keep[j] = true;
          grew = true;
        }
      }
    }
    const auto kept = static_cast<size_t>(std::count(keep.begin(), keep.end(), true));
    if (kept == n || kept == 0) return st;
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

class Folder {
public:
  struct Env {
    std::unordered_map<uint32_t, Atom> alias;  // var -> var or const
  };

  // A (re-)binding of `v` invalidates aliases *from* v and aliases *to* v:
  // keeping an X -> v entry across a shadowing re-binding of v would
  // capture uses of X (the AD passes re-install forward sweeps re-using
  // ids, so same-id re-binding is routine, including inside nested scopes).
  // The target scan is linear in the live-alias count per binding —
  // quadratic in pathological bodies, accepted like fuse_once's per-step
  // table rebuild; a reverse index would restore O(1) at the cost of a
  // second structure to keep consistent here and in Cloner::bind.
  static void kill_alias(Env& env, Var v) {
    env.alias.erase(v.id);
    for (auto it = env.alias.begin(); it != env.alias.end();) {
      if (it->second.is_var() && it->second.var() == v) {
        it = env.alias.erase(it);
      } else {
        ++it;
      }
    }
  }

  Body body(const Body& in, Env env) {
    Body out;
    for (const auto& st : in.stms) {
      Stm ns = st;
      ns.e = rewrite(st.e, env);
      // Shadowing: a re-binding invalidates aliases of and to that id.
      for (Var v : ns.vars) kill_alias(env, v);
      // Record folding opportunities for single-binding statements.
      if (ns.vars.size() == 1) {
        if (auto folded = fold(ns.e)) {
          ns.e = OpAtom{*folded};
          env.alias[ns.vars[0].id] = *folded;
        } else if (const auto* oa = std::get_if<OpAtom>(&ns.e)) {
          env.alias[ns.vars[0].id] = oa->a;
        }
      }
      out.stms.push_back(std::move(ns));
    }
    out.result.reserve(in.result.size());
    for (const auto& a : in.result) out.result.push_back(subst(a, env));
    return out;
  }

private:
  static Atom subst(const Atom& a, const Env& env) {
    if (!a.is_var()) return a;
    auto it = env.alias.find(a.var().id);
    if (it == env.alias.end()) return a;
    return it->second;
  }

  static Var subst_var(Var v, const Env& env) {
    auto it = env.alias.find(v.id);
    if (it != env.alias.end() && it->second.is_var()) return it->second.var();
    return v;
  }

  Exp rewrite(const Exp& e, const Env& env) {
    // Substitute aliases in atom positions; var positions only accept vars.
    Module dummy;  // Cloner needs a module only when refreshing bindings
    Subst s;
    for (const auto& [id, a] : env.alias) s[id] = a;
    Cloner c(dummy, /*refresh=*/false);
    Subst s2 = s;
    Exp ne = c.exp(e, s2);
    // Recurse into nested scopes with a copy of the environment; the scope's
    // own bindings shadow outer aliases.
    return map_nested(ne, [&](const NestedScope& scope) {
      Env inner = env;
      for (Var v : scope.bound) kill_alias(inner, v);
      return body(*scope.body, inner);
    });
  }

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
  Dce d;
  out.fn.body = d.body(p.fn.body, {});
  return out;
}

Prog fold_constants(const Prog& p) {
  Prog out = p;
  Folder f;
  out.fn.body = f.body(p.fn.body, {});
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
