// Forward-mode AD as a statement-level rewrite (Section 3): tangent
// statements are interleaved with primal statements; SOACs become combined
// constructs over (primal, tangent) bundles, which is the compiler-pass
// formulation of dual numbers.

#include <unordered_map>

#include "core/ad.hpp"
#include "ir/analysis.hpp"
#include "ir/builder.hpp"
#include "ir/patterns.hpp"
#include "ir/visit.hpp"

namespace npad::ad {

namespace {

using namespace ir;

class JvpCtx {
public:
  JvpCtx(Module& mod, TypeMap& tm) : mod_(mod), tm_(tm) {}

  // Tangent of an atom; missing tangents are zero (memoized per variable).
  Atom tan_atom(Builder& b, const Atom& a) {
    if (a.is_const()) return cf64(0.0);
    Var v = a.var();
    auto it = tan_.find(v.id);
    if (it != tan_.end()) return Atom(it->second);
    Type t = tm_.at(v);
    if (t.rank == 0 && !t.is_acc) {
      Var z = b.rebind(cf64(0.0), "zt");
      tan_[v.id] = z;
      return Atom(z);
    }
    Var z = b.zeros_like(v);
    tan_[v.id] = z;
    return Atom(z);
  }

  Var tan_var(Builder& b, const Atom& a) {
    Atom t = tan_atom(b, a);
    return t.is_var() ? t.var() : b.rebind(t, "zt");
  }

  void set_tan(Var v, Var t) { tan_[v.id] = t; }

  // Transforms a body into `b`, returning (results ++ tangents).
  std::vector<Atom> transform_body(Builder& b, const Body& body) {
    for (const auto& st : body.stms) transform_stm(b, st);
    std::vector<Atom> out = body.result;
    for (const auto& a : body.result) {
      if (tm_.at(a).elem == ScalarType::F64) out.push_back(tan_atom(b, a));
    }
    return out;
  }

  void transform_stm(Builder& b, const Stm& st) {
    std::visit(Overload{
                   [&](const OpAtom& o) {
                     emit_primal(b, st);
                     if (diff(st, 0)) bind_tan(b, st, 0, OpAtom{tan_atom(b, o.a)});
                   },
                   [&](const OpBin& o) { bin(b, st, o); },
                   [&](const OpUn& o) { un(b, st, o); },
                   [&](const OpSelect& o) {
                     emit_primal(b, st);
                     if (diff(st, 0)) {
                       bind_tan(b, st, 0, OpSelect{o.c, tan_atom(b, o.t), tan_atom(b, o.f)});
                     }
                   },
                   [&](const OpIndex& o) {
                     emit_primal(b, st);
                     if (diff(st, 0)) {
                       bind_tan(b, st, 0, OpIndex{tan_var(b, Atom(o.arr)), o.idx});
                     }
                   },
                   [&](const OpUpdate& o) {
                     emit_primal(b, st);
                     if (diff(st, 0)) {
                       bind_tan(b, st, 0,
                                OpUpdate{tan_var(b, Atom(o.arr)), o.idx, tan_atom(b, o.v)});
                     }
                   },
                   [&](const OpUpdAcc& o) {
                     emit_primal(b, st);
                     if (diff(st, 0)) {
                       bind_tan(b, st, 0,
                                OpUpdAcc{tan_var(b, Atom(o.acc)), o.idx, tan_atom(b, o.v)});
                     }
                   },
                   [&](const OpIota&) { emit_primal(b, st); },
                   [&](const OpLength&) { emit_primal(b, st); },
                   [&](const OpReplicate& o) {
                     emit_primal(b, st);
                     if (diff(st, 0)) bind_tan(b, st, 0, OpReplicate{o.n, tan_atom(b, o.v)});
                   },
                   [&](const OpZerosLike& o) {
                     emit_primal(b, st);
                     if (diff(st, 0)) bind_tan(b, st, 0, OpZerosLike{o.v});
                   },
                   [&](const OpScratch& o) {
                     emit_primal(b, st);
                     if (diff(st, 0)) bind_tan(b, st, 0, OpScratch{o.n, o.like});
                   },
                   [&](const OpReverse& o) {
                     emit_primal(b, st);
                     if (diff(st, 0)) bind_tan(b, st, 0, OpReverse{tan_var(b, Atom(o.arr))});
                   },
                   [&](const OpTranspose& o) {
                     emit_primal(b, st);
                     if (diff(st, 0)) {
                       bind_tan(b, st, 0, OpTranspose{tan_var(b, Atom(o.arr))});
                     }
                   },
                   [&](const OpCopy& o) {
                     emit_primal(b, st);
                     if (diff(st, 0)) bind_tan(b, st, 0, OpCopy{tan_var(b, Atom(o.v))});
                   },
                   [&](const OpIf& o) { ifexp(b, st, o); },
                   [&](const OpLoop& o) { loop(b, st, o); },
                   [&](const OpMap& o) { map(b, st, o); },
                   [&](const OpReduce& o) {
                     if (o.pre) throw ADError("jvp: differentiate before redomap fusion");
                     red_scan(b, st, o.op, o.neutral, o.args, false);
                   },
                   [&](const OpScan& o) { red_scan(b, st, o.op, o.neutral, o.args, true); },
                   [&](const OpHist& o) { hist(b, st, o); },
                   [&](const OpScatter& o) {
                     emit_primal(b, st);
                     if (diff(st, 0)) {
                       bind_tan(b, st, 0,
                                OpScatter{tan_var(b, Atom(o.dest)), o.inds,
                                          tan_var(b, Atom(o.vals))});
                     }
                   },
                   [&](const OpWithAcc& o) { withacc(b, st, o); },
               },
               st.e);
  }

private:
  static bool diff_t(const Type& t) { return t.elem == ScalarType::F64; }
  bool diff(const Stm& st, size_t i) const { return diff_t(st.types[i]); }

  void emit_primal(Builder& b, const Stm& st) { b.push(st); }

  void bind_tan(Builder& b, const Stm& st, size_t i, Exp e) {
    Var tv = mod_.fresh(mod_.name(st.vars[i]) + "_tan");
    tm_.bind(tv, st.types[i]);
    b.push(stm1(tv, st.types[i], std::move(e)));
    set_tan(st.vars[i], tv);
  }

  void bin(Builder& b, const Stm& st, const OpBin& o) {
    emit_primal(b, st);
    if (!diff(st, 0)) return;
    const Atom da = tan_atom(b, o.a), db = tan_atom(b, o.b);
    Var v = st.vars[0];
    Var t{};
    switch (o.op) {
      case BinOp::Add: t = b.add(da, db); break;
      case BinOp::Sub: t = b.sub(da, db); break;
      case BinOp::Mul: t = b.add(b.mul(da, o.b), b.mul(o.a, db)); break;
      case BinOp::Div:
        // d(a/b) = (da - v*db)/b
        t = b.div(b.sub(da, b.mul(Atom(v), db)), o.b);
        break;
      case BinOp::Pow: {
        // d(a^b) = da*b*a^(b-1) + db*v*log(a); the log term is emitted only
        // when the exponent has a (possibly) nonzero tangent.
        Var t1 = b.mul(da, b.mul(o.b, b.pow(o.a, b.sub(o.b, cf64(1.0)))));
        if (db.is_const() && db.cval().f == 0.0) {
          t = t1;
        } else {
          t = b.add(t1, b.mul(db, b.mul(Atom(v), b.log(o.a))));
        }
        break;
      }
      case BinOp::Min: t = b.select(b.le(o.a, o.b), da, db); break;
      case BinOp::Max: t = b.select(b.ge(o.a, o.b), da, db); break;
      default: return;  // comparisons / logic / mod carry no tangent
    }
    set_tan(v, t);
  }

  void un(Builder& b, const Stm& st, const OpUn& o) {
    emit_primal(b, st);
    if (!diff(st, 0)) return;
    if (o.op == UnOp::ToF64 && tm_.at(o.a).elem != ScalarType::F64) {
      return;  // cast from integral: zero tangent (left unmapped)
    }
    const Atom da = tan_atom(b, o.a);
    Var v = st.vars[0];
    Var t{};
    switch (o.op) {
      case UnOp::Neg: t = b.neg(da); break;
      case UnOp::Exp: t = b.mul(Atom(v), da); break;
      case UnOp::Log: t = b.div(da, o.a); break;
      case UnOp::Sqrt: t = b.div(da, b.mul(cf64(2.0), Atom(v))); break;
      case UnOp::Sin: t = b.mul(b.cos(o.a), da); break;
      case UnOp::Cos: t = b.neg(b.mul(b.sin(o.a), da)); break;
      case UnOp::Tanh: t = b.mul(b.sub(cf64(1.0), b.mul(Atom(v), Atom(v))), da); break;
      case UnOp::Abs: t = b.mul(b.un(UnOp::Sign, o.a), da); break;
      case UnOp::Sign: t = b.rebind(cf64(0.0), "zt"); break;
      case UnOp::LGamma: t = b.mul(b.un(UnOp::Digamma, o.a), da); break;
      case UnOp::ToF64: t = b.rebind(da, "ct"); break;
      case UnOp::Digamma:
        throw ADError("jvp: derivative of digamma (trigamma) not implemented");
      default: return;
    }
    set_tan(v, t);
  }

  void ifexp(Builder& b, const Stm& st, const OpIf& o) {
    Stm ns;
    ns.e = OpIf{o.c, make_body(transform_sub(*o.tb)), make_body(transform_sub(*o.fb))};
    bind_combined(b, st, std::move(ns));
  }

  Body transform_sub(const Body& body) {
    Builder cb(mod_, tm_);
    std::vector<Atom> res = transform_body(cb, body);
    return Body{cb.take_stms(), std::move(res)};
  }

  // Binds (orig vars ++ fresh tangent vars for f64 results) to a combined exp.
  void bind_combined(Builder& b, const Stm& st, Stm ns) {
    ns.vars = st.vars;
    ns.types = st.types;
    std::vector<std::pair<Var, Var>> pairs;
    for (size_t i = 0; i < st.vars.size(); ++i) {
      if (!diff(st, i)) continue;
      Var tv = mod_.fresh(mod_.name(st.vars[i]) + "_tan");
      ns.vars.push_back(tv);
      ns.types.push_back(st.types[i]);
      pairs.emplace_back(st.vars[i], tv);
    }
    b.push(std::move(ns));
    for (auto [pv, tv] : pairs) set_tan(pv, tv);
  }

  void loop(Builder& b, const Stm& st, const OpLoop& o) {
    OpLoop nl;
    nl.idx = o.idx;
    nl.count = o.count;
    nl.stripmine = o.stripmine;
    nl.checkpoint_entry = o.checkpoint_entry;
    nl.while_bound = o.while_bound;
    nl.params = o.params;
    nl.init = o.init;
    // Tangent loop parameters for differentiable loop-variant variables.
    std::vector<std::pair<size_t, Var>> tps;
    for (size_t i = 0; i < o.params.size(); ++i) {
      if (!diff_t(o.params[i].type)) continue;
      Var tp = mod_.fresh(mod_.name(o.params[i].var) + "_tan");
      tm_.bind(tp, o.params[i].type);
      nl.params.push_back(Param{tp, o.params[i].type});
      nl.init.push_back(tan_atom(b, o.init[i]));
      tps.emplace_back(i, tp);
    }
    if (o.while_cond) {
      // Wrap the condition to accept the extended parameter list.
      Lambda wc;
      std::vector<Atom> args;
      for (const auto& p : nl.params) {
        Var pv = mod_.fresh("w");
        tm_.bind(pv, p.type);
        wc.params.push_back(Param{pv, p.type});
        if (args.size() < o.params.size()) args.emplace_back(pv);
      }
      auto [stms, res] = inline_lambda(mod_, *o.while_cond, args);
      wc.body = Body{std::move(stms), std::move(res)};
      wc.rets = {boolean()};
      nl.while_cond = make_lambda(std::move(wc));
    }
    // Transform the body with tangents of loop params seeded.
    for (auto [i, tp] : tps) set_tan(o.params[i].var, tp);
    nl.body = make_body(transform_sub(*o.body));
    bind_combined(b, st, Stm{{}, {}, std::move(nl)});
  }

  void map(Builder& b, const Stm& st, const OpMap& o) {
    std::vector<Var> nargs = o.args;
    Lambda nf;
    nf.params = o.f->params;
    // Tangent args/params for differentiable inputs.
    std::vector<std::pair<size_t, Var>> tps;
    for (size_t i = 0; i < o.args.size(); ++i) {
      const Type pt = o.f->params[i].type;
      if (!diff_t(pt)) continue;
      nargs.push_back(tan_var(b, Atom(o.args[i])));
      Var tp = mod_.fresh("p_tan");
      tm_.bind(tp, pt);
      nf.params.push_back(Param{tp, pt});
      tps.emplace_back(i, tp);
    }
    for (auto [i, tp] : tps) set_tan(o.f->params[i].var, tp);
    nf.body = transform_sub(o.f->body);
    for (const auto& a : nf.body.result) nf.rets.push_back(tm_.at(a));
    bind_combined(b, st, Stm{{}, {}, OpMap{make_lambda(std::move(nf)), std::move(nargs)}});
  }

  // Combined reduce/scan over (primal, tangent) bundles with the lifted
  // operator; the lift of an associative differentiable operator is
  // associative (dual-number semiring).
  void red_scan(Builder& b, const Stm& st, const LambdaPtr& op, const std::vector<Atom>& neutral,
                const std::vector<Var>& args, bool is_scan) {
    const size_t k = args.size();
    // Tangent arrays are added only for differentiable (f64) arguments; this
    // keeps mixed reduces such as argmin (f64 values, i64 indices) liftable.
    std::vector<size_t> dargs;
    for (size_t i = 0; i < k; ++i) {
      if (diff_t(elem_of(tm_.at(args[i])))) dargs.push_back(i);
    }
    if (dargs.empty()) {
      emit_primal(b, st);
      return;
    }
    std::vector<Var> nargs = args;
    for (size_t i : dargs) nargs.push_back(tan_var(b, Atom(args[i])));
    std::vector<Atom> nne = neutral;
    for (size_t i : dargs) {
      const Type et = elem_of(tm_.at(args[i]));
      if (et.rank == 0) {
        nne.push_back(cf64(0.0));
      } else {
        assert(neutral[i].is_var());
        nne.emplace_back(b.zeros_like(neutral[i].var()));
      }
    }
    // Lifted operator: params (a.., a_tan.., c.., c_tan..), tangents only for
    // the differentiable positions.
    Lambda lop;
    std::vector<Atom> prim_args;
    std::vector<std::pair<size_t, Var>> tan_of_param;  // (prim_args index, tan var)
    auto add_params = [&](const char* nm, size_t group) {
      std::vector<Var> prim;
      for (size_t i = 0; i < k; ++i) {
        Var pv = mod_.fresh(nm);
        tm_.bind(pv, op->params[group * k + i].type);
        lop.params.push_back(Param{pv, op->params[group * k + i].type});
        prim.push_back(pv);
      }
      const size_t base = prim_args.size();
      for (size_t i = 0; i < k; ++i) prim_args.emplace_back(prim[i]);
      for (size_t i : dargs) {
        Var tv = mod_.fresh(std::string(nm) + "t");
        tm_.bind(tv, op->params[group * k + i].type);
        lop.params.push_back(Param{tv, op->params[group * k + i].type});
        tan_of_param.emplace_back(base + i, tv);
      }
    };
    add_params("a", 0);
    add_params("c", 1);
    auto [stms, res] = inline_lambda(mod_, *op, prim_args);
    Builder cb(mod_, tm_);
    for (auto [pi, tv] : tan_of_param) set_tan(prim_args[pi].var(), tv);
    for (const auto& s : stms) transform_stm(cb, s);
    std::vector<Atom> rres = res;
    for (size_t i : dargs) rres.push_back(tan_atom(cb, res[i]));
    lop.body = Body{cb.take_stms(), std::move(rres)};
    for (const auto& a : lop.body.result) lop.rets.push_back(tm_.at(a));
    Exp e = is_scan ? Exp(OpScan{make_lambda(std::move(lop)), nne, nargs})
                    : Exp(OpReduce{make_lambda(std::move(lop)), nne, nargs, nullptr, 0});
    bind_combined(b, st, Stm{{}, {}, std::move(e)});
  }

  void hist(Builder& b, const Stm& st, const OpHist& o) {
    emit_primal(b, st);
    if (!diff(st, 0)) return;
    auto bop = recognize_binop(*o.op);
    if (!bop || *bop != BinOp::Add) {
      throw ADError("jvp: reduce_by_index only supported for (+) operators");
    }
    Var td = tan_var(b, Atom(o.dest));
    Var tv = tan_var(b, Atom(o.vals));
    bind_tan(b, st, 0, OpHist{o.op, cf64(0.0), td, o.inds, tv});
  }

  void withacc(Builder& b, const Stm& st, const OpWithAcc& o) {
    const size_t na = o.arrs.size();
    std::vector<Var> narrs = o.arrs;
    std::vector<size_t> diff_accs;
    for (size_t i = 0; i < na; ++i) {
      if (!diff_t(tm_.at(o.arrs[i]))) continue;
      narrs.push_back(tan_var(b, Atom(o.arrs[i])));
      diff_accs.push_back(i);
    }
    Lambda nf;
    nf.params = o.f->params;
    for (size_t i : diff_accs) {
      Var tp = mod_.fresh("acc_tan");
      Type t = o.f->params[i].type;
      tm_.bind(tp, t);
      nf.params.push_back(Param{tp, t});
      set_tan(o.f->params[i].var, tp);
    }
    Builder cb(mod_, tm_);
    for (const auto& s : o.f->body.stms) transform_stm(cb, s);
    // Result order must match narrs: primal accs, tangent accs, then extras
    // and the tangents of differentiable extras.
    std::vector<Atom> rres;
    for (size_t i = 0; i < na; ++i) rres.push_back(o.f->body.result[i]);
    for (size_t i : diff_accs) rres.push_back(tan_atom(cb, o.f->body.result[i]));
    for (size_t i = na; i < o.f->body.result.size(); ++i) rres.push_back(o.f->body.result[i]);
    std::vector<size_t> extra_diff;
    for (size_t i = na; i < o.f->body.result.size(); ++i) {
      if (diff_t(tm_.at(o.f->body.result[i]))) {
        extra_diff.push_back(i);
        rres.push_back(tan_atom(cb, o.f->body.result[i]));
      }
    }
    nf.body = Body{cb.take_stms(), std::move(rres)};
    for (const auto& a : nf.body.result) nf.rets.push_back(tm_.at(a));

    Stm ns;
    ns.e = OpWithAcc{std::move(narrs), make_lambda(std::move(nf))};
    // Primal array outputs, then tangent arrays, then extras, then extra tans.
    for (size_t i = 0; i < na; ++i) {
      ns.vars.push_back(st.vars[i]);
      ns.types.push_back(st.types[i]);
    }
    for (size_t i : diff_accs) {
      Var tv = mod_.fresh(mod_.name(st.vars[i]) + "_tan");
      tm_.bind(tv, st.types[i]);
      ns.vars.push_back(tv);
      ns.types.push_back(st.types[i]);
      set_tan(st.vars[i], tv);
    }
    for (size_t i = na; i < st.vars.size(); ++i) {
      ns.vars.push_back(st.vars[i]);
      ns.types.push_back(st.types[i]);
    }
    for (size_t i : extra_diff) {
      const size_t out_i = i;  // extras align: body result i <-> stm var i
      Var tv = mod_.fresh(mod_.name(st.vars[out_i]) + "_tan");
      tm_.bind(tv, st.types[out_i]);
      ns.vars.push_back(tv);
      ns.types.push_back(st.types[out_i]);
      set_tan(st.vars[out_i], tv);
    }
    b.push(std::move(ns));
  }

  Module& mod_;
  TypeMap& tm_;
  std::unordered_map<uint32_t, Var> tan_;
};

} // namespace

Prog jvp(const Prog& p) {
  auto mod = p.mod;  // names continue in the same module
  TypeMap tm = collect_types(p.fn);
  JvpCtx ctx(*mod, tm);
  Builder b(*mod, tm);

  Function f;
  f.name = p.fn.name + "_jvp";
  f.params = p.fn.params;
  for (const auto& pr : p.fn.params) {
    if (!differentiable(pr.type)) continue;
    Var tv = mod->fresh(mod->name(pr.var) + "_tan");
    tm.bind(tv, pr.type);
    f.params.push_back(Param{tv, pr.type});
    ctx.set_tan(pr.var, tv);
  }
  std::vector<Atom> res = ctx.transform_body(b, p.fn.body);
  f.body = Body{b.take_stms(), res};
  for (const auto& a : res) f.rets.push_back(tm.at(a));
  return Prog{mod, std::move(f)};
}

} // namespace npad::ad
