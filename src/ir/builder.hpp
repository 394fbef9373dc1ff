#pragma once

// Fluent construction API for npad IR. A Builder accumulates the statements
// of one body; nested scopes (if branches, loop bodies, SOAC lambdas) are
// built by callbacks receiving a child Builder. Result types are inferred.
//
//   ProgBuilder pb("dot");
//   Var xs = pb.param("xs", arr_f64(1)), ys = pb.param("ys", arr_f64(1));
//   Builder& b = pb.body();
//   Var prods = b.map1(b.lam({f64(), f64()}, [](Builder& c, auto& p) {
//     return std::vector<Atom>{c.mul(p[0], p[1])};
//   }), {xs, ys});
//   Var s = b.reduce1(b.add_op(), cf64(0.0), {prods});
//   Prog p = pb.finish({s});

#include <functional>
#include <string_view>
#include <utility>

#include "ir/analysis.hpp"
#include "ir/ast.hpp"

namespace npad::ir {

class Builder {
public:
  Builder(Module& m, TypeMap& tm) : mod_(&m), tm_(&tm) {}

  Module& module() { return *mod_; }
  TypeMap& types() { return *tm_; }
  Type type_of(const Atom& a) const { return tm_->at(a); }

  // ----------------------------------------------------------- emission ----
  Var emit(Exp e, Type t, std::string_view nm = "t") {
    Var v = mod_->fresh(nm);
    tm_->bind(v, t);
    stms_.push_back(stm1(v, t, std::move(e)));
    return v;
  }

  std::vector<Var> emit_multi(Exp e, const std::vector<Type>& ts, std::string_view nm = "t") {
    Stm s;
    s.e = std::move(e);
    s.types = ts;
    for (const auto& t : ts) {
      Var v = mod_->fresh(nm);
      tm_->bind(v, t);
      s.vars.push_back(v);
    }
    stms_.push_back(std::move(s));
    return stms_.back().vars;
  }

  void push(Stm s) {
    for (size_t i = 0; i < s.vars.size(); ++i) tm_->bind(s.vars[i], s.types[i]);
    stms_.push_back(std::move(s));
  }

  void splice(std::vector<Stm> stms) {
    for (auto& s : stms) push(std::move(s));
  }

  std::vector<Stm> take_stms() { return std::move(stms_); }

  // Result variables of the most recently emitted statement.
  const std::vector<Var>& last_vars() const {
    assert(!stms_.empty());
    return stms_.back().vars;
  }

  // ------------------------------------------------------------ scalars ----
  Var bin(BinOp op, Atom a, Atom b, std::string_view nm = "t") {
    Type t = result_type(op, a, b);
    return emit(OpBin{op, a, b}, t, nm);
  }

  Var add(Atom a, Atom b) { return bin(BinOp::Add, a, b, "add"); }
  Var sub(Atom a, Atom b) { return bin(BinOp::Sub, a, b, "sub"); }
  Var mul(Atom a, Atom b) { return bin(BinOp::Mul, a, b, "mul"); }
  Var div(Atom a, Atom b) { return bin(BinOp::Div, a, b, "div"); }
  Var pow(Atom a, Atom b) { return bin(BinOp::Pow, a, b, "pow"); }
  Var min(Atom a, Atom b) { return bin(BinOp::Min, a, b, "min"); }
  Var max(Atom a, Atom b) { return bin(BinOp::Max, a, b, "max"); }
  Var mod(Atom a, Atom b) { return bin(BinOp::Mod, a, b, "mod"); }
  Var eq(Atom a, Atom b) { return bin(BinOp::Eq, a, b, "eq"); }
  Var ne(Atom a, Atom b) { return bin(BinOp::Ne, a, b, "ne"); }
  Var lt(Atom a, Atom b) { return bin(BinOp::Lt, a, b, "lt"); }
  Var le(Atom a, Atom b) { return bin(BinOp::Le, a, b, "le"); }
  Var gt(Atom a, Atom b) { return bin(BinOp::Gt, a, b, "gt"); }
  Var ge(Atom a, Atom b) { return bin(BinOp::Ge, a, b, "ge"); }
  Var logical_and(Atom a, Atom b) { return bin(BinOp::And, a, b, "and"); }
  Var logical_or(Atom a, Atom b) { return bin(BinOp::Or, a, b, "or"); }

  Var un(UnOp op, Atom a, std::string_view nm = "t") {
    Type t = tm_->at(a);
    if (op == UnOp::ToF64) t = f64();
    if (op == UnOp::ToI64) t = i64();
    if (op == UnOp::Not) t = boolean();
    return emit(OpUn{op, a}, t, nm);
  }

  Var neg(Atom a) { return un(UnOp::Neg, a, "neg"); }
  Var exp(Atom a) { return un(UnOp::Exp, a, "exp"); }
  Var log(Atom a) { return un(UnOp::Log, a, "log"); }
  Var sqrt(Atom a) { return un(UnOp::Sqrt, a, "sqrt"); }
  Var sin(Atom a) { return un(UnOp::Sin, a, "sin"); }
  Var cos(Atom a) { return un(UnOp::Cos, a, "cos"); }
  Var tanh(Atom a) { return un(UnOp::Tanh, a, "tanh"); }
  Var abs(Atom a) { return un(UnOp::Abs, a, "abs"); }
  Var lgamma(Atom a) { return un(UnOp::LGamma, a, "lgam"); }
  Var to_f64(Atom a) { return un(UnOp::ToF64, a, "tf"); }
  Var to_i64(Atom a) { return un(UnOp::ToI64, a, "ti"); }
  Var logical_not(Atom a) { return un(UnOp::Not, a, "not"); }

  Var select(Atom c, Atom t, Atom f) { return emit(OpSelect{c, t, f}, tm_->at(t), "sel"); }
  Var rebind(Atom a, std::string_view nm = "v") { return emit(OpAtom{a}, tm_->at(a), nm); }

  // Convenience: sigmoid(x) = 1 / (1 + exp(-x)).
  Var sigmoid(Atom a) {
    Var e = exp(neg(a));
    return div(cf64(1.0), add(cf64(1.0), e));
  }

  // ------------------------------------------------------------- arrays ----
  Var index(Var a, std::vector<Atom> idx, std::string_view nm = "elt") {
    Type t = tm_->at(a);
    assert(static_cast<int>(idx.size()) <= t.rank);
    return emit(OpIndex{a, std::move(idx)},
                Type{t.elem, t.rank - static_cast<int>(idx.size()), false}, nm);
  }

  Var update(Var a, std::vector<Atom> idx, Atom v) {
    return emit(OpUpdate{a, std::move(idx), v}, tm_->at(a), "upd");
  }

  Var upd_acc(Var acc, std::vector<Atom> idx, Atom v) {
    return emit(OpUpdAcc{acc, std::move(idx), v}, tm_->at(acc), "acc");
  }

  Var iota(Atom n) { return emit(OpIota{n}, arr(ScalarType::I64, 1), "iota"); }

  Var replicate(Atom n, Atom v) { return emit(OpReplicate{n, v}, lift(tm_->at(v)), "rep"); }

  Var zeros_like(Var v) {
    Type t = tm_->at(v);
    return emit(OpZerosLike{v}, Type{t.elem, t.rank, false}, "zeros");
  }

  Var scratch(Atom n, Var like) { return emit(OpScratch{n, like}, lift(tm_->at(like)), "chk"); }
  Var length(Var a) { return emit(OpLength{a}, i64(), "len"); }
  Var reverse(Var a) { return emit(OpReverse{a}, tm_->at(a), "rev"); }
  Var transpose(Var a) { return emit(OpTranspose{a}, tm_->at(a), "tr"); }
  Var copy(Var a) { return emit(OpCopy{a}, tm_->at(a), "cpy"); }

  // -------------------------------------------------------------- scopes ---
  using BodyFn = std::function<std::vector<Atom>(Builder&)>;
  using LamFn = std::function<std::vector<Atom>(Builder&, const std::vector<Var>&)>;
  using LoopFn = std::function<std::vector<Atom>(Builder&, Var, const std::vector<Var>&)>;

  Body make_body(const BodyFn& fn) {
    Builder c(*mod_, *tm_);
    std::vector<Atom> res = fn(c);
    return Body{c.take_stms(), std::move(res)};
  }

  LambdaPtr lam(const std::vector<Type>& param_types, const LamFn& fn,
                std::string_view nm = "p") {
    Lambda l;
    std::vector<Var> ps;
    for (const auto& t : param_types) {
      Var v = mod_->fresh(nm);
      tm_->bind(v, t);
      l.params.push_back(Param{v, t});
      ps.push_back(v);
    }
    Builder c(*mod_, *tm_);
    std::vector<Atom> res = fn(c, ps);
    l.body = Body{c.take_stms(), res};
    for (const auto& a : res) l.rets.push_back(tm_->at(a));
    return make_lambda(std::move(l));
  }

  // Binary scalar operator lambdas for reduce/scan.
  LambdaPtr binop_lam(BinOp op, Type t = f64()) {
    return lam({t, t}, [&](Builder& c, const std::vector<Var>& p) {
      return std::vector<Atom>{c.bin(op, p[0], p[1])};
    });
  }
  LambdaPtr add_op(Type t = f64()) { return binop_lam(BinOp::Add, t); }
  LambdaPtr mul_op(Type t = f64()) { return binop_lam(BinOp::Mul, t); }
  LambdaPtr min_op(Type t = f64()) { return binop_lam(BinOp::Min, t); }
  LambdaPtr max_op(Type t = f64()) { return binop_lam(BinOp::Max, t); }

  std::vector<Var> if_(Atom c, const BodyFn& then_fn, const BodyFn& else_fn,
                       std::string_view nm = "if") {
    Body tb = make_body(then_fn);
    Body fb = make_body(else_fn);
    std::vector<Type> rets;
    for (const auto& a : tb.result) rets.push_back(tm_->at(a));
    return emit_multi(OpIf{c, ir::make_body(std::move(tb)), ir::make_body(std::move(fb))},
                      rets, nm);
  }

  Var if1(Atom c, const BodyFn& then_fn, const BodyFn& else_fn, std::string_view nm = "if") {
    return if_(c, then_fn, else_fn, nm)[0];
  }

  // loop (params) = (inits) for i < count do body
  std::vector<Var> loop_for(const std::vector<Atom>& inits, Atom count, const LoopFn& fn,
                            int stripmine = 0, bool checkpoint_entry = false) {
    OpLoop lp;
    std::vector<Var> ps;
    std::vector<Type> rets;
    for (const auto& a : inits) {
      Type t = tm_->at(a);
      Var v = mod_->fresh("x");
      tm_->bind(v, t);
      lp.params.push_back(Param{v, t});
      ps.push_back(v);
      rets.push_back(t);
    }
    lp.init = inits;
    lp.idx = mod_->fresh("i");
    tm_->bind(lp.idx, i64());
    lp.count = count;
    lp.stripmine = stripmine;
    lp.checkpoint_entry = checkpoint_entry;
    Builder c(*mod_, *tm_);
    std::vector<Atom> res = fn(c, lp.idx, ps);
    lp.body = ir::make_body(Body{c.take_stms(), std::move(res)});
    return emit_multi(std::move(lp), rets, "loop");
  }

  // loop (params) = (inits) while cond(params) do body
  std::vector<Var> loop_while(const std::vector<Atom>& inits, const LamFn& cond_fn,
                              const LoopFn& fn, std::optional<Atom> bound = std::nullopt) {
    OpLoop lp;
    std::vector<Var> ps;
    std::vector<Type> rets, ptypes;
    for (const auto& a : inits) {
      Type t = tm_->at(a);
      Var v = mod_->fresh("x");
      tm_->bind(v, t);
      lp.params.push_back(Param{v, t});
      ps.push_back(v);
      rets.push_back(t);
      ptypes.push_back(t);
    }
    lp.init = inits;
    lp.while_cond = lam(ptypes, cond_fn, "w");
    lp.while_bound = bound;
    Builder c(*mod_, *tm_);
    std::vector<Atom> res = fn(c, Var{}, ps);
    lp.body = ir::make_body(Body{c.take_stms(), std::move(res)});
    return emit_multi(std::move(lp), rets, "loop");
  }

  // --------------------------------------------------------------- SOACs ---
  std::vector<Var> map(LambdaPtr f, const std::vector<Var>& args, std::string_view nm = "xs") {
    std::vector<Type> rets;
    for (const auto& t : f->rets) rets.push_back(t.is_acc ? t : lift(t));
    return emit_multi(OpMap{std::move(f), args}, rets, nm);
  }

  Var map1(LambdaPtr f, const std::vector<Var>& args, std::string_view nm = "xs") {
    return map(std::move(f), args, nm)[0];
  }

  std::vector<Var> reduce(LambdaPtr op, const std::vector<Atom>& ne,
                          const std::vector<Var>& args, std::string_view nm = "red") {
    std::vector<Type> rets = op->rets;
    return emit_multi(OpReduce{std::move(op), ne, args, nullptr, 0}, rets, nm);
  }

  Var reduce1(LambdaPtr op, Atom ne, const std::vector<Var>& args, std::string_view nm = "red") {
    return reduce(std::move(op), {ne}, args, nm)[0];
  }

  std::vector<Var> scan(LambdaPtr op, const std::vector<Atom>& ne, const std::vector<Var>& args,
                        std::string_view nm = "scan") {
    std::vector<Type> rets;
    for (const auto& t : op->rets) rets.push_back(lift(t));
    return emit_multi(OpScan{std::move(op), ne, args}, rets, nm);
  }

  Var scan1(LambdaPtr op, Atom ne, const std::vector<Var>& args, std::string_view nm = "scan") {
    return scan(std::move(op), {ne}, args, nm)[0];
  }

  Var hist(LambdaPtr op, Atom ne, Var dest, Var inds, Var vals) {
    return emit(OpHist{std::move(op), ne, dest, inds, vals}, tm_->at(dest), "hist");
  }

  Var scatter(Var dest, Var inds, Var vals) {
    return emit(OpScatter{dest, inds, vals}, tm_->at(dest), "scat");
  }

  // withacc arrs f — f's builder receives accumulator-typed params; its
  // results must start with the accumulators. Returns the underlying arrays
  // followed by any extra results.
  std::vector<Var> withacc(const std::vector<Var>& arrs, const LamFn& fn,
                           std::string_view nm = "wa") {
    std::vector<Type> ptypes;
    for (Var a : arrs) ptypes.push_back(acc_of(tm_->at(a)));
    LambdaPtr f = lam(ptypes, fn, "acc");
    std::vector<Type> rets;
    for (size_t i = 0; i < f->rets.size(); ++i) {
      Type t = f->rets[i];
      rets.push_back(i < arrs.size() ? Type{t.elem, t.rank, false} : t);
    }
    return emit_multi(OpWithAcc{arrs, std::move(f)}, rets, nm);
  }

  // gather xs is = map (\i -> xs[i]) is            (derived form, §5.3)
  Var gather(Var xs, Var is, std::string_view nm = "gath") {
    LambdaPtr f = lam({i64()}, [&](Builder& c, const std::vector<Var>& p) {
      return std::vector<Atom>{c.index(xs, {Atom(p[0])})};
    });
    return map1(std::move(f), {is}, nm);
  }

private:
  static bool is_cmp(BinOp op) {
    return op == BinOp::Eq || op == BinOp::Ne || op == BinOp::Lt || op == BinOp::Le ||
           op == BinOp::Gt || op == BinOp::Ge;
  }

  Type result_type(BinOp op, const Atom& a, const Atom& b) const {
    if (is_cmp(op)) return boolean();
    if (op == BinOp::And || op == BinOp::Or) return boolean();
    Type ta = tm_->at(a), tb = tm_->at(b);
    (void)tb;
    assert(ta.elem == tb.elem && ta.rank == 0 && tb.rank == 0);
    return ta;
  }

  Module* mod_;
  TypeMap* tm_;
  std::vector<Stm> stms_;
};

// Builds a whole program (module + entry function).
class ProgBuilder {
public:
  explicit ProgBuilder(std::string name)
      : mod_(std::make_shared<Module>()), fn_name_(std::move(name)), b_(*mod_, tm_) {}

  Var param(std::string_view nm, Type t) {
    Var v = mod_->fresh(nm);
    tm_.bind(v, t);
    params_.push_back(Param{v, t});
    return v;
  }

  Builder& body() { return b_; }
  TypeMap& types() { return tm_; }
  Module& module() { return *mod_; }

  Prog finish(const std::vector<Atom>& results) {
    Function f;
    f.name = fn_name_;
    f.params = params_;
    for (const auto& a : results) f.rets.push_back(tm_.at(a));
    f.body = Body{b_.take_stms(), results};
    return Prog{mod_, std::move(f)};
  }

private:
  std::shared_ptr<Module> mod_;
  TypeMap tm_;
  std::string fn_name_;
  std::vector<Param> params_;
  Builder b_;
};

} // namespace npad::ir
