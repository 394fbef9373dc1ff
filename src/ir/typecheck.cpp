#include "ir/typecheck.hpp"

#include <sstream>
#include <unordered_map>

#include "ir/print.hpp"
#include "ir/visit.hpp"

namespace npad::ir {

namespace {

class Checker {
public:
  explicit Checker(const Module& m) : mod_(m) {}

  using Scope = std::unordered_map<uint32_t, Type>;

  [[noreturn]] void fail(const std::string& msg) const { throw TypeError("typecheck: " + msg); }

  Type at(const Scope& sc, Var v) const {
    auto it = sc.find(v.id);
    if (it == sc.end()) fail("variable not in scope: " + mod_.name(v) + "_" + std::to_string(v.id));
    return it->second;
  }

  Type at(const Scope& sc, const Atom& a) const {
    if (a.is_const()) return Type{a.cval().t, 0, false};
    return at(sc, a.var());
  }

  void expect(bool cond, const std::string& msg) const {
    if (!cond) fail(msg);
  }

  void expect_scalar(const Scope& sc, const Atom& a, ScalarType st, const char* what) const {
    Type t = at(sc, a);
    expect(t.rank == 0 && !t.is_acc && t.elem == st, std::string(what) + ": wrong scalar type");
  }

  std::vector<Type> exp_types(const Scope& sc, const Exp& e) {
    return std::visit(
        Overload{
            [&](const OpAtom& o) -> std::vector<Type> { return {at(sc, o.a)}; },
            [&](const OpBin& o) -> std::vector<Type> {
              Type ta = at(sc, o.a), tb = at(sc, o.b);
              expect(ta.rank == 0 && tb.rank == 0, "binop on non-scalars");
              expect(ta.elem == tb.elem, "binop operand dtype mismatch");
              switch (o.op) {
                case BinOp::Eq: case BinOp::Ne: case BinOp::Lt: case BinOp::Le:
                case BinOp::Gt: case BinOp::Ge:
                  return {boolean()};
                case BinOp::And: case BinOp::Or:
                  expect(ta.elem == ScalarType::Bool, "logic op on non-bool");
                  return {boolean()};
                case BinOp::Mod:
                  expect(ta.elem == ScalarType::I64, "mod on non-int");
                  return {ta};
                default:
                  expect(ta.elem != ScalarType::Bool, "arith on bool");
                  return {ta};
              }
            },
            [&](const OpUn& o) -> std::vector<Type> {
              Type ta = at(sc, o.a);
              expect(ta.rank == 0, "unop on non-scalar");
              switch (o.op) {
                case UnOp::Not:
                  expect(ta.elem == ScalarType::Bool, "not on non-bool");
                  return {boolean()};
                case UnOp::ToF64: return {f64()};
                case UnOp::ToI64: return {i64()};
                case UnOp::Neg: case UnOp::Abs: case UnOp::Sign:
                  return {ta};
                default:
                  expect(ta.elem == ScalarType::F64, "transcendental on non-f64");
                  return {f64()};
              }
            },
            [&](const OpSelect& o) -> std::vector<Type> {
              expect_scalar(sc, o.c, ScalarType::Bool, "select cond");
              Type tt = at(sc, o.t), tf = at(sc, o.f);
              expect(tt == tf, "select branches type mismatch");
              return {tt};
            },
            [&](const OpIndex& o) -> std::vector<Type> {
              Type ta = at(sc, o.arr);
              expect(!ta.is_acc, "index into accumulator");
              expect(static_cast<int>(o.idx.size()) <= ta.rank, "index rank overflow");
              for (const auto& i : o.idx) expect_scalar(sc, i, ScalarType::I64, "index");
              return {Type{ta.elem, ta.rank - static_cast<int>(o.idx.size()), false}};
            },
            [&](const OpUpdate& o) -> std::vector<Type> {
              Type ta = at(sc, o.arr);
              expect(!ta.is_acc, "update on accumulator");
              for (const auto& i : o.idx) expect_scalar(sc, i, ScalarType::I64, "update index");
              Type tv = at(sc, o.v);
              expect(tv.elem == ta.elem &&
                         tv.rank == ta.rank - static_cast<int>(o.idx.size()),
                     "update value shape mismatch");
              return {ta};
            },
            [&](const OpUpdAcc& o) -> std::vector<Type> {
              Type ta = at(sc, o.acc);
              expect(ta.is_acc, "upd_acc on non-accumulator");
              for (const auto& i : o.idx) expect_scalar(sc, i, ScalarType::I64, "upd_acc index");
              Type tv = at(sc, o.v);
              expect(tv.elem == ta.elem &&
                         tv.rank == ta.rank - static_cast<int>(o.idx.size()),
                     "upd_acc value shape mismatch");
              return {ta};
            },
            [&](const OpIota& o) -> std::vector<Type> {
              expect_scalar(sc, o.n, ScalarType::I64, "iota count");
              return {arr(ScalarType::I64, 1)};
            },
            [&](const OpReplicate& o) -> std::vector<Type> {
              expect_scalar(sc, o.n, ScalarType::I64, "replicate count");
              Type tv = at(sc, o.v);
              expect(!tv.is_acc, "replicate of accumulator");
              return {lift(tv)};
            },
            [&](const OpZerosLike& o) -> std::vector<Type> {
              Type t = at(sc, o.v);
              return {Type{t.elem, t.rank, false}};
            },
            [&](const OpScratch& o) -> std::vector<Type> {
              expect_scalar(sc, o.n, ScalarType::I64, "scratch count");
              return {lift(at(sc, o.like))};
            },
            [&](const OpLength& o) -> std::vector<Type> {
              expect(at(sc, o.arr).rank >= 1, "length of scalar");
              return {i64()};
            },
            [&](const OpReverse& o) -> std::vector<Type> {
              Type t = at(sc, o.arr);
              expect(t.rank >= 1 && !t.is_acc, "reverse of non-array");
              return {t};
            },
            [&](const OpTranspose& o) -> std::vector<Type> {
              Type t = at(sc, o.arr);
              expect(t.rank >= 2 && !t.is_acc, "transpose needs rank >= 2");
              return {t};
            },
            [&](const OpCopy& o) -> std::vector<Type> {
              Type t = at(sc, o.v);
              expect(!t.is_acc, "copy of accumulator");
              return {t};
            },
            [&](const OpIf& o) -> std::vector<Type> {
              expect_scalar(sc, o.c, ScalarType::Bool, "if cond");
              auto tt = body_types(sc, *o.tb);
              auto ft = body_types(sc, *o.fb);
              expect(tt == ft, "if branch result types differ");
              return tt;
            },
            [&](const OpLoop& o) -> std::vector<Type> {
              expect(o.params.size() == o.init.size(), "loop arity mismatch");
              Scope inner = sc;
              std::vector<Type> rets;
              for (size_t i = 0; i < o.params.size(); ++i) {
                expect(at(sc, o.init[i]) == o.params[i].type, "loop init type mismatch");
                inner[o.params[i].var.id] = o.params[i].type;
                rets.push_back(o.params[i].type);
              }
              if (o.while_cond) {
                Scope csc = sc;
                expect(o.while_cond->params.size() == o.params.size(),
                       "while cond arity mismatch");
                for (size_t i = 0; i < o.params.size(); ++i)
                  csc[o.while_cond->params[i].var.id] = o.params[i].type;
                auto ct = body_types(csc, o.while_cond->body);
                expect(ct.size() == 1 && ct[0] == boolean(), "while cond must yield bool");
              } else {
                expect_scalar(sc, o.count, ScalarType::I64, "loop count");
                inner[o.idx.id] = i64();
              }
              auto bt = body_types(inner, *o.body);
              expect(bt == rets, "loop body result types mismatch params");
              return rets;
            },
            [&](const OpMap& o) -> std::vector<Type> {
              expect(o.f && o.f->params.size() == o.args.size(), "map arity mismatch");
              Scope inner = sc;
              bool has_arr = false;
              for (size_t i = 0; i < o.args.size(); ++i) {
                Type ta = at(sc, o.args[i]);
                Type pt = o.f->params[i].type;
                if (ta.is_acc) {
                  expect(pt == ta, "map acc param type mismatch");
                } else {
                  expect(ta.rank >= 1, "map over scalar");
                  expect(pt == elem_of(ta), "map param type mismatch");
                  has_arr = true;
                }
                inner[o.f->params[i].var.id] = pt;
              }
              expect(has_arr, "map needs at least one array argument");
              auto bt = body_types(inner, o.f->body);
              std::vector<Type> rets;
              for (auto& t : bt) rets.push_back(t.is_acc ? t : lift(t));
              return rets;
            },
            [&](const OpReduce& o) -> std::vector<Type> {
              return red_scan(sc, o.op, o.pre, o.neutral, o.args, false);
            },
            [&](const OpScan& o) -> std::vector<Type> {
              return red_scan(sc, o.op, nullptr, o.neutral, o.args, true);
            },
            [&](const OpHist& o) -> std::vector<Type> {
              Type td = at(sc, o.dest), ti = at(sc, o.inds), tv = at(sc, o.vals);
              expect(td.rank >= 1 && !td.is_acc, "hist dest must be array");
              expect(ti.rank == 1 && ti.elem == ScalarType::I64, "hist inds must be []i64");
              expect(o.op && o.op->params.size() == 2, "hist op must be binary");
              Type et = elem_of(td);
              expect(tv.rank == td.rank && tv.elem == td.elem, "hist vals type mismatch");
              expect(o.op->params[0].type == et && o.op->params[1].type == et,
                     "hist op param type mismatch");
              Scope inner = sc;
              for (auto& p : o.op->params) inner[p.var.id] = p.type;
              auto bt = body_types(inner, o.op->body);
              expect(bt.size() == 1 && bt[0] == et, "hist op result type mismatch");
              expect(at(sc, o.neutral) == et || et.rank > 0, "hist neutral type mismatch");
              return {td};
            },
            [&](const OpScatter& o) -> std::vector<Type> {
              Type td = at(sc, o.dest), ti = at(sc, o.inds), tv = at(sc, o.vals);
              expect(td.rank >= 1 && !td.is_acc, "scatter dest must be array");
              expect(ti.rank == 1 && ti.elem == ScalarType::I64, "scatter inds must be []i64");
              expect(tv.rank == td.rank && tv.elem == td.elem, "scatter vals type mismatch");
              return {td};
            },
            [&](const OpWithAcc& o) -> std::vector<Type> {
              expect(o.f && o.f->params.size() == o.arrs.size(), "withacc arity mismatch");
              Scope inner = sc;
              for (size_t i = 0; i < o.arrs.size(); ++i) {
                Type ta = at(sc, o.arrs[i]);
                expect(!ta.is_acc, "withacc over accumulator");
                expect(o.f->params[i].type == acc_of(ta), "withacc param must be acc");
                inner[o.f->params[i].var.id] = acc_of(ta);
              }
              auto bt = body_types(inner, o.f->body);
              expect(bt.size() >= o.arrs.size(), "withacc must return its accumulators");
              std::vector<Type> rets;
              for (size_t i = 0; i < bt.size(); ++i) {
                if (i < o.arrs.size()) {
                  expect(bt[i].is_acc, "withacc result must start with accumulators");
                  rets.push_back(Type{bt[i].elem, bt[i].rank, false});
                } else {
                  rets.push_back(bt[i]);
                }
              }
              return rets;
            },
        },
        e);
  }

  // Plain form: k args feed a 2k-ary fold directly. Redomap form (`pre`
  // set, reduce only): args match pre's params element-wise and pre's k'
  // results feed a 2k'-ary fold — the fold element types come from pre's
  // return types, not from the args.
  std::vector<Type> red_scan(const Scope& sc, const LambdaPtr& op, const LambdaPtr& pre,
                             const std::vector<Atom>& neutral, const std::vector<Var>& args,
                             bool is_scan) {
    std::vector<Type> elems;  // fold element types (= pre rets or arg elems)
    if (pre) {
      expect(pre->params.size() == args.size(), "redomap pre arity mismatch");
      Scope psc = sc;
      for (size_t i = 0; i < args.size(); ++i) {
        Type ta = at(sc, args[i]);
        expect(ta.rank >= 1 && !ta.is_acc, "reduce/scan arg must be array");
        expect(pre->params[i].type == elem_of(ta), "redomap pre param type mismatch");
        psc[pre->params[i].var.id] = pre->params[i].type;
      }
      elems = body_types(psc, pre->body);
      for (const auto& t : elems) expect(!t.is_acc, "redomap pre must not yield accumulators");
    } else {
      for (size_t i = 0; i < args.size(); ++i) {
        Type ta = at(sc, args[i]);
        expect(ta.rank >= 1 && !ta.is_acc, "reduce/scan arg must be array");
        elems.push_back(elem_of(ta));
      }
    }
    const size_t k = elems.size();
    expect(op && op->params.size() == 2 * k, "reduce/scan op arity must be 2k");
    expect(neutral.size() == k, "reduce/scan neutral arity mismatch");
    Scope inner = sc;
    for (size_t i = 0; i < k; ++i) {
      Type et = elems[i];
      expect(op->params[i].type == et && op->params[k + i].type == et,
             "reduce/scan op param type mismatch");
      expect(at(sc, neutral[i]) == et, "reduce/scan neutral type mismatch");
      inner[op->params[i].var.id] = et;
      inner[op->params[k + i].var.id] = et;
    }
    auto bt = body_types(inner, op->body);
    expect(bt.size() == k, "reduce/scan op must return k values");
    std::vector<Type> rets;
    for (size_t i = 0; i < k; ++i) {
      expect(bt[i] == elems[i], "reduce/scan op result type mismatch");
      rets.push_back(is_scan ? lift(bt[i]) : bt[i]);
    }
    return rets;
  }

  std::vector<Type> body_types(Scope sc, const Body& b) {
    for (const auto& s : b.stms) {
      auto ts = exp_types(sc, s.e);
      expect(ts.size() == s.vars.size(), "statement arity mismatch");
      for (size_t i = 0; i < ts.size(); ++i) {
        expect(ts[i] == s.types[i], "statement declared type mismatch for " +
                                        mod_.name(s.vars[i]) + "_" + std::to_string(s.vars[i].id) +
                                        ": declared " + to_string(s.types[i]) + " vs computed " +
                                        to_string(ts[i]));
        sc[s.vars[i].id] = ts[i];
      }
    }
    std::vector<Type> rts;
    for (const auto& a : b.result) rts.push_back(at(sc, a));
    return rts;
  }

private:
  const Module& mod_;
};

} // namespace

void typecheck(const Prog& p) {
  Checker c(*p.mod);
  Checker::Scope sc;
  for (const auto& pr : p.fn.params) sc[pr.var.id] = pr.type;
  auto rts = c.body_types(sc, p.fn.body);
  if (rts != p.fn.rets) c.fail("function result types mismatch declaration");
}

} // namespace npad::ir
