#pragma once

// Syntactic pattern recognizers used by the runtime fast paths and by the
// specialized vjp rules of Section 5.1 (plus, multiplication, min/max) and
// the vectorized-operator scan rule of Section 5.2.

#include <optional>

#include "ir/analysis.hpp"
#include "ir/ast.hpp"

namespace npad::ir {

// Recognizes \a b -> a `op` b over scalars.
inline std::optional<BinOp> recognize_binop(const Lambda& l) {
  if (l.params.size() != 2 || l.body.stms.size() != 1 || l.body.result.size() != 1) {
    return std::nullopt;
  }
  const auto* bin = std::get_if<OpBin>(&l.body.stms[0].e);
  if (bin == nullptr) return std::nullopt;
  const auto& res = l.body.result[0];
  if (!res.is_var() || !(res.var() == l.body.stms[0].vars[0])) return std::nullopt;
  if (!bin->a.is_var() || !bin->b.is_var()) return std::nullopt;
  if (!(bin->a.var() == l.params[0].var) || !(bin->b.var() == l.params[1].var)) {
    return std::nullopt;
  }
  return bin->op;
}

// Recognizes \xs ys -> map (\a b -> a `op` b) xs ys over rank-1 operands
// (the "vectorized operator" of §5.2).
inline std::optional<BinOp> recognize_vectorized_binop(const Lambda& l) {
  if (l.params.size() != 2 || l.body.stms.size() != 1 || l.body.result.size() != 1) {
    return std::nullopt;
  }
  if (l.params[0].type.rank != 1) return std::nullopt;
  const auto* mp = std::get_if<OpMap>(&l.body.stms[0].e);
  if (mp == nullptr || mp->args.size() != 2) return std::nullopt;
  if (!(mp->args[0] == l.params[0].var) || !(mp->args[1] == l.params[1].var)) {
    return std::nullopt;
  }
  const auto& res = l.body.result[0];
  if (!res.is_var() || !(res.var() == l.body.stms[0].vars[0])) return std::nullopt;
  return recognize_binop(*mp->f);
}

namespace detail {

// True when the body (at any nesting depth) performs accumulator side
// effects.
inline bool body_has_acc_effects(const Body& b);
inline bool exp_has_acc_effects(const Exp& e) {
  if (std::holds_alternative<OpUpdAcc>(e) || std::holds_alternative<OpWithAcc>(e)) return true;
  bool bad = false;
  for_each_nested(e, [&](const NestedScope& s) { bad = bad || body_has_acc_effects(*s.body); });
  return bad;
}
inline bool body_has_acc_effects(const Body& b) {
  for (const auto& st : b.stms) {
    if (exp_has_acc_effects(st.e)) return true;
  }
  return false;
}

} // namespace detail

// All params and results scalar (rank-0, non-acc): the shape the fusion
// pass gates reduce/scan/hist producers on.
inline bool lambda_scalar(const Lambda& l) {
  for (const auto& p : l.params) {
    if (p.type.rank != 0 || p.type.is_acc) return false;
  }
  for (const auto& t : l.rets) {
    if (t.rank != 0 || t.is_acc) return false;
  }
  return true;
}

// True when `e` (or any body nested inside it) performs accumulator updates
// or opens a withacc scope — observable buffer mutations that make a
// statement live even when it binds nothing (the vjp adjoint sweeps emit
// zero-result maps whose lambdas upd_acc free accumulators).
inline bool has_acc_effects(const Exp& e) { return detail::exp_has_acc_effects(e); }

inline bool is_commutative(BinOp op) {
  switch (op) {
    case BinOp::Add: case BinOp::Mul: case BinOp::Min: case BinOp::Max:
    case BinOp::And: case BinOp::Or: case BinOp::Eq: case BinOp::Ne:
      return true;
    default:
      return false;
  }
}

} // namespace npad::ir
