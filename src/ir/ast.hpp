#pragma once

// The npad intermediate representation: a purely functional, A-normal-form
// array language with second-order array combinators (SOACs), sequential
// loops, and accumulators — the language of Section 2.1 of the paper.
//
// Statements bind typed variables; all operands are atoms (variable or
// constant). Nested bodies (if branches, loop bodies, SOAC lambdas) are held
// by shared_ptr<const ...> so program transformations can share untouched
// subtrees. Re-binding a variable id in a nested scope is shadowing, exactly
// as the paper treats re-definitions.

#include <cassert>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace npad::ir {

// ---------------------------------------------------------------- types ----

enum class ScalarType : uint8_t { F64, I64, Bool };

// Ranks, not symbolic shapes: the type system tracks element type, rank and
// accumulator-ness; concrete extents live on runtime values (docs/ARCHITECTURE.md
// § Substitutions and deviations from the paper).
struct Type {
  ScalarType elem = ScalarType::F64;
  int rank = 0;
  bool is_acc = false;

  bool operator==(const Type&) const = default;
  bool is_scalar() const { return rank == 0 && !is_acc; }
  bool is_float() const { return elem == ScalarType::F64; }
};

inline Type f64() { return Type{ScalarType::F64, 0, false}; }
inline Type i64() { return Type{ScalarType::I64, 0, false}; }
inline Type boolean() { return Type{ScalarType::Bool, 0, false}; }
inline Type arr(ScalarType e, int rank) { return Type{e, rank, false}; }
inline Type arr_f64(int rank) { return Type{ScalarType::F64, rank, false}; }
inline Type acc_of(Type t) { return Type{t.elem, t.rank, true}; }
inline Type elem_of(Type t) {
  assert(t.rank > 0);
  return Type{t.elem, t.rank - 1, false};
}
inline Type lift(Type t) { return Type{t.elem, t.rank + 1, t.is_acc}; }

// ------------------------------------------------------------- vars/atoms --

struct Var {
  uint32_t id = UINT32_MAX;
  bool valid() const { return id != UINT32_MAX; }
  bool operator==(const Var&) const = default;
};

struct ConstVal {
  ScalarType t = ScalarType::F64;
  double f = 0.0;  // payload for F64
  int64_t i = 0;   // payload for I64 and Bool (0/1)

  static ConstVal of_f64(double v) { return {ScalarType::F64, v, 0}; }
  static ConstVal of_i64(int64_t v) { return {ScalarType::I64, 0.0, v}; }
  static ConstVal of_bool(bool v) { return {ScalarType::Bool, 0.0, v ? 1 : 0}; }
  bool operator==(const ConstVal&) const = default;
};

struct Atom {
  std::variant<Var, ConstVal> v;

  Atom() : v(Var{}) {}
  Atom(Var x) : v(x) {}                 // NOLINT(google-explicit-constructor)
  Atom(ConstVal c) : v(c) {}            // NOLINT(google-explicit-constructor)

  bool is_var() const { return std::holds_alternative<Var>(v); }
  bool is_const() const { return std::holds_alternative<ConstVal>(v); }
  Var var() const { return std::get<Var>(v); }
  const ConstVal& cval() const { return std::get<ConstVal>(v); }
  bool operator==(const Atom&) const = default;
};

inline Atom cf64(double v) { return Atom(ConstVal::of_f64(v)); }
inline Atom ci64(int64_t v) { return Atom(ConstVal::of_i64(v)); }
inline Atom cbool(bool v) { return Atom(ConstVal::of_bool(v)); }

// ------------------------------------------------------------ operations ---

enum class BinOp : uint8_t {
  Add, Sub, Mul, Div, Pow, Min, Max,   // arithmetic (F64 or I64)
  Mod,                                 // I64 only
  Eq, Ne, Lt, Le, Gt, Ge,              // comparisons -> Bool
  And, Or                              // Bool
};

enum class UnOp : uint8_t {
  Neg, Exp, Log, Sqrt, Sin, Cos, Tanh, Abs, Sign,
  LGamma, Digamma,
  Not,          // Bool
  ToF64, ToI64  // casts
};

// ------------------------------------------------------------- structure ---

struct Body;
struct Lambda;
using BodyPtr = std::shared_ptr<const Body>;
using LambdaPtr = std::shared_ptr<const Lambda>;

struct Param {
  Var var;
  Type type;
};

// --- scalar / simple statements ---
struct OpAtom { Atom a; };                                    // copy / rename
struct OpBin { BinOp op; Atom a, b; };
struct OpUn { UnOp op; Atom a; };
struct OpSelect { Atom c, t, f; };                            // scalar select

// --- array access ---
struct OpIndex { Var arr; std::vector<Atom> idx; };           // prefix indexing
struct OpUpdate { Var arr; std::vector<Atom> idx; Atom v; };  // in-place write (consumes arr)
struct OpUpdAcc { Var acc; std::vector<Atom> idx; Atom v; };  // acc[idx] += v; returns acc

// --- array construction / shape ---
struct OpIota { Atom n; };                                    // [0..n-1] : i64
struct OpReplicate { Atom n; Atom v; };                       // n copies of v
struct OpZerosLike { Var v; };                                // zeros, same shape as v
struct OpScratch { Atom n; Var like; };                       // uninit [n] ++ shape(like)
struct OpLength { Var arr; };                                 // outer extent : i64
struct OpReverse { Var arr; };
struct OpTranspose { Var arr; };                              // swap dims 0 and 1
struct OpCopy { Var v; };                                     // deep copy

// --- control flow ---
struct OpIf { Atom c; BodyPtr tb, fb; };

// A sequential loop with loop-variant parameters (tail-recursive semantics,
// Section 2.1). When `while_cond` is set the loop is a while-loop over the
// parameters; otherwise it is a for-loop running `count` iterations with the
// iteration index bound to `idx`. Annotations drive the Section 4.3 / 6.2
// transformations.
struct OpLoop {
  std::vector<Param> params;
  std::vector<Atom> init;
  Var idx;                              // valid for for-loops
  Atom count;                           // for-loop trip count (i64)
  LambdaPtr while_cond;                 // params -> Bool (while form)
  BodyPtr body;                         // yields new values of params
  int stripmine = 0;                    // §4.3: strip-mine factor annotation
  bool checkpoint_entry = false;        // §6.2: no-false-deps annotation
  std::optional<Atom> while_bound;      // §6.2: user iteration bound for while

  // Runtime annotation: index into the owning ResolvedProg's activation table
  // (runtime/resolve.hpp). Written once during slot resolution on a privately
  // owned clone; never meaningful on user-built programs.
  mutable uint32_t activation_id = UINT32_MAX;
};

// --- SOACs ---
// map f xs1..xsk: accumulator-typed args are threaded whole (not indexed) and
// accumulator-typed lambda results collapse back to a single accumulator —
// the paper's "implicit conversion between accumulators and arrays of
// accumulators" (§5.4).
struct OpMap {
  LambdaPtr f;
  std::vector<Var> args;
  // Annotation written by opt::fuse_maps: number of producer maps folded into
  // this one (0 for unfused maps). Not part of the structural signature; the
  // runtime adds it to InterpStats::fused_maps per launch. The rewrite
  // passes descend through ir::map_nested, which copies it along; only the
  // op-specific rebuilders must carry it by hand (see "Adding a field or
  // scope to an op" in src/opt/README.md).
  uint32_t fused = 0;
};
// reduce op ne xs1..xsk, optionally in *redomap* form: when `pre` is set
// the element-wise pre-lambda maps the elements of `args` (its params match
// args positionally) and its results feed the fold operator — the paper's
// map-fused reduction, produced by opt::fuse_maps folding producer maps into
// reduce consumers so the intermediate array never exists. Redomap is the
// only fused form: scan and hist consumers are left unfused.
// Invariants (ir/typecheck.cpp): op has 2k params for k fold results; with
// pre, args.size() == pre->params.size() and pre->rets.size() == k;
// without pre, args.size() == k.
// `fused` mirrors OpMap::fused: number of producer maps folded in, not part
// of the structural signature; the runtime adds it to
// InterpStats::fused_reduces per launch. Both fields are carried like
// OpMap::fused.
struct OpReduce {
  LambdaPtr op;
  std::vector<Atom> neutral;
  std::vector<Var> args;
  LambdaPtr pre;      // optional redomap pre-lambda
  uint32_t fused = 0;
};
// scan op ne xs1..xsk: inclusive scan; op has 2k params and args.size() == k.
struct OpScan {
  LambdaPtr op;
  std::vector<Atom> neutral;
  std::vector<Var> args;
};
// reduce_by_index dest op ne inds vals (§5.1.2); out-of-range bins ignored.
struct OpHist {
  LambdaPtr op;
  Atom neutral;
  Var dest;
  Var inds;
  Var vals;
};
// scatter dest inds vals (§5.3); duplicate indices unsupported (as paper).
struct OpScatter { Var dest; Var inds; Var vals; };
// withacc arrs f: temporarily turns arrs into write-only accumulators (§5.4).
// f receives one acc per array and must return them (plus optional extras).
struct OpWithAcc { std::vector<Var> arrs; LambdaPtr f; };

using Exp = std::variant<
    OpAtom, OpBin, OpUn, OpSelect,
    OpIndex, OpUpdate, OpUpdAcc,
    OpIota, OpReplicate, OpZerosLike, OpScratch, OpLength,
    OpReverse, OpTranspose, OpCopy,
    OpIf, OpLoop,
    OpMap, OpReduce, OpScan, OpHist, OpScatter, OpWithAcc>;

// A statement binds one or more typed variables to the results of one Exp.
struct Stm {
  std::vector<Var> vars;
  std::vector<Type> types;
  Exp e;
};

inline Stm stm1(Var v, Type t, Exp e) { return Stm{{v}, {t}, std::move(e)}; }

struct Body {
  std::vector<Stm> stms;
  std::vector<Atom> result;
};

struct Lambda {
  std::vector<Param> params;
  Body body;
  std::vector<Type> rets;

  // Runtime annotation (see OpLoop::activation_id).
  mutable uint32_t activation_id = UINT32_MAX;
};

struct Function {
  std::string name;
  std::vector<Param> params;
  std::vector<Type> rets;
  Body body;
};

// ---------------------------------------------------------------- module ---

// Owns the variable name table; passes allocate fresh variables through it.
class Module {
public:
  Var fresh(std::string_view base) {
    names_.emplace_back(base);
    return Var{static_cast<uint32_t>(names_.size() - 1)};
  }

  const std::string& name(Var v) const {
    static const std::string invalid = "<invalid>";
    return v.valid() && v.id < names_.size() ? names_[v.id] : invalid;
  }

  size_t num_vars() const { return names_.size(); }

private:
  std::vector<std::string> names_;
};

// A program: one entry function plus the module that owns its names.
struct Prog {
  std::shared_ptr<Module> mod;
  Function fn;
};

// ------------------------------------------------------------ small utils --

inline BodyPtr make_body(Body b) { return std::make_shared<const Body>(std::move(b)); }
inline LambdaPtr make_lambda(Lambda l) { return std::make_shared<const Lambda>(std::move(l)); }

// Number of values an Exp produces is determined by the binding statement;
// these helpers compute result types where derivable (used by the builder).

template <class... Ts>
struct Overload : Ts... {
  using Ts::operator()...;
};
template <class... Ts>
Overload(Ts...) -> Overload<Ts...>;

} // namespace npad::ir

// Hash support for Var keys in unordered containers.
template <>
struct std::hash<npad::ir::Var> {
  size_t operator()(const npad::ir::Var& v) const noexcept { return std::hash<uint32_t>{}(v.id); }
};
