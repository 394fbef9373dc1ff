#include "runtime/interp.hpp"

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "ir/patterns.hpp"
#include "ir/visit.hpp"
#include "runtime/kernel.hpp"
#include "runtime/resolve.hpp"
#include "support/error.hpp"
#include "support/fault.hpp"
#include "support/thread_pool.hpp"

namespace npad::rt {

int default_max_eval_depth() {
  static const int depth = [] {
    if (const char* env = std::getenv("NPAD_MAX_EVAL_DEPTH")) {
      const int v = std::atoi(env);
      if (v > 0) return v;
    }
    return 512;
  }();
  return depth;
}

bool default_use_vexec() {
  static const bool on = [] {
    if (const char* env = std::getenv("NPAD_VEXEC")) {
      if (std::strcmp(env, "0") == 0) return false;
    }
    return true;
  }();
  return on;
}

namespace {
using namespace ir;
using support::FaultKind;

// Current lambda/loop-frame nesting depth on this thread, bounded by
// InterpOptions::max_eval_depth so runaway recursion surfaces as a typed
// ResourceError long before the C++ stack overflows. Thread-local because
// parallel workers evaluate lambda bodies concurrently.
thread_local int tl_eval_depth = 0;

struct EvalDepthGuard {
  explicit EvalDepthGuard(int limit) {
    if (++tl_eval_depth > limit && limit > 0) {
      --tl_eval_depth;  // ctor throws -> dtor never runs; rebalance here
      throw ResourceError("evaluation depth limit exceeded (NPAD_MAX_EVAL_DEPTH=" +
                          std::to_string(limit) + ")");
    }
  }
  ~EvalDepthGuard() { --tl_eval_depth; }
  EvalDepthGuard(const EvalDepthGuard&) = delete;
  EvalDepthGuard& operator=(const EvalDepthGuard&) = delete;
};

// Statement-kind tag for error context frames ("in map binding %ys_12").
const char* exp_kind(const Exp& e) {
  return std::visit(
      Overload{
          [](const OpAtom&) { return "atom"; }, [](const OpBin&) { return "binop"; },
          [](const OpUn&) { return "unop"; }, [](const OpSelect&) { return "select"; },
          [](const OpIndex&) { return "index"; }, [](const OpUpdate&) { return "update"; },
          [](const OpUpdAcc&) { return "upd_acc"; }, [](const OpIota&) { return "iota"; },
          [](const OpReplicate&) { return "replicate"; },
          [](const OpZerosLike&) { return "zeros_like"; },
          [](const OpScratch&) { return "scratch"; }, [](const OpLength&) { return "length"; },
          [](const OpReverse&) { return "reverse"; },
          [](const OpTranspose&) { return "transpose"; }, [](const OpCopy&) { return "copy"; },
          [](const OpIf&) { return "if"; }, [](const OpLoop&) { return "loop"; },
          [](const OpMap&) { return "map"; }, [](const OpReduce&) { return "reduce"; },
          [](const OpScan&) { return "scan"; }, [](const OpHist&) { return "hist"; },
          [](const OpScatter&) { return "scatter"; },
          [](const OpWithAcc&) { return "with_acc"; },
      },
      e);
}

// The recognized-binop fast paths of reduce, scan and hist share one combine
// helper (previously three copies of the same switch). Only the four
// operators with useful scalar identities are combinable; everything else
// goes through the kernel or general paths.
inline bool combinable_f64(BinOp op) {
  return op == BinOp::Add || op == BinOp::Mul || op == BinOp::Min || op == BinOp::Max;
}

inline double combine_f64(BinOp op, double a, double b) {
  switch (op) {
    case BinOp::Add: return a + b;
    case BinOp::Mul: return a * b;
    case BinOp::Min: return std::min(a, b);
    case BinOp::Max: return std::max(a, b);
    default: return a + b;  // unreachable for combinable_f64 operators
  }
}

// Atomic *p = combine(*p, v) for the combinable binops: Add lowers to the
// native fetch_add, the rest run a relaxed CAS loop. All four operators are
// commutative and associative, so concurrent updates in any interleaving
// converge to the same bins (float adds/muls regroup — tolerance, not
// bitwise; min/max are exact).
inline void atomic_combine_f64(BinOp op, double* p, double v) {
  std::atomic_ref<double> ref(*p);
  if (op == BinOp::Add) {
    ref.fetch_add(v, std::memory_order_relaxed);
    return;
  }
  double cur = ref.load(std::memory_order_relaxed);
  while (!ref.compare_exchange_weak(cur, combine_f64(op, cur, v),
                                    std::memory_order_relaxed)) {
  }
}

// A shared accumulator gets per-chunk private copies only when the launch
// issues at least this many updates into it (the general map path, which
// cannot count its lambda's updates, when it runs this many iterations).
// Below it updates stay atomic: contention is bounded anyway.
constexpr uint64_t kPrivatizeMinIters = 4096;

// The launch schedule every SOAC tier runs under (runtime/README.md,
// Scheduling): `n` elements run inline as one chunk, or fan out into
// `chunks` contiguous blocks of `per` elements, one pool task each.
struct Schedule {
  int64_t n = 0;
  int64_t chunks = 1;
  int64_t per = 0;
  bool nested = false;  // launched from inside a parallel region

  bool fanout() const { return chunks > 1; }
  Schedule one_chunk() const { return {n, 1, n, nested}; }
  // Chunk c's elements; a trailing chunk may be empty, never inverted.
  std::pair<int64_t, int64_t> range(int64_t c) const {
    const int64_t lo = std::min(n, c * per);
    return {lo, std::min(n, lo + per)};
  }
};

// The one merge order of per-chunk state: a pairwise tree, level by level,
// where part i absorbs part i + stride, so part 0 ends with every chunk
// combined in chunk order. The pairs of a level are independent: `parallel`
// runs them on the pool (whole private buffers), otherwise inline (partials
// of a few scalars).
template <class Merge>
void merge_tree(size_t parts, bool parallel, Merge&& merge) {
  for (size_t stride = 1; stride < parts; stride *= 2) {
    const auto pairs = static_cast<int64_t>((parts + 2 * stride - 1) / (2 * stride));
    const auto level = [&](int64_t lo, int64_t hi) {
      for (int64_t p = lo; p < hi; ++p) {
        const size_t i = static_cast<size_t>(p) * 2 * stride;
        if (i + stride < parts) merge(i, i + stride);
      }
    };
    if (parallel) {
      support::parallel_for(pairs, 1, level);
    } else {
      level(0, pairs);
    }
  }
}

// Slot-resolved environment: one flat frame per activation (function entry,
// lambda application, loop), chained by static links. Variable access is
// precomputed (level, slot) indexing — no hashing, no per-scope rehash churn
// (see runtime/resolve.hpp). Frames of enclosing activations are read-only
// while parallel workers build their own child frames.
class Env {
public:
  Env(const ResolvedProg& rp, uint32_t act)
      : parent_(nullptr),
        rp_(&rp),
        level_(rp.activations[act].level),
        slots_(rp.activations[act].num_slots) {}

  Env(const Env& parent, uint32_t act)
      : parent_(&parent),
        rp_(parent.rp_),
        level_(rp_->activations[act].level),
        slots_(rp_->activations[act].num_slots) {
    assert(level_ == parent.level_ + 1 && "activation entered from a non-lexical parent");
  }

  Env(const Env&) = delete;
  Env& operator=(const Env&) = delete;

  void bind(ir::Var v, Value val) {
    const SlotRef r = rp_->slots[v.id];
    assert(r.valid() && r.level == level_ && "binding outside its own activation");
    slots_[r.slot] = std::move(val);
  }

  const Value& lookup(ir::Var v) const {
    const SlotRef r = v.id < rp_->slots.size() ? rp_->slots[v.id] : SlotRef{};
    if (!r.valid() || r.level > level_) {
      throw TypeError("unbound variable %" + rp_->mod->name(v) + "_" + std::to_string(v.id));
    }
    const Env* e = this;
    while (e->level_ > r.level) e = e->parent_;
    return e->slots_[r.slot];
  }

  // Drops this frame's array and accumulator bindings, so that values the
  // caller still holds (a loop's carried arrays) are no longer shared with a
  // slot and can be updated in place.
  void release_arrays() {
    for (Value& v : slots_) {
      if (is_array(v) || is_acc(v)) v = Value{};
    }
  }

  // Binding names for error context frames ("%ys_12").
  std::string name_of(ir::Var v) const {
    return "%" + rp_->mod->name(v) + "_" + std::to_string(v.id);
  }

  // The program this frame runs: scalar-glue blocks and kernel slots.
  const ResolvedProg& prog() const { return *rp_; }

private:
  const Env* parent_;
  const ResolvedProg* rp_;
  uint32_t level_;
  std::vector<Value> slots_;
};

class EvalCtx {
public:
  explicit EvalCtx(const Interp& host)
      : opts_(host.options()), stats_(const_cast<InterpStats*>(&host.stats())) {}

  Value eval_atom(const Atom& a, const Env& env) const {
    if (a.is_var()) return env.lookup(a.var());
    const ConstVal& c = a.cval();
    switch (c.t) {
      case ScalarType::F64: return c.f;
      case ScalarType::I64: return c.i;
      case ScalarType::Bool: return c.i != 0;
    }
    return 0.0;
  }

  // Statements execute in the caller's frame: nested bodies (if branches) are
  // not activations — their bindings have dedicated slots in the enclosing
  // frame (binding ids are unique after alpha-renaming). `blocks` are the
  // body's scalar-glue blocks (runtime/resolve.hpp), run as single kernel
  // calls when kernels are on.
  std::vector<Value> eval_body(const Body& b, Env& env,
                               const std::vector<ScalarBlock>* blocks = nullptr) const {
    if (blocks == nullptr || blocks->empty() || !opts_.use_kernels) {
      for (const auto& st : b.stms) exec_stm(st, env);
    } else {
      auto next = blocks->begin();
      for (size_t i = 0; i < b.stms.size();) {
        if (next != blocks->end() && next->first == i) {
          run_scalar_block(*next, env);
          i += next->count;
          ++next;
        } else {
          exec_stm(b.stms[i++], env);
        }
      }
    }
    std::vector<Value> out;
    out.reserve(b.result.size());
    for (const auto& a : b.result) out.push_back(eval_atom(a, env));
    return out;
  }

  std::vector<Value> apply(const Lambda& f, std::vector<Value> args, const Env& captured) const {
    assert(args.size() == f.params.size());
    EvalDepthGuard depth_guard(opts_.max_eval_depth);
    Env env(captured, f.activation_id);
    for (size_t i = 0; i < args.size(); ++i) env.bind(f.params[i].var, std::move(args[i]));
    return eval_body(f.body, env);
  }

  void exec_stm(const Stm& st, Env& env) const {
    try {
      std::vector<Value> vals = eval_exp(st.e, env);
      assert(vals.size() == st.vars.size());
      for (size_t i = 0; i < vals.size(); ++i) env.bind(st.vars[i], std::move(vals[i]));
    } catch (npad::Error& err) {
      // Accumulate IR context as the unwind crosses this frame: the final
      // what() reads like a stack trace through the evaluated program.
      std::string frame = "in ";
      frame += exp_kind(st.e);
      if (!st.vars.empty()) frame += " binding " + env.name_of(st.vars[0]);
      err.add_context(std::move(frame));
      throw;
    }
  }

  // One extent-1 kernel call replaces the folded run of scalar bindings: no
  // eval_exp dispatch, no per-statement Value traffic for the operands. The
  // values are the scalar evaluator's, bit for bit. A free variable that
  // holds no scalar (an ill-typed program) raises as_f64's TypeError.
  void run_scalar_block(const ScalarBlock& blk, Env& env) const {
    const Kernel& k = blk.kernel;
    // Per thread, so the free-scalar and result buffers keep their capacity.
    thread_local KernelLaunch L;
    thread_local std::vector<double> outs;
    try {
      L.free_scalar_vals.clear();
      for (ir::Var v : k.free_scalars) L.free_scalar_vals.push_back(as_f64(env.lookup(v)));
      NPAD_FAULT_SITE("scalar.block", FaultKind::Chunk);
      outs.assign(blk.out_vars.size(), 0.0);
      L.k = &k;
      L.scalar_out = outs.data();
      L.vx = opts_.use_vexec && blk.vx ? &*blk.vx : nullptr;
      L.vexec_spans = &stats_->vexec_launches;
      L.run(0, 1);
    } catch (npad::Error& err) {
      err.add_context("in scalar block binding " + env.name_of(blk.out_vars[0]));
      throw;
    }
    for (size_t j = 0; j < blk.out_vars.size(); ++j) {
      env.bind(blk.out_vars[j], partial_value(blk.out_types[j], outs[j]));
    }
    stats_->scalar_blocks.fetch_add(1, std::memory_order_relaxed);
  }

  std::vector<Value> eval_exp(const Exp& e, Env& env) const {
    return std::visit(
        Overload{
            [&](const OpAtom& o) -> std::vector<Value> { return {eval_atom(o.a, env)}; },
            [&](const OpBin& o) -> std::vector<Value> {
              return {eval_bin(o.op, eval_atom(o.a, env), eval_atom(o.b, env))};
            },
            [&](const OpUn& o) -> std::vector<Value> {
              return {eval_un(o.op, eval_atom(o.a, env))};
            },
            [&](const OpSelect& o) -> std::vector<Value> {
              return {as_bool(eval_atom(o.c, env)) ? eval_atom(o.t, env) : eval_atom(o.f, env)};
            },
            [&](const OpIndex& o) -> std::vector<Value> { return {eval_index(o, env)}; },
            [&](const OpUpdate& o) -> std::vector<Value> { return {eval_update(o, env)}; },
            [&](const OpUpdAcc& o) -> std::vector<Value> { return {eval_updacc(o, env)}; },
            [&](const OpIota& o) -> std::vector<Value> {
              const int64_t n = as_i64(eval_atom(o.n, env));
              ArrayVal a = ArrayVal::alloc(ScalarType::I64, {n});
              for (int64_t i = 0; i < n; ++i) a.set_i64(i, i);
              return {a};
            },
            [&](const OpReplicate& o) -> std::vector<Value> {
              const int64_t n = as_i64(eval_atom(o.n, env));
              Value v = eval_atom(o.v, env);
              if (is_array(v)) {
                const ArrayVal& row = as_array(v);
                std::vector<int64_t> shp{n};
                shp.insert(shp.end(), row.shape.begin(), row.shape.end());
                ArrayVal out = ArrayVal::alloc(row.elem, std::move(shp));
                for (int64_t i = 0; i < n; ++i) copy_into(out, i * row.elems(), row);
                return {out};
              }
              ScalarType t = std::holds_alternative<double>(v)    ? ScalarType::F64
                             : std::holds_alternative<int64_t>(v) ? ScalarType::I64
                                                                  : ScalarType::Bool;
              ArrayVal out = ArrayVal::alloc(t, {n});
              for (int64_t i = 0; i < n; ++i) store_scalar(out, i, v);
              return {out};
            },
            [&](const OpZerosLike& o) -> std::vector<Value> {
              const Value& v = env.lookup(o.v);
              if (is_array(v)) {
                const ArrayVal& a = as_array(v);
                return {ArrayVal::alloc(a.elem, a.shape)};
              }
              if (std::holds_alternative<int64_t>(v)) return {int64_t{0}};
              if (std::holds_alternative<bool>(v)) return {false};
              return {0.0};
            },
            [&](const OpScratch& o) -> std::vector<Value> {
              const int64_t n = as_i64(eval_atom(o.n, env));
              const Value& like = env.lookup(o.like);
              std::vector<int64_t> shp{n};
              ScalarType t = ScalarType::F64;
              if (is_array(like)) {
                const ArrayVal& a = as_array(like);
                shp.insert(shp.end(), a.shape.begin(), a.shape.end());
                t = a.elem;
              } else if (std::holds_alternative<int64_t>(like)) {
                t = ScalarType::I64;
              } else if (std::holds_alternative<bool>(like)) {
                t = ScalarType::Bool;
              }
              return {ArrayVal::alloc(t, std::move(shp))};
            },
            [&](const OpLength& o) -> std::vector<Value> {
              return {as_array(env.lookup(o.arr)).outer()};
            },
            [&](const OpReverse& o) -> std::vector<Value> {
              const ArrayVal& a = as_array(env.lookup(o.arr));
              ArrayVal out = ArrayVal::alloc(a.elem, a.shape);
              const int64_t n = a.outer(), row = a.row_elems();
              for (int64_t i = 0; i < n; ++i) copy_into(out, (n - 1 - i) * row, row_view(a, i));
              return {out};
            },
            [&](const OpTranspose& o) -> std::vector<Value> {
              const ArrayVal& a = as_array(env.lookup(o.arr));
              assert(a.rank() >= 2);
              std::vector<int64_t> shp = a.shape;
              std::swap(shp[0], shp[1]);
              ArrayVal out = ArrayVal::alloc(a.elem, shp);
              const int64_t r = a.shape[0], c = a.shape[1];
              int64_t inner = 1;
              for (size_t d = 2; d < a.shape.size(); ++d) inner *= a.shape[d];
              for (int64_t i = 0; i < r; ++i) {
                for (int64_t j = 0; j < c; ++j) {
                  for (int64_t k = 0; k < inner; ++k) {
                    const int64_t src = (i * c + j) * inner + k;
                    const int64_t dst = (j * r + i) * inner + k;
                    switch (a.elem) {
                      case ScalarType::F64: out.set_f64(dst, a.get_f64(src)); break;
                      case ScalarType::I64: out.set_i64(dst, a.get_i64(src)); break;
                      case ScalarType::Bool: out.set_b8(dst, a.get_i64(src) != 0); break;
                    }
                  }
                }
              }
              return {out};
            },
            [&](const OpCopy& o) -> std::vector<Value> {
              const Value& v = env.lookup(o.v);
              if (is_array(v)) return {compact_copy(as_array(v))};
              return {v};
            },
            [&](const OpIf& o) -> std::vector<Value> {
              return eval_body(as_bool(eval_atom(o.c, env)) ? *o.tb : *o.fb, env);
            },
            [&](const OpLoop& o) -> std::vector<Value> { return eval_loop(o, env); },
            [&](const OpMap& o) -> std::vector<Value> {
              try {
                return eval_map(o, env);
              } catch (npad::Error& err) {
                err.add_context(launch_frame("map", args_extent(o.args, env)));
                throw;
              }
            },
            [&](const OpReduce& o) -> std::vector<Value> {
              try {
                return eval_reduce(o, env);
              } catch (npad::Error& err) {
                err.add_context(launch_frame("reduce", args_extent(o.args, env)));
                throw;
              }
            },
            [&](const OpScan& o) -> std::vector<Value> {
              try {
                return eval_scan(o, env);
              } catch (npad::Error& err) {
                err.add_context(launch_frame("scan", args_extent(o.args, env)));
                throw;
              }
            },
            [&](const OpHist& o) -> std::vector<Value> {
              try {
                return {eval_hist(o, env)};
              } catch (npad::Error& err) {
                err.add_context(launch_frame("hist", var_extent(o.inds, env)));
                throw;
              }
            },
            [&](const OpScatter& o) -> std::vector<Value> {
              try {
                return {eval_scatter(o, env)};
              } catch (npad::Error& err) {
                err.add_context(launch_frame("scatter", var_extent(o.inds, env)));
                throw;
              }
            },
            [&](const OpWithAcc& o) -> std::vector<Value> {
              try {
                return eval_withacc(o, env);
              } catch (npad::Error& err) {
                err.add_context("in with_acc body");
                throw;
              }
            },
        },
        e);
  }

  // Best-effort launch extent for error frames; lookup failures yield -1
  // (frames must never mask the original error with a second throw).
  int64_t var_extent(Var v, const Env& env) const noexcept {
    try {
      const Value& val = env.lookup(v);
      if (is_array(val)) return as_array(val).outer();
    } catch (...) {
    }
    return -1;
  }

  int64_t args_extent(const std::vector<Var>& args, const Env& env) const noexcept {
    for (Var v : args) {
      const int64_t n = var_extent(v, env);
      if (n >= 0) return n;
    }
    return -1;
  }

  static std::string launch_frame(const char* kind, int64_t extent) {
    std::string s = "in ";
    s += kind;
    s += " launch";
    if (extent >= 0) s += " (extent " + std::to_string(extent) + ")";
    return s;
  }

  // ------------------------------------------------------------- scalars ---
  static Value eval_bin(BinOp op, const Value& va, const Value& vb) {
    switch (op) {
      case BinOp::Eq: case BinOp::Ne: case BinOp::Lt: case BinOp::Le:
      case BinOp::Gt: case BinOp::Ge: {
        if (std::holds_alternative<int64_t>(va)) {
          const int64_t a = as_i64(va), b = as_i64(vb);
          switch (op) {
            case BinOp::Eq: return a == b;
            case BinOp::Ne: return a != b;
            case BinOp::Lt: return a < b;
            case BinOp::Le: return a <= b;
            case BinOp::Gt: return a > b;
            default: return a >= b;
          }
        }
        const double a = as_f64(va), b = as_f64(vb);
        switch (op) {
          case BinOp::Eq: return a == b;
          case BinOp::Ne: return a != b;
          case BinOp::Lt: return a < b;
          case BinOp::Le: return a <= b;
          case BinOp::Gt: return a > b;
          default: return a >= b;
        }
      }
      case BinOp::And: return as_bool(va) && as_bool(vb);
      case BinOp::Or: return as_bool(va) || as_bool(vb);
      case BinOp::Mod: {
        const int64_t b = as_i64(vb);
        return b == 0 ? int64_t{0} : as_i64(va) % b;
      }
      default: break;
    }
    if (std::holds_alternative<int64_t>(va)) {
      const int64_t a = as_i64(va), b = as_i64(vb);
      switch (op) {
        case BinOp::Add: return a + b;
        case BinOp::Sub: return a - b;
        case BinOp::Mul: return a * b;
        case BinOp::Div: return b == 0 ? int64_t{0} : a / b;
        case BinOp::Min: return std::min(a, b);
        case BinOp::Max: return std::max(a, b);
        case BinOp::Pow: return static_cast<int64_t>(std::pow(static_cast<double>(a), static_cast<double>(b)));
        default: throw KernelError("binary operator not defined on i64 operands");
      }
    }
    const double a = as_f64(va), b = as_f64(vb);
    switch (op) {
      case BinOp::Add: return a + b;
      case BinOp::Sub: return a - b;
      case BinOp::Mul: return a * b;
      case BinOp::Div: return a / b;
      case BinOp::Pow: return std::pow(a, b);
      case BinOp::Min: return std::min(a, b);
      case BinOp::Max: return std::max(a, b);
      default: throw KernelError("binary operator not defined on f64 operands");
    }
  }

  static Value eval_un(UnOp op, const Value& va) {
    switch (op) {
      case UnOp::Not: return !as_bool(va);
      case UnOp::ToF64: return as_f64(va);
      case UnOp::ToI64: return as_i64(va);
      case UnOp::Neg:
        if (std::holds_alternative<int64_t>(va)) return -as_i64(va);
        return -as_f64(va);
      case UnOp::Abs:
        if (std::holds_alternative<int64_t>(va)) return std::abs(as_i64(va));
        return std::fabs(as_f64(va));
      case UnOp::Sign: {
        const double x = as_f64(va);
        return x > 0 ? 1.0 : (x < 0 ? -1.0 : 0.0);
      }
      default: break;
    }
    const double a = as_f64(va);
    switch (op) {
      case UnOp::Exp: return std::exp(a);
      case UnOp::Log: return std::log(a);
      case UnOp::Sqrt: return std::sqrt(a);
      case UnOp::Sin: return std::sin(a);
      case UnOp::Cos: return std::cos(a);
      case UnOp::Tanh: return std::tanh(a);
      case UnOp::LGamma: return std::lgamma(a);
      case UnOp::Digamma: return digamma(a);
      default: throw KernelError("unary operator not defined on this operand");
    }
  }

  // -------------------------------------------------------- array access ---
  Value eval_index(const OpIndex& o, const Env& env) const {
    const ArrayVal* a = &as_array(env.lookup(o.arr));
    ArrayVal view = *a;
    for (size_t k = 0; k < o.idx.size(); ++k) {
      const int64_t i = as_i64(eval_atom(o.idx[k], env));
      if (i < 0 || i >= view.shape[0]) {
        throw ShapeError("index " + std::to_string(i) + " out of bounds for " +
                         env.name_of(o.arr) + " axis " + std::to_string(k) + " of extent " +
                         std::to_string(view.shape[0]));
      }
      if (view.rank() == 1) {
        // Final scalar element.
        assert(k + 1 == o.idx.size());
        return scalar_value(view.elem, view, i);
      }
      view = row_view(view, i);
    }
    return view;
  }

  // The array an in-place operation (update, hist, scatter, with_acc) may
  // write, given a copy of the environment's binding: that array itself when
  // it is whole and its buffer has exactly two holders, the environment's
  // binding and this copy; a compact copy when anyone else may read it.
  static ArrayVal writable(ArrayVal a) {
    if (a.whole() && a.buf.use_count() <= 2) return a;
    return compact_copy(a);
  }

  Value eval_update(const OpUpdate& o, const Env& env) const {
    ArrayVal dst = writable(as_array(env.lookup(o.arr)));
    int64_t off = 0;
    int64_t rows = dst.elems();
    for (size_t k = 0; k < o.idx.size(); ++k) {
      rows /= dst.shape[k];
      const int64_t i = as_i64(eval_atom(o.idx[k], env));
      if (i < 0 || i >= dst.shape[k]) {
        throw ShapeError("update index " + std::to_string(i) + " out of bounds for " +
                         env.name_of(o.arr) + " axis " + std::to_string(k) + " of extent " +
                         std::to_string(dst.shape[k]));
      }
      off += i * rows;
    }
    Value v = eval_atom(o.v, env);
    if (is_array(v)) {
      copy_into(dst, off, as_array(v));
    } else {
      store_scalar(dst, off, v);
    }
    return dst;
  }

  Value eval_updacc(const OpUpdAcc& o, const Env& env) const {
    AccVal acc = as_acc(env.lookup(o.acc));
    ArrayVal& a = acc.arr;
    int64_t off = 0;
    int64_t rows = a.elems();
    for (size_t k = 0; k < o.idx.size(); ++k) {
      rows /= a.shape[k];
      const int64_t i = as_i64(eval_atom(o.idx[k], env));
      if (i < 0 || i >= a.shape[k]) return acc;  // out-of-bounds updates ignored
      off += i * rows;
    }
    Value v = eval_atom(o.v, env);
    uint64_t count = 1;
    if (is_array(v)) {
      const ArrayVal& src = as_array(v);
      count = static_cast<uint64_t>(src.elems());
      if (acc.atomic) {
        for (int64_t k = 0; k < src.elems(); ++k) atomic_add_f64(a, off + k, src.get_f64(k));
      } else {
        for (int64_t k = 0; k < src.elems(); ++k) plain_add_f64(a, off + k, src.get_f64(k));
      }
    } else if (acc.atomic) {
      atomic_add_f64(a, off, as_f64(v));
    } else {
      plain_add_f64(a, off, as_f64(v));
    }
    (acc.atomic ? stats_->atomic_updates : stats_->privatized_updates)
        .fetch_add(count, std::memory_order_relaxed);
    return acc;
  }

  // ---------------------------------------------------------------- loop ---
  std::vector<Value> eval_loop(const OpLoop& o, Env& env) const {
    std::vector<Value> state;
    state.reserve(o.init.size());
    for (const auto& a : o.init) state.push_back(eval_atom(a, env));
    // One frame per loop, reused across iterations: params are rebound each
    // round and body bindings overwrite last round's slots. Last round's
    // arrays are released first, so a carried array's only reference is the
    // state and `update` writes it in place instead of copying it.
    const std::vector<ScalarBlock>& blocks = env.prog().scalar_blocks[o.activation_id];
    if (o.while_cond) {
      for (int64_t i = 0;; ++i) {
        std::vector<Value> c = apply(*o.while_cond, state, env);
        if (!as_bool(c[0])) break;
        Env it_env(env, o.activation_id);
        for (size_t k = 0; k < o.params.size(); ++k)
          it_env.bind(o.params[k].var, std::move(state[k]));
        try {
          NPAD_FAULT_SITE("loop.iter", FaultKind::Chunk);
          state = eval_body(*o.body, it_env, &blocks);
        } catch (npad::Error& err) {
          err.add_context("in while-loop iteration " + std::to_string(i));
          throw;
        }
      }
      return state;
    }
    const int64_t n = as_i64(eval_atom(o.count, env));
    if (n <= 0) return state;
    Env it_env(env, o.activation_id);
    for (int64_t i = 0; i < n; ++i) {
      if (i > 0) it_env.release_arrays();
      if (o.idx.valid()) it_env.bind(o.idx, i);
      for (size_t k = 0; k < o.params.size(); ++k)
        it_env.bind(o.params[k].var, std::move(state[k]));
      try {
        NPAD_FAULT_SITE("loop.iter", FaultKind::Chunk);
        state = eval_body(*o.body, it_env, &blocks);
      } catch (npad::Error& err) {
        err.add_context("in loop iteration " + std::to_string(i) + " of " + std::to_string(n));
        throw;
      }
    }
    return state;
  }

  // Launch-buffer allocation with pool accounting: buffers for kernel
  // outputs and map results are fully overwritten by the launch, so they take
  // the uninitialized path; privatized accumulators need the zero-fill.
  ArrayVal alloc_launch_buf(ScalarType t, std::vector<int64_t> shp, bool uninit) const {
    bool hit = false;
    ArrayVal a = uninit ? ArrayVal::alloc_uninit(t, std::move(shp), &hit)
                        : ArrayVal::alloc(t, std::move(shp), &hit);
    (hit ? stats_->pool_hits : stats_->pool_misses).fetch_add(1, std::memory_order_relaxed);
    return a;
  }

  // ------------------------------------------------------------ schedule ---
  //
  // Every SOAC tier runs under one schedule and one set of chunk drivers
  // (runtime/README.md, Scheduling). A tier supplies its per-element code as
  // callbacks; the drivers own fan-out, chunking and the per-chunk merges.

  // A launch of n elements, each weighing `grain` (work_grain for kernels),
  // fans out when the runtime is parallel, the pool has more than one
  // worker, the launch is not nested in another, and n reaches the SOAC's
  // `floor`; then it splits into one chunk per worker, at most one per grain.
  Schedule schedule(int64_t n, int64_t grain, int64_t floor) const {
    Schedule s{n, 1, n, support::ThreadPool::in_parallel_region()};
    const auto threads = static_cast<int64_t>(support::ThreadPool::global().thread_count());
    if (opts_.parallel && threads > 1 && n >= floor && !s.nested) {
      s.chunks = std::min<int64_t>(threads, (n + grain - 1) / grain);
      s.per = (n + s.chunks - 1) / s.chunks;
    }
    return s;
  }

  // A launch that runs on this thread alone, outside any parallel region,
  // updates its accumulators with plain adds: no other worker can race on
  // them.
  bool direct(const Schedule& s) const {
    return !s.fanout() && !s.nested && opts_.privatize_accs;
  }

  // Runs body(c, lo, hi) for every chunk of a fanned-out launch.
  template <class Body>
  static void for_chunks(const Schedule& s, Body&& body) {
    support::parallel_for(s.chunks, 1, [&](int64_t clo, int64_t chi) {
      for (int64_t c = clo; c < chi; ++c) {
        const auto [lo, hi] = s.range(c);
        body(c, lo, hi);
      }
    });
  }

  // Runs body(lo, hi) over the elements of a launch whose chunks share their
  // state: split by the pool into grain-sized blocks when the launch fans
  // out, inline otherwise. It splits on the schedule's decision, the one
  // that chose the launch's accumulator atomicity: a launch flagged
  // non-atomic must never reach the pool. An empty launch runs nothing.
  template <class Body>
  static void for_elems(const Schedule& s, int64_t grain, Body&& body) {
    if (s.fanout()) {
      support::parallel_for(s.n, grain, body);
    } else if (s.n > 0) {
      body(0, s.n);
    }
  }

  // Folds every chunk from the neutral element (fold(part, lo, hi)), then
  // merges the chunk partials by merge_tree (merge(into, from)). A tier's
  // merge fault site, if any, runs once before the merge.
  template <class P, class Fold, class Merge>
  static P fold_chunks(const Schedule& s, P neutral, Fold&& fold, Merge&& merge,
                       void (*merge_site)() = nullptr) {
    if (!s.fanout()) {
      fold(neutral, 0, s.n);
      return neutral;
    }
    std::vector<P> parts(static_cast<size_t>(s.chunks), neutral);
    for_chunks(s, [&](int64_t c, int64_t lo, int64_t hi) {
      fold(parts[static_cast<size_t>(c)], lo, hi);
    });
    if (merge_site != nullptr) merge_site();
    merge_tree(parts.size(), /*parallel=*/false,
               [&](size_t i, size_t j) { merge(parts[i], parts[j]); });
    return std::move(parts[0]);
  }

  // The blocked three-phase scan. Phase 1 scans every chunk from the
  // neutral element (scan(lo, hi, carry) leaves the chunk's total in
  // carry), phase 2 prefix-folds the carries in chunk order
  // (combine(run, carry)), phase 3 rescales every chunk after the first by
  // its prefix (rescale(lo, hi, prefix)). One chunk is the sequential scan.
  template <class P, class Scan, class Combine, class Rescale>
  static void blocked_scan(const Schedule& s, P neutral, Scan&& scan, Combine&& combine,
                           Rescale&& rescale) {
    if (!s.fanout()) {
      scan(0, s.n, neutral);
      return;
    }
    std::vector<P> carries(static_cast<size_t>(s.chunks), neutral);
    for_chunks(s, [&](int64_t c, int64_t lo, int64_t hi) {
      scan(lo, hi, carries[static_cast<size_t>(c)]);
    });
    // Each carry becomes its chunk's exclusive prefix.
    P run = std::move(neutral);
    for (P& carry : carries) {
      P prefix = run;
      combine(run, carry);
      carry = std::move(prefix);
    }
    for_chunks(s, [&](int64_t c, int64_t lo, int64_t hi) {
      if (c > 0) rescale(lo, hi, carries[static_cast<size_t>(c)]);
    });
  }

  // Folds a hist launch into per-chunk private subhistograms seeded with the
  // neutral element (fold(bins, lo, hi) returns the updates it performed),
  // then merges them into the destination bin-parallel, per bin in chunk
  // order (merge(dst, sub, count) over a block of bins). Each chunk is a
  // contiguous block of elements, so every bin sees its updates in element
  // order and associativity suffices. One chunk folds straight into the
  // destination.
  template <class Fold, class Merge>
  void privatized_bins(const Schedule& s, const ArrayVal& dest, double neutral, Fold&& fold,
                       Merge&& merge, void (*merge_site)()) const {
    double* d = dest.buf->f64() + dest.offset;
    if (!s.fanout()) {
      stats_->privatized_hist_updates.fetch_add(static_cast<uint64_t>(fold(d, 0, s.n)),
                                                std::memory_order_relaxed);
      return;
    }
    const int64_t m = dest.outer();
    std::vector<ArrayVal> subs;
    subs.reserve(static_cast<size_t>(s.chunks));
    for (int64_t c = 0; c < s.chunks; ++c) {
      // Pool buffers are recycled, so the neutral fill is always explicit.
      subs.push_back(alloc_launch_buf(ScalarType::F64, dest.shape, /*uninit=*/true));
      std::fill_n(subs.back().buf->f64(), m, neutral);
    }
    std::atomic<int64_t> performed{0};
    for_chunks(s, [&](int64_t c, int64_t lo, int64_t hi) {
      performed.fetch_add(fold(subs[static_cast<size_t>(c)].buf->f64(), lo, hi),
                          std::memory_order_relaxed);
    });
    stats_->privatized_hist_updates.fetch_add(static_cast<uint64_t>(performed.load()),
                                              std::memory_order_relaxed);
    merge_site();
    support::parallel_for(m, opts_.grain, [&](int64_t lo, int64_t hi) {
      for (const auto& sub : subs) merge(d + lo, sub.buf->f64() + lo, hi - lo);
    });
  }

  // A shared accumulator a map launch may privatize: its destination and
  // the updates the launch issues into it. A null destination never
  // privatizes.
  struct AccUse {
    const ArrayVal* dest = nullptr;
    uint64_t updates = 0;
  };

  // The accumulators of a fanned-out launch that get private per-chunk
  // copies: use(j) for each of `count` slots; those with at least
  // kPrivatizeMinIters updates, in slot order while the launch's private
  // footprint (elements x chunks) fits privatize_budget.
  template <class Use>
  std::vector<size_t> private_slots(const Schedule& s, size_t count, Use&& use) const {
    std::vector<size_t> priv;
    if (!s.fanout() || !opts_.privatize_accs) return priv;
    int64_t budget = opts_.privatize_budget;
    for (size_t j = 0; j < count; ++j) {
      const AccUse u = use(j);
      if (u.dest == nullptr || u.updates < kPrivatizeMinIters) continue;
      const int64_t cost = u.dest->elems() * s.chunks;
      if (cost <= budget) {
        budget -= cost;
        priv.push_back(j);
      }
    }
    return priv;
  }

  // Runs a fanned-out launch with the private accumulators `priv`: one
  // zero-filled buffer per chunk and slot (bind(c, j, buf) points chunk c's
  // updates of slot j at it), the chunks (run(c, lo, hi)), then per slot a
  // tree merge of the buffers, whose survivor is added into the destination
  // element-parallel.
  template <class Use, class Bind, class Run>
  void run_private(const Schedule& s, const std::vector<size_t>& priv, Use&& use, Bind&& bind,
                   Run&& run) const {
    stats_->privatized_launches.fetch_add(1, std::memory_order_relaxed);
    std::vector<std::vector<ArrayVal>> bufs(priv.size());
    for (size_t p = 0; p < priv.size(); ++p) {
      bufs[p].reserve(static_cast<size_t>(s.chunks));
      for (int64_t c = 0; c < s.chunks; ++c) {
        bufs[p].push_back(
            alloc_launch_buf(ScalarType::F64, use(priv[p]).dest->shape, /*uninit=*/false));
        bind(c, priv[p], bufs[p].back());
      }
    }
    for_chunks(s, run);
    for (size_t p = 0; p < priv.size(); ++p) {
      NPAD_FAULT_SITE("acc.merge", FaultKind::Chunk);
      const std::vector<ArrayVal>& b = bufs[p];
      const int64_t m = b[0].elems();
      merge_tree(b.size(), /*parallel=*/true, [&](size_t i, size_t j) {
        double* d = b[i].buf->f64();  // fresh whole buffers: offset 0
        const double* from = b[j].buf->f64();
        for (int64_t e = 0; e < m; ++e) d[e] += from[e];
      });
      const ArrayVal& dst = *use(priv[p]).dest;
      double* d = dst.buf->f64() + dst.offset;
      const double* merged = b[0].buf->f64();
      support::parallel_for(m, opts_.grain, [&](int64_t lo, int64_t hi) {
        for (int64_t e = lo; e < hi; ++e) d[e] += merged[e];
      });
    }
  }

  // ----------------------------------------------------------------- map ---
  std::vector<Value> eval_map(const OpMap& o, Env& env) const {
    const Lambda& f = *o.f;
    if (o.fused > 0) stats_->fused_maps.fetch_add(o.fused, std::memory_order_relaxed);
    // Element inputs (non-acc) and threaded accumulator args.
    std::vector<ArrayVal> inputs;
    std::vector<Value> acc_args;
    int64_t n = -1;
    for (size_t i = 0; i < o.args.size(); ++i) {
      const Value& v = env.lookup(o.args[i]);
      if (f.params[i].type.is_acc) {
        acc_args.push_back(v);
      } else {
        const ArrayVal& a = as_array(v);
        if (n < 0) n = a.outer();
        if (a.outer() != n) {
          throw ShapeError("map arguments of unequal length: " + env.name_of(o.args[i]) +
                           " has extent " + std::to_string(a.outer()) + ", expected " +
                           std::to_string(n));
        }
        inputs.push_back(a);
      }
    }
    if (n < 0) throw TypeError("map without array argument");

    if (opts_.use_kernels) {
      if (auto kopt = try_kernel(o, inputs, env)) {
        stats_->kernel_maps.fetch_add(1, std::memory_order_relaxed);
        return run_kernel(*kopt, f, o, n, env);
      }
    }
    stats_->general_maps.fetch_add(1, std::memory_order_relaxed);

    // General path: evaluate element 0 to learn result shapes.
    std::vector<Value> outs(f.rets.size());
    std::vector<ArrayVal> out_arrays(f.rets.size());
    auto elem_args = [&](int64_t i, const std::vector<Value>& accs) {
      std::vector<Value> args;
      args.reserve(f.params.size());
      size_t ai = 0, ci = 0;
      for (size_t k = 0; k < f.params.size(); ++k) {
        if (f.params[k].type.is_acc) {
          args.push_back(accs[ci++]);
        } else {
          const ArrayVal& a = inputs[ai++];
          if (a.rank() == 1) {
            args.push_back(scalar_value(a.elem, a, i));
          } else {
            args.push_back(row_view(a, i));
          }
        }
      }
      return args;
    };
    auto store_result = [&](int64_t i, std::vector<Value>& vals) {
      for (size_t r = 0; r < f.rets.size(); ++r) {
        if (f.rets[r].is_acc) continue;
        ArrayVal& dst = out_arrays[r];
        if (is_array(vals[r])) {
          const ArrayVal& src = as_array(vals[r]);
          copy_into(dst, i * src.elems(), src);
        } else {
          store_scalar(dst, i, vals[r]);
        }
      }
    };
    if (n == 0) {
      // Threaded accumulators pass through untouched (the lambda never ran);
      // they are returned in parameter order, the paper's threading
      // convention for accumulator results.
      size_t ci = 0;
      for (size_t r = 0; r < f.rets.size(); ++r) {
        if (f.rets[r].is_acc) {
          if (ci < acc_args.size()) outs[r] = acc_args[ci++];
          continue;
        }
        std::vector<int64_t> shp{0};
        for (int d = 0; d < f.rets[r].rank; ++d) shp.push_back(0);
        out_arrays[r] = ArrayVal::alloc(f.rets[r].elem, std::move(shp));
      }
    } else {
      const Schedule s = schedule(n, opts_.grain, opts_.grain + 1);
      // Accumulator atomicity for this launch: a fanned-out launch must use
      // atomic updates on every shared accumulator (even one privatized by an
      // enclosing sequential launch), a direct launch uses plain adds, and a
      // nested one keeps the flag of the launch that encloses it.
      std::vector<Value> base_accs = acc_args;
      for (auto& a : base_accs) {
        if (!is_acc(a)) continue;
        AccVal av = as_acc(a);
        if (s.fanout()) {
          av.atomic = true;
        } else if (direct(s)) {
          av.atomic = false;
        }
        a = av;
      }

      std::vector<Value> first = apply(f, elem_args(0, base_accs), env);
      for (size_t r = 0; r < f.rets.size(); ++r) {
        if (f.rets[r].is_acc) {
          // Return the caller's accumulator value (original atomicity), not
          // the launch-local flagged copy the lambda threaded through.
          outs[r] = first[r];
          if (is_acc(first[r])) {
            for (const auto& a : acc_args) {
              if (is_acc(a) && as_acc(a).arr.buf == as_acc(first[r]).arr.buf) {
                outs[r] = a;
                break;
              }
            }
          }
          continue;
        }
        std::vector<int64_t> shp{n};
        if (is_array(first[r])) {
          const auto& a = as_array(first[r]);
          shp.insert(shp.end(), a.shape.begin(), a.shape.end());
          out_arrays[r] = alloc_launch_buf(a.elem, std::move(shp), /*uninit=*/true);
        } else {
          ScalarType t = std::holds_alternative<double>(first[r])    ? ScalarType::F64
                         : std::holds_alternative<int64_t>(first[r]) ? ScalarType::I64
                                                                     : ScalarType::Bool;
          out_arrays[r] = alloc_launch_buf(t, std::move(shp), /*uninit=*/true);
        }
      }
      store_result(0, first);

      // The general path cannot count its lambda's updates: each iteration
      // counts as one update into every f64 accumulator.
      const auto use = [&](size_t j) {
        const ArrayVal* a = is_acc(base_accs[j]) ? &as_acc(base_accs[j]).arr : nullptr;
        return a && a->elem == ScalarType::F64 ? AccUse{a, static_cast<uint64_t>(n)} : AccUse{};
      };
      // Element 0 already ran.
      const auto run_elems = [&](int64_t lo, int64_t hi, const std::vector<Value>& accs) {
        for (int64_t i = std::max<int64_t>(lo, 1); i < hi; ++i) {
          std::vector<Value> vals = apply(f, elem_args(i, accs), env);
          store_result(i, vals);
        }
      };
      const std::vector<size_t> priv = private_slots(s, base_accs.size(), use);
      if (priv.empty()) {
        for_elems(s, opts_.grain, [&](int64_t lo, int64_t hi) {
          NPAD_FAULT_SITE("map.general_chunk", FaultKind::Chunk);
          run_elems(lo, hi, base_accs);
        });
      } else {
        std::vector<std::vector<Value>> chunk_accs(static_cast<size_t>(s.chunks), base_accs);
        run_private(
            s, priv, use,
            [&](int64_t c, size_t j, const ArrayVal& buf) {
              chunk_accs[static_cast<size_t>(c)][j] = AccVal{buf, /*atomic=*/false};
            },
            [&](int64_t c, int64_t lo, int64_t hi) {
              NPAD_FAULT_SITE("map.general_priv_chunk", FaultKind::Chunk);
              run_elems(lo, hi, chunk_accs[static_cast<size_t>(c)]);
            });
      }
    }
    for (size_t r = 0; r < f.rets.size(); ++r) {
      if (!f.rets[r].is_acc) outs[r] = out_arrays[r];
    }
    return outs;
  }

  // Stream guards (runtime/kernel.hpp): a kernel whose inline SOACs consume
  // stream arguments assumed shape facts the builder could not verify — the
  // rank of a bare free array, length agreement between the arguments of one
  // inline SOAC (array extents, free scalars). A binding that violates them
  // must not launch: the general path
  // both raises the exact shape error for genuinely mismatched rows and
  // handles shape-polymorphic reuse of the lambda correctly.
  static bool stream_guards_ok(const Kernel& k, const KernelLaunch& L) {
    const std::vector<ArrayVal>& arrs = L.free_array_vals;
    for (const auto& g : k.stream_rank_guards) {
      if (static_cast<int32_t>(arrs[static_cast<size_t>(g.slot)].shape.size()) != g.rank) {
        return false;
      }
    }
    for (const auto& g : k.stream_len_guards) {
      const auto& a = arrs[static_cast<size_t>(g.slot_a)].shape;
      const auto& b = arrs[static_cast<size_t>(g.slot_b)].shape;
      if (static_cast<size_t>(g.dim_a) >= a.size() ||
          static_cast<size_t>(g.dim_b) >= b.size()) {
        return false;
      }
      if (a[static_cast<size_t>(g.dim_a)] != b[static_cast<size_t>(g.dim_b)]) return false;
    }
    for (const auto& g : k.stream_scalar_guards) {
      const auto& a = arrs[static_cast<size_t>(g.slot)].shape;
      if (static_cast<size_t>(g.dim) >= a.size() ||
          static_cast<double>(a[static_cast<size_t>(g.dim)]) !=
              L.free_scalar_vals[static_cast<size_t>(g.scalar)]) {
        return false;
      }
    }
    return true;
  }

  // Binds the map's kernel, its inputs, free variables and accumulators
  // against the environment; nullopt when the lambda does not compile or any
  // binding has the wrong shape. The kernel lives in the resolved program's
  // slot for the lambda, which outlives every launch of the run.
  std::optional<KernelLaunch> try_kernel(const OpMap& o, const std::vector<ArrayVal>& inputs,
                                         const Env& env) const {
    const LambdaKernel& lk = env.prog().map_kernel(*o.f);
    if (!lk.kernel) return std::nullopt;
    const Kernel* k = &*lk.kernel;
    KernelLaunch L;
    L.k = k;
    // Partition the non-acc arguments: rank-1 element inputs take LoadElem
    // slots in order; rank-2 row arguments bind into the free-array slots
    // reserved by their row-stream params. Any other rank falls back.
    const auto& rows = k->row_param_slots;
    if (!rows.empty() && rows.size() != inputs.size()) return std::nullopt;
    std::vector<uint8_t> from_row(k->free_arrays.size(), 0);
    for (int32_t s : rows) {
      if (s >= 0) from_row[static_cast<size_t>(s)] = 1;
    }
    L.free_array_vals.resize(k->free_arrays.size());
    for (size_t j = 0; j < inputs.size(); ++j) {
      const int32_t s = rows.empty() ? -1 : rows[j];
      if (s < 0) {
        if (inputs[j].rank() != 1) return std::nullopt;
        L.inputs.push_back(inputs[j]);
      } else {
        if (inputs[j].rank() != 2) return std::nullopt;
        L.free_array_vals[static_cast<size_t>(s)] = inputs[j];
      }
    }
    for (ir::Var v : k->free_scalars) {
      const Value& val = env.lookup(v);
      if (is_array(val) || is_acc(val)) return std::nullopt;
      L.free_scalar_vals.push_back(as_f64(val));
    }
    for (size_t i = 0; i < k->free_arrays.size(); ++i) {
      if (from_row[i] != 0) continue;  // filled from the row arguments above
      const Value& val = env.lookup(k->free_arrays[i]);
      if (!is_array(val)) return std::nullopt;
      L.free_array_vals[i] = as_array(val);
    }
    if (!stream_guards_ok(*k, L)) return std::nullopt;
    for (const auto& ab : k->accs) {
      if (ab.row_len_reg >= 0) {  // row-bound: allocated by run_kernel, which knows n
        L.acc_array_vals.emplace_back();
        continue;
      }
      Value val;
      if (ab.param_index >= 0) {
        val = env.lookup(o.args[static_cast<size_t>(ab.param_index)]);
      } else {
        val = env.lookup(ab.var);
      }
      if (!is_acc(val)) return std::nullopt;
      if (as_acc(val).arr.elem != ScalarType::F64) return std::nullopt;
      L.acc_array_vals.push_back(as_acc(val).arr);
    }
    attach_vexec(L, lk);
    return L;
  }

  // Lane width of a launch: the configured width, or one lane for a kernel
  // whose sequential loops run per-lane trip counts (Kernel::uniform_trips).
  int launch_lanes(const Kernel& k) const {
    return k.uniform_trips ? opts_.kernel_lanes : 1;
  }

  // Attaches the vectorized-tier schedule lowered next to the launch's
  // kernel; a kernel that did not lower stays on the register machine.
  void attach_vexec(KernelLaunch& L, const LambdaKernel& lk) const {
    if (!opts_.use_vexec || !lk.vx) return;
    L.vx = &*lk.vx;
    L.vexec_spans = &stats_->vexec_launches;
    L.vexec_dispatches = &stats_->vexec_body_dispatches;
  }

  // Work-sized chunking: `grain` is calibrated in elements of light kernels
  // (at most kLightWork executed instructions each). A heavier kernel —
  // inline loops multiply their bodies by their trips — splits into
  // proportionally smaller chunks, so a 256-point reverse body fans out
  // where a 256-element elementwise map does not.
  static constexpr double kLightWork = 256.0;
  int64_t work_grain(double instrs) const {
    if (instrs <= kLightWork) return opts_.grain;
    return std::max<int64_t>(
        1, static_cast<int64_t>(static_cast<double>(opts_.grain) * kLightWork / instrs));
  }

  std::vector<Value> run_kernel(KernelLaunch& L, const Lambda& f, const OpMap& o, int64_t n,
                                const Env& env) const {
    const Kernel& k = *L.k;
    // Kernel outputs are fully overwritten (every iteration stores its
    // element), so they take the uninitialized pooled-allocation path.
    for (ScalarType t : k.out_elems) {
      L.outputs.push_back(alloc_launch_buf(t, {n}, /*uninit=*/true));
    }
    const size_t naccs = k.accs.size();
    std::vector<uint8_t> row(naccs, 0);
    bool need_pre = !k.loops.empty();
    for (size_t s = 0; s < naccs; ++s) {
      row[s] = k.accs[s].row_len_reg >= 0 ? 1 : 0;
      need_pre = need_pre || row[s] != 0;
    }
    // Preamble values, for loop trips and row lengths (consumed before the
    // launch runs, so one scratch file per thread serves every launch).
    thread_local std::vector<double> pre;
    if (need_pre) preamble_regs(L, pre);
    for (size_t s = 0; s < naccs; ++s) {
      if (row[s] == 0) continue;
      // Row-bound accumulator or row result: each iteration owns row i of an
      // [n][len] result (an empty launch has the general path's [0][0]),
      // zero-filled for an accumulator, fully stored for a row result.
      const auto len_reg = static_cast<size_t>(k.accs[s].row_len_reg);
      const auto len = n > 0 ? static_cast<int64_t>(pre[len_reg]) : 0;
      L.acc_array_vals[s] = alloc_launch_buf(ScalarType::F64, {n, len}, k.accs[s].store);
    }
    L.lanes = launch_lanes(k);
    L.batched_spans = &stats_->batched_launches;

    const KernelWork work = kernel_work(k, need_pre ? pre.data() : nullptr);
    const int64_t grain = work_grain(work.instrs);
    const Schedule sched = schedule(n, grain, grain + 1);
    auto updates_of = [&](size_t s) {
      return static_cast<uint64_t>(std::llround(work.updates[s] * static_cast<double>(n)));
    };
    // Shared accumulators privatize by update count: a launch issuing
    // kPrivatizeMinIters updates into one is worth per-chunk copies, however
    // few its iterations. Row-bound slots are the launch's own.
    const auto use = [&](size_t s) {
      return row[s] != 0 ? AccUse{} : AccUse{&L.acc_array_vals[s], updates_of(s)};
    };
    const std::vector<size_t> priv = private_slots(sched, naccs, use);
    // Per slot: atomic unless privatized, row-bound, or the launch is direct.
    const bool plain = direct(sched);
    L.acc_atomic.assign(naccs, 1);
    for (size_t s = 0; s < naccs; ++s) {
      if (plain || row[s] != 0) L.acc_atomic[s] = 0;
      if (work.updates[s] == 0) continue;
      const bool privatized = std::find(priv.begin(), priv.end(), s) != priv.end();
      (plain || row[s] != 0 || privatized ? stats_->privatized_updates : stats_->atomic_updates)
          .fetch_add(updates_of(s), std::memory_order_relaxed);
    }

    if (priv.empty()) {
      for_elems(sched, grain, [&](int64_t lo, int64_t hi) {
        NPAD_FAULT_SITE("map.kernel_chunk", FaultKind::Chunk);
        L.run(lo, hi);
      });
    } else {
      std::vector<KernelLaunch> launches(static_cast<size_t>(sched.chunks), L);
      run_private(
          sched, priv, use,
          [&](int64_t c, size_t s, const ArrayVal& buf) {
            auto& Lc = launches[static_cast<size_t>(c)];
            Lc.acc_array_vals[s] = buf;
            Lc.acc_atomic[s] = 0;
          },
          [&](int64_t c, int64_t lo, int64_t hi) {
            NPAD_FAULT_SITE("map.kernel_priv_chunk", FaultKind::Chunk);
            launches[static_cast<size_t>(c)].run(lo, hi);
          });
    }

    std::vector<Value> outs;
    size_t oi = 0;
    for (size_t r = 0; r < f.rets.size(); ++r) {
      const int32_t slot = k.ret_acc_slot[r];
      if (slot < 0) {
        outs.push_back(L.outputs[oi++]);
        continue;
      }
      const auto& ab = k.accs[static_cast<size_t>(slot)];
      if (ab.row_len_reg >= 0) {
        outs.push_back(L.acc_array_vals[static_cast<size_t>(slot)]);
      } else if (ab.param_index >= 0) {
        outs.push_back(env.lookup(o.args[static_cast<size_t>(ab.param_index)]));
      } else {
        outs.push_back(env.lookup(ab.var));
      }
    }
    return outs;
  }

  // -------------------------------------------------------------- reduce ---
  //
  // Three tiers, fastest first:
  //  1. hand-rolled loop for a plain single rank-1 f64 reduce with a
  //     combinable operator (no VM dispatch beats the register machine);
  //  2. compiled reduction kernel — arbitrary kernelizable scalar fold
  //     bodies, with a redomap pre-lambda compiled into the same program so
  //     fused reduce(op, map(f, xs)) runs load→map→fold in one batched
  //     loop with zero intermediate arrays;
  //  3. the general interpreter (now also the redomap fallback: the
  //     pre-lambda is applied per element before the fold).

  // Binds a reduction/scan kernel's free variables against the environment;
  // nullopt when a free variable has the wrong shape. Only a reduce's
  // pre-lambda may update (free) accumulators (runtime/kernel.cpp); their
  // updates are atomic unless the caller clears acc_atomic.
  std::optional<KernelLaunch> bind_reduce_launch(const LambdaKernel& lk,
                                                 const std::vector<ArrayVal>& inputs,
                                                 const std::vector<Value>& neutral,
                                                 const Env& env) const {
    const Kernel* k = lk.kernel ? &*lk.kernel : nullptr;
    if (k == nullptr || inputs.size() != k->num_inputs) return std::nullopt;
    KernelLaunch L;
    L.k = k;
    L.inputs = inputs;
    for (ir::Var v : k->free_scalars) {
      const Value& val = env.lookup(v);
      if (is_array(val) || is_acc(val)) return std::nullopt;
      L.free_scalar_vals.push_back(as_f64(val));
    }
    for (ir::Var v : k->free_arrays) {
      const Value& val = env.lookup(v);
      if (!is_array(val)) return std::nullopt;
      L.free_array_vals.push_back(as_array(val));
    }
    if (!stream_guards_ok(*k, L)) return std::nullopt;
    for (const auto& ab : k->accs) {
      const Value& val = env.lookup(ab.var);
      if (!is_acc(val) || as_acc(val).arr.elem != ScalarType::F64) return std::nullopt;
      L.acc_array_vals.push_back(as_acc(val).arr);
    }
    L.red_neutral.reserve(neutral.size());
    for (const auto& v : neutral) {
      if (is_array(v) || is_acc(v)) return std::nullopt;
      L.red_neutral.push_back(as_f64(v));
    }
    L.lanes = launch_lanes(*k);
    L.batched_spans = &stats_->batched_launches;
    attach_vexec(L, lk);
    return L;
  }

  // Converts a kernel partial back to a typed scalar Value.
  static Value partial_value(ScalarType t, double v) {
    switch (t) {
      case ScalarType::F64: return v;
      case ScalarType::I64: return static_cast<int64_t>(v);
      case ScalarType::Bool: return v != 0.0;
    }
    return v;
  }

  std::vector<Value> eval_reduce(const OpReduce& o, Env& env) const {
    const Lambda& op = *o.op;
    std::vector<ArrayVal> arrs;
    arrs.reserve(o.args.size());
    for (auto v : o.args) arrs.push_back(as_array(env.lookup(v)));
    const int64_t n = arrs[0].outer();
    for (size_t j = 0; j < arrs.size(); ++j) {
      if (arrs[j].outer() != n) {
        throw ShapeError("reduce arguments of unequal length: " + env.name_of(o.args[j]) +
                         " has extent " + std::to_string(arrs[j].outer()) + ", expected " +
                         std::to_string(n));
      }
    }
    std::vector<Value> neutral;
    for (const auto& a : o.neutral) neutral.push_back(eval_atom(a, env));
    if (o.fused > 0) stats_->fused_reduces.fetch_add(o.fused, std::memory_order_relaxed);

    // Tier 1: the hand-rolled combinable-binop loop already runs at memory
    // speed; do not route it through the register machine.
    const std::optional<BinOp> plain_bop =
        o.pre ? std::optional<BinOp>{} : recognize_binop(op);
    const bool hand_fast = plain_bop && combinable_f64(*plain_bop) && o.args.size() == 1 &&
                           arrs[0].rank() == 1 && arrs[0].elem == ScalarType::F64;

    // Tier 2: compiled reduction kernel.
    bool rank1 = true;
    for (const auto& a : arrs) rank1 = rank1 && a.rank() == 1;
    if (opts_.use_kernels && !hand_fast && rank1) {
      const LambdaKernel& lk = env.prog().fold_kernel(op, o.pre.get(), /*scan=*/false);
      if (auto L = bind_reduce_launch(lk, arrs, neutral, env)) {
        const Kernel* k = L->k;
        stats_->kernel_reduces.fetch_add(1, std::memory_order_relaxed);
        thread_local std::vector<double> pre;
        if (!k->loops.empty()) preamble_regs(*L, pre);
        const KernelWork work = kernel_work(*k, k->loops.empty() ? nullptr : pre.data());
        const int64_t grain = work_grain(work.instrs);
        const Schedule s = schedule(n, grain, 2 * grain);
        // Accumulator updates from the pre-lambda follow the map kernels'
        // rule: plain adds when the launch is direct, atomic otherwise.
        const bool plain = direct(s);
        if (plain) L->acc_atomic.assign(k->accs.size(), 0);
        for (double u : work.updates) {
          (plain ? stats_->privatized_updates : stats_->atomic_updates)
              .fetch_add(static_cast<uint64_t>(std::llround(u * static_cast<double>(n))),
                         std::memory_order_relaxed);
        }
        const size_t nred = k->reds.size();
        // Chunk partials merge through the fold subprogram.
        const std::vector<double> partials = fold_chunks(
            s, L->red_neutral,
            [&](std::vector<double>& part, int64_t lo, int64_t hi) {
              NPAD_FAULT_SITE("reduce.kernel_chunk", FaultKind::Chunk);
              L->run_reduce(lo, hi, part.data());
            },
            [&](std::vector<double>& into, const std::vector<double>& from) {
              L->combine_partials(into.data(), from.data());
            },
            [] { NPAD_FAULT_SITE("reduce.partial_merge", FaultKind::Chunk); });
        std::vector<Value> outs;
        outs.reserve(nred);
        for (size_t j = 0; j < nred; ++j) {
          outs.push_back(partial_value(op.rets[j].elem, partials[j]));
        }
        return outs;
      }
    }

    const Schedule s = schedule(n, opts_.grain, 2 * opts_.grain);
    if (hand_fast) {
      stats_->hand_reduces.fetch_add(1, std::memory_order_relaxed);
      const BinOp bop = *plain_bop;
      const double* p = arrs[0].buf->f64() + arrs[0].offset;
      return {fold_chunks(
          s, as_f64(neutral[0]),
          [&](double& part, int64_t lo, int64_t hi) {
            NPAD_FAULT_SITE("reduce.general_chunk", FaultKind::Chunk);
            double acc = part;  // a register, not a store per element
            for (int64_t i = lo; i < hi; ++i) acc = combine_f64(bop, acc, p[i]);
            part = acc;
          },
          [&](double& into, double from) { into = combine_f64(bop, into, from); })};
    }

    // Tier 3: general interpreter fold.
    stats_->general_reduces.fetch_add(1, std::memory_order_relaxed);
    auto elem = [&](size_t j, int64_t i) -> Value {
      const ArrayVal& a = arrs[j];
      if (a.rank() == 1) return scalar_value(a.elem, a, i);
      return row_view(a, i);
    };
    auto fold = [&](std::vector<Value>& acc, int64_t lo, int64_t hi) {
      NPAD_FAULT_SITE("reduce.general_chunk", FaultKind::Chunk);
      for (int64_t i = lo; i < hi; ++i) {
        // Move the accumulator through the argument list (no per-iteration
        // vector copy) and reserve the full fold arity once per iteration.
        std::vector<Value> args = std::move(acc);
        args.reserve(op.params.size());
        if (o.pre) {
          std::vector<Value> pargs;
          pargs.reserve(arrs.size());
          for (size_t j = 0; j < arrs.size(); ++j) pargs.push_back(elem(j, i));
          std::vector<Value> es = apply(*o.pre, std::move(pargs), env);
          for (auto& e : es) args.push_back(std::move(e));
        } else {
          for (size_t j = 0; j < arrs.size(); ++j) args.push_back(elem(j, i));
        }
        acc = apply(op, std::move(args), env);
      }
    };
    return fold_chunks(s, std::move(neutral), fold,
                       [&](std::vector<Value>& into, std::vector<Value>& from) {
                         std::vector<Value> args = std::move(into);
                         for (auto& v : from) args.push_back(std::move(v));
                         into = apply(op, std::move(args), env);
                       });
  }

  // ---------------------------------------------------------------- scan ---
  //
  // Same tiering as eval_reduce; the hand and kernel tiers run blocked_scan.
  // The kernel tier runs phases 1 and 3 through the compiled program (phase
  // 1 is the full narrow program, strictly sequential; phase 3 re-enters the
  // fold subprogram per element).
  std::vector<Value> eval_scan(const OpScan& o, Env& env) const {
    const Lambda& op = *o.op;
    std::vector<ArrayVal> arrs;
    arrs.reserve(o.args.size());
    for (auto v : o.args) arrs.push_back(as_array(env.lookup(v)));
    const int64_t n = arrs[0].outer();
    for (size_t j = 0; j < arrs.size(); ++j) {
      if (arrs[j].outer() != n) {
        throw ShapeError("scan arguments of unequal length: " + env.name_of(o.args[j]) +
                         " has extent " + std::to_string(arrs[j].outer()) + ", expected " +
                         std::to_string(n));
      }
    }
    std::vector<Value> neutral;
    for (const auto& a : o.neutral) neutral.push_back(eval_atom(a, env));
    const size_t kres = neutral.size();  // fold results (= outputs)

    const Schedule s = schedule(n, opts_.grain, 4 * opts_.grain);

    // Tier 1: hand-rolled blocked scan for a single rank-1 f64 array with a
    // combinable operator. Every element of the output is written, so the
    // launch buffer takes the uninitialized pooled-allocation path.
    const std::optional<BinOp> plain_bop = recognize_binop(op);
    if (plain_bop && combinable_f64(*plain_bop) && o.args.size() == 1 &&
        arrs[0].rank() == 1 && arrs[0].elem == ScalarType::F64) {
      stats_->hand_scans.fetch_add(1, std::memory_order_relaxed);
      ArrayVal outv = alloc_launch_buf(ScalarType::F64, {n}, /*uninit=*/true);
      const double* in = arrs[0].buf->f64() + arrs[0].offset;
      double* out = outv.buf->f64();
      const BinOp bop = *plain_bop;
      blocked_scan(
          s, as_f64(neutral[0]),
          [&](int64_t lo, int64_t hi, double& carry) {
            NPAD_FAULT_SITE("scan.hand_chunk", FaultKind::Chunk);
            double acc = carry;
            for (int64_t i = lo; i < hi; ++i) {
              acc = combine_f64(bop, acc, in[i]);
              out[i] = acc;
            }
            carry = acc;
          },
          [&](double& run, double carry) { run = combine_f64(bop, run, carry); },
          [&](int64_t lo, int64_t hi, double prefix) {
            NPAD_FAULT_SITE("scan.hand_rescale", FaultKind::Chunk);
            for (int64_t i = lo; i < hi; ++i) out[i] = combine_f64(bop, prefix, out[i]);
          });
      return {outv};
    }

    // Tier 2: compiled scan kernel (phases 1 and 3 on the launch's
    // executor; strictly sequential per chunk — scans are order-dependent).
    bool rank1 = true;
    for (const auto& a : arrs) rank1 = rank1 && a.rank() == 1;
    if (opts_.use_kernels && rank1) {
      const LambdaKernel& lk = env.prog().fold_kernel(op, nullptr, /*scan=*/true);
      if (auto L = bind_reduce_launch(lk, arrs, neutral, env)) {
        stats_->kernel_scans.fetch_add(1, std::memory_order_relaxed);
        for (ScalarType t : L->k->out_elems) {
          L->outputs.push_back(alloc_launch_buf(t, {n}, /*uninit=*/true));
        }
        blocked_scan(
            s, L->red_neutral,
            [&](int64_t lo, int64_t hi, std::vector<double>& carry) {
              NPAD_FAULT_SITE("scan.kernel_chunk", FaultKind::Chunk);
              L->run_scan_chunk(lo, hi, carry.data());
            },
            [&](std::vector<double>& run, const std::vector<double>& carry) {
              L->combine_partials(run.data(), carry.data());
            },
            [&](int64_t lo, int64_t hi, const std::vector<double>& prefix) {
              NPAD_FAULT_SITE("scan.kernel_rescale", FaultKind::Chunk);
              L->scan_rescale(lo, hi, prefix.data());
            });
        std::vector<Value> res;
        for (auto& a : L->outputs) res.push_back(a);
        return res;
      }
    }

    // Tier 3: general sequential scan. Output buffers are allocated from
    // the first computed accumulator and are fully overwritten, so they take
    // the uninitialized pooled path; an empty scan's output mirrors the
    // argument's shape (inner extents included).
    stats_->general_scans.fetch_add(1, std::memory_order_relaxed);
    NPAD_FAULT_SITE("scan.general", FaultKind::Chunk);
    std::vector<ArrayVal> outs(kres);
    if (n == 0) {
      for (size_t j = 0; j < kres; ++j) outs[j] = ArrayVal::alloc(arrs[j].elem, arrs[j].shape);
    }
    std::vector<Value> acc = std::move(neutral);
    for (int64_t i = 0; i < n; ++i) {
      std::vector<Value> args = std::move(acc);
      args.reserve(op.params.size());
      for (size_t j = 0; j < arrs.size(); ++j) {
        const ArrayVal& a = arrs[j];
        args.push_back(a.rank() == 1 ? scalar_value(a.elem, a, i) : Value(row_view(a, i)));
      }
      acc = apply(op, std::move(args), env);
      for (size_t j = 0; j < kres; ++j) {
        if (i == 0) {
          std::vector<int64_t> shp{n};
          if (is_array(acc[j])) {
            const auto& a = as_array(acc[j]);
            shp.insert(shp.end(), a.shape.begin(), a.shape.end());
            outs[j] = alloc_launch_buf(a.elem, std::move(shp), /*uninit=*/true);
          } else {
            outs[j] = alloc_launch_buf(op.rets[j].elem, std::move(shp), /*uninit=*/true);
          }
        }
        if (is_array(acc[j])) {
          copy_into(outs[j], i * as_array(acc[j]).elems(), as_array(acc[j]));
        } else {
          store_scalar(outs[j], i, acc[j]);
        }
      }
    }
    std::vector<Value> res;
    for (auto& a : outs) res.push_back(a);
    return res;
  }

  // ---------------------------------------------------------------- hist ---
  //
  // Generalized histograms (reduce_by_index), tiered like reduce:
  //  1. hand-rolled combinable-binop loop over scalar f64 bins, run by
  //     privatized_bins: sequential when the launch does not fan out, private
  //     subhistograms when the m x chunks footprint fits privatize_budget,
  //     atomic-CAS updates straight into the shared destination otherwise
  //     (combinable binops are commutative, so any interleaving is sound).
  //  2. compiled kernel for arbitrary kernelizable combine lambdas — the
  //     same compiled artifact as the reduce form of the fold — run by
  //     privatized_bins too. There is no atomic fallback here: an arbitrary
  //     fold is not known to be commutative, so an over-budget destination
  //     runs the strictly sequential kernel loop.
  //  3. the strictly sequential general interpreter for everything else
  //     (vector bins, non-f64 destinations, non-kernelizable operators).
  Value eval_hist(const OpHist& o, Env& env) const {
    const Lambda& op = *o.op;
    ArrayVal dest = writable(as_array(env.lookup(o.dest)));
    const ArrayVal inds = as_array(env.lookup(o.inds));
    const ArrayVal vals = as_array(env.lookup(o.vals));
    const int64_t n = inds.outer();
    const int64_t m = dest.outer();
    const int64_t row = dest.rank() > 1 ? dest.row_elems() : 1;

    const Schedule s = schedule(n, opts_.grain, opts_.grain + 1);
    const bool privat = s.fanout() && opts_.privatize_accs &&
                        static_cast<uint64_t>(n) >= kPrivatizeMinIters &&
                        m * row * s.chunks <= opts_.privatize_budget;
    // A launch that does not privatize folds as one chunk.
    const Schedule bins = privat ? s : s.one_chunk();

    // Tier 1: hand-rolled combinable binop over scalar f64 bins.
    const std::optional<BinOp> bop = recognize_binop(op);
    if (bop && combinable_f64(*bop) && dest.rank() == 1 && dest.elem == ScalarType::F64 &&
        vals.elem == ScalarType::F64) {
      stats_->hand_hists.fetch_add(1, std::memory_order_relaxed);
      const BinOp cb = *bop;
      if (s.fanout() && !privat) {
        // Atomic-CAS fallback for a destination too large to privatize
        // (combinable binops are commutative).
        double* d = dest.buf->f64() + dest.offset;
        std::atomic<int64_t> performed{0};
        for_elems(s, opts_.grain, [&](int64_t lo, int64_t hi) {
          NPAD_FAULT_SITE("hist.atomic_chunk", FaultKind::Chunk);
          int64_t local = 0;
          for (int64_t i = lo; i < hi; ++i) {
            const int64_t b = inds.get_i64(i);
            if (b < 0 || b >= m) continue;
            atomic_combine_f64(cb, d + b, vals.get_f64(i));
            ++local;
          }
          performed.fetch_add(local, std::memory_order_relaxed);
        });
        stats_->atomic_hist_updates.fetch_add(static_cast<uint64_t>(performed.load()),
                                              std::memory_order_relaxed);
        return dest;
      }
      privatized_bins(
          bins, dest, as_f64(eval_atom(o.neutral, env)),
          [&](double* d, int64_t lo, int64_t hi) {
            NPAD_FAULT_SITE("hist.hand_chunk", FaultKind::Chunk);
            int64_t performed = 0;
            for (int64_t i = lo; i < hi; ++i) {
              const int64_t b = inds.get_i64(i);
              if (b < 0 || b >= m) continue;
              d[b] = combine_f64(cb, d[b], vals.get_f64(i));
              ++performed;
            }
            return performed;
          },
          [&](double* d, const double* sub, int64_t count) {
            for (int64_t b = 0; b < count; ++b) d[b] = combine_f64(cb, d[b], sub[b]);
          },
          [] { NPAD_FAULT_SITE("hist.merge", FaultKind::Chunk); });
      return dest;
    }

    // Tier 2: compiled combine kernel (scalar f64 bins, []i64 inds).
    if (opts_.use_kernels && dest.rank() == 1 && dest.elem == ScalarType::F64 &&
        vals.rank() == 1 && inds.elem == ScalarType::I64) {
      const LambdaKernel& lk = env.prog().fold_kernel(op, nullptr, /*scan=*/false);
      std::vector<Value> neutral{eval_atom(o.neutral, env)};
      if (auto L = bind_reduce_launch(lk, {vals}, neutral, env)) {
        stats_->kernel_hists.fetch_add(1, std::memory_order_relaxed);
        const int64_t* ip = inds.buf->i64() + inds.offset;
        // Subhistograms merge through the fold subprogram. A launch that does
        // not privatize runs the sequential kernel loop: arbitrary folds have
        // no atomic fallback.
        privatized_bins(
            bins, dest, L->red_neutral[0],
            [&](double* d, int64_t lo, int64_t hi) {
              NPAD_FAULT_SITE("hist.kernel_chunk", FaultKind::Chunk);
              return L->run_hist_chunk(lo, hi, d, m, ip);
            },
            [&](double* d, const double* sub, int64_t count) { L->fold_bins(d, sub, count); },
            [] { NPAD_FAULT_SITE("hist.kernel_merge", FaultKind::Chunk); });
        return dest;
      }
    }

    // Tier 3: strictly sequential general path.
    stats_->general_hists.fetch_add(1, std::memory_order_relaxed);
    NPAD_FAULT_SITE("hist.general", FaultKind::Chunk);
    int64_t performed = 0;
    for (int64_t i = 0; i < n; ++i) {
      const int64_t b = inds.get_i64(i);
      if (b < 0 || b >= m) continue;
      Value cur = dest.rank() == 1 ? scalar_value(dest.elem, dest, b) : Value(row_view(dest, b));
      Value v = vals.rank() == 1 ? scalar_value(vals.elem, vals, i) : Value(row_view(vals, i));
      std::vector<Value> r = apply(op, {cur, v}, env);
      if (is_array(r[0])) {
        copy_into(dest, b * row, as_array(r[0]));
      } else {
        store_scalar(dest, b, r[0]);
      }
      ++performed;
    }
    stats_->privatized_hist_updates.fetch_add(static_cast<uint64_t>(performed),
                                              std::memory_order_relaxed);
    return dest;
  }

  // ------------------------------------------------------------- scatter ---
  Value eval_scatter(const OpScatter& o, Env& env) const {
    ArrayVal dest = writable(as_array(env.lookup(o.dest)));
    const ArrayVal inds = as_array(env.lookup(o.inds));
    const ArrayVal vals = as_array(env.lookup(o.vals));
    const int64_t n = inds.outer();
    const int64_t m = dest.outer();
    const int64_t row = dest.rank() > 1 ? dest.row_elems() : 1;
    const auto body = [&](int64_t lo, int64_t hi) {
      NPAD_FAULT_SITE("scatter.chunk", FaultKind::Chunk);
      for (int64_t i = lo; i < hi; ++i) {
        const int64_t b = inds.get_i64(i);
        if (b < 0 || b >= m) continue;
        if (dest.rank() == 1) {
          store_scalar(dest, b, scalar_value(vals.elem, vals, i));
        } else {
          copy_into(dest, b * row, row_view(vals, i));
        }
      }
    };
    for_elems(schedule(n, opts_.grain, opts_.grain + 1), opts_.grain, body);
    return dest;
  }

  // ------------------------------------------------------------- withacc ---
  std::vector<Value> eval_withacc(const OpWithAcc& o, Env& env) const {
    NPAD_FAULT_SITE("withacc.body", FaultKind::Chunk);
    const Lambda& f = *o.f;
    std::vector<Value> args;
    for (Var a : o.arrs) {
      args.push_back(AccVal{writable(as_array(env.lookup(a)))});
    }
    std::vector<Value> res = apply(f, std::move(args), env);
    std::vector<Value> out;
    for (size_t i = 0; i < res.size(); ++i) {
      if (i < o.arrs.size()) {
        out.push_back(as_acc(res[i]).arr);
      } else {
        out.push_back(std::move(res[i]));
      }
    }
    return out;
  }

private:
  InterpOptions opts_;
  InterpStats* stats_;
};

} // namespace

Interp::Interp(InterpOptions opts) : opts_(opts) {
  if (opts_.kernel_lanes != 1 && opts_.kernel_lanes != 8) {
    throw std::invalid_argument("InterpOptions::kernel_lanes must be 1 or 8, got " +
                                std::to_string(opts_.kernel_lanes));
  }
}

void check_args(const ir::Prog& p, const std::vector<Value>& args) {
  const auto& params = p.fn.params;
  if (args.size() != params.size()) {
    throw TypeError("program '" + p.fn.name + "' expects " + std::to_string(params.size()) +
                    " argument(s), got " + std::to_string(args.size()));
  }
  for (size_t i = 0; i < params.size(); ++i) {
    const ir::Type& t = params[i].type;
    const Value& v = args[i];
    auto arg = [&] {
      return "program '" + p.fn.name + "': argument " + std::to_string(i) + " (" +
             (p.mod ? p.mod->name(params[i].var) : std::string("?")) + ")";
    };
    if (is_acc(v) || t.is_acc) throw TypeError(arg() + " is an accumulator");
    if (t.rank == 0) {
      if (is_array(v)) {
        throw TypeError(arg() + " expects a scalar, got a rank-" +
                        std::to_string(as_array(v).rank()) + " array");
      }
      if (value_scalar_type(v) != t.elem) throw TypeError(arg() + " scalar type mismatch");
      continue;
    }
    if (!is_array(v)) {
      throw TypeError(arg() + " expects a rank-" + std::to_string(t.rank) + " array, got a scalar");
    }
    const ArrayVal& a = as_array(v);
    if (a.elem != t.elem) throw TypeError(arg() + " element type mismatch");
    if (a.rank() != t.rank) {
      throw ShapeError(arg() + " expects rank " + std::to_string(t.rank) + ", got rank " +
                       std::to_string(a.rank()));
    }
  }
}

std::vector<Value> Interp::run(const ir::Prog& p, const std::vector<Value>& args) const {
  check_args(p, args);
  // Slot-resolve (cached process-wide): the interpreter evaluates the
  // alpha-renamed clone, whose variables index flat frames.
  std::shared_ptr<const ResolvedProg> rp = ProgCache::global().get(p);
  return exec(*rp, args);
}

std::vector<Value> Interp::exec(const ResolvedProg& rp, const std::vector<Value>& args) const {
  EvalCtx ctx(*this);
  Env env(rp, rp.root_activation);
  for (size_t i = 0; i < args.size(); ++i) env.bind(rp.fn.params[i].var, args[i]);
  return ctx.eval_body(rp.fn.body, env, &rp.scalar_blocks[rp.root_activation]);
}

std::vector<Value> run_prog(const ir::Prog& p, const std::vector<Value>& args,
                            InterpOptions opts) {
  Interp in(opts);
  return in.run(p, args);
}

} // namespace npad::rt
