#include "runtime/kernel.hpp"

#include <cmath>
#include <limits>
#include <type_traits>
#include <unordered_map>

#include "ir/visit.hpp"
#include "runtime/vexec.hpp"
#include "support/fault.hpp"

namespace npad::rt {

namespace {

using namespace ir;

class KernelBuilder {
public:
  explicit KernelBuilder(const Lambda& f) : f_(f) {}

  // Reduction form: f_ is the fold operator (2k scalar params -> k scalar
  // results, acc-free), `pre` the optional redomap pre-lambda whose results
  // feed the fold. Layout of the emitted program:
  //   [LoadElem inputs][pre body][Mov pre-results -> elem regs]   (redomap)
  //   or [LoadElem -> elem regs]                                  (plain)
  //   [fold_begin: fold body][writeback Movs -> acc regs :fold_end]
  //   [StoreOut acc regs]                                         (scan)
  // elem/acc registers are always fresh single-purpose registers so the
  // fold subprogram can be re-entered standalone with seeded values.
  std::optional<Kernel> build_reduce(const Lambda* pre, bool scan) {
    // Only the pre-lambda of a plain reduce may update accumulators (the
    // vjp's psum redomaps): the fold body is re-entered standalone for lane,
    // chunk and bin combines, and a scan's phases re-run elements.
    allow_accs_ = !scan;
    const Lambda& op = f_;
    if (op.params.size() % 2 != 0) return std::nullopt;
    const size_t k = op.params.size() / 2;
    if (k == 0 || op.rets.size() != k || op.body.result.size() != k) return std::nullopt;
    for (const auto& p : op.params) {
      if (p.type.rank != 0 || p.type.is_acc) return std::nullopt;
    }
    for (const auto& t : op.rets) {
      if (t.rank != 0 || t.is_acc) return std::nullopt;
    }

    std::vector<int32_t> elem_regs(k, -1);
    if (pre != nullptr) {
      if (pre->rets.size() != k || pre->body.result.size() != k) return std::nullopt;
      for (const auto& t : pre->rets) {
        if (t.rank != 0 || t.is_acc) return std::nullopt;
      }
      for (const auto& p : pre->params) {
        if (p.type.rank != 0 || p.type.is_acc) return std::nullopt;
        const int r = new_reg();
        reg_[p.var.id] = r;
        KInstr in;
        in.op = KOp::LoadElem;
        in.dst = r;
        in.slot = static_cast<int32_t>(k_.num_inputs++);
        k_.instrs.push_back(in);
      }
      if (!body(pre->body.stms)) return std::nullopt;
      // Pin each pre result into a fresh register: the fold subprogram
      // seeds element registers directly, which must never alias a
      // constant or another iteration-invariant register.
      for (size_t j = 0; j < k; ++j) {
        const int r = new_reg();
        KInstr mv;
        mv.op = KOp::Mov;
        mv.dst = r;
        mv.a = use(pre->body.result[j]);
        k_.instrs.push_back(mv);
        elem_regs[j] = r;
      }
    } else {
      for (size_t j = 0; j < k; ++j) {
        const int r = new_reg();
        KInstr in;
        in.op = KOp::LoadElem;
        in.dst = r;
        in.slot = static_cast<int32_t>(k_.num_inputs++);
        k_.instrs.push_back(in);
        elem_regs[j] = r;
      }
    }

    // Fold: acc params get dedicated registers (the per-lane partial
    // accumulators); elem params alias the element registers.
    std::vector<int32_t> acc_regs(k);
    for (size_t j = 0; j < k; ++j) {
      acc_regs[j] = new_reg();
      reg_[op.params[j].var.id] = acc_regs[j];
      reg_[op.params[k + j].var.id] = elem_regs[j];
    }
    allow_accs_ = false;
    k_.fold_begin = k_.instrs.size();
    vm_inlines_.clear();  // the fold subprogram is re-entered standalone
    if (!body(op.body.stms)) return std::nullopt;
    std::vector<int32_t> res_regs(k);
    for (size_t j = 0; j < k; ++j) res_regs[j] = use(op.body.result[j]);
    writeback(acc_regs, std::move(res_regs));
    k_.fold_end = k_.instrs.size();
    if (failed_) return std::nullopt;
    if (scan) {
      for (size_t j = 0; j < k; ++j) {
        KInstr out;
        out.op = KOp::StoreOut;
        out.a = acc_regs[j];
        out.slot = static_cast<int32_t>(k_.out_elems.size());
        k_.instrs.push_back(out);
        k_.out_elems.push_back(op.rets[j].elem);
        k_.ret_acc_slot.push_back(-1);
      }
    }
    for (size_t j = 0; j < k; ++j) {
      k_.reds.push_back(Kernel::RedSlot{acc_regs[j], elem_regs[j]});
    }
    return finish();
  }

  std::optional<Kernel> build() {
    // Parameters: scalars become element inputs; accumulators become slots;
    // rank-1 params become row streams over a rank-2 argument.
    int32_t param_index = 0;
    bool any_rows = false;
    for (const auto& p : f_.params) {
      if (p.type.is_acc) {
        acc_slot_[p.var.id] = add_acc(p.var, param_index++);
      } else if (p.type.rank == 0) {
        ++param_index;
        const int r = new_reg();
        reg_[p.var.id] = r;
        KInstr in;
        in.op = KOp::LoadElem;
        in.dst = r;
        in.slot = static_cast<int32_t>(k_.num_inputs++);
        k_.instrs.push_back(in);
        k_.row_param_slots.push_back(-1);
      } else if (p.type.rank == 1) {
        // Row-stream param: the launch iterates the rows of a rank-2
        // argument (the general path's row_view slicing); the param becomes
        // a stream over the current row, read via [LoadIdx, i] Gathers. The
        // argument array binds into a reserved free-array slot — bind_map_
        // launch enforces rank 2 and eval_map has already checked that its
        // outer extent matches the launch extent.
        ++param_index;
        const auto slot = static_cast<int32_t>(k_.free_arrays.size());
        k_.free_arrays.push_back(Var{});  // placeholder, bound from the argument
        ArgSrc s;
        s.k = ArgSrc::K::StreamA;
        s.stream.slot = slot;
        s.stream.nlead = 1;
        s.stream.lead[0] = row_idx();
        s.stream.len_reg = load_len(slot, 1);
        virt_[p.var.id] = s;
        k_.row_param_slots.push_back(slot);
        any_rows = true;
      } else {
        return std::nullopt;  // higher-rank params are not kernelizable
      }
    }
    if (!any_rows) k_.row_param_slots.clear();
    if (!body(f_.body.stms)) return std::nullopt;
    std::vector<std::pair<int32_t, ArgSrc>> row_outs;  // (slot, virtual array)
    for (size_t ri = 0; ri < f_.body.result.size(); ++ri) {
      const Atom& a = f_.body.result[ri];
      if (a.is_var() && acc_slot_.count(a.var().id)) {  // threaded acc result
        k_.ret_acc_slot.push_back(acc_slot_[a.var().id]);
        continue;
      }
      if (a.is_var() && row_res_.count(a.var().id)) {  // row-bound accumulator
        k_.ret_acc_slot.push_back(row_res_[a.var().id]);
        continue;
      }
      Type t = f_.rets[ri];
      if (t.rank == 1 && !t.is_acc && t.elem == ScalarType::F64 && a.is_var()) {
        // Row result: a virtual array of preamble length, stored row-wise.
        auto vit = virt_.find(a.var().id);
        if (vit == virt_.end() || !preamble(trip_of(vit->second))) return std::nullopt;
        const int32_t slot = add_acc(Var{}, -1);
        k_.accs[static_cast<size_t>(slot)].row_len_reg = trip_of(vit->second);
        k_.accs[static_cast<size_t>(slot)].store = true;
        row_outs.emplace_back(slot, vit->second);
        k_.ret_acc_slot.push_back(slot);
        continue;
      }
      if (t.rank != 0) return std::nullopt;
      KInstr out;
      out.op = KOp::StoreOut;
      out.a = use(a);
      out.slot = static_cast<int32_t>(k_.out_elems.size());
      k_.instrs.push_back(out);
      k_.out_elems.push_back(t.elem);
      k_.ret_acc_slot.push_back(-1);
    }
    if (!store_rows(row_outs) || failed_) return std::nullopt;
    return finish();
  }

private:
  Kernel finish() {
    k_.num_regs = next_reg_;
    return std::move(k_);
  }

  // Virtual SOAC domain: an in-lambda `iota n` (val_reg < 0) or scalar
  // `replicate n v` that is never materialized — it only names the iteration
  // space (len_reg, launch-uniform) and per-iteration value of an inline
  // loop. Any other use of a domain var poisons the compilation (failed_).
  struct Dom {
    int32_t len_reg = -1;
    int32_t val_reg = -1;  // replicate payload; -1 = iota (value is the index)
    bool zeros = false;    // `zeros_like v`: val_reg holds the constant 0
  };

  // Stream: a rank-1 view of a free array consumed element-by-element by an
  // inline loop — `index(A, leads…)` (nlead >= 1) or a whole free rank-1
  // array (nlead == 0, rank enforced by a bind-time guard). Element i reads
  // free_array[slot][leads…, i] via a full-indexing Gather; len_reg holds
  // shape[nlead] of the base array (launch-invariant — shapes are uniform
  // across the launch even when the lead indexes vary per lane). Like a
  // Dom, any use outside scalar indexing / OpLength / an inline-SOAC
  // argument position poisons the compilation.
  struct Stream {
    int32_t slot = -1;
    int32_t nlead = 0;
    int32_t lead[3] = {-1, -1, -1};
    int32_t len_reg = -1;
  };

  // Virtual map: a value-producing map over doms/streams/vmaps that is never
  // materialized — its body is re-inlined per element at each consuming site
  // (an inline fold argument or an array-valued upd_acc). Recomputation per
  // consumer is deliberate: the body is scalar glue, and re-running it is
  // cheaper than materializing a per-lane array the register machine cannot
  // hold. Referenced by index into vmap_infos_ (stable across growth).
  struct VmapRef {
    int32_t info = -1;
    int32_t ret = 0;  // which lambda result this var names
  };

  // Virtual rank-1 array — an inline-SOAC argument source, or any rank-1
  // binding the kernel never materializes: exactly one member is meaningful.
  // Held by value — compiling a nested body may grow virt_ and invalidate
  // pointers into it. OneHotA (`a with [j] <- x` over a dom, vmap or one-hot
  // `a`) indexes onehots_.
  struct ArgSrc {
    enum class K : uint8_t { DomA, StreamA, VmapA, OneHotA };
    K k = K::DomA;
    Dom dom;
    Stream stream;
    VmapRef vm;
    int32_t onehot = -1;
  };

  // One-hot update `base with [j] <- x`: element i is select(i == j, x,
  // base[i]) — the general path's updated copy, element for element. Its
  // trip is the base's; j was bounds-checked where the update was bound.
  struct OneHot {
    ArgSrc base;
    int32_t j_reg = -1;
    int32_t x_reg = -1;
  };

  struct VmapInfo {
    const OpMap* op = nullptr;  // IR-owned, stable for the compile
    std::vector<ArgSrc> srcs;   // resolved at registration time
    int32_t trip = -1;
  };

  int new_reg(bool invariant = false) {
    reg_inv_.push_back(invariant ? 1 : 0);
    return next_reg_++;
  }

  // Launch-invariant registers: written once per launch (constants, free
  // scalars, free-array lengths, and pure functions thereof). Inline-loop
  // trip counts must be invariant so every lane agrees on the extent.
  bool inv(int32_t r) const { return r >= 0 && reg_inv_[static_cast<size_t>(r)] != 0; }

  int add_acc(Var v, int32_t param_index) {
    k_.accs.push_back(Kernel::AccBinding{v, param_index});
    return static_cast<int>(k_.accs.size()) - 1;
  }

  // True when `id` already names a register, array slot, accumulator,
  // virtual array or row-bound result.
  bool bound(uint32_t id) const {
    return reg_.count(id) || arr_slot_.count(id) || acc_slot_.count(id) || virt_.count(id) ||
           row_res_.count(id);
  }

  // Register holding the iteration index, emitted on first use. Callers are
  // top-level statements only (row params, row-bound withacc): inside an
  // inline loop body the index would read the loop's span, not the row.
  int32_t row_idx() {
    if (row_idx_ < 0) {
      row_idx_ = new_reg();
      KInstr in;
      in.op = KOp::LoadIdx;
      in.dst = row_idx_;
      k_.instrs.push_back(in);
    }
    return row_idx_;
  }

  // Appends `op a b c` to a fresh register, invariant when every operand is.
  int32_t emit(KOp op, int32_t a, int32_t b = -1, int32_t c = -1) {
    KInstr in;
    in.op = op;
    in.dst = new_reg(inv(a) && (b < 0 || inv(b)) && (c < 0 || inv(c)));
    in.a = a;
    in.b = b;
    in.c = c;
    k_.instrs.push_back(in);
    return in.dst;
  }

  int32_t const_reg(double v) {
    KInstr in;
    in.op = KOp::ConstF;
    in.dst = new_reg(true);
    in.imm = v;
    k_.instrs.push_back(in);
    return in.dst;
  }

  // Virtual-array index check: the general path raises ShapeError for an
  // out-of-range `a[j]` or `a with [j]`, and so must the kernel.
  void check_idx(int32_t j, int32_t len) {
    KInstr in;
    in.op = KOp::CheckIdx;
    in.a = j;
    in.b = len;
    k_.instrs.push_back(in);
  }

  // UpdAcc of `val` into acc slot `slot` at `idx`; a row-bound slot (a
  // rank-1 accumulator, so exactly one index) gets the iteration index as its
  // leading index. False when the index does not fit.
  bool emit_updacc(int32_t slot, int32_t val, const std::vector<int32_t>& idx) {
    KInstr in;
    in.op = KOp::UpdAcc;
    in.slot = slot;
    in.a = val;
    if (k_.accs[static_cast<size_t>(slot)].row_len_reg >= 0) {
      if (idx.size() != 1) return false;
      in.idx[in.nidx++] = row_idx_;
    }
    const auto nidx = static_cast<size_t>(in.nidx) + idx.size();
    if (nidx == 0 || nidx > 4) return false;
    for (int32_t r : idx) in.idx[in.nidx++] = r;
    k_.instrs.push_back(in);
    return true;
  }

  // Accumulator slot of `v`, registering a free accumulator on first sight;
  // -1 where accumulators are not allowed or `v` is bound to something else.
  int32_t acc_slot_of(Var v) {
    if (!allow_accs_) return -1;
    auto it = acc_slot_.find(v.id);
    if (it != acc_slot_.end()) return it->second;
    if (bound(v.id)) return -1;
    const int32_t slot = add_acc(v, -1);
    acc_slot_[v.id] = slot;
    return slot;
  }

  // Returns the register holding atom `a`, materializing constants and
  // registering free scalar variables on first use.
  int32_t use(const Atom& a) {
    if (a.is_const()) {
      const ConstVal& c = a.cval();
      return const_reg(c.t == ScalarType::F64 ? c.f : static_cast<double>(c.i));
    }
    auto it = reg_.find(a.var().id);
    if (it != reg_.end()) return it->second;
    if (bound(a.var().id)) {
      failed_ = true;  // virtual arrays, accumulators and row results have no register
      return 0;
    }
    // Free scalar variable: reserve a register filled at launch time.
    const int r = new_reg(true);
    reg_[a.var().id] = r;
    k_.free_scalars.push_back(a.var());
    k_.free_scalar_regs.push_back(r);
    return r;
  }

  // Free array used via Gather; -1 when the var is not a known array yet.
  int32_t array_slot(Var v) {
    auto it = arr_slot_.find(v.id);
    if (it != arr_slot_.end()) return it->second;
    if (bound(v.id)) return -1;
    const auto slot = static_cast<int32_t>(k_.free_arrays.size());
    k_.free_arrays.push_back(v);
    arr_slot_[v.id] = slot;
    return slot;
  }

  // Invariant register holding free_array[slot].shape[dim], deduplicated per
  // (slot, dim) so repeated stream creation does not bloat the register file.
  int32_t load_len(int32_t slot, int32_t dim) {
    const int64_t key = static_cast<int64_t>(slot) * 8 + dim;
    auto it = len_reg_.find(key);
    if (it != len_reg_.end()) return it->second;
    KInstr in;
    in.op = KOp::LoadLen;
    in.slot = slot;
    in.b = dim;
    in.dst = new_reg(true);
    k_.instrs.push_back(in);
    len_reg_[key] = in.dst;
    return in.dst;
  }

  void add_rank_guard(int32_t slot, int32_t rank) {
    for (const auto& g : k_.stream_rank_guards) {
      if (g.slot == slot) return;  // one guard per slot suffices (same rank)
    }
    k_.stream_rank_guards.push_back(Kernel::StreamRankGuard{slot, rank});
  }

  // True when lengths `a` and `b` agree: the same register, or two shape
  // registers — a free-array extent (LoadLen) and another extent or a free
  // scalar — tied by a bind-time guard. A binding that violates the guard
  // falls back to the general path, which raises the exact shape error.
  bool tie(int32_t a, int32_t b) {
    if (a == b) return true;
    const auto ea = extent_of(a), eb = extent_of(b);
    if (ea.first < 0 && eb.first < 0) return false;
    if (ea.first >= 0 && eb.first >= 0) {
      const Kernel::StreamLenGuard g{ea.first, ea.second, eb.first, eb.second};
      for (const auto& o : k_.stream_len_guards) {
        if (o.slot_a == g.slot_a && o.dim_a == g.dim_a && o.slot_b == g.slot_b &&
            o.dim_b == g.dim_b) {
          return true;
        }
      }
      k_.stream_len_guards.push_back(g);
      return true;
    }
    const auto& e = ea.first >= 0 ? ea : eb;
    const int32_t r = ea.first >= 0 ? b : a;
    for (size_t i = 0; i < k_.free_scalar_regs.size(); ++i) {
      if (k_.free_scalar_regs[i] != r) continue;
      const Kernel::StreamScalarGuard g{e.first, e.second, static_cast<int32_t>(i)};
      for (const auto& o : k_.stream_scalar_guards) {
        if (o.slot == g.slot && o.dim == g.dim && o.scalar == g.scalar) return true;
      }
      k_.stream_scalar_guards.push_back(g);
      return true;
    }
    return false;
  }

  // (slot, dim) of the LoadLen that writes register `r`, or (-1, 0).
  std::pair<int32_t, int32_t> extent_of(int32_t r) const {
    for (const auto& [key, reg] : len_reg_) {
      if (reg == r) return {static_cast<int32_t>(key / 8), static_cast<int32_t>(key % 8)};
    }
    return {-1, 0};
  }

  // Resolves an inline SOAC's arguments to domains (virtual iota/replicate),
  // streams (rank-1 views and whole free rank-1 arrays) and virtual maps,
  // and unifies their extents into one trip register: the first argument
  // that pins the trip exactly (an iota extent, a vmap trip, a one-hot over
  // either), else the first stream's length. Every argument's length must
  // tie to it (`tie`: register equality — OpLength aliasing makes
  // `length`-derived extents share registers — or a bind-time guard).
  // Returns the trip register, or -1 when the arguments fit no form.
  int32_t soac_trip(const std::vector<Var>& args, std::vector<ArgSrc>& srcs) {
    if (args.empty()) return -1;
    for (Var a : args) {
      ArgSrc s;
      if (auto it = virt_.find(a.id); it != virt_.end()) {
        s = it->second;
      } else {
        // Whole free array consumed as a stream. The builder cannot see its
        // rank, so rank 1 is assumed here and enforced when it is bound.
        const int32_t slot = array_slot(a);
        if (slot < 0) return -1;
        s.k = ArgSrc::K::StreamA;
        s.stream.slot = slot;
        s.stream.nlead = 0;
        s.stream.len_reg = load_len(slot, 0);
        add_rank_guard(slot, 1);
      }
      srcs.push_back(std::move(s));
    }
    int32_t trip = -1;
    for (const ArgSrc& s : srcs) {
      if (trip < 0) trip = pin_of(s);
    }
    for (const ArgSrc& s : srcs) {
      if (trip < 0 && s.k == ArgSrc::K::StreamA) trip = s.stream.len_reg;
    }
    if (trip < 0) return -1;  // replicates alone do not pin the space
    for (const ArgSrc& s : srcs) {
      if (!tie(trip_of(s), trip)) return -1;
    }
    return trip;
  }

  // Length register of a virtual array (launch-invariant for every kind).
  int32_t trip_of(const ArgSrc& s) const {
    switch (s.k) {
      case ArgSrc::K::DomA: return s.dom.len_reg;
      case ArgSrc::K::StreamA: return s.stream.len_reg;
      case ArgSrc::K::VmapA: return vmap_infos_[static_cast<size_t>(s.vm.info)].trip;
      case ArgSrc::K::OneHotA: return trip_of(onehots_[static_cast<size_t>(s.onehot)].base);
    }
    return -1;
  }

  // The trip an argument pins exactly — an iota extent, a vmap trip, a
  // one-hot over either — or -1 (replicates, zeros and streams do not pin).
  int32_t pin_of(const ArgSrc& s) const {
    switch (s.k) {
      case ArgSrc::K::DomA: return s.dom.val_reg < 0 ? s.dom.len_reg : -1;
      case ArgSrc::K::StreamA: return -1;
      case ArgSrc::K::VmapA: return trip_of(s);
      case ArgSrc::K::OneHotA: return pin_of(onehots_[static_cast<size_t>(s.onehot)].base);
    }
    return -1;
  }

  // Element read for an inline-loop iteration: domains alias ivar or the
  // replicate payload; streams emit a full-indexing Gather [leads…, ivar]
  // inside the loop body; vmaps re-inline their body at the call site.
  int32_t soac_elem(const ArgSrc& s, int32_t ivar) {
    if (s.k == ArgSrc::K::DomA) return s.dom.val_reg < 0 ? ivar : s.dom.val_reg;
    if (s.k == ArgSrc::K::VmapA) return vmap_elem(s.vm, ivar);
    if (s.k == ArgSrc::K::OneHotA) {
      const OneHot oh = onehots_[static_cast<size_t>(s.onehot)];  // by value: may grow
      const int32_t base = soac_elem(oh.base, ivar);
      return emit(KOp::Select, emit(KOp::Eq, ivar, oh.j_reg), oh.x_reg, base);
    }
    KInstr in;
    in.op = KOp::Gather;
    in.slot = s.stream.slot;
    in.nidx = s.stream.nlead + 1;
    for (int32_t d = 0; d < s.stream.nlead; ++d) in.idx[d] = s.stream.lead[d];
    in.idx[s.stream.nlead] = ivar;
    in.dst = new_reg();
    k_.instrs.push_back(in);
    return in.dst;
  }

  // Inlines a vmap's body for element `at`: binds the lambda params to the
  // sources' element reads and compiles the body in place (statements land
  // inside whatever loop body is currently open). Re-inlining the same
  // lambda at a second consumer rebinds its vars — reg_/virt_ entries are
  // assigned, not emplaced, so each inline sees fresh registers. An inlining
  // at the same element earlier in the open block (or an enclosing one) is
  // reused instead: every result of the vmap is already in registers.
  int32_t vmap_elem(VmapRef vm, int32_t at) {
    for (const VmapInline& c : vm_inlines_) {
      if (c.info == vm.info && c.at == at) return c.res[static_cast<size_t>(vm.ret)];
    }
    // By value: compiling the body can grow vmap_infos_ and move the entry.
    const VmapInfo vi = vmap_infos_[static_cast<size_t>(vm.info)];
    const Lambda& f = *vi.op->f;
    for (size_t j = 0; j < f.params.size(); ++j) {
      reg_[f.params[j].var.id] = soac_elem(vi.srcs[j], at);
    }
    if (failed_ || !body(f.body.stms)) {
      failed_ = true;
      return 0;
    }
    VmapInline c{vm.info, at, {}};
    for (const Atom& r : f.body.result) c.res.push_back(use(r));
    vm_inlines_.push_back(c);
    return c.res[static_cast<size_t>(vm.ret)];
  }

  // Registers a value-producing map over doms/streams/vmaps as a virtual
  // map: nothing is emitted here; each consumer re-inlines the body per
  // element. Recomputation across consumers is deliberate — the body is
  // scalar glue, and re-running it beats materializing a per-lane array the
  // register machine cannot hold.
  bool vmap_register(const OpMap& o, const Stm& st) {
    const Lambda& f = *o.f;
    if (f.params.size() != o.args.size() || f.rets.size() != st.vars.size()) return false;
    for (const auto& p : f.params) {
      if (p.type.rank != 0 || p.type.is_acc) return false;
    }
    for (size_t r = 0; r < f.rets.size(); ++r) {
      if (f.rets[r].rank != 0 || f.rets[r].is_acc) return false;
      if (st.types[r].rank != 1 || st.types[r].is_acc) return false;
    }
    VmapInfo vi;
    vi.op = &o;
    vi.trip = soac_trip(o.args, vi.srcs);
    if (vi.trip < 0 || failed_) return false;
    const auto idx = static_cast<int32_t>(vmap_infos_.size());
    vmap_infos_.push_back(std::move(vi));
    for (size_t r = 0; r < st.vars.size(); ++r) {
      ArgSrc a;
      a.k = ArgSrc::K::VmapA;
      a.vm = VmapRef{idx, static_cast<int32_t>(r)};
      virt_[st.vars[r].id] = a;
    }
    return true;
  }

  // Array-valued `upd_acc acc [leads…] += v` with a virtual rank-1 `v` ->
  // inline loop of scalar UpdAccs at [leads…, i], reading v's element i (a
  // vmap re-inlines its body per element). Matches the general path's
  // elementwise add of the array into the acc row. `ups` is one such
  // statement, or a run of them over results of one vmap (see body()): they
  // share the loop and the vmap inlining, and each element still receives
  // its adds in statement order, since every loop adds to [leads…, i] once.
  bool acc_virt_loop(const std::vector<const Stm*>& ups) {
    struct Upd {
      int32_t slot;
      std::vector<int32_t> idx;
      ArgSrc v;
    };
    std::vector<Upd> us;
    for (const Stm* st : ups) {
      const auto& o = std::get<OpUpdAcc>(st->e);
      Upd u{acc_slot_of(o.acc), {}, virt_.at(o.v.var().id)};
      if (u.slot < 0) return false;
      for (const Atom& a : o.idx) u.idx.push_back(use(a));
      acc_slot_[st->vars[0].id] = u.slot;  // threaded result aliases the slot
      us.push_back(std::move(u));
    }
    if (failed_) return false;
    OpenLoop lp = open_loop(trip_of(us[0].v));
    for (Upd& u : us) {
      const int32_t e = soac_elem(u.v, lp.il.ivar_reg);
      u.idx.push_back(lp.il.ivar_reg);
      if (failed_ || !emit_updacc(u.slot, e, u.idx)) return false;
    }
    close_loop(lp);
    return true;
  }

  // The vmap whose result `st` adds into an accumulator, or -1.
  int32_t vmap_upd_info(const Stm& st) const {
    const auto* u = std::get_if<OpUpdAcc>(&st.e);
    if (u == nullptr || !u->v.is_var() || st.vars.size() != 1) return -1;
    auto it = virt_.find(u->v.var().id);
    if (it == virt_.end() || it->second.k != ArgSrc::K::VmapA) return -1;
    return it->second.vm.info;
  }

  // Compiles a body's statements in order; a run of consecutive upd_accs
  // from results of one vmap compiles as one shared loop (acc_virt_loop).
  bool body(const std::vector<Stm>& stms) {
    for (size_t i = 0; i < stms.size();) {
      std::vector<const Stm*> run;
      const int32_t info = vmap_upd_info(stms[i]);
      for (size_t j = i; info >= 0 && j < stms.size() && vmap_upd_info(stms[j]) == info; ++j) {
        run.push_back(&stms[j]);
      }
      if (run.size() >= 2) {
        if (!acc_virt_loop(run)) return false;
        i += run.size();
        continue;
      }
      if (!stm(stms[i])) return false;
      ++i;
    }
    return true;
  }

  // An inline block under construction: its reserved loops[] slot (taken at
  // open, so nested markers keep slot order), its descriptor, and the vmap
  // inlinings visible before it opened.
  struct OpenLoop {
    int32_t slot = -1;
    Kernel::InlineLoop il;
    size_t inlines = 0;
  };

  // Emits the marker of an inline block over `trip` with a fresh index
  // register; the caller compiles the body and then calls close_loop.
  OpenLoop open_loop(int32_t trip) {
    OpenLoop lp;
    lp.slot = static_cast<int32_t>(k_.loops.size());
    k_.loops.emplace_back();
    KInstr mk;
    mk.op = KOp::InlineLoop;
    mk.slot = lp.slot;
    k_.instrs.push_back(mk);
    lp.il.trip_reg = trip;
    lp.il.ivar_reg = new_reg();
    lp.il.body_begin = static_cast<uint32_t>(k_.instrs.size());
    lp.inlines = vm_inlines_.size();
    return lp;
  }

  // Ends the block: vmap inlinings made inside it are not visible after it
  // (a zero-trip loop never computes them).
  void close_loop(OpenLoop& lp) {
    lp.il.body_end = static_cast<uint32_t>(k_.instrs.size());
    k_.loops[static_cast<size_t>(lp.slot)] = lp.il;
    vm_inlines_.resize(lp.inlines);
  }

  bool stm(const Stm& st) {
    // Maps with accumulator params or no results run in place as inline
    // side-effect loops; value-producing maps become virtual maps
    // (consumers inline the body).
    if (const auto* m = std::get_if<OpMap>(&st.e); m != nullptr) {
      bool threads_accs = st.vars.empty();
      for (const auto& p : m->f->params) threads_accs = threads_accs || p.type.is_acc;
      return (threads_accs ? inline_map(*m, st) : vmap_register(*m, st)) && !failed_;
    }
    if (st.vars.empty()) return false;
    if (const auto* lp = std::get_if<OpLoop>(&st.e); lp != nullptr) {
      return inline_for(*lp, st) && !failed_;
    }
    if (const auto* wa = std::get_if<OpWithAcc>(&st.e); wa != nullptr) {
      return row_withacc(*wa, st) && !failed_;
    }
    if (st.vars.size() != 1) {
      // Multi-result reduce (jvp (primal, tangent) pairs, argmin tuples):
      // one inline fold with parallel accumulators.
      if (const auto* rd = std::get_if<OpReduce>(&st.e); rd != nullptr) {
        return inline_fold(*rd, st) && !failed_;
      }
      return false;
    }
    const Var dst = st.vars[0];
    const Type dt = st.types[0];
    auto simple = [&](KOp op, int32_t a, int32_t b = -1, int32_t c = -1) {
      reg_[dst.id] = emit(op, a, b, c);
      return true;
    };
    const bool ok = std::visit(
        Overload{
            [&](const OpAtom& o) {
              if (dt.is_acc) {
                if (!o.a.is_var()) return false;
                auto it = acc_slot_.find(o.a.var().id);
                if (it == acc_slot_.end()) return false;
                acc_slot_[dst.id] = it->second;
                return true;
              }
              if (dt.rank != 0) return false;
              return simple(KOp::Mov, use(o.a));
            },
            [&](const OpBin& o) {
              static constexpr KOp table[] = {KOp::Add, KOp::Sub, KOp::Mul, KOp::Div,
                                              KOp::Pow, KOp::Min, KOp::Max, KOp::Mod,
                                              KOp::Eq,  KOp::Ne,  KOp::Lt,  KOp::Le,
                                              KOp::Gt,  KOp::Ge,  KOp::And, KOp::Or};
              KOp op = table[static_cast<size_t>(o.op)];
              // Integer division must truncate (registers are doubles).
              if (op == KOp::Div && dt.elem == ScalarType::I64) op = KOp::IDiv;
              return simple(op, use(o.a), use(o.b));
            },
            [&](const OpUn& o) {
              KOp op;
              switch (o.op) {
                case UnOp::Neg: op = KOp::Neg; break;
                case UnOp::Exp: op = KOp::Exp; break;
                case UnOp::Log: op = KOp::Log; break;
                case UnOp::Sqrt: op = KOp::Sqrt; break;
                case UnOp::Sin: op = KOp::Sin; break;
                case UnOp::Cos: op = KOp::Cos; break;
                case UnOp::Tanh: op = KOp::Tanh; break;
                case UnOp::Abs: op = KOp::Abs; break;
                case UnOp::Sign: op = KOp::Sign; break;
                case UnOp::LGamma: op = KOp::LGamma; break;
                case UnOp::Digamma: op = KOp::Digamma; break;
                case UnOp::Not: op = KOp::Not; break;
                case UnOp::ToF64: op = KOp::Mov; break;
                case UnOp::ToI64: op = KOp::Trunc; break;
                default: return false;
              }
              return simple(op, use(o.a));
            },
            [&](const OpSelect& o) { return simple(KOp::Select, use(o.c), use(o.t), use(o.f)); },
            [&](const OpIndex& o) {
              if (o.idx.empty() || o.idx.size() > 4) return false;
              if (auto vit = virt_.find(o.arr.id); vit != virt_.end()) {
                // Scalar read of a virtual array's element j: a stream's
                // Gather [leads…, j] bounds-checks itself; doms, vmaps (re-
                // inlined at j) and one-hots check j against their trip.
                if (dt.rank != 0 || o.idx.size() != 1) return false;
                const ArgSrc v = vit->second;
                const int32_t j = use(o.idx[0]);
                if (failed_) return false;
                if (v.k != ArgSrc::K::StreamA) check_idx(j, trip_of(v));
                reg_[dst.id] = soac_elem(v, j);
                return true;
              }
              if (dt.rank == 1 && !dt.is_acc && o.idx.size() <= 3) {
                // Rank-1 row view of a free array: a stream — never
                // materialized, only consumed by inline SOACs, scalar
                // indexing and OpLength. Typecheck pins the base rank at
                // idx.size() + 1, matching the Gather's full indexing.
                const int32_t slot = array_slot(o.arr);
                if (slot < 0) return false;
                Stream s;
                s.slot = slot;
                s.nlead = static_cast<int32_t>(o.idx.size());
                for (size_t i = 0; i < o.idx.size(); ++i) s.lead[i] = use(o.idx[i]);
                s.len_reg = load_len(slot, s.nlead);
                if (failed_) return false;
                ArgSrc a;
                a.k = ArgSrc::K::StreamA;
                a.stream = s;
                virt_[dst.id] = a;  // assign: vmap re-inlining rebinds ids
                return true;
              }
              if (dt.rank != 0) return false;
              const int32_t slot = array_slot(o.arr);
              if (slot < 0) return false;
              KInstr in;
              in.op = KOp::Gather;
              in.slot = slot;
              in.nidx = static_cast<int32_t>(o.idx.size());
              for (size_t i = 0; i < o.idx.size(); ++i) in.idx[i] = use(o.idx[i]);
              in.dst = new_reg();
              k_.instrs.push_back(in);
              reg_[dst.id] = in.dst;
              return true;
            },
            [&](const OpIota& o) {
              // Virtual domain: only legal with a launch-uniform extent.
              if (dt.rank != 1 || dt.is_acc) return false;
              const int32_t n = use(o.n);
              if (failed_ || !inv(n)) return false;
              virt_[dst.id] = dom_src(Dom{n, -1});  // assign: vmap re-inlining rebinds ids
              return true;
            },
            [&](const OpReplicate& o) {
              if (dt.rank != 1 || dt.is_acc) return false;  // scalar payload only
              const int32_t n = use(o.n);
              const int32_t v = use(o.v);
              if (failed_ || !inv(n)) return false;
              virt_[dst.id] = dom_src(Dom{n, v});  // assign: vmap re-inlining rebinds ids
              return true;
            },
            [&](const OpZerosLike& o) {
              // A scalar zero is a constant; `zeros_like v` of a rank-1 v is
              // a constant-zero domain with v's (invariant) length.
              if (dt.is_acc || dt.rank > 1) return false;
              if (dt.rank == 0) {
                reg_[dst.id] = const_reg(0.0);
                return true;
              }
              int32_t len = -1;
              if (auto vit = virt_.find(o.v.id); vit != virt_.end()) {
                len = trip_of(vit->second);
              } else {
                const int32_t slot = array_slot(o.v);
                if (slot < 0) return false;
                len = load_len(slot, 0);
              }
              virt_[dst.id] = dom_src(Dom{len, const_reg(0.0), /*zeros=*/true});
              return true;
            },
            [&](const OpUpdate& o) {
              // `a with [j] <- x` over a virtual dom/vmap/one-hot: a one-hot
              // virtual array, j checked here like the general path's update.
              if (dt.rank != 1 || dt.is_acc || o.idx.size() != 1) return false;
              auto vit = virt_.find(o.arr.id);
              if (vit == virt_.end() || vit->second.k == ArgSrc::K::StreamA) return false;
              OneHot oh;
              oh.base = vit->second;
              oh.j_reg = use(o.idx[0]);
              oh.x_reg = use(o.v);
              if (failed_) return false;
              check_idx(oh.j_reg, trip_of(oh.base));
              ArgSrc a;
              a.k = ArgSrc::K::OneHotA;
              a.onehot = static_cast<int32_t>(onehots_.size());
              onehots_.push_back(oh);
              virt_[dst.id] = a;
              return true;
            },
            [&](const OpLength& o) {
              if (dt.rank != 0) return false;
              if (auto vit = virt_.find(o.arr.id); vit != virt_.end()) {
                reg_[dst.id] = trip_of(vit->second);  // alias the virtual array's length
                return true;
              }
              const int32_t slot = array_slot(o.arr);
              if (slot < 0) return false;
              reg_[dst.id] = load_len(slot, 0);
              return true;
            },
            [&](const OpReduce& o) { return inline_fold(o, st); },
            [&](const OpUpdAcc& o) {
              // Array-valued update from a virtual array: inline UpdAcc loop.
              if (o.v.is_var() && virt_.count(o.v.var().id)) return acc_virt_loop({&st});
              const int32_t slot = acc_slot_of(o.acc);
              if (slot < 0) return false;
              const int32_t v = use(o.v);
              std::vector<int32_t> idx;
              for (const Atom& a : o.idx) idx.push_back(use(a));
              if (failed_ || !emit_updacc(slot, v, idx)) return false;
              acc_slot_[dst.id] = slot;  // threaded result aliases the slot
              return true;
            },
            [&](const auto&) { return false; },
        },
        st.e);
    return ok && !failed_;
  }

  // Scalar-result redomap/reduce over virtual domains or streams -> inline
  // fold block, with k parallel accumulators for k-result folds (the jvp
  // programs' (primal, tangent) and argmin-style reduce tuples). Sequential
  // element order — identical float grouping to the general interpreter's
  // fold, so kernelizing the enclosing lambda never perturbs results
  // (runtime/README.md).
  bool inline_fold(const OpReduce& o, const Stm& st) {
    const size_t k = st.vars.size();
    for (const auto& t : st.types) {
      if (t.rank != 0 || t.is_acc) return false;
    }
    const Lambda& op = *o.op;
    if (op.params.size() != 2 * k || op.rets.size() != k || op.body.result.size() != k ||
        o.neutral.size() != k || o.args.empty()) {
      return false;
    }
    for (const auto& p : op.params) {
      if (p.type.rank != 0 || p.type.is_acc) return false;
    }
    for (const auto& t : op.rets) {
      if (t.rank != 0 || t.is_acc) return false;
    }
    std::vector<ArgSrc> srcs;
    const int32_t trip = soac_trip(o.args, srcs);
    if (trip < 0) return false;
    if (o.pre != nullptr) {
      if (o.pre->params.size() != o.args.size() || o.pre->rets.size() != k ||
          o.pre->body.result.size() != k) {
        return false;
      }
      for (const auto& p : o.pre->params) {
        if (p.type.rank != 0 || p.type.is_acc) return false;
      }
      for (const auto& t : o.pre->rets) {
        if (t.rank != 0 || t.is_acc) return false;
      }
    } else if (o.args.size() != k) {
      return false;
    }
    std::vector<int32_t> ne(k);
    for (size_t j = 0; j < k; ++j) ne[j] = use(o.neutral[j]);
    if (failed_) return false;
    OpenLoop lp = open_loop(trip);
    const int32_t ivar = lp.il.ivar_reg;
    std::vector<int32_t> elems(k);
    if (o.pre != nullptr) {
      for (size_t j = 0; j < o.args.size(); ++j) {
        reg_[o.pre->params[j].var.id] = soac_elem(srcs[j], ivar);
      }
      if (!body(o.pre->body.stms)) return false;
      for (size_t j = 0; j < k; ++j) elems[j] = use(o.pre->body.result[j]);
    } else {
      for (size_t j = 0; j < k; ++j) elems[j] = soac_elem(srcs[j], ivar);
    }
    std::vector<int32_t> accs(k);
    for (size_t j = 0; j < k; ++j) {
      accs[j] = new_reg();
      reg_[op.params[j].var.id] = accs[j];
      reg_[op.params[k + j].var.id] = elems[j];
    }
    if (!body(op.body.stms)) return false;
    std::vector<int32_t> res(k);
    for (size_t j = 0; j < k; ++j) res[j] = use(op.body.result[j]);
    if (failed_) return false;
    writeback(accs, std::move(res));
    lp.il.acc_reg = accs[0];
    lp.il.neutral_reg = ne[0];
    for (size_t j = 1; j < k; ++j) {
      lp.il.more_accs.push_back(accs[j]);
      lp.il.more_neutrals.push_back(ne[j]);
    }
    close_loop(lp);
    for (size_t j = 0; j < k; ++j) {
      reg_[st.vars[j].id] = accs[j];  // assign: vmap re-inlining rebinds ids
    }
    return true;
  }

  // Writeback dst_j <- src_j at the end of a fold step or loop trip, through
  // temporaries when more than one value is carried so a body returning a
  // permutation of its carries cannot clobber a not-yet-moved one.
  void writeback(const std::vector<int32_t>& dst, std::vector<int32_t> src) {
    if (dst.size() > 1) {
      for (int32_t& r : src) {
        KInstr mv;
        mv.op = KOp::Mov;
        mv.dst = new_reg();
        mv.a = r;
        k_.instrs.push_back(mv);
        r = mv.dst;
      }
    }
    for (size_t j = 0; j < dst.size(); ++j) {
      if (src[j] == dst[j]) continue;
      KInstr mv;
      mv.op = KOp::Mov;
      mv.dst = dst[j];
      mv.a = src[j];
      k_.instrs.push_back(mv);
    }
  }

  // Sequential for-loop -> InlineLoop (counted form). Scalar carries get
  // fresh registers seeded from `init` on loop entry (the fold form's
  // acc/neutral pairs) and written back at the end of every trip; acc-typed
  // carries alias their init's accumulator slot. Array-valued carries have
  // no register and reject the lambda (opt's DCE drops the dead checkpoint
  // arrays the vjp threads through loops). The trip is `count` as it is: a
  // zero or negative count runs no trip, like the general path, and a count
  // that is not launch-invariant makes lanes disagree on it, so the kernel
  // is marked !uniform_trips and runs one lane per launch.
  bool inline_for(const OpLoop& o, const Stm& st) {
    const size_t n = o.params.size();
    if (o.while_cond || n == 0 || o.init.size() != n || o.body->result.size() != n) return false;
    // Resolve every init before binding a param: a param may shadow an id
    // an init reads.
    std::vector<int32_t> seeds, slots(n, -1);
    for (size_t j = 0; j < n; ++j) {
      const Type& t = o.params[j].type;
      if (t.is_acc) {
        if (!o.init[j].is_var()) return false;
        slots[j] = acc_slot_of(o.init[j].var());
        if (slots[j] < 0) return false;
      } else if (t.rank == 0) {
        seeds.push_back(use(o.init[j]));
      } else {
        return false;
      }
    }
    const int32_t trip = use(o.count);
    if (failed_) return false;
    if (!inv(trip)) k_.uniform_trips = false;
    std::vector<int32_t> carries;
    for (size_t j = 0; j < n; ++j) {
      const uint32_t id = o.params[j].var.id;
      if (slots[j] >= 0) {
        acc_slot_[id] = slots[j];
      } else {
        carries.push_back(new_reg());
        reg_[id] = carries.back();
      }
    }
    OpenLoop lp = open_loop(trip);
    lp.il.counted = true;
    if (o.idx.valid()) reg_[o.idx.id] = lp.il.ivar_reg;
    if (!body(o.body->stms)) return false;
    std::vector<int32_t> res;
    for (size_t j = 0; j < n; ++j) {
      const Atom& r = o.body->result[j];
      if (slots[j] < 0) {
        res.push_back(use(r));
      } else if (!same_acc(r, slots[j])) {
        return false;  // an acc carry must come back as the same accumulator
      }
    }
    if (failed_) return false;
    writeback(carries, std::move(res));
    if (!carries.empty()) {
      lp.il.acc_reg = carries[0];
      lp.il.neutral_reg = seeds[0];
      lp.il.more_accs.assign(carries.begin() + 1, carries.end());
      lp.il.more_neutrals.assign(seeds.begin() + 1, seeds.end());
    }
    close_loop(lp);
    for (size_t j = 0, c = 0; j < n; ++j) {
      if (slots[j] >= 0) {
        acc_slot_[st.vars[j].id] = slots[j];
      } else {
        reg_[st.vars[j].id] = carries[c++];
      }
    }
    return true;
  }

  // Map over virtual arrays whose body is scalar glue plus accumulator
  // updates -> inline side-effect loop (the reverse sweep's scatter-style
  // accumulation pattern). Acc-typed params alias the slot of their
  // argument; the map's results must be those accumulators again, in
  // parameter order — what the general path returns for any extent,
  // including an empty one.
  bool inline_map(const OpMap& o, const Stm& st) {
    if (!allow_accs_) return false;
    const Lambda& f = *o.f;
    if (f.params.size() != o.args.size() || f.rets.size() != st.vars.size() ||
        f.body.result.size() != f.rets.size()) {
      return false;
    }
    std::vector<Var> elems;
    std::vector<int32_t> slots;  // per acc param, in order
    for (size_t j = 0; j < f.params.size(); ++j) {
      const Type& t = f.params[j].type;
      if (t.is_acc) {
        slots.push_back(acc_slot_of(o.args[j]));
        if (slots.back() < 0) return false;
      } else if (t.rank == 0) {
        elems.push_back(o.args[j]);
      } else {
        return false;
      }
    }
    if (f.rets.size() > slots.size()) return false;
    std::vector<ArgSrc> srcs;
    const int32_t trip = soac_trip(elems, srcs);
    if (trip < 0) return false;
    OpenLoop lp = open_loop(trip);
    for (size_t j = 0, e = 0, a = 0; j < f.params.size(); ++j) {
      const uint32_t id = f.params[j].var.id;
      if (f.params[j].type.is_acc) {
        acc_slot_[id] = slots[a++];
      } else {
        reg_[id] = soac_elem(srcs[e++], lp.il.ivar_reg);
      }
    }
    if (!body(f.body.stms)) return false;
    for (size_t r = 0; r < f.rets.size(); ++r) {
      if (!same_acc(f.body.result[r], slots[r])) return false;
      acc_slot_[st.vars[r].id] = slots[r];
    }
    close_loop(lp);
    return !failed_;
  }

  // True when `r` names accumulator slot `slot`.
  bool same_acc(const Atom& r, int32_t slot) const {
    if (!r.is_var()) return false;
    auto it = acc_slot_.find(r.var().id);
    return it != acc_slot_.end() && it->second == slot;
  }

  // Row-bound local accumulators: `withacc (zeros_like a…) (λacc… → accs)`
  // whose results are all returned directly (once each) as rank-1 f64
  // results of the kernel lambda — the per-point adjoint row of a reverse
  // map. Each accumulator binds to a zero-filled [n][len] launch result, len
  // the zeros' length, which must be a preamble register (a free scalar, a
  // constant or a LoadLen) so the launch can size it before running.
  bool row_withacc(const OpWithAcc& o, const Stm& st) {
    if (!allow_accs_) return false;
    const Lambda& f = *o.f;
    const size_t m = o.arrs.size();
    if (m == 0 || f.params.size() != m || f.rets.size() != m || f.body.result.size() != m ||
        st.vars.size() != m) {
      return false;
    }
    std::vector<int32_t> lens(m);
    for (size_t j = 0; j < m; ++j) {
      if (!f.params[j].type.is_acc || st.types[j].rank != 1 ||
          st.types[j].elem != ScalarType::F64) {
        return false;
      }
      size_t uses = 0;
      for (size_t ri = 0; ri < f_.body.result.size(); ++ri) {
        const Atom& a = f_.body.result[ri];
        if (a.is_var() && a.var() == st.vars[j]) ++uses;
      }
      auto vit = virt_.find(o.arrs[j].id);
      if (uses != 1 || vit == virt_.end() || vit->second.k != ArgSrc::K::DomA ||
          !vit->second.dom.zeros || !preamble(vit->second.dom.len_reg)) {
        return false;
      }
      lens[j] = vit->second.dom.len_reg;
    }
    row_idx();
    std::vector<int32_t> slots(m);
    for (size_t j = 0; j < m; ++j) {
      slots[j] = add_acc(Var{}, -1);
      k_.accs[static_cast<size_t>(slots[j])].row_len_reg = lens[j];
      acc_slot_[f.params[j].var.id] = slots[j];
    }
    if (!body(f.body.stms)) return false;
    for (size_t j = 0; j < m; ++j) {
      if (!same_acc(f.body.result[j], slots[j])) return false;
      row_res_[st.vars[j].id] = slots[j];
    }
    return true;
  }

  // Fills the row results: one inline loop per distinct length, storing
  // element j of each virtual array at [row, j] (vmap results of one loop
  // share their inlining).
  bool store_rows(const std::vector<std::pair<int32_t, ArgSrc>>& outs) {
    std::vector<bool> done(outs.size(), false);
    for (size_t i = 0; i < outs.size(); ++i) {
      if (done[i]) continue;
      const int32_t trip = trip_of(outs[i].second);
      const int32_t row = row_idx();
      OpenLoop lp = open_loop(trip);
      for (size_t j = i; j < outs.size(); ++j) {
        if (done[j] || trip_of(outs[j].second) != trip) continue;
        done[j] = true;
        KInstr in;
        in.op = KOp::StoreIdx;
        in.slot = outs[j].first;
        in.a = soac_elem(outs[j].second, lp.il.ivar_reg);
        in.nidx = 2;
        in.idx[0] = row;
        in.idx[1] = lp.il.ivar_reg;
        if (failed_) return false;
        k_.instrs.push_back(in);
      }
      close_loop(lp);
    }
    return true;
  }

  // A register the launch fills before the first instruction: a free
  // scalar, or the destination of a ConstF/LoadLen.
  bool preamble(int32_t r) const {
    for (int32_t f : k_.free_scalar_regs) {
      if (f == r) return true;
    }
    for (const auto& in : k_.instrs) {
      if (in.dst == r && (in.op == KOp::ConstF || in.op == KOp::LoadLen)) return true;
    }
    return false;
  }

  static ArgSrc dom_src(Dom d) {
    ArgSrc a;
    a.k = ArgSrc::K::DomA;
    a.dom = d;
    return a;
  }

  const Lambda& f_;
  Kernel k_;
  bool allow_accs_ = true;
  bool failed_ = false;
  int next_reg_ = 0;
  std::vector<uint8_t> reg_inv_;  // per register: launch-invariant?
  std::unordered_map<uint32_t, int32_t> reg_;
  std::unordered_map<uint32_t, int32_t> arr_slot_;
  std::unordered_map<uint32_t, int32_t> acc_slot_;
  std::unordered_map<uint32_t, ArgSrc> virt_;     // virtual rank-1 arrays
  std::unordered_map<uint32_t, int32_t> row_res_; // withacc result -> row-bound acc slot
  std::vector<VmapInfo> vmap_infos_;
  std::vector<OneHot> onehots_;
  // Vmap inlinings visible at the current point: (vmap, element register) ->
  // result registers. Scoped to the open blocks (open_loop/close_loop).
  struct VmapInline {
    int32_t info, at;
    std::vector<int32_t> res;
  };
  std::vector<VmapInline> vm_inlines_;
  int32_t row_idx_ = -1;  // LoadIdx register, -1 until a top-level use
  std::unordered_map<int64_t, int32_t> len_reg_;  // (slot * 8 + dim) -> register
};

// Data-dependent gather/StoreIdx indices must raise the same typed error the
// general interpreter raises, not read out of bounds (streams let arbitrary
// scalar indices reach kernels). Cold path, kept out of the address loops.
[[noreturn]] static void throw_kernel_oob(int64_t i, int32_t axis, int64_t extent) {
  throw ShapeError("index " + std::to_string(i) + " out of bounds for kernel array axis " +
                   std::to_string(axis) + " of extent " + std::to_string(extent));
}

// Flat offset of lane l's full index (the leading `nidx` dims of a rank-nidx
// array) over the SoA register file (regs[reg*W + lane]). An out-of-range
// index raises, or with kIgnoreOob returns -1: an upd_acc out of range is
// ignored, as in the general evaluator's eval_updacc and the paper's scatter.
template <bool kIgnoreOob = false>
inline int64_t flat_index_lane(const ArrayVal& a, const double* regs, int W, int l,
                               const int32_t* idx, int32_t nidx) {
  int64_t off = 0;
  int64_t stride = 1;
  for (int32_t d = nidx - 1; d >= 0; --d) {
    const auto i = static_cast<int64_t>(regs[idx[d] * W + l]);
    const auto ext = a.shape[static_cast<size_t>(d)];
    if (i < 0 || i >= ext) {
      if constexpr (kIgnoreOob) return -1;
      throw_kernel_oob(i, d, ext);
    }
    off += i * stride;
    stride *= ext;
  }
  return off;
}

// Broadcasts the iteration-invariant registers (each register has a single
// writer): free scalars and constants, once per register file.
void init_invariant(const KernelLaunch& L, double* r, int W) {
  const Kernel& k = *L.k;
  for (size_t i = 0; i < k.free_scalar_regs.size(); ++i) {
    for (int l = 0; l < W; ++l) r[k.free_scalar_regs[i] * W + l] = L.free_scalar_vals[i];
  }
  for (const auto& in : k.instrs) {
    if (in.op == KOp::ConstF) {
      for (int l = 0; l < W; ++l) r[in.dst * W + l] = in.imm;
    } else if (in.op == KOp::LoadLen) {
      const ArrayVal& arr = L.free_array_vals[static_cast<size_t>(in.slot)];
      const auto dim = static_cast<size_t>(in.b > 0 ? in.b : 0);
      const double v =
          static_cast<double>(dim < arr.shape.size() ? arr.shape[dim] : 0);
      for (int l = 0; l < W; ++l) r[in.dst * W + l] = v;
    }
  }
}

// Executes full batches of W iterations of the instruction range [ib, ie)
// over a structure-of-arrays register file `r` prepared by init_invariant:
// register x's lane l lives at r[x*W + l]. The per-instruction dispatch runs
// once per batch; each case loops over the W lanes, so the switch cost is
// amortized W-fold and the lane loops are trivially vectorizable. W is a
// compile-time lane count (1 or 8, InterpOptions::kernel_lanes). Register
// state persists across calls — reduction drivers seed accumulator/element
// registers between spans and re-enter the fold subprogram standalone.
//
// Lane layout (`lane_stride`):
//  - 1 (maps, scans): lane l of a batch handles element base + l; batches
//    advance by W; requires (hi - lo) % W == 0 (the caller runs a scalar
//    tail loop); LoadElem/StoreOut are contiguous strips.
//  - blk (reductions): lane l handles element base + l*blk; batches advance
//    by 1 over [lo, lo + blk), so lane l folds the *contiguous* block
//    [lo + l*blk, lo + (l+1)*blk). Combining lane partials in lane order
//    then preserves element order — the fold operator only needs to be
//    associative (the reduce contract), never commutative.
template <int W>
void exec_span(const KernelLaunch& L, double* r, int64_t lo, int64_t hi, size_t ib, size_t ie,
               int64_t lane_stride = 1) {
  const Kernel& k = *L.k;
  const int64_t advance = lane_stride == 1 ? W : 1;
  for (int64_t base = lo; base < hi; base += advance) {
    for (size_t ii = ib; ii < ie; ++ii) {
      const KInstr& in = k.instrs[ii];
      double* d = r + static_cast<int64_t>(in.dst) * W;
      const double* a = in.a >= 0 ? r + static_cast<int64_t>(in.a) * W : nullptr;
      const double* b = in.b >= 0 ? r + static_cast<int64_t>(in.b) * W : nullptr;
      const double* c = in.c >= 0 ? r + static_cast<int64_t>(in.c) * W : nullptr;
      switch (in.op) {
        case KOp::ConstF: break;  // broadcast in the preamble
        case KOp::Mov: for (int l = 0; l < W; ++l) d[l] = a[l]; break;
        case KOp::Add: for (int l = 0; l < W; ++l) d[l] = a[l] + b[l]; break;
        case KOp::Sub: for (int l = 0; l < W; ++l) d[l] = a[l] - b[l]; break;
        case KOp::Mul: for (int l = 0; l < W; ++l) d[l] = a[l] * b[l]; break;
        case KOp::Div: for (int l = 0; l < W; ++l) d[l] = a[l] / b[l]; break;
        case KOp::IDiv:
          for (int l = 0; l < W; ++l) {
            const auto x = static_cast<int64_t>(a[l]), y = static_cast<int64_t>(b[l]);
            d[l] = static_cast<double>(y == 0 ? 0 : x / y);
          }
          break;
        case KOp::Pow: for (int l = 0; l < W; ++l) d[l] = std::pow(a[l], b[l]); break;
        case KOp::Min: for (int l = 0; l < W; ++l) d[l] = std::min(a[l], b[l]); break;
        case KOp::Max: for (int l = 0; l < W; ++l) d[l] = std::max(a[l], b[l]); break;
        case KOp::Mod:
          for (int l = 0; l < W; ++l) {
            const auto x = static_cast<int64_t>(a[l]), y = static_cast<int64_t>(b[l]);
            d[l] = static_cast<double>(y == 0 ? 0 : x % y);
          }
          break;
        case KOp::Eq: for (int l = 0; l < W; ++l) d[l] = a[l] == b[l] ? 1.0 : 0.0; break;
        case KOp::Ne: for (int l = 0; l < W; ++l) d[l] = a[l] != b[l] ? 1.0 : 0.0; break;
        case KOp::Lt: for (int l = 0; l < W; ++l) d[l] = a[l] < b[l] ? 1.0 : 0.0; break;
        case KOp::Le: for (int l = 0; l < W; ++l) d[l] = a[l] <= b[l] ? 1.0 : 0.0; break;
        case KOp::Gt: for (int l = 0; l < W; ++l) d[l] = a[l] > b[l] ? 1.0 : 0.0; break;
        case KOp::Ge: for (int l = 0; l < W; ++l) d[l] = a[l] >= b[l] ? 1.0 : 0.0; break;
        case KOp::And:
          for (int l = 0; l < W; ++l) d[l] = (a[l] != 0.0 && b[l] != 0.0) ? 1.0 : 0.0;
          break;
        case KOp::Or:
          for (int l = 0; l < W; ++l) d[l] = (a[l] != 0.0 || b[l] != 0.0) ? 1.0 : 0.0;
          break;
        case KOp::Neg: for (int l = 0; l < W; ++l) d[l] = -a[l]; break;
        case KOp::Exp: for (int l = 0; l < W; ++l) d[l] = std::exp(a[l]); break;
        case KOp::Log: for (int l = 0; l < W; ++l) d[l] = std::log(a[l]); break;
        case KOp::Sqrt: for (int l = 0; l < W; ++l) d[l] = std::sqrt(a[l]); break;
        case KOp::Sin: for (int l = 0; l < W; ++l) d[l] = std::sin(a[l]); break;
        case KOp::Cos: for (int l = 0; l < W; ++l) d[l] = std::cos(a[l]); break;
        case KOp::Tanh: for (int l = 0; l < W; ++l) d[l] = std::tanh(a[l]); break;
        case KOp::Abs: for (int l = 0; l < W; ++l) d[l] = std::fabs(a[l]); break;
        case KOp::Sign:
          for (int l = 0; l < W; ++l) d[l] = a[l] > 0 ? 1.0 : (a[l] < 0 ? -1.0 : 0.0);
          break;
        case KOp::LGamma: for (int l = 0; l < W; ++l) d[l] = std::lgamma(a[l]); break;
        case KOp::Digamma: for (int l = 0; l < W; ++l) d[l] = digamma(a[l]); break;
        case KOp::Not: for (int l = 0; l < W; ++l) d[l] = a[l] == 0.0 ? 1.0 : 0.0; break;
        case KOp::Trunc: for (int l = 0; l < W; ++l) d[l] = std::trunc(a[l]); break;
        case KOp::Select:
          for (int l = 0; l < W; ++l) d[l] = a[l] != 0.0 ? b[l] : c[l];
          break;
        case KOp::LoadElem: {
          const ArrayVal& arr = L.inputs[static_cast<size_t>(in.slot)];
          if (lane_stride == 1 && arr.elem == ScalarType::F64) {  // contiguous strip
            const double* src = arr.buf->f64() + arr.offset + base;
            for (int l = 0; l < W; ++l) d[l] = src[l];
          } else if (lane_stride == 1) {
            for (int l = 0; l < W; ++l) d[l] = arr.get_f64(base + l);
          } else if (arr.elem == ScalarType::F64) {  // one stream per lane
            const double* src = arr.buf->f64() + arr.offset + base;
            for (int l = 0; l < W; ++l) d[l] = src[static_cast<int64_t>(l) * lane_stride];
          } else {
            for (int l = 0; l < W; ++l) {
              d[l] = arr.get_f64(base + static_cast<int64_t>(l) * lane_stride);
            }
          }
          break;
        }
        case KOp::Gather: {
          const ArrayVal& arr = L.free_array_vals[static_cast<size_t>(in.slot)];
          for (int l = 0; l < W; ++l) {
            d[l] = arr.get_f64(flat_index_lane(arr, r, W, l, in.idx, in.nidx));
          }
          break;
        }
        case KOp::UpdAcc: {
          auto& arr = const_cast<ArrayVal&>(L.acc_array_vals[static_cast<size_t>(in.slot)]);
          const bool atomic =
              L.acc_atomic.empty() || L.acc_atomic[static_cast<size_t>(in.slot)] != 0;
          for (int l = 0; l < W; ++l) {
            const int64_t at = flat_index_lane<true>(arr, r, W, l, in.idx, in.nidx);
            if (at < 0) continue;
            if (atomic) {
              atomic_add_f64(arr, at, a[l]);
            } else {
              plain_add_f64(arr, at, a[l]);
            }
          }
          break;
        }
        case KOp::StoreIdx: {
          auto& arr = const_cast<ArrayVal&>(L.acc_array_vals[static_cast<size_t>(in.slot)]);
          for (int l = 0; l < W; ++l) {
            arr.set_f64(flat_index_lane(arr, r, W, l, in.idx, in.nidx), a[l]);
          }
          break;
        }
        case KOp::StoreOut: {
          if (L.scalar_out != nullptr) {  // extent-1 scalar-block mode
            L.scalar_out[in.slot] = a[0];
            break;
          }
          auto& o = const_cast<ArrayVal&>(L.outputs[static_cast<size_t>(in.slot)]);
          switch (o.elem) {
            case ScalarType::F64: {  // contiguous strip
              double* dst = o.buf->f64() + o.offset + base;
              for (int l = 0; l < W; ++l) dst[l] = a[l];
              break;
            }
            case ScalarType::I64: {
              int64_t* dst = o.buf->i64() + o.offset + base;
              for (int l = 0; l < W; ++l) dst[l] = static_cast<int64_t>(a[l]);
              break;
            }
            case ScalarType::Bool: {
              uint8_t* dst = o.buf->b8() + o.offset + base;
              for (int l = 0; l < W; ++l) dst[l] = a[l] != 0.0 ? 1 : 0;
              break;
            }
          }
          break;
        }
        case KOp::LoadLen: break;  // broadcast in the preamble (launch-invariant)
        case KOp::CheckIdx:
          for (int l = 0; l < W; ++l) {
            const auto i = static_cast<int64_t>(a[l]), ext = static_cast<int64_t>(b[l]);
            if (i < 0 || i >= ext) throw_kernel_oob(i, 0, ext);
          }
          break;
        case KOp::LoadIdx:
          // Current iteration index per lane — same lane layout as LoadElem.
          for (int l = 0; l < W; ++l) {
            d[l] = static_cast<double>(base + static_cast<int64_t>(l) * lane_stride);
          }
          break;
        case KOp::InlineLoop: {
          // Inline block: run [body_begin, body_end) trip times with the
          // inner index broadcast, then resume past the body. Lane 0's trip
          // is every lane's: it is launch-invariant, or the kernel is not
          // uniform_trips and runs one lane.
          // Bodies have no LoadElem/StoreOut, so the recursive span's
          // iteration range is irrelevant — one batch of the same W lanes.
          const Kernel::InlineLoop& il = k.loops[static_cast<size_t>(in.slot)];
          const auto trip = static_cast<int64_t>(r[static_cast<int64_t>(il.trip_reg) * W]);
          if (il.acc_reg >= 0) {
            double* ac = r + static_cast<int64_t>(il.acc_reg) * W;
            const double* ne = r + static_cast<int64_t>(il.neutral_reg) * W;
            for (int l = 0; l < W; ++l) ac[l] = ne[l];
          }
          for (size_t j = 0; j < il.more_accs.size(); ++j) {
            double* ac = r + static_cast<int64_t>(il.more_accs[j]) * W;
            const double* ne = r + static_cast<int64_t>(il.more_neutrals[j]) * W;
            for (int l = 0; l < W; ++l) ac[l] = ne[l];
          }
          double* iv = r + static_cast<int64_t>(il.ivar_reg) * W;
          for (int64_t t = 0; t < trip; ++t) {
            const auto tv = static_cast<double>(t);
            for (int l = 0; l < W; ++l) iv[l] = tv;
            exec_span<W>(L, r, 0, 1, il.body_begin, il.body_end, 1);
          }
          ii = static_cast<size_t>(il.body_end) - 1;  // ++ii lands on body_end
          break;
        }
      }
    }
  }
}

} // namespace

std::optional<Kernel> compile_kernel(const ir::Lambda& f) {
  return KernelBuilder(f).build();
}

std::optional<Kernel> compile_reduce_kernel(const ir::Lambda& op, const ir::Lambda* pre,
                                            bool scan) {
  return KernelBuilder(op).build_reduce(pre, scan);
}

namespace {

// ---- span executors -----------------------------------------------------
//
// The launch drivers below are written once, over an executor X holding two
// width-bound programs, X::narrow (W = 1) and X::wide (W = kWide). A program
// supplies its register-file size and prepare step (file(), prepare(r): a
// zeroed file with the launch-invariant registers set), span(r, lo, hi, ib,
// ie, lane_stride) running instructions [ib, ie) over iterations [lo, hi) in
// exec_span's lane layout, its instruction ranges (end() for the whole
// program, [0, fold_begin()) and the fold subprogram [fold_begin(),
// fold_end())) and its reduction-register offsets (acc(j), elem(j)). The
// executor is a template parameter, so no span goes through an indirect
// call.

// The register machine: the Kernel's own instructions at every width.
template <int W>
struct RegProg {
  const KernelLaunch& L;
  size_t file() const { return static_cast<size_t>(L.k->num_regs) * W; }
  void prepare(double* r) const {
    std::fill(r, r + file(), 0.0);
    init_invariant(L, r, W);
  }
  void span(double* r, int64_t lo, int64_t hi, uint32_t ib, uint32_t ie,
            int64_t lane_stride) const {
    exec_span<W>(L, r, lo, hi, ib, ie, lane_stride);
  }
  uint32_t end() const { return static_cast<uint32_t>(L.k->instrs.size()); }
  uint32_t fold_begin() const { return static_cast<uint32_t>(L.k->fold_begin); }
  uint32_t fold_end() const { return static_cast<uint32_t>(L.k->fold_end); }
  int32_t acc(size_t j) const { return L.k->reds[j].acc_reg * W; }
  int32_t elem(size_t j) const { return L.k->reds[j].elem_reg * W; }
};

// The vexec tier: the entry's lowered program of width W.
template <int W>
struct VexecProg {
  const vexec::VProgram& p;
  const KernelLaunch& L;
  size_t file() const { return vexec::file_size(p); }
  void prepare(double* r) const { vexec::prepare(p, L, r); }
  void span(double* r, int64_t lo, int64_t hi, uint32_t ib, uint32_t ie,
            int64_t lane_stride) const {
    vexec::span<W>(p, L, r, lo, hi, ib, ie, lane_stride);
  }
  uint32_t end() const { return static_cast<uint32_t>(p.code.size()); }
  uint32_t fold_begin() const { return p.fold_begin; }
  uint32_t fold_end() const { return p.fold_end; }
  int32_t acc(size_t j) const { return p.red_acc_off[j]; }
  int32_t elem(size_t j) const { return p.red_elem_off[j]; }
};

template <template <int> class P>
struct Executor {
  P<1> narrow;
  P<kWide> wide;
};

// Runs driver `f` over the launch's executor, picked here and nowhere else:
// the vexec tier when a lowered entry is attached (`vx`), else the register
// machine. A counted call (a span driver) crosses the vexec.dispatch fault
// site and ticks InterpStats::vexec_launches; the fold re-entries run on the
// same executor uncounted.
template <class F>
auto on_executor(const KernelLaunch& L, bool counted, F f) {
  if (L.vx == nullptr) return f(Executor<RegProg>{{L}, {L}});
  if (counted) {
    NPAD_FAULT_SITE("vexec.dispatch", FaultKind::Chunk);
    if (L.vexec_spans != nullptr) L.vexec_spans->fetch_add(1, std::memory_order_relaxed);
  }
  const vexec::DispatchTally tally(L.vexec_dispatches);
  return f(Executor<VexecProg>{{L.vx->narrow, L}, {L.vx->wide, L}});
}

// Thread-local scratch for one driver call's register files: drivers never
// nest on a thread (kernels never launch kernels), so one arena per thread
// serves every call with no per-launch allocation.
double* arena(size_t n) {
  thread_local std::vector<double> buf;
  if (buf.size() < n) buf.resize(n);
  return buf.data();
}

// True when [lo, hi) runs wide batches: a kWide launch with at least one
// full batch. Ticks batched_spans.
bool goes_wide(const KernelLaunch& L, int64_t lo, int64_t hi) {
  if (L.lanes != kWide || hi - lo < kWide) return false;
  if (L.batched_spans != nullptr) L.batched_spans->fetch_add(1, std::memory_order_relaxed);
  return true;
}

// acc = op(acc, other) for `nred` reduction slots on a prepared narrow file:
// seed the accumulator and element registers, run the fold subprogram once.
template <class P>
void combine(const P& n, double* r1, double* acc, const double* other, size_t nred) {
  for (size_t j = 0; j < nred; ++j) {
    r1[n.acc(j)] = acc[j];
    r1[n.elem(j)] = other[j];
  }
  n.span(r1, 0, 1, n.fold_begin(), n.fold_end(), 1);
  for (size_t j = 0; j < nred; ++j) acc[j] = r1[n.acc(j)];
}

} // namespace

void KernelLaunch::run(int64_t lo, int64_t hi) const {
  on_executor(*this, true, [&](const auto& x) {
    double* r1 = arena(x.narrow.file() + x.wide.file());
    double* rw = r1 + x.narrow.file();
    if (goes_wide(*this, lo, hi)) {
      // Full W-wide batches, then a narrow tail for the remainder.
      const int64_t full = lo + ((hi - lo) / kWide) * kWide;
      x.wide.prepare(rw);
      x.wide.span(rw, lo, full, 0, x.wide.end(), 1);
      lo = full;
    }
    if (lo < hi) {
      x.narrow.prepare(r1);
      x.narrow.span(r1, lo, hi, 0, x.narrow.end(), 1);
    }
  });
}

void KernelLaunch::run_reduce(int64_t lo, int64_t hi, double* partials) const {
  on_executor(*this, true, [&](const auto& x) {
    const auto& n = x.narrow;
    const auto& w = x.wide;
    const size_t nred = k->reds.size();
    // The narrow file serves the lane combines and the tail.
    double* r1 = arena(n.file() + w.file() + nred);
    double* rw = r1 + n.file();
    double* lane = rw + w.file();
    n.prepare(r1);
    if (goes_wide(*this, lo, hi)) {
      // Lane l folds the contiguous block of blk elements at lo + l*blk from
      // the neutral element, and the caller's carry-in and the lane partials
      // combine in block order, so the fold need only be associative
      // (runtime/README.md § Multi-lane).
      w.prepare(rw);
      for (size_t j = 0; j < nred; ++j) {
        for (int l = 0; l < kWide; ++l) rw[w.acc(j) + l] = red_neutral[j];
      }
      const int64_t blk = (hi - lo) / kWide;
      w.span(rw, lo, lo + blk, 0, w.end(), blk);
      lo += blk * kWide;
      for (int l = 0; l < kWide; ++l) {
        for (size_t j = 0; j < nred; ++j) lane[j] = rw[w.acc(j) + l];
        combine(n, r1, partials, lane, nred);
      }
    }
    if (lo < hi) {
      // Narrow tail: continue the running partial through the full program.
      for (size_t j = 0; j < nred; ++j) r1[n.acc(j)] = partials[j];
      n.span(r1, lo, hi, 0, n.end(), 1);
      for (size_t j = 0; j < nred; ++j) partials[j] = r1[n.acc(j)];
    }
  });
}

void KernelLaunch::run_scan_chunk(int64_t lo, int64_t hi, double* carry) const {
  on_executor(*this, true, [&](const auto& x) {
    // Scans are order-dependent: always the narrow program, elements in order.
    const auto& n = x.narrow;
    double* r1 = arena(n.file());
    n.prepare(r1);
    for (size_t j = 0; j < k->reds.size(); ++j) r1[n.acc(j)] = carry[j];
    if (lo < hi) n.span(r1, lo, hi, 0, n.end(), 1);
    for (size_t j = 0; j < k->reds.size(); ++j) carry[j] = r1[n.acc(j)];
  });
}

void KernelLaunch::scan_rescale(int64_t lo, int64_t hi, const double* prefix) const {
  on_executor(*this, false, [&](const auto& x) {
    const auto& n = x.narrow;
    const size_t nred = k->reds.size();
    double* r1 = arena(n.file());
    n.prepare(r1);
    for (int64_t i = lo; i < hi; ++i) {
      for (size_t j = 0; j < nred; ++j) {
        r1[n.acc(j)] = prefix[j];
        r1[n.elem(j)] = outputs[j].get_f64(i);
      }
      n.span(r1, 0, 1, n.fold_begin(), n.fold_end(), 1);
      for (size_t j = 0; j < nred; ++j) {
        auto& o = const_cast<ArrayVal&>(outputs[j]);
        const double v = r1[n.acc(j)];
        switch (o.elem) {
          case ScalarType::F64: o.set_f64(i, v); break;
          case ScalarType::I64: o.set_i64(i, static_cast<int64_t>(v)); break;
          case ScalarType::Bool: o.set_b8(i, v != 0.0); break;
        }
      }
    }
  });
}

void KernelLaunch::combine_partials(double* acc, const double* other) const {
  on_executor(*this, false, [&](const auto& x) {
    double* r1 = arena(x.narrow.file());
    x.narrow.prepare(r1);
    combine(x.narrow, r1, acc, other, k->reds.size());
  });
}

int64_t KernelLaunch::run_hist_chunk(int64_t lo, int64_t hi, double* bins, int64_t m,
                                     const int64_t* inds) const {
  assert(k->reds.size() == 1 && "hist kernels are single-result folds");
  return on_executor(*this, true, [&](const auto& x) {
    const auto& n = x.narrow;
    const int32_t acc = n.acc(0);
    double* r1 = arena(n.file());
    n.prepare(r1);
    int64_t performed = 0;
    for (int64_t i = lo; i < hi; ++i) {
      const int64_t b = inds[i];
      if (b < 0 || b >= m) continue;  // out-of-range bins ignored
      // [0, fold_begin): LoadElem fills the element register for iteration i.
      n.span(r1, i, i + 1, 0, n.fold_begin(), 1);
      r1[acc] = bins[b];
      n.span(r1, 0, 1, n.fold_begin(), n.fold_end(), 1);
      bins[b] = r1[acc];
      ++performed;
    }
    return performed;
  });
}

void KernelLaunch::fold_bins(double* acc, const double* other, int64_t count) const {
  assert(k->reds.size() == 1 && "hist kernels are single-result folds");
  on_executor(*this, false, [&](const auto& x) {
    double* r1 = arena(x.narrow.file());
    x.narrow.prepare(r1);
    for (int64_t j = 0; j < count; ++j) combine(x.narrow, r1, acc + j, other + j, 1);
  });
}

void preamble_regs(const KernelLaunch& L, std::vector<double>& pre) {
  pre.assign(static_cast<size_t>(L.k->num_regs), std::numeric_limits<double>::quiet_NaN());
  init_invariant(L, pre.data(), 1);
}

KernelWork kernel_work(const Kernel& k, const double* pre) {
  KernelWork w;
  w.updates.assign(k.accs.size(), 0.0);
  // [ib, ie) at `mult` executions per element; a loop body recurses with its
  // trip folded in and is then skipped.
  auto walk = [&](auto&& self, size_t ib, size_t ie, double mult) -> void {
    for (size_t ii = ib; ii < ie; ++ii) {
      const KInstr& in = k.instrs[ii];
      if (in.op == KOp::ConstF || in.op == KOp::LoadLen) continue;
      w.instrs += mult;
      if (in.op == KOp::UpdAcc) w.updates[static_cast<size_t>(in.slot)] += mult;
      if (in.op != KOp::InlineLoop) continue;
      const Kernel::InlineLoop& il = k.loops[static_cast<size_t>(in.slot)];
      const double t = pre[static_cast<size_t>(il.trip_reg)];
      self(self, il.body_begin, il.body_end, mult * (std::isnan(t) ? 1.0 : std::max(t, 0.0)));
      ii = static_cast<size_t>(il.body_end) - 1;
    }
  };
  walk(walk, 0, k.instrs.size(), 1.0);
  return w;
}

} // namespace npad::rt
