// vexec lowering: KInstr program -> pre-decoded VInstr schedule (prologue
// extraction, superinstruction fusion, streams, trip tiles). All transforms
// here are value-preserving per
// lane: fused handlers execute the same IEEE operation sequence with the
// same operand order (see vexec_engine.cpp), so the lowered program is
// bit-exact against the register machine.

#include "runtime/vexec.hpp"

#include <algorithm>
#include <cstdlib>
#include <utility>

namespace npad::rt::vexec {

namespace {

// ---- usage analysis -------------------------------------------------------

// Per-register read/write counts over the whole program, plus the `special`
// set: registers the launch mechanics seed or read from outside the
// instruction stream (free scalars, reduction acc/elem registers, loop
// trip/ivar/acc/neutral). Fusion may only coalesce away plain temporaries —
// reads == 1 && writes == 1 && !special.
struct Usage {
  std::vector<int> reads, writes;
  std::vector<uint8_t> special;

  bool ok_temp(int32_t r) const {
    return r >= 0 && reads[static_cast<size_t>(r)] == 1 &&
           writes[static_cast<size_t>(r)] == 1 && special[static_cast<size_t>(r)] == 0;
  }
};

Usage analyze(const Kernel& k) {
  Usage u;
  const auto n = static_cast<size_t>(k.num_regs);
  u.reads.assign(n, 0);
  u.writes.assign(n, 0);
  u.special.assign(n, 0);
  for (int32_t r : k.free_scalar_regs) u.special[static_cast<size_t>(r)] = 1;
  for (const auto& rs : k.reds) {
    u.special[static_cast<size_t>(rs.acc_reg)] = 1;
    u.special[static_cast<size_t>(rs.elem_reg)] = 1;
  }
  for (const auto& il : k.loops) {
    u.special[static_cast<size_t>(il.trip_reg)] = 1;
    u.special[static_cast<size_t>(il.ivar_reg)] = 1;
    if (il.acc_reg >= 0) u.special[static_cast<size_t>(il.acc_reg)] = 1;
    if (il.neutral_reg >= 0) u.special[static_cast<size_t>(il.neutral_reg)] = 1;
    for (int32_t a : il.more_accs) u.special[static_cast<size_t>(a)] = 1;
    for (int32_t n2 : il.more_neutrals) u.special[static_cast<size_t>(n2)] = 1;
  }
  auto rd = [&](int32_t r) {
    if (r >= 0) ++u.reads[static_cast<size_t>(r)];
  };
  for (const auto& in : k.instrs) {
    switch (in.op) {
      case KOp::InlineLoop: break;  // mechanics touch only special registers
      case KOp::StoreOut:
        rd(in.a);
        break;
      case KOp::UpdAcc:
      case KOp::StoreIdx:
        rd(in.a);
        for (int32_t d = 0; d < in.nidx; ++d) rd(in.idx[d]);
        break;
      case KOp::Gather:
        ++u.writes[static_cast<size_t>(in.dst)];
        for (int32_t d = 0; d < in.nidx; ++d) rd(in.idx[d]);
        break;
      case KOp::LoadLen:
        // `b` holds the shape dimension, not a register operand.
        ++u.writes[static_cast<size_t>(in.dst)];
        break;
      case KOp::CheckIdx:
        rd(in.a);
        rd(in.b);
        break;
      default:
        ++u.writes[static_cast<size_t>(in.dst)];
        rd(in.a);
        rd(in.b);
        rd(in.c);
        break;
    }
  }
  return u;
}

// ---- straight-line op mapping ---------------------------------------------

// ConstF/LoadLen/InlineLoop are handled by the caller; everything else is a
// 1:1 rename.
VOp map_op(KOp op) {
  switch (op) {
    case KOp::Mov: return VOp::Mov;
    case KOp::Add: return VOp::Add;
    case KOp::Sub: return VOp::Sub;
    case KOp::Mul: return VOp::Mul;
    case KOp::Div: return VOp::Div;
    case KOp::IDiv: return VOp::IDiv;
    case KOp::Pow: return VOp::Pow;
    case KOp::Min: return VOp::Min;
    case KOp::Max: return VOp::Max;
    case KOp::Mod: return VOp::Mod;
    case KOp::Eq: return VOp::Eq;
    case KOp::Ne: return VOp::Ne;
    case KOp::Lt: return VOp::Lt;
    case KOp::Le: return VOp::Le;
    case KOp::Gt: return VOp::Gt;
    case KOp::Ge: return VOp::Ge;
    case KOp::And: return VOp::And;
    case KOp::Or: return VOp::Or;
    case KOp::Neg: return VOp::Neg;
    case KOp::Exp: return VOp::Exp;
    case KOp::Log: return VOp::Log;
    case KOp::Sqrt: return VOp::Sqrt;
    case KOp::Sin: return VOp::Sin;
    case KOp::Cos: return VOp::Cos;
    case KOp::Tanh: return VOp::Tanh;
    case KOp::Abs: return VOp::Abs;
    case KOp::Sign: return VOp::Sign;
    case KOp::LGamma: return VOp::LGamma;
    case KOp::Digamma: return VOp::Digamma;
    case KOp::Not: return VOp::Not;
    case KOp::Trunc: return VOp::Trunc;
    case KOp::Select: return VOp::Select;
    case KOp::LoadElem: return VOp::LoadElem;
    case KOp::LoadIdx: return VOp::LoadIdx;
    case KOp::Gather: return VOp::Gather;
    case KOp::UpdAcc: return VOp::UpdAcc;
    case KOp::StoreIdx: return VOp::StoreIdx;
    case KOp::StoreOut: return VOp::StoreOut;
    case KOp::CheckIdx: return VOp::CheckIdx;
    default: return VOp::Mov;  // unreachable
  }
}

// ---- stream analysis -------------------------------------------------------

// Register-space lowering result (offsets baked per width afterwards).
struct Lowered {
  std::vector<VInstr> code;
  std::vector<VInit> prologue;
  std::vector<VLoop> loops;
  uint32_t fold_begin = 0, fold_end = 0;
  std::vector<int32_t> red_acc, red_elem;
  std::vector<VInstr> tile_code;  // tile registers are num_regs + tile slot
  int32_t tile_slots = 0;         // tile blocks of the largest tiled body
  int32_t tile_carries = 0;       // carry registers of the largest save block
  int num_regs = 0;
};

// True when `reg` is written by any instruction of the body — a nested
// loop's variable and carries included, since its mechanics rewrite them —
// or is the loop variable (rewritten by the loop mechanics each trip).
// ConstF/LoadLen destinations are launch-invariant prologue values.
bool body_writes(const Kernel& k, const Kernel::InlineLoop& il, int32_t reg) {
  if (reg == il.ivar_reg) return true;
  for (uint32_t i = il.body_begin; i < il.body_end; ++i) {
    const KInstr& in = k.instrs[i];
    if (in.op == KOp::ConstF || in.op == KOp::LoadLen) continue;
    if (in.op == KOp::InlineLoop) {
      const Kernel::InlineLoop& inner = k.loops[static_cast<size_t>(in.slot)];
      if (reg == inner.ivar_reg || reg == inner.acc_reg) return true;
      for (int32_t a : inner.more_accs) {
        if (reg == a) return true;
      }
      continue;
    }
    if (in.op == KOp::StoreOut || in.op == KOp::UpdAcc || in.op == KOp::StoreIdx) continue;
    if (in.dst == reg) return true;
  }
  return false;
}

// Validates a full-indexing gather/scatter whose trailing index is the loop
// variable and whose leading indexes are body-invariant; copies the leading
// indexes out. Returns false when the access does not form a stride-1 stream.
bool stream_access(const Kernel& k, const Kernel::InlineLoop& il, const KInstr& in,
                   int32_t* lead, int32_t& nlead) {
  if (in.nidx < 1 || in.nidx > 4) return false;
  if (in.idx[in.nidx - 1] != il.ivar_reg) return false;
  nlead = in.nidx - 1;
  for (int32_t d = 0; d < nlead; ++d) {
    if (body_writes(k, il, in.idx[d])) return false;
    lead[d] = in.idx[d];
  }
  return true;
}

// ---- lane-uniform registers -----------------------------------------------

// Registers that hold one value in every lane whenever they are read: free
// scalars, prologue constants and lengths, loop variables (every lane runs
// lane 0's trip), and single-writer results of ops whose operands — or
// gather indexes — are all uniform. Registers the launch mechanics write
// (fold accumulators and loop carries, reduction slots) never are, nor are
// the per-lane LoadElem/LoadIdx results. Iterates to a fixpoint; a forward-
// ordered program settles in two scans.
std::vector<uint8_t> uniform_regs(const Kernel& k, const Usage& u) {
  const auto n = static_cast<size_t>(k.num_regs);
  std::vector<uint8_t> uni(n, 0), mech(n, 0);
  for (const auto& rs : k.reds) {
    mech[static_cast<size_t>(rs.acc_reg)] = 1;
    mech[static_cast<size_t>(rs.elem_reg)] = 1;
  }
  for (const auto& il : k.loops) {
    if (il.acc_reg >= 0) mech[static_cast<size_t>(il.acc_reg)] = 1;
    for (int32_t a : il.more_accs) mech[static_cast<size_t>(a)] = 1;
  }
  for (int32_t r : k.free_scalar_regs) uni[static_cast<size_t>(r)] = 1;
  for (const auto& il : k.loops) uni[static_cast<size_t>(il.ivar_reg)] = 1;
  auto is_uni = [&](int32_t r) { return r < 0 || uni[static_cast<size_t>(r)] != 0; };
  for (bool changed = true; changed;) {
    changed = false;
    for (const KInstr& in : k.instrs) {
      switch (in.op) {
        case KOp::InlineLoop: case KOp::StoreOut: case KOp::UpdAcc: case KOp::StoreIdx:
        case KOp::CheckIdx: case KOp::LoadElem: case KOp::LoadIdx:
          continue;
        default: break;
      }
      const auto d = static_cast<size_t>(in.dst);
      if (uni[d] || mech[d] || u.writes[d] != 1) continue;
      bool ok = true;
      if (in.op == KOp::Gather) {
        for (int32_t j = 0; j < in.nidx; ++j) ok = ok && is_uni(in.idx[j]);
      } else if (in.op != KOp::ConstF && in.op != KOp::LoadLen) {
        ok = is_uni(in.a) && is_uni(in.b) && is_uni(in.c);
      }
      if (ok) {
        uni[d] = 1;
        changed = true;
      }
    }
  }
  return uni;
}

// Ops worth computing once for a lane-uniform operand set (one libm call or
// a divide, against a W-wide broadcast).
bool expensive(VOp op) {
  switch (op) {
    case VOp::Exp: case VOp::NegExp: case VOp::Log: case VOp::Tanh: case VOp::Sqrt:
    case VOp::Pow: case VOp::Div: case VOp::Sin: case VOp::Cos: case VOp::LGamma:
    case VOp::Digamma:
      return true;
    default:
      return false;
  }
}

// Sets kUniform on the expensive ops of the fused program whose operands
// are uniform. Fusion keeps each surviving register's value (copy
// propagation reads the copied register, retargeting moves a write), so the
// register-space table still describes the fused program's operands.
void mark_uniform(const std::vector<uint8_t>& uni, std::vector<VInstr>& code) {
  auto is_uni = [&](int32_t r) { return r < 0 || uni[static_cast<size_t>(r)] != 0; };
  for (VInstr& in : code) {
    if (expensive(in.op) && is_uni(in.a) && is_uni(in.b)) in.flags |= kUniform;
  }
}

// Moves each stream to the outermost enclosing loop whose body writes
// neither its leads nor its trip, so it binds once per entry to that loop;
// a hoisted stream identical to one already bound there shares its register.
// Loops are in marker order, so an enclosing loop comes before its nested
// ones and every stream moves once.
void hoist_streams(const Kernel& k, const std::vector<int32_t>& parent, Lowered& out) {
  std::vector<int32_t> remap(static_cast<size_t>(out.num_regs), -1);
  auto same = [](const VStream& x, const VStream& y) {
    bool eq = x.slot == y.slot && x.acc == y.acc && x.nlead == y.nlead && x.trip == y.trip;
    for (int32_t d = 0; eq && d < x.nlead; ++d) eq = x.lead[d] == y.lead[d];
    return eq;
  };
  for (size_t s = 0; s < k.loops.size(); ++s) {
    std::vector<VStream> own;
    for (const VStream& st : out.loops[s].streams) {
      auto to = static_cast<int32_t>(s);
      for (int32_t p = parent[s]; p >= 0; p = parent[static_cast<size_t>(p)]) {
        const Kernel::InlineLoop& pl = k.loops[static_cast<size_t>(p)];
        bool inv = !body_writes(k, pl, st.trip);
        for (int32_t d = 0; inv && d < st.nlead; ++d) inv = !body_writes(k, pl, st.lead[d]);
        if (!inv) break;
        to = p;
      }
      if (to == static_cast<int32_t>(s)) {
        own.push_back(st);
        continue;
      }
      std::vector<VStream>& dst = out.loops[static_cast<size_t>(to)].streams;
      auto it = std::find_if(dst.begin(), dst.end(), [&](const VStream& o) { return same(o, st); });
      if (it != dst.end()) {
        remap[static_cast<size_t>(st.reg)] = it->reg;
      } else {
        dst.push_back(st);
      }
    }
    out.loops[s].streams = std::move(own);
  }
  for (VInstr& v : out.code) {
    if (v.s >= 0 && remap[static_cast<size_t>(v.s)] >= 0) v.s = remap[static_cast<size_t>(v.s)];
  }
}

// ---- lowering pass 1: prologue extraction + 1:1 translation ---------------

bool lower_pass1(const Kernel& k, const Usage& u, Lowered& out) {
  out.num_regs = k.num_regs;
  for (size_t i = 0; i < k.free_scalar_regs.size(); ++i) {
    out.prologue.push_back({k.free_scalar_regs[i], VInit::Kind::FreeScalar,
                            static_cast<int32_t>(i), 0.0});
  }
  out.loops.resize(k.loops.size());
  for (size_t s = 0; s < k.loops.size(); ++s) {
    VLoop& vl = out.loops[s];
    vl.trip = k.loops[s].trip_reg;
    vl.ivar = k.loops[s].ivar_reg;
    vl.acc = k.loops[s].acc_reg;
    vl.neutral = k.loops[s].neutral_reg;
    vl.accs2 = k.loops[s].more_accs;
    vl.neutrals2 = k.loops[s].more_neutrals;
  }
  // Innermost enclosing loop per instruction (loops are in marker order, so
  // an inner loop's body range overwrites its enclosing loop's), and per
  // loop the loop enclosing its marker.
  const size_t n = k.instrs.size();
  std::vector<int32_t> owner(n, -1), parent(k.loops.size(), -1);
  for (size_t s = 0; s < k.loops.size(); ++s) {
    const Kernel::InlineLoop& il = k.loops[s];
    if (il.body_begin > 0) parent[s] = owner[il.body_begin - 1];
    for (uint32_t i = il.body_begin; i < il.body_end; ++i) owner[i] = static_cast<int32_t>(s);
  }
  // An access's own loop is the enclosing loop whose variable is its
  // trailing index; it streams when that loop never writes its leads.
  auto own_loop = [&](size_t i) {
    const KInstr& in = k.instrs[i];
    int32_t s = owner[i];
    while (s >= 0 && k.loops[static_cast<size_t>(s)].ivar_reg != in.idx[in.nidx - 1]) {
      s = parent[static_cast<size_t>(s)];
    }
    return s;
  };

  std::vector<uint32_t> posmap(n + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    posmap[i] = static_cast<uint32_t>(out.code.size());
    const KInstr& in = k.instrs[i];
    if (in.op == KOp::ConstF || in.op == KOp::LoadLen) {
      // Prologue-extracted; sound only for single-writer destinations (the
      // builder's invariant-register contract — verified, not assumed).
      if (u.writes[static_cast<size_t>(in.dst)] != 1) return false;
      if (in.op == KOp::ConstF) {
        out.prologue.push_back({in.dst, VInit::Kind::Imm, -1, in.imm});
      } else {
        out.prologue.push_back(
            {in.dst, VInit::Kind::ArrayLen, in.slot, 0.0, in.b > 0 ? in.b : 0});
      }
      continue;
    }
    VInstr v;
    v.op = in.op == KOp::InlineLoop ? VOp::Loop : map_op(in.op);
    v.slot = in.slot;
    v.d = in.dst;
    v.a = in.a;
    v.b = in.b;
    v.c = in.c;
    v.nidx = in.nidx;
    for (int32_t d = 0; d < in.nidx; ++d) v.idx[d] = in.idx[d];
    const bool access = (in.op == KOp::Gather || in.op == KOp::UpdAcc ||
                         in.op == KOp::StoreIdx) && in.nidx > 0;
    const int32_t own = access ? own_loop(i) : -1;
    VStream st;
    if (own >= 0 && stream_access(k, k.loops[static_cast<size_t>(own)], in, st.lead, st.nlead)) {
      st.reg = out.num_regs++;
      st.slot = in.slot;
      st.acc = in.op != KOp::Gather;
      st.trip = k.loops[static_cast<size_t>(own)].trip_reg;
      out.loops[static_cast<size_t>(own)].streams.push_back(st);
      v.s = st.reg;
    }
    out.code.push_back(v);
  }
  posmap[n] = static_cast<uint32_t>(out.code.size());
  hoist_streams(k, parent, out);

  out.fold_begin = posmap[k.fold_begin];
  out.fold_end = posmap[k.fold_end];
  for (size_t s = 0; s < k.loops.size(); ++s) {
    VLoop& vl = out.loops[s];
    vl.body_begin = posmap[k.loops[s].body_begin];
    vl.body_end = posmap[k.loops[s].body_end];
  }
  for (const auto& rs : k.reds) {
    out.red_acc.push_back(rs.acc_reg);
    out.red_elem.push_back(rs.elem_reg);
  }
  return true;
}

// ---- lowering pass 2: peephole fusion -------------------------------------

// Calls f(reg) for every register operand `in` reads.
template <class F>
void for_reads(const VInstr& in, F f) {
  if (in.op == VOp::Loop) return;
  if (in.a >= 0) f(in.a);
  if (in.b >= 0) f(in.b);
  if (in.c >= 0) f(in.c);
  for (int32_t d = 0; d < in.nidx; ++d) f(in.idx[d]);
}

bool instr_reads(const VInstr& in, int32_t reg) {
  bool hit = false;
  for_reads(in, [&](int32_t x) { hit = hit || x == reg; });
  return hit;
}

void subst_read(VInstr& in, int32_t from, int32_t to) {
  if (in.a == from) { in.a = to; return; }
  if (in.b == from) { in.b = to; return; }
  if (in.c == from) { in.c = to; return; }
  for (int32_t d = 0; d < in.nidx; ++d) {
    if (in.idx[d] == from) { in.idx[d] = to; return; }
  }
}

bool produces_value(const VInstr& in) {
  switch (in.op) {
    case VOp::StoreOut: case VOp::UpdAcc: case VOp::StoreIdx: case VOp::MulStore:
    case VOp::AddStore: case VOp::MulUpd: case VOp::Loop:
      return false;
    default:
      return in.d >= 0;
  }
}

// Adjacent-pair superinstruction selection: prev's destination is a plain
// temporary consumed (once) by cur. Returns true and writes the fused
// replacement to `fused`.
bool try_pair(const VInstr& prev, const VInstr& cur, int32_t t, VInstr& fused) {
  fused = VInstr{};
  fused.d = cur.d;
  if (prev.op == VOp::Mul || prev.op == VOp::Add) {
    // arith + store
    if (cur.op == VOp::StoreOut && cur.a == t) {
      fused.op = prev.op == VOp::Mul ? VOp::MulStore : VOp::AddStore;
      fused.slot = cur.slot;
      fused.d = -1;
      fused.a = prev.a;
      fused.b = prev.b;
      return true;
    }
    // arith + arith second-stage
    const bool second_add = cur.op == VOp::Add, second_sub = cur.op == VOp::Sub,
               second_mul = cur.op == VOp::Mul;
    if ((second_add || second_sub || second_mul) && (cur.a == t) != (cur.b == t)) {
      if (prev.op == VOp::Mul && second_add) fused.op = VOp::MulAdd;
      else if (prev.op == VOp::Mul && second_sub) fused.op = VOp::MulSub;
      else if (prev.op == VOp::Mul && second_mul) fused.op = VOp::MulMul;
      else if (prev.op == VOp::Add && second_add) fused.op = VOp::AddAdd;
      else return false;
      fused.a = prev.a;
      fused.b = prev.b;
      fused.c = cur.a == t ? cur.b : cur.a;
      fused.flags = cur.a == t ? 0 : 1;  // flag: t is the second operand
      return true;
    }
    return false;
  }
  if (prev.op == VOp::Neg && cur.op == VOp::Exp && cur.a == t) {
    fused.op = VOp::NegExp;
    fused.a = prev.a;
    return true;
  }
  if (prev.op == VOp::Gather && (cur.op == VOp::Mul || cur.op == VOp::Add) &&
      (cur.a == t) != (cur.b == t)) {
    fused.op = cur.op == VOp::Mul ? VOp::GatherMul : VOp::GatherAdd;
    fused.slot = prev.slot;
    fused.s = prev.s;
    fused.nidx = prev.nidx;
    for (int32_t d = 0; d < prev.nidx; ++d) fused.idx[d] = prev.idx[d];
    fused.b = cur.a == t ? cur.b : cur.a;
    fused.flags = cur.a == t ? 0 : 1;  // flag: gathered value is second operand
    return true;
  }
  return false;
}

void lower_pass2(const Kernel& k, Usage& u, Lowered& low) {
  const size_t n = low.code.size();
  // Fusion barriers: positions the launch mechanics re-enter or re-seed at
  // (fold subprogram bounds, loop body bounds) — no pair may straddle one.
  std::vector<uint8_t> barrier(n + 1, 0);
  barrier[low.fold_begin] = 1;
  barrier[low.fold_end] = 1;
  for (const VLoop& vl : low.loops) {
    barrier[vl.body_begin] = 1;
    barrier[vl.body_end] = 1;
  }

  std::vector<VInstr> out;
  std::vector<int> seg;  // per emitted instr: barrier-segment id
  std::vector<uint32_t> posmap(n + 1, 0);
  out.reserve(n);
  seg.reserve(n);
  int cur_seg = 0;
  auto kill = [&](int32_t r) {
    u.reads[static_cast<size_t>(r)] = 0;
    u.writes[static_cast<size_t>(r)] = 0;
  };
  for (size_t i = 0; i < n; ++i) {
    if (barrier[i]) ++cur_seg;
    posmap[i] = static_cast<uint32_t>(out.size());
    VInstr cur = low.code[i];
    bool emitted = false;
    while (!out.empty() && seg.back() == cur_seg) {
      const VInstr& prev = out.back();
      // Copy propagation: prev is `Mov t, x` with t a plain temporary read
      // (exactly once) by cur — drop the Mov, read x directly.
      if (prev.op == VOp::Mov && u.ok_temp(prev.d) && instr_reads(cur, prev.d)) {
        const int32_t t = prev.d, x = prev.a;
        subst_read(cur, t, x);
        kill(t);
        out.pop_back();
        seg.pop_back();
        continue;  // cur may now combine with the newly exposed predecessor
      }
      // Pair fusion into a superinstruction.
      VInstr fused;
      if (produces_value(prev) && u.ok_temp(prev.d) && instr_reads(cur, prev.d) &&
          try_pair(prev, cur, prev.d, fused)) {
        kill(prev.d);
        out.back() = fused;
        emitted = true;
        break;
      }
      // Mov retarget: cur is `Mov d2, t` with t = prev's plain-temporary
      // result — make prev write d2 directly (fold write-backs collapse).
      if (cur.op == VOp::Mov && produces_value(prev) && cur.a == prev.d &&
          u.ok_temp(prev.d)) {
        kill(prev.d);
        out.back().d = cur.d;
        emitted = true;
        break;
      }
      break;
    }
    if (!emitted) {
      out.push_back(cur);
      seg.push_back(cur_seg);
    }
  }
  posmap[n] = static_cast<uint32_t>(out.size());

  low.fold_begin = posmap[low.fold_begin];
  low.fold_end = posmap[low.fold_end];
  for (auto& vl : low.loops) {
    vl.body_begin = posmap[vl.body_begin];
    vl.body_end = posmap[vl.body_end];
  }
  (void)k;
  low.code = std::move(out);
}

// ---- trip tiling ----------------------------------------------------------

// Tile instructions whose value operands (a, b, c) may read a stream in
// place.
bool takes_streams(VOp op) {
  switch (op) {
    case VOp::LoadElem: case VOp::LoadIdx: case VOp::Gather: case VOp::GatherMul:
    case VOp::GatherAdd: case VOp::StoreOut: case VOp::MulStore: case VOp::AddStore:
    case VOp::CheckIdx: case VOp::Loop:
      return false;
    default:
      return true;
  }
}

// Rewrites one loop's tile code `tc` (map part [0, mid), then the fold part)
// in register space. Streams as operands: an own-stream GatherMul or
// GatherAdd becomes the Mul or Add of its stream register, and an
// own-stream Gather whose every reader takes stream operands is dropped,
// its readers reading the stream register in its place. Then pair fusion:
// a Mul, Add or Neg of the map part whose result one later instruction
// reads fuses into that reader (try_pair, or a Mul into an UpdAcc), when
// the reader is in the map part or is a fold-major fold. Nothing rewrites a
// map value or an invariant within a tile, so the fused reader sees the
// operands the pair saw, and each lane's chain of operations is unchanged.
void tile_peephole(std::vector<VInstr>& tc, size_t& mid, bool major, int32_t ivar,
                   const std::vector<int>& reads) {
  auto own = [&](const VInstr& v) { return v.s >= 0 && v.idx[v.nidx - 1] == ivar; };
  for (VInstr& v : tc) {
    if ((v.op != VOp::GatherMul && v.op != VOp::GatherAdd) || !own(v)) continue;
    VInstr m;
    m.op = v.op == VOp::GatherMul ? VOp::Mul : VOp::Add;
    m.d = v.d;
    m.a = (v.flags & 1) != 0 ? v.b : v.s;  // flag: the gathered value is second
    m.b = (v.flags & 1) != 0 ? v.s : v.b;
    v = m;
  }
  std::vector<uint8_t> dead(tc.size(), 0);
  for (size_t i = 0; i < mid; ++i) {
    const VInstr g = tc[i];
    if (g.op != VOp::Gather || !own(g)) continue;
    int n = 0;
    bool ok = true;
    for (const VInstr& u : tc) {
      n += (u.a == g.d) + (u.b == g.d) + (u.c == g.d);
      for (int32_t d = 0; d < u.nidx; ++d) ok = ok && u.idx[d] != g.d;
      ok = ok && (!instr_reads(u, g.d) || takes_streams(u.op));
    }
    if (!ok || n != reads[static_cast<size_t>(g.d)]) continue;
    for (VInstr& u : tc) {
      for (int32_t* x : {&u.a, &u.b, &u.c}) {
        if (*x == g.d) *x = g.s;
      }
    }
    dead[i] = 1;
  }
  auto writer = [&](int32_t t, size_t before) -> int64_t {
    for (size_t j = before; j-- > 0;) {
      if (dead[j] == 0 && produces_value(tc[j]) && tc[j].d == t) return static_cast<int64_t>(j);
    }
    return -1;
  };
  for (size_t i = 0; i < (major ? tc.size() : mid); ++i) {
    if (dead[i] != 0) continue;
    VInstr& cur = tc[i];
    for (int32_t t : {cur.a, cur.b, cur.c}) {
      if (t < 0 || reads[static_cast<size_t>(t)] != 1) continue;
      const int64_t w = writer(t, std::min(i, mid));
      if (w < 0) continue;
      const VInstr& prev = tc[static_cast<size_t>(w)];
      if (prev.op != VOp::Mul && prev.op != VOp::Add && prev.op != VOp::Neg) continue;
      VInstr f;
      if (prev.op == VOp::Mul && cur.op == VOp::UpdAcc && cur.a == t) {
        f = cur;
        f.op = VOp::MulUpd;
        f.a = prev.a;
        f.b = prev.b;
      } else if (!try_pair(prev, cur, t, f)) {
        continue;
      }
      if (expensive(f.op)) f.flags |= cur.flags & kUniform;
      cur = f;
      dead[static_cast<size_t>(w)] = 1;
      break;
    }
  }
  std::vector<VInstr> live;
  size_t live_mid = 0;
  for (size_t i = 0; i < tc.size(); ++i) {
    if (dead[i] != 0) continue;
    live_mid += i < mid;
    live.push_back(tc[i]);
  }
  tc = std::move(live);
  mid = live_mid;
}

// Emits loop `vl`'s tile code (vexec.hpp, point 3) when its body qualifies;
// leaves it on the per-trip path otherwise. `reads` counts every read of
// each register in the program, launch mechanics included.
void tile_loop(Lowered& low, VLoop& vl, const std::vector<int>& reads) {
  const std::vector<VInstr>& code = low.code;
  const auto R = static_cast<size_t>(low.num_regs);
  const uint32_t b = vl.body_begin, e = vl.body_end;
  std::vector<int32_t> writer(R, -1);
  std::vector<uint8_t> carry(R, 0), dep(R, 0), defined(R, 0);
  std::vector<int32_t> slot(R, -1);
  std::vector<int> inside(R, 0);
  std::vector<int32_t> carries;
  if (vl.acc >= 0) {
    carries.push_back(vl.acc);
    carries.insert(carries.end(), vl.accs2.begin(), vl.accs2.end());
  }
  for (int32_t c : carries) carry[static_cast<size_t>(c)] = 1;
  bool effects = false, may_throw = false;
  for (uint32_t i = b; i < e; ++i) {
    const VInstr& in = code[i];
    switch (in.op) {
      case VOp::Loop: case VOp::LoadElem: case VOp::LoadIdx: case VOp::StoreOut:
      case VOp::MulStore: case VOp::AddStore:
        return;
      case VOp::UpdAcc: case VOp::StoreIdx:
        if (in.s < 0 || in.idx[in.nidx - 1] != vl.ivar) return;  // own streams only
        effects = true;
        break;
      case VOp::Gather: case VOp::GatherMul: case VOp::GatherAdd:
        may_throw = may_throw || in.s < 0;
        break;
      case VOp::CheckIdx: may_throw = true; break;
      default: break;
    }
    if (!produces_value(in)) continue;
    if (writer[static_cast<size_t>(in.d)] >= 0) return;
    writer[static_cast<size_t>(in.d)] = static_cast<int32_t>(i);
  }
  if (writer[static_cast<size_t>(vl.ivar)] >= 0 || (effects && may_throw)) return;

  // Map part: reads nothing a carry feeds; its results get tile blocks. Fold
  // part: the rest, on W-wide registers. Every non-carry register must be
  // written before it is read within a trip.
  std::vector<uint32_t> map_part, fold_part;
  int32_t slots = 0;
  for (uint32_t i = b; i < e; ++i) {
    const VInstr& in = code[i];
    bool early = false, on_carry = false;
    for_reads(in, [&](int32_t x) {
      const auto xs = static_cast<size_t>(x);
      ++inside[xs];
      early = early || (writer[xs] >= 0 && defined[xs] == 0 && carry[xs] == 0);
      on_carry = on_carry || dep[xs] != 0 || carry[xs] != 0;
    });
    if (early || (on_carry && (in.op == VOp::UpdAcc || in.op == VOp::StoreIdx))) return;
    const bool w = produces_value(in);
    if (on_carry) {
      fold_part.push_back(i);
      if (w) dep[static_cast<size_t>(in.d)] = 1;
    } else {
      if (w && carry[static_cast<size_t>(in.d)] != 0) return;
      map_part.push_back(i);
      if (w) slot[static_cast<size_t>(in.d)] = slots++;
    }
    if (w) defined[static_cast<size_t>(in.d)] = 1;
  }
  // Tile blocks hold values only inside the body.
  for (size_t x = 0; x < R; ++x) {
    if (slot[x] >= 0 && reads[x] != inside[x]) return;
  }
  const auto iv = static_cast<size_t>(vl.ivar);
  if (inside[iv] > 0) {
    if (reads[iv] != inside[iv]) return;
    slot[iv] = slots++;
  }

  // Fold-major when each carry's write is a copy chain back to one
  // instruction that reads the carry's old value and otherwise only map
  // values or invariants: that instruction, retargeted at the carry, then
  // folds a whole tile in trip order.
  std::vector<VInstr> folds;
  std::vector<uint8_t> used(e - b, 0);
  bool major = true;
  for (int32_t c : carries) {
    int32_t w = writer[static_cast<size_t>(c)];
    while (w >= 0 && code[static_cast<size_t>(w)].op == VOp::Mov) {
      const int32_t t = code[static_cast<size_t>(w)].a;
      const auto ts = static_cast<size_t>(t);
      if (carry[ts] != 0 || writer[ts] < 0 || reads[ts] != 1) break;
      ++used[static_cast<size_t>(w) - b];
      w = writer[ts];
    }
    if (w < 0) {
      major = false;
      break;
    }
    VInstr h = code[static_cast<size_t>(w)];
    ++used[static_cast<size_t>(w) - b];
    bool self = false, other = false;
    for_reads(h, [&](int32_t x) {
      if (x == c) {
        self = true;
      } else {
        other = other || dep[static_cast<size_t>(x)] != 0 || carry[static_cast<size_t>(x)] != 0;
      }
    });
    if (!self || other || (h.d != c && reads[static_cast<size_t>(h.d)] != 1)) {
      major = false;
      break;
    }
    h.d = c;
    folds.push_back(h);
  }
  for (uint32_t i : fold_part) major = major && used[i - b] == 1;
  if (map_part.empty() && !major) return;  // no pass a tile would save

  std::vector<VInstr> tc;
  for (uint32_t i : map_part) tc.push_back(code[i]);
  size_t mid = tc.size();
  if (major) {
    tc.insert(tc.end(), folds.begin(), folds.end());
  } else {
    for (uint32_t i : fold_part) tc.push_back(code[i]);
  }
  int trails = 0;  // own-stream accesses, which index by trip without the block
  for (const VInstr& v : tc) trails += v.s >= 0 && v.idx[v.nidx - 1] == vl.ivar;
  tile_peephole(tc, mid, major, vl.ivar, reads);

  std::vector<uint8_t> stream_reg(R, 0);
  for (uint32_t i = b; i < e; ++i) {
    if (code[i].s >= 0) stream_reg[static_cast<size_t>(code[i].s)] = 1;
  }
  auto bind = [&](int32_t s) {
    if (std::find(vl.bound.begin(), vl.bound.end(), s) == vl.bound.end()) vl.bound.push_back(s);
  };
  bool blocks = false;
  auto emit = [&](VInstr v) {
    v.tiled = 0;
    auto map = [&](int32_t& x, uint8_t bit) {
      if (x < 0) return;
      if (stream_reg[static_cast<size_t>(x)] != 0) {  // a value operand only
        v.streamed |= bit;
        bind(x);
      } else if (slot[static_cast<size_t>(x)] >= 0) {
        x = low.num_regs + slot[static_cast<size_t>(x)];
        v.tiled |= bit;
      }
    };
    if (produces_value(v)) map(v.d, kTileD);
    map(v.a, kTileA);
    map(v.b, kTileB);
    map(v.c, kTileC);
    for (int32_t d = 0; d < v.nidx; ++d) map(v.idx[d], static_cast<uint8_t>(kTileIdx << d));
    const bool own = v.s >= 0 && (v.tiled & (kTileIdx << (v.nidx - 1))) != 0;
    if (v.s >= 0) bind(v.s);
    blocks = blocks || (v.tiled & ~(own ? kTileIdx << (v.nidx - 1) : 0)) != 0;
    low.tile_code.push_back(v);
  };
  vl.tile_begin = static_cast<uint32_t>(low.tile_code.size());
  for (size_t i = 0; i < tc.size(); ++i) {
    if (i == mid) vl.tile_mid = static_cast<uint32_t>(low.tile_code.size());
    emit(tc[i]);
  }
  if (mid == tc.size()) vl.tile_mid = static_cast<uint32_t>(low.tile_code.size());
  vl.tile_end = static_cast<uint32_t>(low.tile_code.size());
  vl.fold_major = major;
  vl.may_throw = may_throw;
  if (inside[iv] > trails) vl.ivar_tile = low.num_regs + slot[iv];
  vl.whole_trip = !blocks && vl.ivar_tile < 0;
  low.tile_slots = std::max(low.tile_slots, slots);
  if (may_throw) {
    low.tile_carries = std::max(low.tile_carries, static_cast<int32_t>(carries.size()));
  }
}

void tile_loops(Lowered& low) {
  std::vector<int> reads(static_cast<size_t>(low.num_regs), 0);
  auto rd = [&](int32_t x) {
    if (x >= 0) ++reads[static_cast<size_t>(x)];
  };
  for (const VInstr& in : low.code) for_reads(in, rd);
  for (const VLoop& vl : low.loops) {
    rd(vl.trip);
    rd(vl.neutral);
    for (int32_t n2 : vl.neutrals2) rd(n2);
    for (const VStream& st : vl.streams) {
      rd(st.trip);
      for (int32_t d = 0; d < st.nlead; ++d) rd(st.lead[d]);
    }
  }
  for (int32_t r : low.red_acc) rd(r);
  for (int32_t r : low.red_elem) rd(r);
  for (VLoop& vl : low.loops) tile_loop(low, vl, reads);
}

// ---- width baking ---------------------------------------------------------

int32_t scale(int32_t reg, int W) { return reg >= 0 ? reg * W : reg; }

VProgram bake(const Lowered& low, int W) {
  // Tile register num_regs + i is block i of T x W doubles after the file.
  const int32_t T = tile_trips(W), tile_base = low.num_regs * W;
  auto tscale = [&](int32_t reg) {
    return reg >= low.num_regs ? tile_base + (reg - low.num_regs) * T * W : scale(reg, W);
  };
  VProgram p;
  p.W = W;
  p.num_regs = low.num_regs;
  p.fold_begin = low.fold_begin;
  p.fold_end = low.fold_end;
  p.code = low.code;
  for (auto& in : p.code) {
    in.d = scale(in.d, W);
    in.a = scale(in.a, W);
    in.b = scale(in.b, W);
    in.c = scale(in.c, W);
    for (int32_t d = 0; d < in.nidx; ++d) in.idx[d] = scale(in.idx[d], W);
    in.s = scale(in.s, W);
  }
  p.loops = low.loops;
  for (auto& vl : p.loops) {
    vl.trip = scale(vl.trip, W);
    vl.ivar = scale(vl.ivar, W);
    vl.acc = scale(vl.acc, W);
    vl.neutral = scale(vl.neutral, W);
    for (auto& a : vl.accs2) a = scale(a, W);
    for (auto& n2 : vl.neutrals2) n2 = scale(n2, W);
    for (VStream& st : vl.streams) {
      st.reg = scale(st.reg, W);
      st.trip = scale(st.trip, W);
      for (int32_t d = 0; d < st.nlead; ++d) st.lead[d] = scale(st.lead[d], W);
    }
    for (int32_t& s : vl.bound) s = scale(s, W);
    vl.ivar_tile = tscale(vl.ivar_tile);
    if (vl.may_throw) vl.save = tile_base + low.tile_slots * T * W;
  }
  p.tile_code = low.tile_code;
  for (auto& in : p.tile_code) {
    in.d = tscale(in.d);
    in.a = tscale(in.a);
    in.b = tscale(in.b);
    in.c = tscale(in.c);
    for (int32_t d = 0; d < in.nidx; ++d) in.idx[d] = tscale(in.idx[d]);
    in.s = scale(in.s, W);
  }
  p.tile_doubles = (low.tile_slots * T + low.tile_carries) * W;
  p.prologue = low.prologue;
  for (auto& in : p.prologue) in.off = scale(in.off, W);
  for (int32_t r : low.red_acc) p.red_acc_off.push_back(scale(r, W));
  for (int32_t r : low.red_elem) p.red_elem_off.push_back(scale(r, W));
  return p;
}

} // namespace

std::optional<Entry> lower(const Kernel& k) {
  Usage u = analyze(k);
  Lowered low;
  if (!lower_pass1(k, u, low)) return std::nullopt;
  const std::vector<uint8_t> uni = uniform_regs(k, u);
  lower_pass2(k, u, low);
  mark_uniform(uni, low.code);
  tile_loops(low);
  return Entry{bake(low, kWide), bake(low, 1)};
}

} // namespace npad::rt::vexec
