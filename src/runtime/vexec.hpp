#pragma once

// Vectorized execution tier for the kernel machine (ROADMAP item 1, the
// "JIT tier"): at first launch, a compiled kernel's KInstr program is
// lowered — once per (kernel, lane width), cached alongside the immortal
// KernelCache entry it came from — into a dense pre-decoded schedule of
// VInstrs, executed by the engine in runtime/vexec_engine.cpp (plain C++
// with constexpr lane loops the compiler auto-vectorizes for the build's
// target ISA). The lowering does four things the per-KInstr switch cannot:
//
//  1. Prologue extraction: ConstF/LoadLen/free-scalar broadcasts leave the
//     instruction stream entirely (a compact init list applied once per
//     register file), so the per-batch loop dispatches only real work, and
//     every operand is a precomputed element offset (reg * W) instead of a
//     per-instruction multiply.
//  2. Superinstruction fusion: dominant adjacent pairs collapse into one
//     handler (mul+add, add+add, mul+mul, neg+exp, gather+arith,
//     arith+store), and copy chains (Mov glue, fold write-backs) are
//     coalesced away. Every fused handler keeps each intermediate's own
//     IEEE rounding — fusion amortizes dispatch, it NEVER contracts to a
//     hardware FMA (the project builds with -ffp-contract=off).
//  3. Whole-loop micro-kernels: the dot-product fold (gather·gather → mul
//     → fold-add), its one-stream variant (gather → fold-add) and the
//     backward dual scatter (two gathers, two scaled products, two UpdAccs;
//     LSTM's reverse sweep) run as single handlers over the loop's bound
//     streams, instead of per-trip dispatch through a recursive span. Any
//     other loop body runs through the generic in-place trip loop.
//  4. Lane-shaped operands in loop bodies. A Gather (or GatherMul /
//     GatherAdd), UpdAcc or StoreIdx whose trailing index is an enclosing
//     loop's variable and whose leading indexes that loop's body never
//     writes (a nested loop's variable and carries count as written) is a
//     stride-1 *stream* of that loop: it owns one extra W-wide register
//     (VInstr::s), and on every entry the loop binds each lane's row
//     pointer into it once — after checking the array is f64 and full rank,
//     the trip fits the trailing extent and every lead is in range. Each trip then reads
//     or writes q[l][t] directly. A stream that does not fit stays unbound
//     (null lane 0) and its instruction takes the checked per-lane address
//     path, so errors are raised where and as the register machine raises
//     them. Separately, a static analysis marks registers *lane-uniform*
//     (free scalars, prologue values, loop variables, and single-writer
//     results of ops whose operands or gather indexes are all uniform);
//     an expensive op (exp, log, tanh, sqrt, pow, div, sin, cos, lgamma,
//     digamma) with uniform operands carries kUniform and computes lane 0
//     once, broadcasting it — the same bits, since every lane's input is.
//
// Bit-exactness contract: for any launch, the vexec tier produces the same
// bits as the W-lane register machine at the same lane width. Lane/batch
// splits, fold lane-blocking, combine order, UpdAcc instruction-major lane
// order, and scalar tails all mirror runtime/kernel.cpp exactly; per-lane
// elementwise SIMD is bit-identical by IEEE; fused pairs preserve operand
// order and intermediate roundings. The scalar register machine remains
// the always-available fallback (InterpOptions::use_vexec = false, or
// NPAD_VEXEC=0 in the environment).

#include <atomic>
#include <cstdint>
#include <vector>

#include "runtime/kernel.hpp"

namespace npad::rt::vexec {

enum class VOp : uint8_t {
  // straight-line ops, 1:1 with the KOp they lower from
  Mov, Add, Sub, Mul, Div, IDiv, Pow, Min, Max, Mod,
  Eq, Ne, Lt, Le, Gt, Ge, And, Or,
  Neg, Exp, Log, Sqrt, Sin, Cos, Tanh, Abs, Sign, LGamma, Digamma, Not, Trunc,
  Select,
  LoadElem, LoadIdx, Gather, UpdAcc, StoreIdx, StoreOut, CheckIdx,
  // superinstructions (fused adjacent pairs; flags bit 0 = swapped operand
  // order of the second op, preserving IEEE NaN-propagation order)
  MulAdd,     // d = (a*b) + c     [flag: d = c + (a*b)]
  MulSub,     // d = (a*b) - c     [flag: d = c - (a*b)]
  AddAdd,     // d = (a+b) + c     [flag: d = c + (a+b)]
  MulMul,     // d = (a*b) * c     [flag: d = c * (a*b)]
  NegExp,     // d = exp(-a)
  GatherMul,  // g = free[slot][idx...]; d = g * b   [flag: d = b * g]
  GatherAdd,  // g = free[slot][idx...]; d = g + b   [flag: d = b + g]
  MulStore,   // output[slot] element = a * b
  AddStore,   // output[slot] element = a + b
  // inline SOAC blocks (slot = VProgram::loops index)
  Loop,       // generic: run [body_begin, body_end) trip times
  DotLoop,    // fused dot-product or one-stream fold (falls back to the body)
  Axpy2Loop,  // fused dual-scatter map loop (same fallback)
};

// VInstr::flags bit 1: every operand is lane-uniform, so the op computes
// lane 0 once and broadcasts it (expensive elementwise ops only).
inline constexpr uint8_t kUniform = 2;

struct VInstr {
  VOp op = VOp::Mov;
  uint8_t flags = 0;
  int32_t slot = -1;                 // array slot, or loops[] index
  int32_t d = -1, a = -1, b = -1, c = -1;  // register-file element offsets
  int32_t idx[4] = {-1, -1, -1, -1};       // gather/UpdAcc index offsets
  int32_t nidx = 0;
  int32_t s = -1;  // stream register offset (VStream::reg), -1 = always checked
};

// A stride-1 stream of one loop-body access: free_array[slot] (Gather forms)
// or acc_array[slot] (UpdAcc, StoreIdx) at [lead..., ivar]. The loop binds
// it on entry: register `reg` then holds one row pointer per lane (stored as
// raw pointer bits), or null in lane 0 when the stream did not fit.
struct VStream {
  int32_t reg = -1;
  int32_t slot = -1;
  bool acc = false;
  int32_t lead[3] = {-1, -1, -1};
  int32_t nlead = 0;
};

// Lowered InlineLoop block. All register references are element offsets.
struct VLoop {
  uint32_t body_begin = 0, body_end = 0;  // VInstr range (generic/fallback)
  int32_t trip = -1, ivar = -1, acc = -1, neutral = -1;
  // Multi-result folds: accumulators 1..k-1, seeded on entry like acc.
  std::vector<int32_t> accs2, neutrals2;
  // Streams trailing with this loop's variable (nested loops' bodies
  // included), in body order. A DotLoop folds streams[0] (times
  // streams[1]) into acc.
  std::vector<VStream> streams;
  uint8_t dot_flags = 0;  // bit0: product computed as B*A; bit1: fold is elem+acc
  // Axpy2Loop over streams g1, g2, u1, u2 (streams[0..3]): p1 = mul1,
  // p2 = mul2 (each an invariant scalar times one gathered stream), then
  // u1[t] += {p1|p2} and u2[t] += the other, in instruction-major lane order.
  int32_t s1 = -1, s2 = -1;  // invariant multiplier offsets
  // ax_flags: bit0 m1 reads g1 (else g2); bit1 m1 computes s*g (else g*s);
  //           bit2/bit3 same for m2; bit4 u1 adds m1's product (else m2's).
  uint8_t ax_flags = 0;
};

// Prologue init: one launch-invariant register broadcast.
struct VInit {
  enum class Kind : uint8_t { Imm, FreeScalar, ArrayLen };
  int32_t off = 0;  // register-file element offset (reg * W)
  Kind kind = Kind::Imm;
  int32_t src = -1;  // free-scalar index / free-array slot
  double imm = 0.0;
  int32_t dim = 0;   // ArrayLen: shape dimension to read (stream lengths)
};

// One lowered program at a fixed lane width W (operand offsets are baked
// for that width, so wide and narrow variants are separate programs).
struct VProgram {
  int W = 0;  // 0 = absent
  int num_regs = 0;
  std::vector<VInstr> code;
  std::vector<VInit> prologue;
  std::vector<VLoop> loops;              // parallel to Kernel::loops
  uint32_t fold_begin = 0, fold_end = 0; // remapped fold-subprogram bounds
  std::vector<int32_t> red_acc_off, red_elem_off;
};

// Cached vexec artifact for one (kernel, lane width): the wide program (W =
// lanes; absent when lanes == 1) plus the W=1 program driving scalar tails,
// scans, hist chunks, scalar blocks and fold combines.
struct Entry {
  VProgram wide;
  VProgram narrow;
  int superinstrs = 0;  // fused superinstructions in one program's code
};

// Lazily lowers (and caches process-wide, immortal) the vexec entry for `k`
// at lane width `lanes`. `k` must itself be immortal — owned by the kernel
// cache or a resolved program's scalar-glue block, never by the launch. Returns nullptr when the
// width is unsupported (wide programs exist for W in {4, 8, 16} only) or
// the program does not lower; the caller then stays on the register machine.
const Entry* lookup(const Kernel& k, int lanes);

// Engine drivers (runtime/vexec_engine.cpp). Each mirrors the KernelLaunch
// method of the same name in runtime/kernel.cpp bit-exactly; run_scalar
// executes a scalar-glue block (extent 1, results into `out`).
void run(const Entry& e, const KernelLaunch& L, int64_t lo, int64_t hi);
void run_reduce(const Entry& e, const KernelLaunch& L, int64_t lo, int64_t hi,
                double* partials);
void run_scan_chunk(const Entry& e, const KernelLaunch& L, int64_t lo, int64_t hi,
                    double* carry);
int64_t run_hist_chunk(const Entry& e, const KernelLaunch& L, int64_t lo, int64_t hi,
                       double* bins, int64_t m, const int64_t* inds);
void run_scalar(const Entry& e, const Kernel& k, const double* frees, double* out);

} // namespace npad::rt::vexec
