#pragma once

// Vectorized execution tier for the kernel machine: a compiled kernel's
// KInstr program is lowered once, next to the kernel in the resolved program
// that owns it (runtime/resolve.hpp), into a dense pre-decoded schedule of
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
//  3. Trip tiles. An innermost inline loop runs its body instruction-major
//     over a tile of T = tile_trips(W) trips x W lanes (the vectorized
//     interpreter of MonetDB/X100), so each instruction dispatches once per
//     tile instead of once per trip. The lowering splits the body into a
//     map part (instructions that do not depend on a carry) and a fold part
//     (the rest). A register the map part writes becomes a [T][W] tile
//     block. A bound stream of the loop is an ordinary operand there: lane
//     l, row j reads q[l][t0 + j] in place, so a stream Gather whose value
//     only feeds tile instructions takes no block and no pass. A peephole
//     over the tile code then fuses a pure pair across the tile (a product
//     into the fold that sums it, or into the UpdAcc that scatters it), and
//     tile code that uses no block at all runs the whole trip as one tile.
//     The fold part then runs over the tile's per-trip values in trip order:
//     when every carry (acc, accs2) is one instruction folding its own old
//     value with map values (the copy chain to the carry collapsed), each
//     fold runs as one pass over the tile; otherwise the fold part runs
//     once per trip. Either way every lane's chain keeps its order, so the
//     bits do not change. A body keeps the per-trip path when it holds a
//     nested loop (which tiles on its own), a carry the map part writes, a
//     register read before it is written, a non-stream UpdAcc or
//     StoreIdx, a carry-dependent memory effect, or a memory effect next to
//     an access that may raise; at run time, when any of its streams did not
//     bind. Stream accesses at distinct trips never hit one address, so the
//     instruction-major order keeps every address's sequence of effects. A
//     pure body whose checked access raises inside a tile is replayed per
//     trip from the tile's start, which raises the register machine's error
//     at the register machine's point. LSTM's dot product thus runs as one
//     fold pass (a MulAdd over two stream operands into the accumulator)
//     and its dual scatter as two MulUpd passes.
//  4. Streams. A Gather (or GatherMul / GatherAdd), UpdAcc or StoreIdx whose
//     trailing index is an enclosing loop's variable and whose leading
//     indexes that loop's body never writes (a nested loop's variable and
//     carries count as written) is a stride-1 *stream* of that loop: it
//     owns one extra W-wide register (VInstr::s) that holds one row pointer
//     per lane, bound after checking the array is f64 and full rank, the
//     trip fits the trailing extent and every lead is in range. A stream
//     whose leads and trip an enclosing loop's body does not write either is
//     bound once per entry to the outermost such loop, not once per entry to
//     its own (LSTM's x row, read by every output j), and identical hoisted
//     streams share one register. A stream that does not fit stays unbound
//     (null lane 0) and its instruction takes the checked per-lane address
//     path, so errors are raised where and as the register machine raises
//     them. Separately, a static analysis marks registers *lane-uniform*
//     (free scalars, prologue values, loop variables, and single-writer
//     results of ops whose operands or gather indexes are all uniform);
//     an expensive op (exp, log, tanh, sqrt, pow, div, sin, cos, lgamma,
//     digamma) with uniform operands carries kUniform and computes lane 0
//     once per trip, broadcasting it — the same bits, since every lane's
//     input is.
//
// Bit-exactness contract: for any launch, the vexec tier produces the same
// bits as the W-lane register machine at the same lane width. The launch
// drivers (lane and batch splits, fold lane-blocking and combine order,
// scalar tails, scan and hist re-entries) exist once, in runtime/kernel.cpp,
// and run over either executor; what differs is only the span executor
// below. Within a span, UpdAcc keeps the register machine's instruction-
// major lane order, per-lane elementwise SIMD is bit-identical by IEEE, and
// fused pairs preserve operand order and intermediate roundings. The scalar
// register machine remains the always-available fallback
// (InterpOptions::use_vexec = false, or NPAD_VEXEC=0 in the environment).

#include <atomic>
#include <cstdint>
#include <optional>
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
  MulUpd,     // UpdAcc of a * b (tile code only)
  // inline SOAC block (slot = VProgram::loops index): run [body_begin,
  // body_end) trip times, or its tile code once per tile of trips
  Loop,
};

// VInstr::flags bit 1: every operand is lane-uniform, so the op computes
// lane 0 once and broadcasts it (expensive elementwise ops only).
inline constexpr uint8_t kUniform = 2;

// VInstr::tiled bits (tile code only): the operand is a [T][W] tile block,
// read or written at row j for trip t0 + j; a clear bit means a W-wide
// register every trip of the tile reads. idx operand d uses kTileIdx << d.
// VInstr::streamed uses kTileA/B/C: the operand is the register of a bound
// stream of the tile's loop, read in place — lane l, row j is q[l][t0 + j].
inline constexpr uint8_t kTileD = 1, kTileA = 2, kTileB = 4, kTileC = 8, kTileIdx = 16;

// Trips per tile at lane width W: a tile block holds 128 doubles.
constexpr int tile_trips(int W) { return 128 / W; }

struct VInstr {
  VOp op = VOp::Mov;
  uint8_t flags = 0;
  uint8_t tiled = 0;                 // kTile* operand bits (tile code)
  uint8_t streamed = 0;              // stream operand bits (tile code)
  int32_t slot = -1;                 // array slot, or loops[] index
  int32_t d = -1, a = -1, b = -1, c = -1;  // register-file element offsets
  int32_t idx[4] = {-1, -1, -1, -1};       // gather/UpdAcc index offsets
  int32_t nidx = 0;
  int32_t s = -1;  // stream register offset (VStream::reg), -1 = always checked
};

// A stride-1 stream of one loop-body access: free_array[slot] (Gather forms)
// or acc_array[slot] (UpdAcc, StoreIdx) at [lead..., ivar] over `trip`
// steps (the trip register of the loop whose variable trails it). The loop
// that owns the VStream binds it on entry: register `reg` then holds one row
// pointer per lane (stored as raw pointer bits), or null in lane 0 when the
// stream did not fit.
struct VStream {
  int32_t reg = -1;
  int32_t slot = -1;
  bool acc = false;
  int32_t lead[3] = {-1, -1, -1};
  int32_t nlead = 0;
  int32_t trip = -1;
};

// Lowered InlineLoop block. All register references are element offsets.
struct VLoop {
  uint32_t body_begin = 0, body_end = 0;  // VInstr range (per-trip path)
  int32_t trip = -1, ivar = -1, acc = -1, neutral = -1;
  // Multi-result folds: accumulators 1..k-1, seeded on entry like acc.
  std::vector<int32_t> accs2, neutrals2;
  // Streams bound on entry: this loop's own, plus those hoisted from nested
  // loops whose leads and trip this loop's body does not write.
  std::vector<VStream> streams;
  // Trip tiling, when tile_end > tile_begin: VProgram::tile_code
  // [tile_begin, tile_mid) is the map part, [tile_mid, tile_end) the fold
  // part — instruction-major over the tile when fold_major, else once per
  // trip. `bound` lists the stream registers the tile code reads: the tile
  // path runs only when every one of them bound. A `whole_trip` loop's tile
  // code uses no tile block, so one tile spans the whole trip.
  uint32_t tile_begin = 0, tile_mid = 0, tile_end = 0;
  bool fold_major = false;
  bool whole_trip = false;
  bool may_throw = false;   // pure body with a checked access: replay on error
  int32_t ivar_tile = -1;   // tile block to fill with the trip index, or -1
  int32_t save = -1;        // may_throw: carry save block (1 + accs2 registers)
  std::vector<int32_t> bound;
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
  int W = 0;  // lane width
  int num_regs = 0;
  std::vector<VInstr> code;
  std::vector<VInit> prologue;
  std::vector<VLoop> loops;              // parallel to Kernel::loops
  std::vector<VInstr> tile_code;         // tiled loop bodies (VLoop::tile_*)
  // Scratch doubles after the num_regs * W register file: the tile blocks
  // (shared by every tiled loop — none nests in another) and carry save
  // blocks. Not zeroed: tile code writes every block before reading it.
  int32_t tile_doubles = 0;
  uint32_t fold_begin = 0, fold_end = 0; // remapped fold-subprogram bounds
  std::vector<int32_t> red_acc_off, red_elem_off;
};

// Lowered form of one kernel: the wide program (W = kWide) plus the W=1
// program driving scalar tails, scans, hist chunks, scalar blocks and fold
// re-entries.
struct Entry {
  VProgram wide;
  VProgram narrow;
};

// Lowers `k` into its wide and narrow programs; nullopt when the program
// does not lower, and the caller then stays on the register machine.
std::optional<Entry> lower(const Kernel& k);

// The span executor (runtime/vexec_engine.cpp) the launch drivers of
// runtime/kernel.cpp run over when a launch carries an entry.

// Doubles one program's register file takes: the registers, then its tile
// scratch.
inline size_t file_size(const VProgram& p) {
  return static_cast<size_t>(p.num_regs) * static_cast<size_t>(p.W) +
         static_cast<size_t>(p.tile_doubles);
}

// Zeroes p's registers (its tile scratch is left as is) and applies its
// prologue from L's free scalars and arrays.
void prepare(const VProgram& p, const KernelLaunch& L, double* r);

// Instructions [ib, ie) of p (W == p.W) over iterations [lo, hi), in the
// register machine's lane layout: lane_stride 1 advances batches by W, a
// block length blk gives lane l the contiguous block at lo + l*blk.
// Instantiated for W = 1 and kWide.
template <int W>
void span(const VProgram& p, const KernelLaunch& L, double* r, int64_t lo, int64_t hi,
          uint32_t ib, uint32_t ie, int64_t lane_stride);

// Collects the loop-body dispatches of one driver call on this thread and
// adds them to `sink` (when set) once, on destruction.
struct DispatchTally {
  explicit DispatchTally(std::atomic<uint64_t>* sink);
  ~DispatchTally();
  DispatchTally(const DispatchTally&) = delete;
  DispatchTally& operator=(const DispatchTally&) = delete;
  std::atomic<uint64_t>* sink;
};

} // namespace npad::rt::vexec
