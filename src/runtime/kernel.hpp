#pragma once

// The kernel compiler: lowers a scalar map-lambda — or a reduce/scan fold
// operator plus optional redomap pre-lambda — to a small register-machine
// program executed in a tight loop over the iteration space. This is the
// CPU stand-in for the paper's GPU code generation — scalar intermediates
// live in (virtual) registers rather than being fetched from a tape in
// global memory, and accumulator updates lower to atomic adds.
//
// A lambda is kernel-compilable when its parameters are scalars, rows of a
// rank-2 argument or threaded accumulators, its results are scalars,
// threaded accumulators or row-bound accumulator rows (below), and its body
// consists only of scalar operations, full indexing into free arrays,
// upd_acc side effects, virtual arrays and the inline SOACs below, and
// sequential for-loops whose carries are scalars or accumulators.
// Everything else (while-loops, array-valued loop state, …) falls back to
// the general interpreter.
//
// Virtual arrays: a rank-1 binding the kernel never materializes — an
// `iota`/`replicate` domain, a stream (row view of a free array), a value
// map (vmap, re-inlined per element at each consumer), `zeros_like v` (a
// constant-zero domain of v's invariant length) and a one-hot update
// `a with [j] <- x` of a domain, vmap or one-hot, whose element i is
// select(i == j, x, a[i]) — the argmin/argmax adjoint the vjp emits. A
// scalar read `a[j]` reads element j (re-inlining a vmap at j). Every index
// into a domain, vmap or one-hot is checked by a CheckIdx instruction and
// raises the general path's ShapeError when out of range (streams check in
// their Gather). A vmap inlined at an element stays in registers for the
// rest of the block, so a second consumer of any of its results at the same
// element reuses it, and consecutive array-valued upd_accs from one vmap's
// results share one loop.
//
// Accumulator-threading inline maps: an inline map may take accumulators as
// arguments (acc params alias their argument's slot) and return them, in
// parameter order — the reverse sweep's inner map over (iota k, weights,
// accs).
//
// Row-bound accumulators: `withacc (zeros_like a…) (λacc… → …)` whose
// arrays are returned directly as rank-1 lambda results — a per-point
// adjoint row — binds each accumulator to a zero-filled [n][len] launch
// result (len a preamble register); its UpdAccs take the iteration index
// as their leading index and are plain adds, since each iteration owns its
// row. Together these forms run a per-point reverse body (k-means, GMM) as
// one kernel launch instead of one lambda application per point.
//
// Row results: a rank-1 f64 lambda result that is a virtual array — a vmap
// over row streams or domains, `zeros_like`, a one-hot array — binds the
// same way to an [n][len] launch result (len a preamble register), filled by
// an inline loop whose StoreIdx writes element j of row i. Row results of
// one extent share the loop. This runs map-of-map (`map(λrow. map(g,
// row…))`) as one launch: each lane computes a whole row.
//
// Sequential loops: a for-loop compiles to an InlineLoop block in counted
// form — carried registers seeded from `init`, written back every trip,
// trip count from `count`. A count that may differ between lanes (a CSR
// segment length read from the data) marks the kernel !uniform_trips, and
// its launches run one lane at a time; an invariant count keeps W-lane
// lockstep. This is what runs an irregular nest (sparse k-means, XSBench's
// binary search) as one kernel instead of one lambda application per trip.
//
// Reduction kernels (compile_reduce_kernel) additionally hold *reduction
// registers*: per fold result, an accumulator register (a per-lane partial
// in the batched engine) and an element register fed either by LoadElem or
// by the redomap pre-lambda compiled into the same program — fused reduce
// runs load→map→fold in one batched loop with no intermediate array.
//
// Inline SOACs: a lambda whose body binds `iota n` / `replicate n v` (scalar
// v) with a *launch-uniform* extent (derived only from constants, free
// scalars and free-array lengths) and consumes them exclusively as the
// domain of a scalar-result redomap or a unit-result upd_acc map compiles
// those nested SOACs into the same program as InlineLoop blocks: a
// sequential per-iteration subprogram run in lockstep across the outer
// lanes, with no per-row launch, no environment frame and no materialized
// iota/replicate array. This is what turns a dot-product row lambda (8
// fused redomaps + glue) into ONE kernel launch per row. The vexec tier runs
// an innermost loop's body a tile of trips at a time, reading the loop's
// streams in place: a dot product over two streams is one fold pass.
//
// Stream arguments: inline SOACs also accept *real* rank-1 arrays as
// arguments — a row view `index(A, leads…)` of a free array, or a whole
// free rank-1 array — consumed element-by-element inside the inline loop
// via full-indexing Gathers ([leads…, ivar]). The trip count is the first
// stream's length (a LoadLen of the base array's dim `nlead`, launch-
// invariant) unless an iota or vmap argument pins it. Shape facts the
// builder cannot see statically — the rank of a bare free array, length
// agreement between the arguments of one SOAC (two array extents, or an
// extent and a free scalar such as an iota's) — are recorded as stream
// guards on the Kernel and validated when the launch is bound: a violating
// binding makes the launch fall back to the general interpreter, which
// raises the exact shape error (or handles the shapes generically).
// Lengths no guard can tie (computed extents) reject the lambda.

#include <atomic>
#include <cmath>
#include <optional>
#include <vector>

#include "ir/ast.hpp"
#include "runtime/value.hpp"

namespace npad::rt {

namespace vexec {
struct Entry;
} // namespace vexec

// Digamma via the standard asymptotic series with recurrence shift; accurate
// to ~1e-12 for x > 0 (sufficient for the GMM prior terms). The general
// evaluator, the register machine and the vexec engine all call this one
// definition, so the tiers agree bit for bit.
inline double digamma(double x) {
  double result = 0.0;
  while (x < 6.0) {
    result -= 1.0 / x;
    x += 1.0;
  }
  const double inv = 1.0 / x, inv2 = inv * inv;
  result += std::log(x) - 0.5 * inv -
            inv2 * (1.0 / 12 - inv2 * (1.0 / 120 - inv2 * (1.0 / 252 - inv2 / 240)));
  return result;
}

// The one wide lane count: Interp admits kernel_lanes 1 and kWide only, and
// a launch runs wide batches only at this width.
inline constexpr int kWide = 8;

enum class KOp : uint8_t {
  ConstF, Mov,
  Add, Sub, Mul, Div, IDiv, Pow, Min, Max, Mod,
  Eq, Ne, Lt, Le, Gt, Ge, And, Or,
  Neg, Exp, Log, Sqrt, Sin, Cos, Tanh, Abs, Sign, LGamma, Digamma, Not, Trunc,
  Select,
  LoadElem,   // dst = input[slot] element at current iteration
  Gather,     // dst = free_array[slot][flatten(idx regs)]
  UpdAcc,     // acc_array[slot][flatten(idx regs)] += reg a (atomic)
  StoreIdx,   // acc_array[slot][flatten(idx regs)] = reg a (row results)
  StoreOut,   // output[slot] element at current iteration = reg a
  LoadLen,    // dst = extent of free_array[slot] along dim max(b, 0) (launch-invariant)
  LoadIdx,    // dst = current iteration index (per lane; row streams, row accumulators)
  InlineLoop, // run Kernel::loops[slot] body, then skip past it
  CheckIdx,   // raise ShapeError unless 0 <= reg a < reg b (virtual-array index)
};

struct KInstr {
  KOp op = KOp::Mov;
  int32_t dst = -1, a = -1, b = -1, c = -1;
  int32_t slot = -1;
  double imm = 0.0;
  int32_t nidx = 0;
  int32_t idx[4] = {-1, -1, -1, -1};
};

struct Kernel {
  // Accumulator bindings: param_index >= 0 means the acc comes from that map
  // argument position; -1 means a free accumulator variable in scope — or,
  // with row_len_reg >= 0, a row-bound local accumulator: an in-lambda
  // `withacc (zeros_like …)` whose array is returned as a rank-1 lambda
  // result. It binds to a zero-filled [n][len] launch result (len = the
  // preamble register row_len_reg), its UpdAccs carry the iteration index
  // (LoadIdx) as their leading index, and they are always plain adds: every
  // iteration owns its row. With `store` set the slot is a row result rather
  // than an accumulator: StoreIdx overwrites each element of its row once,
  // so its [n][len] buffer needs no zero-fill.
  struct AccBinding {
    ir::Var var;
    int32_t param_index = -1;
    int32_t row_len_reg = -1;
    bool store = false;
  };

  // Reduction register pair (reduce/scan kernels; empty for map kernels).
  // acc_reg carries the running accumulator — one partial per lane in the
  // SoA register file — and elem_reg carries the iteration's element (a
  // LoadElem destination, or a fresh register the redomap pre-lambda's
  // result is moved into). Both are guaranteed single-purpose registers, so
  // the fold subprogram [fold_begin, fold_end) can be executed standalone
  // by seeding them directly: that is how lane partials are combined at
  // span end, chunk partials are merged, and blocked-scan prefixes are
  // applied (phase 3) without re-touching the inputs.
  struct RedSlot {
    int32_t acc_reg = -1;
    int32_t elem_reg = -1;
  };

  // Inline block: instructions [body_begin, body_end) — placed directly
  // after the InlineLoop marker that owns this entry — run trip_reg times
  // (none when it is zero or negative) with ivar_reg broadcast to the trip
  // index. Every lane runs the trip count lane 0 holds: inline SOACs take
  // their extent from invariant registers only, and a kernel with a
  // sequential loop whose count varies per lane is marked !uniform_trips
  // and always launched with one lane. The fold form (acc_reg >= 0) seeds
  // acc_reg from neutral_reg on entry; the body writes it back every trip.
  // For an inline SOAC that is the fold in element order — the same order
  // as the general interpreter's sequential reduce, so kernelizing a lambda
  // this way never changes float grouping. For a sequential for-loop
  // (counted) the registers are the loop's scalar carries and the seeds are
  // its `init` values; acc-typed carries alias their accumulator slots and
  // need no register. The map form (acc_reg < 0) is a pure side-effect loop
  // (upd_acc bodies). Bodies contain no LoadElem/StoreOut; nested
  // InlineLoop markers are allowed. Multi-result folds (the jvp programs'
  // (primal, tangent) reduce pairs) and multi-carry loops keep values
  // 1..k-1 in more_accs/more_neutrals, seeded on entry exactly like acc_reg.
  struct InlineLoop {
    uint32_t body_begin = 0, body_end = 0;
    int32_t trip_reg = -1;
    int32_t ivar_reg = -1;
    int32_t acc_reg = -1;     // fold result / first carry, -1 for map form
    int32_t neutral_reg = -1; // its seed, -1 for map form
    std::vector<int32_t> more_accs, more_neutrals;  // parallel; values 1..
    // A sequential for-loop: trip_reg is the loop's count, not a stream
    // length (the vexec tier's fused loop forms never apply).
    bool counted = false;
  };

  // Stream guards: shape facts a stream-consuming inline SOAC assumed at
  // compile time but that only the bound arrays can confirm. Checked against
  // free_array_vals and free_scalar_vals at every bind (interp's
  // stream_guards_ok); any failure falls the launch back to the general
  // path.
  struct StreamRankGuard {
    int32_t slot = -1;   // free-array slot
    int32_t rank = 0;    // required rank of the bound array
  };
  struct StreamLenGuard {
    int32_t slot_a = -1, dim_a = 0;  // shape[dim_a] of free_array[slot_a]
    int32_t slot_b = -1, dim_b = 0;  // must equal shape[dim_b] of free_array[slot_b]
  };
  struct StreamScalarGuard {
    int32_t slot = -1, dim = 0;  // shape[dim] of free_array[slot]
    int32_t scalar = -1;         // must equal free scalar number `scalar`
  };

  std::vector<KInstr> instrs;
  int num_regs = 0;
  std::vector<ir::Var> free_scalars;     // resolved to registers at launch
  std::vector<int32_t> free_scalar_regs;
  // Gather sources, resolved from the environment at bind time — except the
  // slots named by row_param_slots, whose entries are placeholders filled
  // from the launch's rank-2 map arguments instead.
  std::vector<ir::Var> free_arrays;
  std::vector<AccBinding> accs;          // accumulator targets
  // Per lambda result: acc slot (threaded accumulator, or the [n][len] array
  // of a row-bound accumulator or row result) or -1 (a scalar StoreOut
  // output).
  std::vector<int32_t> ret_acc_slot;
  std::vector<ScalarType> out_elems;     // one per scalar output
  size_t num_inputs = 0;                 // element-wise inputs (non-acc args)
  std::vector<RedSlot> reds;             // reduction registers (fold results)
  size_t fold_begin = 0, fold_end = 0;   // fold-body subprogram bounds
  std::vector<InlineLoop> loops;         // inline blocks (marker order)
  // False when a sequential loop's trip count is not launch-invariant:
  // lanes would disagree on it, so every launch runs with lanes = 1.
  bool uniform_trips = true;
  std::vector<StreamRankGuard> stream_rank_guards;
  std::vector<StreamLenGuard> stream_len_guards;
  std::vector<StreamScalarGuard> stream_scalar_guards;
  // Row-stream parameters (map kernels): one entry per non-acc argument
  // position. -1 = element input (rank-1, LoadElem slot in order); >= 0 =
  // the free-array slot the rank-2 argument binds into, with the param
  // compiled as a stream over the current row ([LoadIdx, i] Gathers). Empty
  // means all-element (the common case). This is what lets a lambda taking
  // a row of a rank-2 array — per-point kmeans/GMM bodies — compile into a
  // single launch over all rows instead of one inner launch per row.
  std::vector<int32_t> row_param_slots;
};

// Attempts to compile `f` applied element-wise over non-acc `args`.
std::optional<Kernel> compile_kernel(const ir::Lambda& f);

// Attempts to compile the fold operator `op` (2k scalar params → k scalar
// results; no accumulators) plus the optional redomap pre-lambda `pre`
// (scalar params matching the launch inputs, k scalar results feeding the
// fold) into a reduction kernel. The pre-lambda of a reduce may upd_acc free
// accumulators (the vjp's psum redomaps): they bind like a map kernel's free
// accumulators. With `scan` set, the program additionally stores each
// iteration's updated accumulator to the outputs — the sequential
// blocked-scan phase-1 program — and accumulators are rejected.
std::optional<Kernel> compile_reduce_kernel(const ir::Lambda& op, const ir::Lambda* pre,
                                            bool scan);

// Bound kernel ready to run: free variables resolved against an environment.
// `k` points into the resolved program that runs the launch (a lambda's
// kernel slot or a scalar-glue block, runtime/resolve.hpp), which outlives
// the launch.
struct KernelLaunch {
  const Kernel* k = nullptr;
  std::vector<double> free_scalar_vals;
  std::vector<ArrayVal> free_array_vals;
  std::vector<ArrayVal> acc_array_vals;
  // Per acc slot: nonzero = atomic RMW updates (default); zero = plain adds,
  // valid when the slot's backing array is private to one executing thread
  // (privatized accumulators, or a launch that provably runs sequentially).
  // Empty means all-atomic.
  std::vector<uint8_t> acc_atomic;
  std::vector<ArrayVal> inputs;   // rank-1, one per element input
  std::vector<ArrayVal> outputs;  // rank-1, one per scalar output
  // Lane width W: iterations execute in batches of W over a structure-of-
  // arrays register file (lane l of register x at x*W + l), amortizing the
  // per-instruction dispatch across the batch and turning LoadElem/StoreOut
  // into contiguous strip accesses. 1 = the scalar machine; kWide adds a
  // scalar tail for the remainder of non-divisible extents
  // (InterpOptions::kernel_lanes).
  int32_t lanes = 1;
  // When set, incremented once per run() span that executes at least one
  // full W-wide batch — the accurate signal behind
  // InterpStats::batched_launches (a span split too finely by the scheduler
  // runs scalar and is not counted).
  std::atomic<uint64_t>* batched_spans = nullptr;
  // Reduction kernels: the fold's neutral element per reduction slot, used
  // to seed the per-lane partial accumulators.
  std::vector<double> red_neutral;

  // Extent-1 scalar-block mode (scalar-glue blocks): when set, StoreOut writes
  // result j to scalar_out[j] instead of an output array — no output
  // buffers, no iteration space, one lane. run(0, 1) executes the block.
  double* scalar_out = nullptr;

  // Vectorized execution tier (runtime/vexec.hpp): when `vx` is set, every
  // driver below runs over the entry's pre-decoded SIMD programs instead of
  // the register machine — bit-exact by contract, so binding it is purely a
  // speed choice. The entry is lowered from `k` and owned next to it.
  // `vexec_spans` feeds InterpStats::vexec_launches, one tick per run,
  // run_reduce, run_scan_chunk or run_hist_chunk call (the fold re-entries
  // scan_rescale, combine_partials and fold_bins are not counted);
  // `vexec_dispatches` feeds InterpStats::vexec_body_dispatches, the
  // inline-loop body dispatches (per trip, or per pass over a tile of trips)
  // of each driver call, added once per call.
  const vexec::Entry* vx = nullptr;
  std::atomic<uint64_t>* vexec_spans = nullptr;
  std::atomic<uint64_t>* vexec_dispatches = nullptr;

  // Executes iterations [lo, hi) (map kernels).
  void run(int64_t lo, int64_t hi) const;

  // Reduction kernels: folds elements [lo, hi) into `partials` (seeded by
  // the caller, normally with the neutral element). Lane widths > 1 give
  // each lane one contiguous block of the span, accumulate per-lane
  // partials in the SoA register file, and combine them in block order
  // through the fold subprogram at span end — element order is preserved
  // (associative folds suffice) but float-add grouping changes relative to
  // a sequential fold (see runtime/README.md).
  void run_reduce(int64_t lo, int64_t hi, double* partials) const;

  // Scan kernels: sequentially scans [lo, hi), writing each updated
  // accumulator to the outputs; `carry` is the running accumulator in/out.
  void run_scan_chunk(int64_t lo, int64_t hi, double* carry) const;

  // Scan kernels, blocked-scan phase 3: outputs[i] = op(prefix, outputs[i])
  // for i in [lo, hi), via the fold subprogram.
  void scan_rescale(int64_t lo, int64_t hi, const double* prefix) const;

  // acc = op(acc, other) via the fold subprogram (chunk-partial merges).
  void combine_partials(double* acc, const double* other) const;

  // Hist drivers over a single-result reduction kernel (k->reds.size() == 1;
  // the reduce form of the combine operator): for each element i in
  // [lo, hi) with an in-range index, bins[inds[i]] =
  // op(bins[inds[i]], vals[i]) — the subprogram [0, fold_begin) loads the
  // element register, the fold subprogram is re-entered with
  // the bin's current value seeded into the accumulator register. Strictly
  // sequential in element order (the generalized-histogram contract needs
  // associativity only across the privatized-merge boundaries). Returns the
  // number of in-range updates performed.
  int64_t run_hist_chunk(int64_t lo, int64_t hi, double* bins, int64_t m,
                         const int64_t* inds) const;

  // acc[j] = op(acc[j], other[j]) for j in [0, count): the bin-wise
  // subhistogram merge, one fold-subprogram entry per bin.
  void fold_bins(double* acc, const double* other, int64_t count) const;
};

// Fills `pre` with the register file of a bound launch's preamble registers
// — free scalars and ConstF/LoadLen destinations, the values every lane
// shares before the first instruction runs. Every other register holds NaN.
void preamble_regs(const KernelLaunch& L, std::vector<double>& pre);

// Per-element work of a bound launch, for scheduling and update accounting:
// one walk over the program in which the instructions of an inline loop count
// trip times — its preamble trip value, or once when the trip is data-
// dependent or computed. `instrs` counts executed instructions (prologue
// ConstF/LoadLen excluded); `updates[s]` counts UpdAccs into acc slot s.
// `pre` (preamble_regs) is read only for loop trips: null is fine for a
// kernel without inline loops.
struct KernelWork {
  double instrs = 0;
  std::vector<double> updates;
};
KernelWork kernel_work(const Kernel& k, const double* pre);

} // namespace npad::rt
