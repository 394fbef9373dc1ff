#pragma once

// Parallel interpreter for npad IR: the execution substrate standing in for
// the paper's GPU backend. SOACs execute on the global thread pool; scalar
// map lambdas take the kernel-compiled fast path (runtime/kernel.hpp), each
// kernel compiled once into the resolved program (runtime/resolve.hpp); a regular
// nest — a map whose lambda folds, maps or loops over rows — runs as one
// whole-lambda kernel launch instead of one inner launch per row; variable
// environments are slot-resolved flat frames (runtime/resolve.hpp), and runs
// of scalar glue execute as single kernel calls. Accumulator updates are
// privatized into per-worker buffers when profitable, falling back to atomic
// adds. See src/runtime/README.md.

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ir/ast.hpp"
#include "runtime/value.hpp"

namespace npad::rt {

struct ResolvedProg;

// Default eval recursion-depth limit: NPAD_MAX_EVAL_DEPTH if set, else 512 —
// deep enough for any real program the front end emits, shallow enough that a
// runaway recursive structure throws npad::ResourceError long before the C++
// stack overflows.
int default_max_eval_depth();

// Vectorized-tier default from the environment: NPAD_VEXEC=0 disables the
// tier (register machine everywhere, the bit-exactness reference). Unset or
// any other value: on.
bool default_use_vexec();

struct InterpOptions {
  bool parallel = true;         // use the thread pool for SOACs
  bool use_kernels = true;      // kernel-compiled SOACs and scalar-glue blocks
  bool privatize_accs = true;   // per-worker accumulator buffers + merge
  // Kernel lane width W: compiled maps execute in batches of W iterations
  // over an SoA register file (amortized dispatch, contiguous element
  // loads/stores), with a scalar tail loop. 1 = scalar execution. Only 1 and
  // 8 are accepted (Interp's constructor throws std::invalid_argument).
  int kernel_lanes = 8;
  // Minimum elements per parallel chunk, for light elements: kernel launches
  // scale it down by their measured per-element work (runtime/README.md,
  // Scheduling).
  int64_t grain = 2048;
  // Privatization threshold: an accumulator is privatized only while the
  // total private footprint of the launch (sum over privatized accumulators
  // of elems x chunks) stays within this many f64 elements.
  int64_t privatize_budget = int64_t{1} << 22;
  // Resource governance: maximum nesting depth of lambda/loop-body frames
  // before evaluation aborts with npad::ResourceError (<= 0 disables).
  int max_eval_depth = default_max_eval_depth();
  // Vectorized execution tier (runtime/vexec.hpp): lower cached kernels to
  // pre-decoded SIMD schedules and dispatch launches through them. Bit-exact
  // vs the register machine by contract; the register machine remains the
  // fallback for kernels that do not lower. Applies to every kernel launch
  // and scalar-glue block.
  bool use_vexec = default_use_vexec();
};

struct InterpStats {
  std::atomic<uint64_t> kernel_maps{0};          // maps run through compiled kernels
  std::atomic<uint64_t> general_maps{0};         // maps run through the interpreter
  std::atomic<uint64_t> privatized_updates{0};   // non-atomic accumulator updates
  std::atomic<uint64_t> atomic_updates{0};       // atomic RMW accumulator updates
  std::atomic<uint64_t> privatized_launches{0};  // launches that privatized >=1 acc
  std::atomic<uint64_t> pool_hits{0};            // launch buffers recycled from the pool
  std::atomic<uint64_t> pool_misses{0};          // launch buffers freshly heap-allocated
  std::atomic<uint64_t> fused_maps{0};           // producer maps eliminated by fusion (per launch)
  std::atomic<uint64_t> batched_launches{0};     // kernel spans that ran >=1 full lane batch
  std::atomic<uint64_t> hand_reduces{0};         // reduces run by the recognized-binop loop
  std::atomic<uint64_t> kernel_reduces{0};       // reduces run through compiled kernels
  std::atomic<uint64_t> general_reduces{0};      // reduces run through the interpreter
  std::atomic<uint64_t> fused_reduces{0};        // producer maps folded into reduce launches
  std::atomic<uint64_t> hand_scans{0};           // scans run by the recognized-binop loop
  std::atomic<uint64_t> kernel_scans{0};         // scans run through compiled kernels
  std::atomic<uint64_t> general_scans{0};        // scans run through the interpreter
  std::atomic<uint64_t> hand_hists{0};           // hists run by the recognized-binop loop
  std::atomic<uint64_t> kernel_hists{0};         // hists run through compiled kernels
  std::atomic<uint64_t> general_hists{0};        // hists run through the interpreter
  std::atomic<uint64_t> privatized_hist_updates{0};  // non-atomic hist bin updates
  std::atomic<uint64_t> atomic_hist_updates{0};      // atomic RMW hist bin updates
  std::atomic<uint64_t> scalar_blocks{0};        // scalar-glue block executions
  std::atomic<uint64_t> vexec_launches{0};       // spans dispatched through the vexec tier
  std::atomic<uint64_t> vexec_body_dispatches{0};// vexec inline-loop body dispatches (trips + tiles)
  std::atomic<uint64_t> batched_prog_runs{0};    // stacked multi-request runs (run_batched, B>1)
  std::atomic<uint64_t> batched_prog_requests{0};// requests entering run_batched (any B)

  // Snapshot for machine-readable reporting (bench JSON). Each key's readers
  // are listed in src/runtime/README.md, Observability.
  std::map<std::string, uint64_t> counters() const {
    return {
        {"kernel_maps", kernel_maps.load()},
        {"general_maps", general_maps.load()},
        {"privatized_updates", privatized_updates.load()},
        {"atomic_updates", atomic_updates.load()},
        {"privatized_launches", privatized_launches.load()},
        {"pool_hits", pool_hits.load()},
        {"pool_misses", pool_misses.load()},
        {"fused_maps", fused_maps.load()},
        {"batched_launches", batched_launches.load()},
        {"hand_reduces", hand_reduces.load()},
        {"kernel_reduces", kernel_reduces.load()},
        {"general_reduces", general_reduces.load()},
        {"fused_reduces", fused_reduces.load()},
        {"hand_scans", hand_scans.load()},
        {"kernel_scans", kernel_scans.load()},
        {"general_scans", general_scans.load()},
        {"hand_hists", hand_hists.load()},
        {"kernel_hists", kernel_hists.load()},
        {"general_hists", general_hists.load()},
        {"privatized_hist_updates", privatized_hist_updates.load()},
        {"atomic_hist_updates", atomic_hist_updates.load()},
        {"scalar_blocks", scalar_blocks.load()},
        {"vexec_launches", vexec_launches.load()},
        {"vexec_body_dispatches", vexec_body_dispatches.load()},
        {"batched_prog_runs", batched_prog_runs.load()},
        {"batched_prog_requests", batched_prog_requests.load()},
        {"flattened_maps", 0},      // always 0; npadbench still reads it
        {"segred_launches", 0},     // always 0; npadbench still reads it
        {"plan_launches", 0},       // always 0; npadbench still reads it
        {"plan_lambda_bodies", 0},  // always 0; npadbench still reads it
        {"plan_if_arms", 0},        // always 0; npadbench still reads it
        {"arena_reuses", 0},        // always 0; npadbench still reads it
    };
  }
};

class Interp {
public:
  explicit Interp(InterpOptions opts = {});

  std::vector<Value> run(const ir::Prog& p, const std::vector<Value>& args) const;

  // Batched entry point (runtime/batch.cpp): executes B same-program request
  // argument lists as one launch of the program's batched form — every param
  // lifted one rank and the original body mapped over the stacked axis — and
  // de-stacks the results back into per-request vectors. B == 1 passes
  // through to run(). With parallelism off this is bit-exact against running
  // the B requests sequentially through run().
  std::vector<std::vector<Value>> run_batched(
      const ir::Prog& p, const std::vector<std::vector<Value>>& batch) const;

  const InterpStats& stats() const { return stats_; }
  const InterpOptions& options() const { return opts_; }

private:
  friend class EvalCtx;
  // Runs a resolved program on arguments that satisfy check_args.
  std::vector<Value> exec(const ResolvedProg& rp, const std::vector<Value>& args) const;

  InterpOptions opts_;
  mutable InterpStats stats_;
};

// The argument contract of Interp::run (and so of run_batched): `args`
// match `p.fn.params` in number and, one by one, in scalar or array, rank
// and element type, and none is an accumulator. A mismatch throws a
// TypeError naming the param (a ShapeError when only the rank differs).
void check_args(const ir::Prog& p, const std::vector<Value>& args);

// One-shot convenience entry point.
std::vector<Value> run_prog(const ir::Prog& p, const std::vector<Value>& args,
                            InterpOptions opts = {});

} // namespace npad::rt
