#pragma once

// Compiled execution plans: the whole-program analogue of the kernel cache.
//
// Between slot resolution (runtime/resolve.hpp) and evaluation, the plan
// compiler lowers a resolved program's top-level body — and, transitively,
// each plannable OpLoop body — ONCE into a straight-line schedule of steps:
//
//   Scalars   a run of >= 2 consecutive pure scalar bindings folded into a
//             single extent-1 kernel program (runtime/kernel.hpp) — executed
//             allocation-free with results written straight back to slots;
//   MapLaunch a kernelizable rank-1 OpMap with its kernel pre-bound from the
//             process-wide KernelCache at plan time — steady-state loop
//             iterations re-bind arguments but never re-derive the kernel;
//   Loop      a for-loop whose body extents are provably loop-invariant
//             (ir::loop_extents_invariant): the body gets its own nested
//             plan, and the outermost planned loop installs a per-thread
//             loop-buffer ring so launch scratch is acquired once and
//             recycled across iterations (double-buffered across the carry)
//             instead of round-tripping the global pool;
//   General   everything else — the step evaluates that one statement
//             through the ordinary interpreter (eval_exp), preserving exact
//             semantics for anything non-plannable (while loops,
//             data-dependent extents, reduces/scans/hists, ifs, ...).
//
// Beyond the top-level body, plans are also compiled for every lambda body
// the evaluator enters through EvalCtx::apply() (general-path map elements,
// reduce/scan operators, withacc bodies, ...): ProgPlans carries an
// immutable pointer-keyed table of lambda-body plans built eagerly alongside
// the top-level plan, so apply() routes hot inner bodies through the same
// compiled schedule. Only lambdas whose plan earns its keep (a non-General
// step or a nonempty release list) are tabled; everything else stays on
// plain eval_body.
//
// Each step additionally carries a *release list* (ir/liveness.hpp): the
// variables bound by the planned body whose last use falls inside the step's
// statement range. The evaluator clears their frame slots after the step
// completes, dropping the frame's reference so sole-owner (use_count()==1)
// launch buffers become reclaimable by the per-thread launch arena while the
// plan is still running — the memory-planning half of this layer. Releases
// are plan metadata only: the plan-disabled path never sees them, and
// clearing a slot is unobservable to a correct program (liveness proves no
// later read).
//
// Plans never change results: MapLaunch runs the identical kernel the
// evaluator would pick, Scalars blocks compute the identical double-precision
// values the scalar evaluator produces for the folded ops, and planned loops
// execute iterations in the same order over the same frames — planned vs.
// plan-disabled execution is bit-exact (tests/test_plan.cpp). If a step's
// preconditions fail at runtime (an unexpected binding shape), it falls back
// to the general evaluator for that statement.
//
// PlanCache is process-wide and immortal like KernelCache/ProgCache, keyed
// by the ResolvedProg entry (resolved programs are themselves structurally
// deduplicated, so pointer identity is a sound structural key). Lambda keys
// are pointers into the pinned resolved program, so they share its lifetime.

#include <memory>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "ir/ast.hpp"
#include "runtime/kernel.hpp"
#include "runtime/resolve.hpp"

namespace npad::rt {

struct Plan;

struct PlanStep {
  enum class Kind : uint8_t { General, Scalars, MapLaunch, Loop };

  Kind kind = Kind::General;
  uint32_t stm = 0;    // index into the planned body's stms
  uint32_t count = 1;  // Scalars: number of statements folded

  // Scalars: the extent-1 kernel program plus writeback slots. Free scalars
  // are read from the environment in kernel free_scalars order; result j is
  // converted with out_types[j] and bound to out_vars[j].
  std::shared_ptr<const Kernel> scalars;
  std::vector<ir::Var> out_vars;
  std::vector<ScalarType> out_types;

  // MapLaunch: pinned by the process-wide kernel cache (immortal).
  const Kernel* kernel = nullptr;

  // Loop: the nested body plan. hoist_buffers records that extents are
  // loop-invariant, enabling the loop-buffer ring.
  std::unique_ptr<const Plan> loop_body;
  bool hoist_buffers = false;

  // Liveness release list (ir/liveness.hpp): vars bound by the planned body
  // whose last use falls in this step's statement range; the evaluator
  // clears their slots after the step completes.
  std::vector<ir::Var> releases;
};

struct Plan {
  std::vector<PlanStep> steps;
};

// The compiled schedule for one resolved program: the top-level body plan
// plus the eagerly-built, immutable table of lambda-body plans reached via
// EvalCtx::apply() (see file comment). Lookups are lock-free once published.
struct ProgPlans {
  std::unique_ptr<const Plan> top;
  std::unordered_map<const ir::Lambda*, std::unique_ptr<const Plan>> lambdas;
};

// Lowers `body` into a plan (recursing into plannable loop bodies).
// `nplans`, when set, is incremented once per plan object compiled
// (including nested loop-body plans) — the
// InterpStats::plans_compiled feed.
std::unique_ptr<const Plan> compile_plan(const ir::Body& body, uint64_t* nplans = nullptr);

// Process-wide immortal cache of execution plans for resolved programs.
class PlanCache {
public:
  static PlanCache& global();

  // Returns the compiled schedule for `rp` (top-level body plan + lambda
  // table), compiling on first sight. `compiled`, when set, receives the
  // number of plan objects compiled by this call (0 on a cache hit).
  // Carries the fault site "plan.compile" (FaultKind::Alloc), crossed once
  // per lookup so the sweep exercises the acquisition path deterministically.
  const ProgPlans* get(const std::shared_ptr<const ResolvedProg>& rp,
                       uint64_t* compiled = nullptr);

  size_t size() const;

private:
  mutable std::shared_mutex mu_;
  std::unordered_map<const ResolvedProg*, std::unique_ptr<const ProgPlans>> by_rp_;
  std::vector<std::shared_ptr<const ResolvedProg>> pinned_;  // keep keys alive
};

} // namespace npad::rt
