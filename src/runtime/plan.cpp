#include "runtime/plan.hpp"

#include "ir/analysis.hpp"
#include "ir/liveness.hpp"
#include "ir/visit.hpp"
#include "runtime/kernel_cache.hpp"
#include "support/fault.hpp"

namespace npad::rt {

namespace {

using namespace ir;
using support::FaultKind;

// A statement foldable into a scalar-glue block: binds exactly one scalar
// (non-acc) result through a pure scalar operation. OpIndex is deliberately
// excluded — its bounds check must keep throwing ShapeError with the exact
// general-path message, and a Gather in a folded block would bypass it.
bool scalar_glue(const Stm& st) {
  if (st.vars.size() != 1) return false;
  const Type& t = st.types[0];
  if (t.rank != 0 || t.is_acc) return false;
  return std::holds_alternative<OpAtom>(st.e) || std::holds_alternative<OpBin>(st.e) ||
         std::holds_alternative<OpUn>(st.e) || std::holds_alternative<OpSelect>(st.e);
}

std::unique_ptr<const Plan> compile_body_plan(const Body& body, uint64_t* nplans);

// A plan worth routing through the planned evaluator: it either compiled
// real structure (any non-General step) or its release lists reclaim frame
// slots mid-body. All-General, release-free plans behave exactly like
// eval_body and are not worth the indirection.
bool plan_earns_keep(const Plan& plan) {
  for (const PlanStep& s : plan.steps) {
    if (s.kind != PlanStep::Kind::General || !s.releases.empty()) return true;
  }
  return false;
}

// Attaches the liveness release lists of stms [begin, end) to `step`.
void attach_releases(const ir::BodyLiveness& lv, size_t begin, size_t end, PlanStep& step) {
  for (size_t i = begin; i < end && i < lv.releases.size(); ++i) {
    step.releases.insert(step.releases.end(), lv.releases[i].begin(), lv.releases[i].end());
  }
}

// Folds stms [begin, end) — a run of >= 2 scalar-glue bindings — into one
// extent-1 kernel step. Falls back to per-statement General steps when the
// kernel compiler rejects the synthetic lambda (it never should for the ops
// scalar_glue admits, but plans must not be load-bearing for correctness).
void add_scalar_run(const Body& body, const ir::BodyLiveness& lv, size_t begin, size_t end,
                    Plan& plan) {
  Lambda glue;
  glue.body.stms.assign(body.stms.begin() + static_cast<ptrdiff_t>(begin),
                        body.stms.begin() + static_cast<ptrdiff_t>(end));
  // Every binding in the run is an output: later statements (and the body
  // result) may consume any of them.
  for (size_t i = begin; i < end; ++i) {
    glue.body.result.emplace_back(body.stms[i].vars[0]);
    glue.rets.push_back(body.stms[i].types[0]);
  }
  auto kopt = compile_kernel(glue);
  if (!kopt || !kopt->accs.empty() || kopt->num_inputs != 0 || !kopt->free_arrays.empty()) {
    for (size_t i = begin; i < end; ++i) {
      PlanStep s;
      s.kind = PlanStep::Kind::General;
      s.stm = static_cast<uint32_t>(i);
      attach_releases(lv, i, i + 1, s);
      plan.steps.push_back(std::move(s));
    }
    return;
  }
  PlanStep s;
  s.kind = PlanStep::Kind::Scalars;
  s.stm = static_cast<uint32_t>(begin);
  s.count = static_cast<uint32_t>(end - begin);
  s.scalars = std::make_shared<const Kernel>(std::move(*kopt));
  for (size_t i = begin; i < end; ++i) {
    s.out_vars.push_back(body.stms[i].vars[0]);
    s.out_types.push_back(body.stms[i].types[0].elem);
  }
  attach_releases(lv, begin, end, s);
  plan.steps.push_back(std::move(s));
}

std::unique_ptr<const Plan> compile_body_plan(const Body& body, uint64_t* nplans) {
  auto plan = std::make_unique<Plan>();
  const ir::BodyLiveness lv = ir::body_liveness(body);
  const auto& stms = body.stms;
  size_t i = 0;
  while (i < stms.size()) {
    // Runs of scalar glue fold into one kernelized block.
    if (scalar_glue(stms[i])) {
      size_t j = i + 1;
      while (j < stms.size() && scalar_glue(stms[j])) ++j;
      if (j - i >= 2) {
        add_scalar_run(body, lv, i, j, *plan);
        i = j;
        continue;
      }
    }
    // Kernelizable rank-1 maps pre-resolve their kernel from the immortal
    // process-wide cache; steady-state iterations skip the lookup entirely.
    // A map whose lambda takes array rows (rank > 0 non-acc params) can never
    // launch over rank-1 inputs, so it is statically General — no point
    // re-attempting the kernel binding every iteration.
    if (const auto* m = std::get_if<OpMap>(&stms[i].e)) {
      bool scalar_params = true;
      for (const auto& p : m->f->params) {
        if (!p.type.is_acc && p.type.rank != 0) scalar_params = false;
      }
      if (scalar_params) {
        if (const Kernel* k = KernelCache::global().get(m->f)) {
          PlanStep s;
          s.kind = PlanStep::Kind::MapLaunch;
          s.stm = static_cast<uint32_t>(i);
          s.kernel = k;
          attach_releases(lv, i, i + 1, s);
          plan->steps.push_back(std::move(s));
          ++i;
          continue;
        }
      }
    }
    // For-loops with provably loop-invariant body extents get a nested plan
    // and the hoisted loop-buffer ring. While-loops and data-dependent
    // extents stay on the general evaluator.
    if (const auto* lp = std::get_if<OpLoop>(&stms[i].e)) {
      if (!lp->while_cond && loop_extents_invariant(*lp)) {
        PlanStep s;
        s.kind = PlanStep::Kind::Loop;
        s.stm = static_cast<uint32_t>(i);
        s.loop_body = compile_body_plan(*lp->body, nplans);
        s.hoist_buffers = true;
        attach_releases(lv, i, i + 1, s);
        plan->steps.push_back(std::move(s));
        ++i;
        continue;
      }
    }
    PlanStep s;
    s.kind = PlanStep::Kind::General;
    s.stm = static_cast<uint32_t>(i);
    attach_releases(lv, i, i + 1, s);
    plan->steps.push_back(std::move(s));
    ++i;
  }
  if (nplans != nullptr) ++*nplans;
  return plan;
}

// Collects every lambda reachable from `b` (SOAC lambdas, redomap
// pre-lambdas, while conditions), recursing through nested bodies and the
// collected lambdas' own bodies. Pointer identity dedups shared subtrees.
void collect_lambdas(const Body& b, std::vector<const Lambda*>& out) {
  for (const Stm& st : b.stms) {
    for_each_nested(st.e, [&](const NestedScope& s) {
      if (s.lam != nullptr) out.push_back(s.lam);
      collect_lambdas(*s.body, out);
    });
  }
}

} // namespace

std::unique_ptr<const Plan> compile_plan(const ir::Body& body, uint64_t* nplans) {
  return compile_body_plan(body, nplans);
}

PlanCache& PlanCache::global() {
  // Leaked singleton, same lifetime policy as KernelCache/ProgCache: plans
  // hand out raw pointers that must stay valid on every thread until exit.
  static PlanCache* cache = new PlanCache();
  return *cache;
}

const ProgPlans* PlanCache::get(const std::shared_ptr<const ResolvedProg>& rp,
                                uint64_t* compiled) {
  // Crossed on every lookup (not just the compiling one) so the fault sweep
  // exercises the acquisition path deterministically despite the cache being
  // immortal: the site's crossing count is per run, not per process.
  NPAD_FAULT_SITE("plan.compile", FaultKind::Alloc);
  {
    std::shared_lock lk(mu_);
    auto it = by_rp_.find(rp.get());
    if (it != by_rp_.end()) return it->second.get();
  }
  uint64_t n = 0;
  auto plans = std::make_unique<ProgPlans>();
  plans->top = compile_plan(rp->fn.body, &n);
  // Lambda bodies entered via apply() compile alongside the top-level plan;
  // only plans that earn their keep are tabled (see plan.hpp).
  std::vector<const ir::Lambda*> lams;
  collect_lambdas(rp->fn.body, lams);
  for (const ir::Lambda* l : lams) {
    if (plans->lambdas.count(l)) continue;
    auto lp = compile_body_plan(l->body, &n);
    if (plan_earns_keep(*lp)) plans->lambdas.emplace(l, std::move(lp));
  }
  std::unique_lock lk(mu_);
  auto [it, fresh] = by_rp_.try_emplace(rp.get(), nullptr);
  if (fresh) {
    it->second = std::move(plans);
    pinned_.push_back(rp);
    if (compiled != nullptr) *compiled = n;
  }
  // A losing race discards this thread's plans; the winner's are equivalent
  // (compilation is deterministic) and already published.
  return it->second.get();
}

size_t PlanCache::size() const {
  std::shared_lock lk(mu_);
  return by_rp_.size();
}

} // namespace npad::rt
