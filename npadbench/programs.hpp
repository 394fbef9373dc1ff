#pragma once

// Program construction for bench_npad, done the way the serving registry
// builds its programs (src/serve/registry.cpp), so that the benchmark and the
// server measure one artifact:
//   - programs the registry has are taken from serve::Registry itself;
//   - the others are built here with the registry's recipe: typecheck the
//     primal, differentiate the pre-fusion primal (the AD passes reject
//     fused and flattened forms), opt::optimize both programs, typecheck.
// build() runs that recipe with every stage timed from outside. Traced runs
// also rebuild the registry's programs with it, for the per-layer set-up
// breakdown, and check that the rebuild reproduced the registry's program.

#include <cstdint>
#include <functional>
#include <string>

#include "apps/ba.hpp"
#include "apps/gmm.hpp"
#include "apps/hand.hpp"
#include "apps/kmeans.hpp"
#include "apps/lstm.hpp"
#include "apps/mc_transport.hpp"
#include "bench.hpp"
#include "core/ad.hpp"
#include "ir/analysis.hpp"
#include "ir/print.hpp"
#include "ir/typecheck.hpp"
#include "opt/pipeline.hpp"
#include "serve/registry.hpp"
#include "support/error.hpp"

namespace npad::bench {

enum class Deriv { Vjp, Jvp, Hvp };  // Hvp: jvp(vjp(p)), a Hessian-vector product

struct Recipe {
  const char* name;      // the benchmark's program name
  const char* registry;  // serve::Registry entry holding this program, or nullptr
  ir::Prog (*primal)();  // apps:: IR builder
  Deriv deriv;
};

inline const Recipe& recipe(const std::string& name) {
  static const Recipe recipes[] = {
      {"gmm", "gmm", apps::gmm_ir_objective, Deriv::Vjp},
      {"lstm", "lstm", apps::lstm_ir_objective, Deriv::Vjp},
      {"kmeans", "kmeans", apps::kmeans_ir_cost, Deriv::Vjp},
      {"kmeans_hvp", nullptr, apps::kmeans_ir_cost, Deriv::Hvp},
      {"kmeans_sparse", nullptr, apps::kmeans_sparse_ir_cost, Deriv::Vjp},
      {"xsbench", "mc_transport", apps::xs_ir_objective, Deriv::Vjp},
      {"rsbench", nullptr, apps::rs_ir_objective, Deriv::Vjp},
      {"ba", "ba", apps::ba_ir_residuals, Deriv::Jvp},
      {"hand", "hand", [] { return apps::hand_ir_residuals(/*complicated=*/false); }, Deriv::Jvp},
  };
  for (const Recipe& r : recipes) {
    if (name == r.name) return r;
  }
  throw TypeError("bench: no recipe for program '" + name + "'");
}

inline const Recipe& recipe_for_registry(const std::string& entry) {
  for (const char* n : {"gmm", "lstm", "kmeans", "xsbench", "ba", "hand"}) {
    const Recipe& r = recipe(n);
    if (entry == r.registry) return r;
  }
  throw TypeError("bench: no recipe for registry entry '" + entry + "'");
}

// Set-up cost of the recipe, summed over every program built.
struct BuildStats {
  double build_ms = 0, ad_ms = 0, optimize_ms = 0, typecheck_ms = 0;
  uint64_t stmts_ad = 0;   // statements of primal + derivative before opt::optimize
  uint64_t stmts_opt = 0;  // ... and after
  opt::PipelineStats pipeline;
};

inline void report_build(Result& res, const BuildStats& b) {
  res.layer("apps.build_ms", b.build_ms, "ms");
  res.layer("core.ad_ms", b.ad_ms, "ms");
  res.layer("opt.optimize_ms", b.optimize_ms, "ms");
  res.layer("ir.typecheck_ms", b.typecheck_ms, "ms");
  res.layer("ir.stmts_ad", static_cast<double>(b.stmts_ad), "count");
  res.layer("ir.stmts_opt", static_cast<double>(b.stmts_opt), "count");
  res.layer("opt.fused_maps", b.pipeline.fuse.fused_maps, "count");
  res.layer("opt.fused_redomaps", b.pipeline.fuse.fused_redomaps, "count");
  res.layer("opt.flattened_maps", b.pipeline.flatten.flattened_maps, "count");
  res.layer("opt.flattened_redomaps", b.pipeline.flatten.flattened_redomaps, "count");
  res.layer("opt.accopt_rewrites",
            b.pipeline.accopt.to_reduction + b.pipeline.accopt.to_histogram, "count");
}

struct Programs {
  ir::Prog primal, deriv;
};

inline bool same_program(const ir::Prog& a, const ir::Prog& b) {
  return ir::structural_hash(a.fn) == ir::structural_hash(b.fn);
}

// Runs the recipe. Each stage is timed into *st and recorded as a span under
// `parent` when tracing.
inline Programs build(const Recipe& r, BuildStats* st, Trace& trace, uint64_t parent) {
  auto stage = [&](const char* span, double* acc, const std::function<void()>& f) {
    const Clock::time_point t0 = Clock::now();
    f();
    const Clock::time_point t1 = Clock::now();
    *acc += ms_between(t0, t1);
    if (trace.on()) trace.add(parent, span, t0, t1);
  };
  Programs p;
  stage("apps.build", &st->build_ms, [&] { p.primal = r.primal(); });
  stage("ir.typecheck", &st->typecheck_ms, [&] { ir::typecheck(p.primal); });
  stage("core.ad", &st->ad_ms, [&] {
    p.deriv = r.deriv == Deriv::Jvp ? ad::jvp(p.primal) : ad::vjp(p.primal);
    if (r.deriv == Deriv::Hvp) p.deriv = ad::jvp(p.deriv);
  });
  st->stmts_ad += ir::count_stms(p.primal.fn.body) + ir::count_stms(p.deriv.fn.body);
  stage("opt.optimize", &st->optimize_ms, [&] {
    p.primal = opt::optimize(p.primal, {}, &st->pipeline);
    p.deriv = opt::optimize(p.deriv, {}, &st->pipeline);
  });
  st->stmts_opt += ir::count_stms(p.primal.fn.body) + ir::count_stms(p.deriv.fn.body);
  stage("ir.typecheck", &st->typecheck_ms, [&] {
    ir::typecheck(p.primal);
    ir::typecheck(p.deriv);
  });
  return p;
}

// The serving artifact: the registry's programs where it has them (the caller
// has run serve::register_builtin_programs()), otherwise build().
inline Programs load(const Recipe& r, BuildStats* st, Trace& trace, uint64_t parent) {
  if (r.registry == nullptr) return build(r, st, trace, parent);
  auto entry = serve::Registry::global().find(r.registry);
  if (!entry) throw TypeError(std::string("bench: registry has no '") + r.registry + "'");
  return {entry->objective, entry->jacobian};
}

} // namespace npad::bench
