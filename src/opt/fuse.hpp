#pragma once

// Producer→consumer fusion: when a map's result is consumed only
// element-wise — exclusively as an argument of one later map or reduce,
// over the same iteration space — the producer is folded into the consumer and the
// intermediate array is never materialized. Chains fuse transitively (a
// 3-map element-wise chain becomes one map), including the
// zeros/elementwise-add adjoint map chains emitted by core/vjp.cpp.
//
// Map consumers fuse lambda-into-lambda. Reduce consumers take the
// *redomap* form: the producer folds into the reduce's optional element-wise
// pre-lambda (OpReduce::pre, created from the identity on first fusion), so
// reduce(+, map(f, xs)) — the dominant pattern in vjp adjoints that
// contract a gradient — runs load→map→fold in one pass with no
// intermediate. Redomap pre-lambdas are themselves fusion consumers, so
// whole map chains feeding a reduction collapse. Scan and reduce_by_index
// consumers are left unfused: no benchmark program produces a map feeding
// one, and the unfused program computes the same values in the same
// combine order.
//
// Reduce consumers additionally require a *scalar* producer (rank-0 params
// and results): a row-level producer would make the pre-lambda non-scalar,
// which cannot kernel-compile.
//
// A producer is fusable when it binds a single result, its lambda threads no
// accumulators, and every use of the result is an argument position of the
// one consumer. The consumer map may thread accumulators; its threading is
// preserved verbatim in the fused lambda. Anything else — results gathered
// at arbitrary indices (the result appears free in the consumer lambda),
// used twice by different statements, or re-bound in between — is left
// alone.
//
// Fused consumers carry a `fused` annotation (the number of producers folded
// in) which the runtime adds to InterpStats::fused_maps / fused_reduces per
// launch.

#include "ir/ast.hpp"

namespace npad::opt {

struct FuseStats {
  int fused_maps = 0;      // producer maps folded into consumer maps
  int fused_redomaps = 0;  // producer maps folded into reduce consumers
};

ir::Prog fuse_maps(const ir::Prog& p, FuseStats* stats = nullptr);

} // namespace npad::opt
