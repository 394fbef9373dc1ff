#pragma once

// Cross-request batching support (serving): lifts a program into its batched
// form — every parameter raised one rank, the original body becomes the
// lambda of a single outer map over the stacked request axis — so N
// same-program requests execute as ONE launch instead of N interpreter
// entries. This is the regular-nest shape the whole-lambda kernel runs as
// one launch when the body kernelizes; the serving batcher (src/serve) stacks
// request arguments with `stack_args`, runs the batched program, and splits
// results back per request with `unstack_results`.
//
// Interp::run_batched builds and resolves a program's batched form once, in
// the request program's resolved form (runtime/resolve.hpp), so it is shared
// like that one: by every structurally equal program, across all serving
// tenants.

#include <vector>

#include "ir/ast.hpp"
#include "runtime/value.hpp"

namespace npad::rt {

// Returns P_batched: params lift(t_i), body = one OpMap of P's body over the
// stacked params, rets lift(r_j). Throws npad::TypeError for programs that
// cannot batch (no parameters, or accumulator-typed parameters/results).
ir::Prog make_batched_prog(const ir::Prog& p);

// Stacks B per-request argument lists (same arity, same per-position scalar
// type / element type / shape) into batched values: scalars become rank-1
// arrays of extent B, rank-r arrays become rank-(r+1) arrays with outer
// extent B. Throws npad::TypeError on arity/type mismatches and
// npad::ShapeError when a position's array shapes disagree across requests.
std::vector<Value> stack_args(const std::vector<std::vector<Value>>& batch);

// Splits batched results back into per-request result vectors. `orig_rets`
// are the ORIGINAL program's result types: a stacked rank-1 result de-stacks
// to scalars, a stacked rank-(r+1) result to compacted rank-r arrays (each
// request owns its storage — no views into the shared stacked buffer).
std::vector<std::vector<Value>> unstack_results(const std::vector<Value>& stacked,
                                                int64_t batch,
                                                const std::vector<ir::Type>& orig_rets);

} // namespace npad::rt
