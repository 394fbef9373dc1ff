#pragma once

// Accumulator specialization (Section 6.1): rewrites common accumulator
// access patterns produced by reverse AD into constructs with specialized,
// contention-free execution:
//
//  Rule R (accumulator -> reduction): an upd_acc whose indices are invariant
//    to the surrounding map's parallel dimension is split out; the map
//    produces the per-iteration values, a reduce(+) sums them, and a single
//    read-modify-write lands the sum.
//
//  Rule H (accumulator -> histogram): an upd_acc whose (single) index is a
//    per-iteration bin becomes a reduce_by_index over the map's outputs.
//
// Both rules fire for upd_acc statements directly inside the top-level map
// of a withacc. The paper additionally splits and interchanges deeper
// map-nests to expose invariance (the matrix-multiplication case); that
// reorganization is only partially covered here and is recorded as a
// limitation in docs/ARCHITECTURE.md § Substitutions and deviations from the
// paper (ROADMAP item 3).

#include "ir/ast.hpp"

namespace npad::opt {

struct AccOptStats {
  int to_reduction = 0;
  int to_histogram = 0;
};

ir::Prog optimize_accumulators(const ir::Prog& p, AccOptStats* stats = nullptr);

} // namespace npad::opt
