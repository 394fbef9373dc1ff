#pragma once

// The standard post-AD optimization pipeline. Individual passes stay usable
// on their own; this composes them in the canonical order:
//
//   simplify  →  map fusion  →  final simplify
//
// Fusion runs after simplify because simplify exposes chains (dead forward
// sweeps removed, copy-propagated aliases collapsed) that only then become
// fusable. Regular nests need no pass of their own: the runtime's
// whole-lambda kernel runs map(λrow. …) over rows as one launch.

#include "ir/ast.hpp"
#include "opt/fuse.hpp"

namespace npad::opt {

struct OptOptions {
  bool fuse_maps = true;  // producer→consumer map fusion (opt/fuse.hpp)
};

struct PipelineStats {
  FuseStats fuse;
  struct {
    int to_reduction = 0, to_histogram = 0;
  } accopt;   // always 0; npadbench still reads it
  struct {
    int flattened_maps = 0, flattened_redomaps = 0;
  } flatten;  // always 0; npadbench still reads it
};

ir::Prog optimize(const ir::Prog& p, const OptOptions& opts = {},
                  PipelineStats* stats = nullptr);

} // namespace npad::opt
