#pragma once

// The standard post-AD optimization pipeline. Individual passes stay usable
// on their own; this composes them in the canonical order:
//
//   simplify  →  accumulator specialization (accopt)  →  map fusion  →
//   final simplify
//
// Fusion runs after simplify/accopt because they expose chains (dead
// forward sweeps removed, copy-propagated aliases collapsed, withacc
// rewrites producing fresh map→map sequences) that only then become
// fusable. Regular nests need no pass of their own: the runtime's
// whole-lambda kernel runs map(λrow. …) over rows as one launch.

#include "ir/ast.hpp"
#include "opt/accopt.hpp"
#include "opt/fuse.hpp"

namespace npad::opt {

struct OptOptions {
  bool simplify = true;        // copy-prop + constant folding + DCE, to fixpoint
  bool accopt = true;          // §6.1 accumulator → reduction/histogram rewrites
  bool fuse_maps = true;       // producer→consumer map fusion (opt/fuse.hpp)
};

struct PipelineStats {
  AccOptStats accopt;
  FuseStats fuse;
  struct {
    int flattened_maps = 0, flattened_redomaps = 0;
  } flatten;  // always 0; npadbench still reads it
};

ir::Prog optimize(const ir::Prog& p, const OptOptions& opts = {},
                  PipelineStats* stats = nullptr);

} // namespace npad::opt
