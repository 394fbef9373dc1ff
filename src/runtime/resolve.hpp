#pragma once

// Slot resolution: turns the interpreter's per-scope hash-map environments
// into flat vector frames. A program is alpha-renamed so every binding id is
// unique, then every variable is resolved once to an (activation level, slot)
// pair. At runtime an activation (function entry, lambda application, loop
// iteration) allocates one flat frame; variable lookup walks a static-link
// chain of frames and indexes — no hashing, no per-scope rehash churn.
//
// Resolution is cached process-wide, keyed by the structural hash of the
// entry function (ir::structural_hash), so iterative drivers that re-run the
// same Prog pay the cost once. Entries are immortal.
//
// Resolution also compiles the evaluator's one peephole, scalar-glue blocks:
// every run of >= 2 consecutive pure scalar bindings (atom/bin/un/select
// with one scalar result) in the function body or a loop body becomes one
// extent-1 kernel program (runtime/kernel.hpp), executed in a single call
// instead of one eval dispatch per statement. OpIndex is excluded so its
// bounds check keeps raising the general path's exact ShapeError.

#include <memory>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "ir/ast.hpp"
#include "runtime/kernel.hpp"

namespace npad::rt {

// (activation level, slot index) of a variable's unique binding site.
struct SlotRef {
  uint32_t level = UINT32_MAX;
  uint32_t slot = 0;
  bool valid() const { return level != UINT32_MAX; }
};

struct ActivationInfo {
  uint32_t level = 0;      // static nesting depth (function body = 0)
  uint32_t num_slots = 0;  // frame size: params + all bindings in the scope
};

// A folded run of body.stms[first, first + count). Free scalars are read
// from the environment in kernel.free_scalars order; result j is converted
// with out_types[j] and bound to out_vars[j]. The kernel lives as long as its
// (immortal) ResolvedProg, which the vexec tier's address-keyed cache needs.
struct ScalarBlock {
  uint32_t first = 0;
  uint32_t count = 0;
  Kernel kernel;
  std::vector<ir::Var> out_vars;
  std::vector<ScalarType> out_types;
};

struct ResolvedProg {
  std::shared_ptr<ir::Module> mod;         // private module copy (owns fresh ids)
  ir::Function fn;                         // alpha-renamed: binding ids unique
  std::vector<SlotRef> slots;              // var id -> (level, slot)
  std::vector<ActivationInfo> activations; // indexed by activation id
  uint32_t root_activation = 0;
  // Scalar-glue blocks of the function body (root activation) and of each
  // loop body (the loop's activation), in statement order; indexed by
  // activation id, empty for lambdas.
  std::vector<std::vector<ScalarBlock>> scalar_blocks;
};

// Alpha-renames `p` into a private module copy and computes the slot table.
std::shared_ptr<const ResolvedProg> resolve_prog(const ir::Prog& p);

// Process-wide immortal cache of resolved programs.
class ProgCache {
public:
  static ProgCache& global();

  // Returns the resolved form of `p`, resolving on first sight. Structurally
  // identical programs share one entry. `was_hit` (optional) reports whether
  // resolution was skipped.
  std::shared_ptr<const ResolvedProg> get(const ir::Prog& p, bool* was_hit = nullptr);

  size_t size() const;

private:
  struct Entry {
    std::vector<uint64_t> sig;
    std::shared_ptr<const ResolvedProg> rp;
  };

  mutable std::shared_mutex mu_;
  std::unordered_multimap<uint64_t, Entry> by_sig_;
};

} // namespace npad::rt
