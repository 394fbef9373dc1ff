#pragma once

// Slot resolution: turns the interpreter's per-scope hash-map environments
// into flat vector frames. A program is alpha-renamed so every binding id is
// unique, then every variable is resolved once to an (activation level, slot)
// pair. At runtime an activation (function entry, lambda application, loop
// iteration) allocates one flat frame; variable lookup walks a static-link
// chain of frames and indexes — no hashing, no per-scope rehash churn.
//
// A resolved program owns everything compiled from it, each piece filled
// once and then read without a lock:
//  - scalar-glue blocks, compiled and lowered at resolution: every run of
//    >= 2 consecutive pure scalar bindings (atom/bin/un/select with one
//    scalar result) in the function body or a loop body becomes one
//    extent-1 kernel program (runtime/kernel.hpp), executed in a single call
//    instead of one eval dispatch per statement. OpIndex is excluded so its
//    bounds check keeps raising the general path's exact ShapeError;
//  - one kernel slot per lambda, indexed by its activation id and filled on
//    the lambda's first launch (compiling every lambda up front would do
//    several times the launched work: most lambdas are inlined into an
//    enclosing kernel or never run). After cloning each lambda belongs to
//    exactly one SOAC, so the slot needs no other key;
//  - the batched form (runtime/batch.hpp), resolved on first use.
//
// Resolution itself is cached process-wide (ProgCache), keyed by the
// structural signature of the entry function, so iterative drivers that
// re-run the same Prog pay for it, and for every compile, once. Entries are
// immortal.

#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "ir/ast.hpp"
#include "runtime/kernel.hpp"
#include "runtime/vexec.hpp"

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
// with out_types[j] and bound to out_vars[j].
struct ScalarBlock {
  uint32_t first = 0;
  uint32_t count = 0;
  Kernel kernel;
  std::optional<vexec::Entry> vx;  // the kernel lowered; nullopt if it does not lower
  std::vector<ir::Var> out_vars;
  std::vector<ScalarType> out_types;
};

// What one SOAC lambda compiles to: nullopt kernel when the lambda does not
// compile, nullopt vx when there is no kernel or it does not lower.
struct LambdaKernel {
  std::optional<Kernel> kernel;
  std::optional<vexec::Entry> vx;
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

  // The map kernel of OpMap lambda `f` of this program, compiled and lowered
  // on the first call; every later call, a failed compile included, reads
  // the slot.
  const LambdaKernel& map_kernel(const ir::Lambda& f) const;

  // The fold kernel of reduce, scan or hist operator `op` of this program,
  // with the reduce's pre-lambda `pre` (else null), in scan form when
  // `scan`; filled like map_kernel, in `op`'s slot.
  const LambdaKernel& fold_kernel(const ir::Lambda& op, const ir::Lambda* pre, bool scan) const;

  // The resolved batched form of `p`, which must be a program this one
  // resolves, built on the first call. A program that cannot batch throws
  // make_batched_prog's TypeError on every call (the check is its first
  // step, so nothing is cached for it).
  const ResolvedProg& batched(const ir::Prog& p) const;

private:
  friend std::shared_ptr<const ResolvedProg> resolve_prog(const ir::Prog& p);

  struct KernelSlot {
    std::once_flag once;
    std::unique_ptr<const LambdaKernel> k;
  };
  mutable std::vector<KernelSlot> kernels_;  // indexed by activation id
  mutable std::once_flag batched_once_;
  mutable std::shared_ptr<const ResolvedProg> batched_;
};

// Alpha-renames `p` into a private module copy and computes the slot table.
std::shared_ptr<const ResolvedProg> resolve_prog(const ir::Prog& p);

// Process-wide immortal cache of resolved programs.
class ProgCache {
public:
  static ProgCache& global();

  // Returns the resolved form of `p`, resolving on first sight. Structurally
  // identical programs share one entry.
  std::shared_ptr<const ResolvedProg> get(const ir::Prog& p);

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
