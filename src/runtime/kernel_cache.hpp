#pragma once

// Process-wide cache of compiled map kernels, keyed by the structural hash of
// the lambda (ir::structural_hash). Entries are immortal: a KernelLaunch can
// never outlive its Kernel, which fixes the per-launch thread_local lifetime
// hazard the interpreter used to have with nested maps.
//
// Two levels:
//  - a pointer-keyed fast path (the cache pins every LambdaPtr it has seen,
//    so a Lambda address can never be reused by a different lambda while the
//    entry lives — pointer identity is a sound key);
//  - a structural-signature path that lets structurally identical lambdas
//    from different programs share one compiled kernel, and that negatively
//    caches non-kernelizable lambdas so they are not re-analyzed per launch.
//
// Reads take a shared lock, so parallel outer loops hitting the cache do not
// serialize; the exclusive lock is only taken to insert.

#include <memory>
#include <optional>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "ir/ast.hpp"
#include "runtime/kernel.hpp"

namespace npad::rt {

class KernelCache {
public:
  static KernelCache& global();

  // Returns the cached kernel for `f`, compiling on first sight; nullptr when
  // `f` is not kernel-compilable (also cached). `was_hit` (optional) reports
  // whether compilation/analysis was skipped.
  const Kernel* get(const ir::LambdaPtr& f, bool* was_hit = nullptr);

  // Reduction kernels: the cached kernel for fold operator `op` plus the
  // optional redomap pre-lambda `pre` (null for scans and hists), in
  // reduce or scan (`scan`) form. Keys combine both lambdas and the form —
  // the same fold op compiles separately as reduce and as scan — with the
  // same two-level pointer/structural lookup and the same immortal-entry
  // policy as map kernels.
  const Kernel* get_reduce(const ir::LambdaPtr& op, const ir::LambdaPtr& pre, bool scan,
                           bool* was_hit = nullptr);

  // Number of distinct (structural) entries; for tests and diagnostics.
  size_t size() const;

private:
  struct Entry {
    std::vector<uint64_t> sig;
    ir::LambdaPtr lam;  // pinned: keeps pointer keys unambiguous
    ir::LambdaPtr pre;  // pinned too for reduction entries (may be null)
    std::unique_ptr<const std::optional<Kernel>> kern;
  };

  // Pointer-identity key for reduction entries.
  struct RedKey {
    const ir::Lambda* op = nullptr;
    const ir::Lambda* pre = nullptr;
    bool scan = false;
    bool operator==(const RedKey&) const = default;
  };
  struct RedKeyHash {
    size_t operator()(const RedKey& k) const noexcept {
      size_t h = std::hash<const void*>{}(k.op);
      h ^= std::hash<const void*>{}(k.pre) + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
      return h ^ (k.scan ? 0x85ebca6bu : 0u);
    }
  };

  const Kernel* kernel_of(const Entry& e) const {
    return e.kern->has_value() ? &**e.kern : nullptr;
  }

  mutable std::shared_mutex mu_;
  std::unordered_multimap<uint64_t, Entry> by_sig_;
  // Values point into by_sig_ entries' heap-allocated optionals (stable across
  // rehash). Presence in the map is the "known" signal; the value may be null
  // for non-kernelizable lambdas.
  std::unordered_map<const ir::Lambda*, const Kernel*> by_ptr_;
  std::vector<ir::LambdaPtr> pinned_;  // aliases resolved via the sig path
  // Reduction entries (separate namespace: a lambda's map kernel and fold
  // kernel are different programs).
  std::unordered_multimap<uint64_t, Entry> by_sig_red_;
  std::unordered_map<RedKey, const Kernel*, RedKeyHash> by_ptr_red_;
};

} // namespace npad::rt
