#pragma once

// Registry of AD-compiled programs for the serving front-end: each entry
// holds an optimized objective program and an optimized derivative program
// (reverse-mode vjp for the scalar objectives, forward-mode jvp for the
// residual Jacobians, mirroring how the paper-table benches evaluate each
// workload). Programs are built once per process — the registry shares the
// immortal ProgCache entries, which own every kernel compiled from them,
// across every serving tenant, so a request never pays compilation after
// first touch.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ir/ast.hpp"
#include "runtime/value.hpp"

namespace npad::serve {

enum class Mode : uint8_t { Objective, Jacobian };

inline const char* mode_name(Mode m) {
  return m == Mode::Objective ? "objective" : "jacobian";
}
bool parse_mode(const std::string& s, Mode* out);

// Request workload dimensions ("n", "d", "k", ...); entries missing from a
// request fall back to the program's default_size.
using SizeMap = std::map<std::string, int64_t>;

struct ProgramEntry {
  std::string name;
  ir::Prog objective;  // optimized primal
  ir::Prog jacobian;   // optimized derivative program
  const char* jacobian_kind = "vjp";  // "vjp" | "jvp"
  SizeMap default_size;
  // Deterministic synthetic request arguments for (mode, seed, size); the
  // derivative program's extra seed/tangent arguments are included for
  // Mode::Jacobian. Same (mode, seed, size) always yields the same data.
  std::function<std::vector<rt::Value>(Mode, uint64_t, const SizeMap&)> make_args;

  const ir::Prog& prog(Mode m) const {
    return m == Mode::Objective ? objective : jacobian;
  }
};

class Registry {
public:
  // Process-wide registry (immortal, like the runtime's program cache).
  static Registry& global();

  // Throws npad::TypeError on a duplicate name.
  void add(ProgramEntry e);

  // nullptr when absent.
  std::shared_ptr<const ProgramEntry> find(const std::string& name) const;

  std::vector<std::string> names() const;
  size_t size() const;

private:
  struct Impl;
  Impl* impl_;
  Registry();
};

// Builds and registers the built-in AD-compiled programs (gmm, lstm, kmeans,
// ba, hand, mc_transport) into the global registry. Thread-safe and
// idempotent; heavy on first call (runs vjp/jvp + the optimizer pipeline per
// program), free afterwards.
void register_builtin_programs();

} // namespace npad::serve
