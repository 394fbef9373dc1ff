#pragma once

// Deterministic fault injection for the execution substrate.
//
// The runtime's robustness contract — a failure anywhere inside a parallel
// launch surfaces as a typed `npad::Error`, all resources unwind, and an
// immediate retry reproduces the fault-free result bit-exact — is only worth
// stating if something *proves* it. This injector instruments every
// interesting failure point (pool allocations, worker chunks, reduction and
// histogram merges, general-interpreter frames) with a named *site*; a test
// driver then sweeps: count the crossings of every site under a workload,
// arm each (site, occurrence) pair in turn, and assert the typed error, the
// zero-leak unwind, and the bit-exact retry (tests/test_fault.cpp).
//
// Determinism: a site's crossing count is a deterministic function of the
// program and the interpreter options (chunk counts, allocation counts and
// loop trip counts do not depend on thread scheduling), so firing at the
// k-th crossing selects the same logical event every run — even when the
// *thread* that performs the crossing varies. Occurrence counters are
// per-site and atomic; the armed fault fires exactly once.
//
// Overhead when disabled: each site costs one relaxed atomic load and a
// predictable branch (`active()`), at launch/chunk/allocation granularity —
// never per element. Sites self-register on their first crossing while the
// injector is active (counting or armed), so `num_sites()` reflects the
// sites an instrumented workload actually reached.
//
//   NPAD_FAULT_SITE("map.kernel_chunk", FaultKind::Chunk);
//
// expands to the gate + registration + fire check; an armed Alloc site
// throws `ResourceError`, an armed Chunk site throws `KernelError`.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>

#include "support/error.hpp"

namespace npad::support {

// Which typed error an armed site throws when it fires.
enum class FaultKind : uint8_t {
  Alloc,  // allocation failure -> ResourceError
  Chunk,  // mid-chunk execution fault -> KernelError
};

class FaultInjector {
public:
  enum class Mode : uint8_t { Off = 0, Count = 1, Armed = 2 };

  // Process-wide injector (leaked singleton, like the pools it instruments).
  static FaultInjector& global();

  // Hot-path gate: one relaxed load. False in normal operation.
  bool active() const noexcept { return mode_.load(std::memory_order_relaxed) != Mode::Off; }

  // Registers an instrumented site on its first active crossing; returns a
  // stable index. Site names must be unique per textual location.
  int register_site(const char* name, FaultKind kind);

  // Count mode: every crossing increments its site counter, nothing fires.
  // Clears counts from earlier sessions so crossings() is per-workload.
  void start_counting();

  // Arms site `site` to fire at its `occurrence`-th crossing (0-based).
  // Resets all crossing counters so occurrences are relative to the next run.
  void arm(int site, uint64_t occurrence);

  // Back to zero-overhead Off mode; crossing counts are preserved.
  void stop();

  void reset_counts();

  int num_sites() const;
  std::string site_name(int site) const;
  FaultKind site_kind(int site) const;
  uint64_t crossings(int site) const;
  uint64_t faults_fired() const { return fired_total_.load(std::memory_order_relaxed); }

  // Crossing hook: bumps the site counter; true when the armed fault fires
  // here (at most once per arm()).
  bool crossed(int site) noexcept;

  // Throws the typed error for `site` ("injected fault at <name>").
  [[noreturn]] void fire(int site);

private:
  FaultInjector() = default;

  static constexpr int kMaxSites = 128;
  struct Site {
    const char* name = nullptr;
    FaultKind kind = FaultKind::Chunk;
    std::atomic<uint64_t> count{0};
  };

  mutable std::mutex mu_;                // guards registration
  Site sites_[kMaxSites];
  std::atomic<int> num_sites_{0};
  std::atomic<Mode> mode_{Mode::Off};
  std::atomic<int> armed_site_{-1};
  std::atomic<uint64_t> armed_occurrence_{0};
  std::atomic<bool> armed_fired_{false};
  std::atomic<uint64_t> fired_total_{0};
};

// Instrumented failure point. The static registration runs on the first
// crossing while the injector is active; in Off mode the whole site is one
// relaxed load and an untaken branch.
#define NPAD_FAULT_SITE(site_name, fault_kind)                                         \
  do {                                                                                 \
    auto& npad_fi_ = ::npad::support::FaultInjector::global();                         \
    if (npad_fi_.active()) {                                                           \
      static const int npad_fi_site_ =                                                 \
          ::npad::support::FaultInjector::global().register_site(                      \
              site_name, ::npad::support::fault_kind);                                 \
      if (npad_fi_.crossed(npad_fi_site_)) npad_fi_.fire(npad_fi_site_);               \
    }                                                                                  \
  } while (0)

} // namespace npad::support
