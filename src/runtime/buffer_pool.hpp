#pragma once

// Process-wide, thread-safe, size-bucketed pool of raw buffer storage.
//
// Every `Buffer` allocation (runtime/value.hpp) acquires its storage here and
// returns it on destruction. Blocks are bucketed by power-of-two byte size;
// an acquire pops a block from the matching bucket (a *hit* — no malloc, no
// page faults, warm cache lines) or falls back to the heap (a *miss*). The
// pool is bounded: each bucket keeps a fixed number of blocks and the total
// retained footprint is capped, so long-running drivers cannot hoard memory.
//
// Locking is sharded per bucket, so concurrent workers allocating different
// sizes never contend, and same-size contention is a short push/pop critical
// section. Under AddressSanitizer retained blocks are poisoned while they
// sit in the pool, so a stale view into a released buffer still traps even
// though the memory was never returned to the system allocator.
//
// The zero-fill policy lives with the caller: `Buffer::make` clears the
// requested range after acquiring, while `Buffer::make_uninit` hands the
// recycled block back as-is for buffers that are provably fully overwritten
// (kernel outputs) — eliminating the memset that used to accompany every
// fresh intermediate.
//
// Resource governance: the pool tracks live (acquired, not yet released)
// bytes and buffer counts, and an optional byte *budget* (set via
// `set_budget_bytes` or the NPAD_POOL_BUDGET_BYTES env var). An acquire that
// would push the live footprint past the budget throws `npad::ResourceError`
// instead of letting the process walk into the OOM killer; the interpreter
// unwinds, releasing everything it acquired, and the caller gets a typed,
// recoverable error. Tests use `outstanding_bytes()` / `outstanding_buffers()`
// to assert zero leaks after an unwind (tests/test_fault.cpp).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

namespace npad::rt {

class BufferPool {
public:
  // Smallest pooled block; requests below this round up to it.
  static constexpr size_t kMinBytes = 64;
  // Largest pooled block; bigger requests bypass the pool entirely.
  static constexpr size_t kMaxBytes = size_t{1} << 30;
  // Retention bounds: per-bucket block count and total retained bytes.
  static constexpr size_t kMaxPerBucket = 16;
  static constexpr size_t kMaxRetainedBytes = size_t{256} << 20;

  // Leaked singleton: never destroyed, so buffers freed during static
  // teardown can still return their storage safely.
  static BufferPool& global();

  // Returns a block of capacity >= `bytes` (bucket-rounded, reported via
  // `cap_bytes`). `hit` is set when the block was recycled from the pool.
  // Throws npad::ResourceError when a budget is set and the live footprint
  // would exceed it.
  void* acquire(size_t bytes, size_t* cap_bytes, bool* hit);

  // Returns a block obtained from acquire(); retains it for reuse when within
  // bounds, frees it otherwise.
  void release(void* p, size_t cap_bytes) noexcept;

  struct Counters {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t retained_bytes = 0;
    uint64_t outstanding_bytes = 0;    // live: acquired and not yet released
    uint64_t outstanding_buffers = 0;  // live block count
    uint64_t budget_bytes = 0;         // 0 = unlimited
    uint64_t budget_rejections = 0;    // acquires refused by the budget
    uint64_t arena_parked_buffers = 0; // always 0; npadbench still reads it
    uint64_t arena_parked_bytes = 0;   // always 0; npadbench still reads it
  };
  Counters counters() const;
  // Alias of counters(); the name tests and benches use.
  Counters stats() const { return counters(); }

  // Live footprint: bytes / blocks acquired and not yet released.
  size_t outstanding_bytes() const {
    return outstanding_bytes_.load(std::memory_order_relaxed);
  }
  size_t outstanding_buffers() const {
    return outstanding_buffers_.load(std::memory_order_relaxed);
  }

  // Byte budget on the live footprint; 0 disables enforcement. Initialized
  // from NPAD_POOL_BUDGET_BYTES (if set) on first use of global().
  void set_budget_bytes(size_t budget) {
    budget_bytes_.store(budget, std::memory_order_relaxed);
  }
  size_t budget_bytes() const { return budget_bytes_.load(std::memory_order_relaxed); }

  // Frees every retained block (diagnostics/tests).
  void trim();

private:
  BufferPool();

  static constexpr size_t kNumBuckets = 32;
  static size_t bucket_of(size_t bytes);

  struct Bucket {
    std::mutex mu;
    std::vector<void*> blocks;
  };

  // Fault site + budget admission, shared by all acquire paths; throws
  // npad::ResourceError on refusal. Accounting is committed only after the
  // block is actually obtained.
  void admit(size_t cap);

  Bucket buckets_[kNumBuckets];
  std::atomic<size_t> retained_bytes_{0};
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<size_t> outstanding_bytes_{0};
  std::atomic<size_t> outstanding_buffers_{0};
  std::atomic<size_t> budget_bytes_{0};
  std::atomic<uint64_t> budget_rejections_{0};
};

} // namespace npad::rt
