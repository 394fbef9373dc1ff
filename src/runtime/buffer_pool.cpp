#include "runtime/buffer_pool.hpp"

#include <bit>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>

#include "runtime/value.hpp"
#include "support/error.hpp"
#include "support/fault.hpp"

// ASan integration: poison blocks while they are retained in the pool so
// dangling views into released buffers trap instead of silently reading a
// recycled block. Without ASan these are no-ops.
#if defined(__SANITIZE_ADDRESS__)
#define NPAD_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define NPAD_ASAN 1
#endif
#endif
#ifdef NPAD_ASAN
#include <sanitizer/asan_interface.h>
#define NPAD_POISON(p, n) ASAN_POISON_MEMORY_REGION(p, n)
#define NPAD_UNPOISON(p, n) ASAN_UNPOISON_MEMORY_REGION(p, n)
#else
#define NPAD_POISON(p, n) ((void)0)
#define NPAD_UNPOISON(p, n) ((void)0)
#endif

namespace npad::rt {

BufferPool::BufferPool() {
  if (const char* env = std::getenv("NPAD_POOL_BUDGET_BYTES")) {
    const long long v = std::atoll(env);
    if (v > 0) budget_bytes_.store(static_cast<size_t>(v), std::memory_order_relaxed);
  }
}

void BufferPool::admit(size_t cap) {
  NPAD_FAULT_SITE("pool.acquire", FaultKind::Alloc);
  const size_t budget = budget_bytes_.load(std::memory_order_relaxed);
  if (budget == 0) return;
  const size_t live = outstanding_bytes_.load(std::memory_order_relaxed);
  if (live + cap > budget) {
    budget_rejections_.fetch_add(1, std::memory_order_relaxed);
    throw npad::ResourceError("buffer pool budget exceeded: allocation of " +
                              std::to_string(cap) + " bytes would raise the live footprint (" +
                              std::to_string(live) + " bytes) past NPAD_POOL_BUDGET_BYTES=" +
                              std::to_string(budget));
  }
}

BufferPool& BufferPool::global() {
  // Intentionally leaked: blocks retained at exit stay reachable through this
  // pointer (not a leak under LSan) and release() never races teardown.
  static BufferPool* pool = new BufferPool();
  return *pool;
}

size_t BufferPool::bucket_of(size_t bytes) {
  const size_t rounded = std::bit_ceil(bytes < kMinBytes ? kMinBytes : bytes);
  return static_cast<size_t>(std::countr_zero(rounded));
}

void* BufferPool::acquire(size_t bytes, size_t* cap_bytes, bool* hit) {
  if (bytes > kMaxBytes) {  // too large to retain: plain heap block
    admit(bytes);
    *cap_bytes = bytes;
    if (hit) *hit = false;
    misses_.fetch_add(1, std::memory_order_relaxed);
    void* p = ::operator new(bytes);
    outstanding_bytes_.fetch_add(bytes, std::memory_order_relaxed);
    outstanding_buffers_.fetch_add(1, std::memory_order_relaxed);
    return p;
  }
  const size_t b = bucket_of(bytes);
  const size_t cap = size_t{1} << b;
  admit(cap);
  *cap_bytes = cap;
  {
    Bucket& bucket = buckets_[b];
    std::lock_guard lk(bucket.mu);
    if (!bucket.blocks.empty()) {
      void* p = bucket.blocks.back();
      bucket.blocks.pop_back();
      retained_bytes_.fetch_sub(cap, std::memory_order_relaxed);
      NPAD_UNPOISON(p, cap);
      if (hit) *hit = true;
      hits_.fetch_add(1, std::memory_order_relaxed);
      outstanding_bytes_.fetch_add(cap, std::memory_order_relaxed);
      outstanding_buffers_.fetch_add(1, std::memory_order_relaxed);
      return p;
    }
  }
  if (hit) *hit = false;
  misses_.fetch_add(1, std::memory_order_relaxed);
  void* p = ::operator new(cap);
  outstanding_bytes_.fetch_add(cap, std::memory_order_relaxed);
  outstanding_buffers_.fetch_add(1, std::memory_order_relaxed);
  return p;
}

void BufferPool::release(void* p, size_t cap_bytes) noexcept {
  if (p == nullptr) return;
  outstanding_bytes_.fetch_sub(cap_bytes, std::memory_order_relaxed);
  outstanding_buffers_.fetch_sub(1, std::memory_order_relaxed);
  // Only bucket-rounded blocks within pooling range are retained.
  if (cap_bytes <= kMaxBytes && std::has_single_bit(cap_bytes) && cap_bytes >= kMinBytes) {
    // Reserve the bytes with a compare-exchange so concurrent releases
    // cannot collectively overshoot the retention cap.
    size_t cur = retained_bytes_.load(std::memory_order_relaxed);
    bool reserved = true;
    do {
      if (cur + cap_bytes > kMaxRetainedBytes) {
        reserved = false;
        break;
      }
    } while (!retained_bytes_.compare_exchange_weak(cur, cur + cap_bytes,
                                                    std::memory_order_relaxed));
    if (reserved) {
      Bucket& bucket = buckets_[bucket_of(cap_bytes)];
      std::lock_guard lk(bucket.mu);
      if (bucket.blocks.size() < kMaxPerBucket) {
        bucket.blocks.push_back(p);
        NPAD_POISON(p, cap_bytes);
        return;
      }
      retained_bytes_.fetch_sub(cap_bytes, std::memory_order_relaxed);
    }
  }
  ::operator delete(p);
}

BufferPool::Counters BufferPool::counters() const {
  Counters c;
  c.hits = hits_.load(std::memory_order_relaxed);
  c.misses = misses_.load(std::memory_order_relaxed);
  c.retained_bytes = retained_bytes_.load(std::memory_order_relaxed);
  c.outstanding_bytes = outstanding_bytes_.load(std::memory_order_relaxed);
  c.outstanding_buffers = outstanding_buffers_.load(std::memory_order_relaxed);
  c.budget_bytes = budget_bytes_.load(std::memory_order_relaxed);
  c.budget_rejections = budget_rejections_.load(std::memory_order_relaxed);
  return c;
}

void BufferPool::trim() {
  for (size_t b = 0; b < kNumBuckets; ++b) {
    Bucket& bucket = buckets_[b];
    std::lock_guard lk(bucket.mu);
    for (void* p : bucket.blocks) {
      NPAD_UNPOISON(p, size_t{1} << b);
      ::operator delete(p);
      retained_bytes_.fetch_sub(size_t{1} << b, std::memory_order_relaxed);
    }
    bucket.blocks.clear();
  }
}

// ------------------------------------------------- Buffer pooled storage ----

Buffer::~Buffer() {
  if (raw != nullptr) BufferPool::global().release(raw, cap_bytes);
}

std::shared_ptr<Buffer> Buffer::make_uninit(ScalarType t, size_t n, bool* pool_hit) {
  auto b = std::make_shared<Buffer>();
  b->type = t;
  b->elems = n;
  if (n > 0) {
    b->raw = BufferPool::global().acquire(n * scalar_bytes(t), &b->cap_bytes, pool_hit);
  } else if (pool_hit) {
    *pool_hit = false;
  }
  return b;
}

std::shared_ptr<Buffer> Buffer::make(ScalarType t, size_t n, bool* pool_hit) {
  auto b = make_uninit(t, n, pool_hit);
  if (n > 0) std::memset(b->raw, 0, n * scalar_bytes(t));
  return b;
}

} // namespace npad::rt
