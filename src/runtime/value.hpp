#pragma once

// Runtime value model: scalars, contiguous arrays (with cheap row views via
// buffer offsets) and accumulators (write-only views with atomic updates).

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <numeric>
#include <variant>
#include <vector>

#include "ir/ast.hpp"
#include "support/error.hpp"

namespace npad::rt {

using ir::ScalarType;

inline size_t scalar_bytes(ScalarType t) { return t == ScalarType::Bool ? 1 : 8; }

// Raw typed storage. Allocation is routed through the process-wide
// size-bucketed buffer pool (runtime/buffer_pool.hpp): freed buffers return
// their storage to the pool, and `make_uninit` skips the zero-fill for
// buffers that are provably fully overwritten (kernel outputs).
struct Buffer {
  void* raw = nullptr;      // owned storage (pool bucket or heap block)
  size_t elems = 0;         // element count
  size_t cap_bytes = 0;     // actual allocation size (bucket-rounded)
  ScalarType type = ScalarType::F64;

  Buffer() = default;
  Buffer(const Buffer&) = delete;
  Buffer& operator=(const Buffer&) = delete;
  ~Buffer();  // returns storage to the pool (buffer_pool.cpp)

  // Zero-filled allocation. `pool_hit`, when non-null, reports whether the
  // storage was recycled from the pool (for InterpStats accounting).
  static std::shared_ptr<Buffer> make(ScalarType t, size_t n, bool* pool_hit = nullptr);
  // Uninitialized allocation: contents are unspecified. Only valid when every
  // element is overwritten before it is read.
  static std::shared_ptr<Buffer> make_uninit(ScalarType t, size_t n, bool* pool_hit = nullptr);

  size_t size() const { return elems; }

  // Typed accessors assert the buffer's element type in debug builds — the
  // loud-failure guard the old std::variant storage provided for free.
  double* f64() { assert(type == ScalarType::F64); return static_cast<double*>(raw); }
  const double* f64() const { assert(type == ScalarType::F64); return static_cast<const double*>(raw); }
  int64_t* i64() { assert(type == ScalarType::I64); return static_cast<int64_t*>(raw); }
  const int64_t* i64() const { assert(type == ScalarType::I64); return static_cast<const int64_t*>(raw); }
  uint8_t* b8() { assert(type == ScalarType::Bool); return static_cast<uint8_t*>(raw); }
  const uint8_t* b8() const { assert(type == ScalarType::Bool); return static_cast<const uint8_t*>(raw); }
};

using BufferPtr = std::shared_ptr<Buffer>;

// A (possibly offset) dense view into a buffer. Row views share the buffer.
struct ArrayVal {
  BufferPtr buf;
  int64_t offset = 0;
  std::vector<int64_t> shape;
  ScalarType elem = ScalarType::F64;

  int rank() const { return static_cast<int>(shape.size()); }
  int64_t elems() const {
    return std::accumulate(shape.begin(), shape.end(), int64_t{1}, std::multiplies<>());
  }
  int64_t outer() const { return shape.empty() ? 0 : shape[0]; }
  int64_t row_elems() const {
    assert(!shape.empty());
    if (shape[0] == 0) return 0;  // empty array: no rows, no row extent
    return elems() / shape[0];
  }

  static ArrayVal alloc(ScalarType t, std::vector<int64_t> shp, bool* pool_hit = nullptr) {
    ArrayVal a;
    a.elem = t;
    a.shape = std::move(shp);
    a.buf = Buffer::make(t, static_cast<size_t>(a.elems()), pool_hit);
    return a;
  }

  // Uninitialized allocation; only for arrays whose every element is written
  // before being read (e.g. kernel launch outputs).
  static ArrayVal alloc_uninit(ScalarType t, std::vector<int64_t> shp, bool* pool_hit = nullptr) {
    ArrayVal a;
    a.elem = t;
    a.shape = std::move(shp);
    a.buf = Buffer::make_uninit(t, static_cast<size_t>(a.elems()), pool_hit);
    return a;
  }

  // Whole-buffer, offset-zero view test: safe to mutate in place when unique.
  bool whole() const { return offset == 0 && buf && elems() == static_cast<int64_t>(buf->size()); }

  double get_f64(int64_t i) const {
    switch (elem) {
      case ScalarType::F64: return buf->f64()[offset + i];
      case ScalarType::I64: return static_cast<double>(buf->i64()[offset + i]);
      case ScalarType::Bool: return static_cast<double>(buf->b8()[offset + i]);
    }
    return 0.0;
  }

  int64_t get_i64(int64_t i) const {
    switch (elem) {
      case ScalarType::F64: return static_cast<int64_t>(buf->f64()[offset + i]);
      case ScalarType::I64: return buf->i64()[offset + i];
      case ScalarType::Bool: return buf->b8()[offset + i];
    }
    return 0;
  }

  void set_f64(int64_t i, double v) { buf->f64()[offset + i] = v; }
  void set_i64(int64_t i, int64_t v) { buf->i64()[offset + i] = v; }
  void set_b8(int64_t i, bool v) { buf->b8()[offset + i] = v ? 1 : 0; }
};

// Accumulator: write-only view of an array; updates are adds (F64). When
// `atomic` is false the backing array is private to one executing thread
// (a privatized per-worker copy) and updates may be plain stores.
struct AccVal {
  ArrayVal arr;
  bool atomic = true;
};

using Value = std::variant<double, int64_t, bool, ArrayVal, AccVal>;

inline bool is_array(const Value& v) { return std::holds_alternative<ArrayVal>(v); }
inline bool is_acc(const Value& v) { return std::holds_alternative<AccVal>(v); }

// The element type of a scalar value; callers rule out arrays and
// accumulators first (both read as Bool here).
inline ScalarType value_scalar_type(const Value& v) {
  if (std::holds_alternative<double>(v)) return ScalarType::F64;
  if (std::holds_alternative<int64_t>(v)) return ScalarType::I64;
  return ScalarType::Bool;
}

inline double as_f64(const Value& v) {
  return std::visit(ir::Overload{[](double x) { return x; },
                                 [](int64_t x) { return static_cast<double>(x); },
                                 [](bool x) { return x ? 1.0 : 0.0; },
                                 [](const auto&) -> double {
                                   throw TypeError("scalar expected, got an array or accumulator");
                                 }},
                    v);
}

inline int64_t as_i64(const Value& v) {
  return std::visit(ir::Overload{[](double x) { return static_cast<int64_t>(x); },
                                 [](int64_t x) { return x; },
                                 [](bool x) { return static_cast<int64_t>(x); },
                                 [](const auto&) -> int64_t {
                                   throw TypeError("scalar expected, got an array or accumulator");
                                 }},
                    v);
}

inline bool as_bool(const Value& v) {
  return std::visit(ir::Overload{[](double x) { return x != 0.0; }, [](int64_t x) { return x != 0; },
                                 [](bool x) { return x; },
                                 [](const auto&) -> bool {
                                   throw TypeError("scalar expected, got an array or accumulator");
                                 }},
                    v);
}

inline const ArrayVal& as_array(const Value& v) { return std::get<ArrayVal>(v); }
inline const AccVal& as_acc(const Value& v) { return std::get<AccVal>(v); }

// Scalar element <-> Value.
inline Value scalar_value(ScalarType t, const ArrayVal& a, int64_t i) {
  switch (t) {
    case ScalarType::F64: return a.get_f64(i);
    case ScalarType::I64: return a.get_i64(i);
    case ScalarType::Bool: return a.buf->b8()[a.offset + i] != 0;
  }
  return 0.0;
}

inline void store_scalar(ArrayVal& a, int64_t i, const Value& v) {
  switch (a.elem) {
    case ScalarType::F64: a.set_f64(i, as_f64(v)); break;
    case ScalarType::I64: a.set_i64(i, as_i64(v)); break;
    case ScalarType::Bool: a.set_b8(i, as_bool(v)); break;
  }
}

// Row view a[i] (shares buffer).
inline ArrayVal row_view(const ArrayVal& a, int64_t i) {
  assert(a.rank() >= 1 && i >= 0 && i < a.shape[0]);
  ArrayVal r;
  r.buf = a.buf;
  r.elem = a.elem;
  r.offset = a.offset + i * a.row_elems();
  r.shape.assign(a.shape.begin() + 1, a.shape.end());
  return r;
}

// Compacts a view into its own buffer (deep copy).
inline ArrayVal compact_copy(const ArrayVal& a) {
  ArrayVal out = ArrayVal::alloc(a.elem, a.shape);
  const int64_t n = a.elems();
  switch (a.elem) {
    case ScalarType::F64:
      std::copy_n(a.buf->f64() + a.offset, n, out.buf->f64());
      break;
    case ScalarType::I64:
      std::copy_n(a.buf->i64() + a.offset, n, out.buf->i64());
      break;
    case ScalarType::Bool:
      std::copy_n(a.buf->b8() + a.offset, n, out.buf->b8());
      break;
  }
  return out;
}

// Copies the contents of `src` into `dst` starting at element offset `at`.
inline void copy_into(ArrayVal& dst, int64_t at, const ArrayVal& src) {
  const int64_t n = src.elems();
  assert(dst.elem == src.elem);
  switch (dst.elem) {
    case ScalarType::F64:
      std::copy_n(src.buf->f64() + src.offset, n, dst.buf->f64() + dst.offset + at);
      break;
    case ScalarType::I64:
      std::copy_n(src.buf->i64() + src.offset, n, dst.buf->i64() + dst.offset + at);
      break;
    case ScalarType::Bool:
      std::copy_n(src.buf->b8() + src.offset, n, dst.buf->b8() + dst.offset + at);
      break;
  }
}

// Atomic a[i] += v for accumulators (F64 payloads).
inline void atomic_add_f64(ArrayVal& a, int64_t i, double v) {
  std::atomic_ref<double> ref(a.buf->f64()[a.offset + i]);
  ref.fetch_add(v, std::memory_order_relaxed);
}

// Non-atomic a[i] += v; only valid when `a` is private to this thread.
inline void plain_add_f64(ArrayVal& a, int64_t i, double v) { a.buf->f64()[a.offset + i] += v; }

// ------------------------------------------------- host data conversion ----

inline ArrayVal make_f64_array(const std::vector<double>& data, std::vector<int64_t> shape) {
  ArrayVal a = ArrayVal::alloc(ScalarType::F64, std::move(shape));
  assert(static_cast<int64_t>(data.size()) == a.elems());
  std::copy(data.begin(), data.end(), a.buf->f64());
  return a;
}

inline ArrayVal make_i64_array(const std::vector<int64_t>& data, std::vector<int64_t> shape) {
  ArrayVal a = ArrayVal::alloc(ScalarType::I64, std::move(shape));
  assert(static_cast<int64_t>(data.size()) == a.elems());
  std::copy(data.begin(), data.end(), a.buf->i64());
  return a;
}

inline std::vector<double> to_f64_vec(const ArrayVal& a) {
  std::vector<double> out(static_cast<size_t>(a.elems()));
  for (int64_t i = 0; i < a.elems(); ++i) out[static_cast<size_t>(i)] = a.get_f64(i);
  return out;
}

inline std::vector<int64_t> to_i64_vec(const ArrayVal& a) {
  std::vector<int64_t> out(static_cast<size_t>(a.elems()));
  for (int64_t i = 0; i < a.elems(); ++i) out[static_cast<size_t>(i)] = a.get_i64(i);
  return out;
}

} // namespace npad::rt
