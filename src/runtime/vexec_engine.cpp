// The vexec engine: the handlers and the span executor that execute a
// lowered VProgram (runtime/vexec.hpp). The launch drivers live once, in
// runtime/kernel.cpp; when a launch carries an entry, every one of them runs
// its spans here. A span keeps the register machine's lane layout and
// instruction-major lane order for memory effects. The only differences
// are mechanical — operands are pre-baked element offsets, launch-invariant
// registers are broadcast from a compact prologue list instead of
// re-dispatched ConstF / LoadLen cases, and fused handlers execute the same
// arithmetic with each intermediate's own IEEE rounding (the project builds
// with -ffp-contract=off, so no step ever contracts to a hardware FMA).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <vector>

#include "runtime/vexec.hpp"
#include "support/error.hpp"

namespace npad::rt::vexec {

namespace {

// Data-dependent indices raise the same typed error as the register machine
// (throw_kernel_oob in runtime/kernel.cpp) instead of reading out of bounds;
// an out-of-range UpdAcc is ignored, as there. Cold path, kept out of the
// address loops.
[[noreturn]] inline void voob(int64_t i, int32_t axis, int64_t extent) {
  throw ShapeError("index " + std::to_string(i) + " out of bounds for kernel array axis " +
                   std::to_string(axis) + " of extent " + std::to_string(extent));
}

// flat_index_lane over pre-baked element offsets: idx[d] + l addresses lane
// l of index register d.
template <bool kIgnoreOob = false>
inline int64_t vflat(const ArrayVal& a, const double* r, const int32_t* idx, int32_t nidx,
                     int l) {
  int64_t off = 0;
  int64_t stride = 1;
  for (int32_t d = nidx - 1; d >= 0; --d) {
    const auto i = static_cast<int64_t>(r[idx[d] + l]);
    const auto ext = static_cast<int64_t>(a.shape[static_cast<size_t>(d)]);
    if (i < 0 || i >= ext) {
      if constexpr (kIgnoreOob) return -1;
      voob(i, d, ext);
    }
    off += i * stride;
    stride *= ext;
  }
  return off;
}

// StoreOut's element write, shared by the plain and fused store handlers.
template <int W>
inline void store_result(const KernelLaunch& L, int32_t slot, int64_t base, const double* v) {
  if (L.scalar_out != nullptr) {  // extent-1 scalar-block mode
    L.scalar_out[slot] = v[0];
    return;
  }
  auto& o = const_cast<ArrayVal&>(L.outputs[static_cast<size_t>(slot)]);
  switch (o.elem) {
    case ScalarType::F64: {
      double* dst = o.buf->f64() + o.offset + base;
      for (int l = 0; l < W; ++l) dst[l] = v[l];
      break;
    }
    case ScalarType::I64: {
      int64_t* dst = o.buf->i64() + o.offset + base;
      for (int l = 0; l < W; ++l) dst[l] = static_cast<int64_t>(v[l]);
      break;
    }
    case ScalarType::Bool: {
      uint8_t* dst = o.buf->b8() + o.offset + base;
      for (int l = 0; l < W; ++l) dst[l] = v[l] != 0.0 ? 1 : 0;
      break;
    }
  }
}

// True when a stream over `a` with `nlead` leading indexes is f64, full
// rank, and its last extent covers `trip` steps.
inline bool stream_fits(const ArrayVal& a, int32_t nlead, int64_t trip) {
  return a.elem == ScalarType::F64 && static_cast<int32_t>(a.shape.size()) == nlead + 1 &&
         trip <= static_cast<int64_t>(a.shape[static_cast<size_t>(nlead)]);
}

// Binds the streams `vl` owns for one entry: per lane, the row pointer of
// a[lead..., 0..trip) for the stream's own trip, written into the stream's
// register as raw pointer bits. A stream that does not fit, or a lane whose
// lead is out of range, leaves null in lane 0: its instructions then take
// the checked per-lane path, which raises the register machine's error at
// the register machine's point (an UpdAcc skips the lane, as the register
// machine does). A hoisted stream whose loop runs no trip is never read and
// stays unbound.
template <int W>
void bind_streams(const KernelLaunch& L, double* r, const VLoop& vl) {
  for (const VStream& st : vl.streams) {
    const auto trip = static_cast<int64_t>(r[st.trip]);
    if (trip <= 0) continue;
    const ArrayVal& a = st.acc ? L.acc_array_vals[static_cast<size_t>(st.slot)]
                               : L.free_array_vals[static_cast<size_t>(st.slot)];
    double* q[W] = {};
    bool ok = stream_fits(a, st.nlead, trip);
    for (int l = 0; ok && l < W; ++l) {
      int64_t off = 0;
      int64_t stride = static_cast<int64_t>(a.shape[static_cast<size_t>(st.nlead)]);
      for (int32_t d = st.nlead - 1; ok && d >= 0; --d) {
        const auto i = static_cast<int64_t>(r[st.lead[d] + l]);
        const auto ext = static_cast<int64_t>(a.shape[static_cast<size_t>(d)]);
        ok = i >= 0 && i < ext;
        off += ok ? i * stride : 0;
        stride *= ext;
      }
      q[l] = a.buf->f64() + a.offset + off;
    }
    if (!ok) q[0] = nullptr;
    std::memcpy(r + st.reg, q, sizeof q);
  }
}

// True when every stream register in `regs` holds a bound row (lane 0 not
// null).
template <class Regs>
inline bool all_bound(const double* r, const Regs& regs) {
  for (int32_t s : regs) {
    if (s < 0) continue;
    double* q0 = nullptr;
    std::memcpy(&q0, r + s, sizeof q0);
    if (q0 == nullptr) return false;
  }
  return true;
}

// The lane pointers a stream instruction's loop bound into register `s`;
// false when the instruction has no stream or its stream did not bind.
template <int W>
inline bool stream_lanes(const double* r, int32_t s, double* (&q)[W]) {
  if (s < 0) return false;
  std::memcpy(q, r + s, sizeof q);
  return q[0] != nullptr;
}

// Loop-body dispatches (one per trip on the per-trip path, one per pass over
// a tile) of the driver call running on this thread, reset and flushed by
// its DispatchTally.
thread_local uint64_t t_dispatches = 0;

// The trips one instruction runs over: tile rows [j0, j1), row j being trip
// t0 + j. Outside tile code an instruction runs one row, every stride 0.
struct Rows {
  int64_t t0 = 0;
  int j0 = 0, j1 = 1;
};

// Row stride of an operand: W for a tile block (its kTile* bit is set in
// tile code), else 0 — a register every trip reads.
template <int W, bool kTile>
inline int64_t stride(const VInstr& in, unsigned bit) {
  return kTile && (in.tiled & bit) != 0 ? W : 0;
}

// Operand views: element (j, l) of an instruction's operand is its value at
// row j, lane l. A W-wide register is a RegView of row stride 0, a [T][W]
// tile block one of stride W.
struct RegView {
  const double* p;
  int64_t st;
  double at(int j, int l) const { return p[j * st + l]; }
};

// A stream operand (VInstr::streamed), read in place: `q` is the stream's
// register of lane row pointers, and element (j, l) is q[l][t0 + j].
struct StreamView {
  const double* q;
  int64_t t0;
  double at(int j, int l) const {
    const double* row = nullptr;
    std::memcpy(&row, q + l, sizeof row);
    return row[t0 + j];
  }
};

// Calls f with the view of operand `off` (kTile* bit `bit`): a StreamView
// when kS and the operand is a stream operand, else a RegView. The choice is
// made once per instruction; f's loops see a compile-time view type.
template <int W, bool kTile, bool kS, class F>
inline void view(const VInstr& in, const double* r, int32_t off, unsigned bit, int64_t t0, F&& f) {
  if constexpr (kS) {
    if ((in.streamed & bit) != 0) {
      f(StreamView{r + off, t0});
      return;
    }
  }
  f(RegView{r + off, stride<W, kTile>(in, bit)});
}

// A fold pass of tile code: the destination is a carry (stride 0) that
// each row folds into, so the running value stays in a local across the
// rows instead of a register-file round trip per row. f(acc, x, y) takes
// the row's other operands in operand order; row order and roundings are
// those of the row loop.
template <int W, class X, class Y, class F>
inline void fold_rows(const VInstr& in, double* r, const Rows& rows, const X& x, const Y& y, F f) {
  double acc[W];
  double* d = r + in.d;
  for (int l = 0; l < W; ++l) acc[l] = d[l];
  for (int j = rows.j0; j < rows.j1; ++j) {
    for (int l = 0; l < W; ++l) acc[l] = f(acc[l], x.at(j, l), y.at(j, l));
  }
  for (int l = 0; l < W; ++l) d[l] = acc[l];
}

// d = f(a, b, c) per row and lane over the first kOps operands (the unused
// ones alias a). Runs as a fold pass when the instruction is one: tile
// code, more than one row, a W-wide destination and exactly one operand
// reading it. With kU, an op flagged kUniform computes lane 0 once per row
// and broadcasts it (every lane's operands hold the same bits).
template <int W, bool kTile, bool kS, bool kU, int kOps, class F>
inline void ew_rows(const VInstr& in, double* r, const Rows& rows, F f) {
  const int32_t off[3] = {in.a, kOps > 1 ? in.b : in.a, kOps > 2 ? in.c : in.a};
  constexpr unsigned kBits[3] = {kTileA, kTileB, kTileC};
  auto with = [&](int k, auto&& g) { view<W, kTile, kS>(in, r, off[k], kBits[k], rows.t0, g); };
  if (kTile && kOps > 1 && (in.tiled & kTileD) == 0 && rows.j1 - rows.j0 >= 2) {
    int carry = -1, n = 0;
    for (int k = 0; k < kOps; ++k) {
      if (off[k] == in.d && ((in.tiled | in.streamed) & kBits[k]) == 0) {
        carry = k;
        ++n;
      }
    }
    if (n == 1) {
      const int x = carry == 0 ? 1 : 0, y = carry == 2 ? 1 : 2;
      auto fold = [&](const auto& vx, const auto& vy) {
        if (carry == 0) {
          fold_rows<W>(in, r, rows, vx, vy, [&](double v, double p, double q) { return f(v, p, q); });
        } else if (carry == 1) {
          fold_rows<W>(in, r, rows, vx, vy, [&](double v, double p, double q) { return f(p, v, q); });
        } else {
          fold_rows<W>(in, r, rows, vx, vy, [&](double v, double p, double q) { return f(p, q, v); });
        }
      };
      if constexpr (kOps == 2) {
        with(x, [&](const auto& vx) { fold(vx, vx); });
      } else {
        with(x, [&](const auto& vx) { with(y, [&](const auto& vy) { fold(vx, vy); }); });
      }
      return;
    }
  }
  const int j0 = kTile ? rows.j0 : 0, j1 = kTile ? rows.j1 : 1;
  const int64_t sd = stride<W, kTile>(in, kTileD);
  const bool uni = kU && (in.flags & kUniform) != 0;
  auto body = [&](const auto& va, const auto& vb, const auto& vc) {
    for (int j = j0; j < j1; ++j) {
      double* d = r + in.d + j * sd;
      if (uni) {
        const double v = f(va.at(j, 0), vb.at(j, 0), vc.at(j, 0));
        for (int l = 0; l < W; ++l) d[l] = v;
      } else {
        for (int l = 0; l < W; ++l) d[l] = f(va.at(j, l), vb.at(j, l), vc.at(j, l));
      }
    }
  };
  if constexpr (kOps == 1) {
    with(0, [&](const auto& va) { body(va, va, va); });
  } else if constexpr (kOps == 2) {
    with(0, [&](const auto& va) { with(1, [&](const auto& vb) { body(va, vb, va); }); });
  } else {
    with(0, [&](const auto& va) {
      with(1, [&](const auto& vb) { with(2, [&](const auto& vc) { body(va, vb, vc); }); });
    });
  }
}

// Elementwise ops; tile code with stream operands takes the kS rows.
template <int W, bool kTile, bool kU, int kOps, class F>
inline void ew(const VInstr& in, double* r, const Rows& rows, F f) {
  if (kTile && in.streamed != 0) {
    ew_rows<W, kTile, kTile, kU, kOps>(in, r, rows, f);
  } else {
    ew_rows<W, kTile, false, kU, kOps>(in, r, rows, f);
  }
}

template <int W, bool kTile, bool kU = false, class F>
inline void ew1(const VInstr& in, double* r, const Rows& rows, F f) {
  ew<W, kTile, kU, 1>(in, r, rows, [&](double x, double, double) { return f(x); });
}

template <int W, bool kTile, bool kU = false, class F>
inline void ew2(const VInstr& in, double* r, const Rows& rows, F f) {
  ew<W, kTile, kU, 2>(in, r, rows, [&](double x, double y, double) { return f(x, y); });
}

template <int W, bool kTile, class F>
inline void ew3(const VInstr& in, double* r, const Rows& rows, F f) {
  ew<W, kTile, false, 3>(in, r, rows, f);
}

// A fused pair: t = first(a, b), then d = second(t, c), or second(c, t)
// when flag bit 0 is set — each step rounded on its own.
template <int W, bool kTile, class F1, class F2>
inline void pair(const VInstr& in, double* r, const Rows& rows, F1 first, F2 second) {
  if (in.flags & 1) {
    ew3<W, kTile>(in, r, rows, [&](double x, double y, double z) {
      const double t = first(x, y);
      return second(z, t);
    });
  } else {
    ew3<W, kTile>(in, r, rows, [&](double x, double y, double z) {
      const double t = first(x, y);
      return second(t, z);
    });
  }
}

// The trip a stream access addresses at row j: its trailing index is its
// loop's variable — trip t0 + j when that loop is the tile's, else the
// register's value, the same in every row.
template <bool kTile>
inline int64_t trip_at(const double* r, const VInstr& in, const Rows& rows, int j) {
  const int32_t last = in.nidx - 1;
  if (kTile && (in.tiled & (kTileIdx << last)) != 0) return rows.t0 + j;
  return static_cast<int64_t>(r[in.idx[last]]);
}

// The index operand offsets of a checked access at row j.
template <int W, bool kTile>
inline const int32_t* row_idx(const VInstr& in, int j, int32_t (&ix)[4]) {
  if (!kTile) return in.idx;
  for (int32_t d = 0; d < in.nidx; ++d) {
    ix[d] = in.idx[d] + static_cast<int32_t>(j * stride<W, kTile>(in, kTileIdx << d));
  }
  return ix;
}

// Per row, the gathered lanes of a Gather-form instruction — through its
// bound stream, else the checked address path — handed to emit(j, g).
template <int W, bool kTile, class F>
inline void gather_rows(const KernelLaunch& L, const double* r, const VInstr& in, const Rows& rows,
                        F emit) {
  const int j0 = kTile ? rows.j0 : 0, j1 = kTile ? rows.j1 : 1;
  double* q[W];
  double g[W];
  if (stream_lanes<W>(r, in.s, q)) {
    for (int j = j0; j < j1; ++j) {
      const int64_t t = trip_at<kTile>(r, in, rows, j);
      for (int l = 0; l < W; ++l) g[l] = q[l][t];
      emit(j, g);
    }
    return;
  }
  const ArrayVal& arr = L.free_array_vals[static_cast<size_t>(in.slot)];
  for (int j = j0; j < j1; ++j) {
    int32_t ix[4];
    const int32_t* idx = row_idx<W, kTile>(in, j, ix);
    for (int l = 0; l < W; ++l) g[l] = arr.get_f64(vflat(arr, r, idx, in.nidx, l));
    emit(j, g);
  }
}

// UpdAcc (kStore = false) or StoreIdx over rows, in instruction-major lane
// order within each row; with kMul (MulUpd) the value is a * b.
template <int W, bool kTile, bool kStore, bool kMul = false>
inline void scatter_rows(const KernelLaunch& L, double* r, const VInstr& in, const Rows& rows) {
  const int j0 = kTile ? rows.j0 : 0, j1 = kTile ? rows.j1 : 1;
  const bool atomic =
      !kStore && (L.acc_atomic.empty() || L.acc_atomic[static_cast<size_t>(in.slot)] != 0);
  auto go = [&](const auto& va, const auto& vb) {
    double v[W];
    auto value = [&](int j) {
      for (int l = 0; l < W; ++l) v[l] = kMul ? va.at(j, l) * vb.at(j, l) : va.at(j, l);
      return static_cast<const double*>(v);
    };
    double* q[W];
    if (stream_lanes<W>(r, in.s, q)) {
      for (int j = j0; j < j1; ++j) {
        const int64_t t = trip_at<kTile>(r, in, rows, j);
        const double* a = value(j);
        if (kStore) {
          for (int l = 0; l < W; ++l) q[l][t] = a[l];
        } else if (atomic) {
          for (int l = 0; l < W; ++l) {
            std::atomic_ref<double>(q[l][t]).fetch_add(a[l], std::memory_order_relaxed);
          }
        } else {
          for (int l = 0; l < W; ++l) q[l][t] += a[l];
        }
      }
      return;
    }
    auto& arr = const_cast<ArrayVal&>(L.acc_array_vals[static_cast<size_t>(in.slot)]);
    for (int j = j0; j < j1; ++j) {
      int32_t ix[4];
      const int32_t* idx = row_idx<W, kTile>(in, j, ix);
      const double* a = value(j);
      for (int l = 0; l < W; ++l) {
        if (kStore) {
          arr.set_f64(vflat(arr, r, idx, in.nidx, l), a[l]);
          continue;
        }
        const int64_t at = vflat<true>(arr, r, idx, in.nidx, l);
        if (at < 0) continue;
        if (atomic) {
          atomic_add_f64(arr, at, a[l]);
        } else {
          plain_add_f64(arr, at, a[l]);
        }
      }
    }
  };
  view<W, kTile, kTile>(in, r, in.a, kTileA, rows.t0, [&](const auto& va) {
    if constexpr (kMul) {
      view<W, kTile, kTile>(in, r, in.b, kTileB, rows.t0, [&](const auto& vb) { go(va, vb); });
    } else {
      go(va, va);
    }
  });
}

template <int W>
void run_vloop(const VProgram& p, const KernelLaunch& L, double* r, const VLoop& vl);

// Executes instructions [ib, ie) of `code` once: over one batch of W lanes
// at `base` (the span form, kTile = false; lane_stride as in span), or over
// the rows of a tile (tile code, kTile = true). Constexpr lane loops,
// pre-baked operand offsets.
template <int W, bool kTile>
inline void exec(const VProgram& p, const KernelLaunch& L, double* r, const VInstr* code,
                 uint32_t ib, uint32_t ie, int64_t base, int64_t lane_stride, const Rows& rows) {
  for (uint32_t ii = ib; ii < ie; ++ii) {
    const VInstr& in = code[ii];
    switch (in.op) {
      case VOp::Mov: ew1<W, kTile>(in, r, rows, [](double x) { return x; }); break;
      case VOp::Add: ew2<W, kTile>(in, r, rows, [](double x, double y) { return x + y; }); break;
      case VOp::Sub: ew2<W, kTile>(in, r, rows, [](double x, double y) { return x - y; }); break;
      case VOp::Mul: ew2<W, kTile>(in, r, rows, [](double x, double y) { return x * y; }); break;
      case VOp::Div:
        ew2<W, kTile, true>(in, r, rows, [](double x, double y) { return x / y; });
        break;
      case VOp::IDiv:
        ew2<W, kTile>(in, r, rows, [](double x, double y) {
          const auto xi = static_cast<int64_t>(x), yi = static_cast<int64_t>(y);
          return static_cast<double>(yi == 0 ? 0 : xi / yi);
        });
        break;
      case VOp::Pow:
        ew2<W, kTile, true>(in, r, rows, [](double x, double y) { return std::pow(x, y); });
        break;
      case VOp::Min:
        ew2<W, kTile>(in, r, rows, [](double x, double y) { return std::min(x, y); });
        break;
      case VOp::Max:
        ew2<W, kTile>(in, r, rows, [](double x, double y) { return std::max(x, y); });
        break;
      case VOp::Mod:
        ew2<W, kTile>(in, r, rows, [](double x, double y) {
          const auto xi = static_cast<int64_t>(x), yi = static_cast<int64_t>(y);
          return static_cast<double>(yi == 0 ? 0 : xi % yi);
        });
        break;
      case VOp::Eq:
        ew2<W, kTile>(in, r, rows, [](double x, double y) { return x == y ? 1.0 : 0.0; });
        break;
      case VOp::Ne:
        ew2<W, kTile>(in, r, rows, [](double x, double y) { return x != y ? 1.0 : 0.0; });
        break;
      case VOp::Lt:
        ew2<W, kTile>(in, r, rows, [](double x, double y) { return x < y ? 1.0 : 0.0; });
        break;
      case VOp::Le:
        ew2<W, kTile>(in, r, rows, [](double x, double y) { return x <= y ? 1.0 : 0.0; });
        break;
      case VOp::Gt:
        ew2<W, kTile>(in, r, rows, [](double x, double y) { return x > y ? 1.0 : 0.0; });
        break;
      case VOp::Ge:
        ew2<W, kTile>(in, r, rows, [](double x, double y) { return x >= y ? 1.0 : 0.0; });
        break;
      case VOp::And:
        ew2<W, kTile>(in, r, rows,
                      [](double x, double y) { return (x != 0.0 && y != 0.0) ? 1.0 : 0.0; });
        break;
      case VOp::Or:
        ew2<W, kTile>(in, r, rows,
                      [](double x, double y) { return (x != 0.0 || y != 0.0) ? 1.0 : 0.0; });
        break;
      case VOp::Neg: ew1<W, kTile>(in, r, rows, [](double x) { return -x; }); break;
      case VOp::Exp: ew1<W, kTile, true>(in, r, rows, [](double x) { return std::exp(x); }); break;
      case VOp::Log: ew1<W, kTile, true>(in, r, rows, [](double x) { return std::log(x); }); break;
      case VOp::Sqrt:
        ew1<W, kTile, true>(in, r, rows, [](double x) { return std::sqrt(x); });
        break;
      case VOp::Sin: ew1<W, kTile, true>(in, r, rows, [](double x) { return std::sin(x); }); break;
      case VOp::Cos: ew1<W, kTile, true>(in, r, rows, [](double x) { return std::cos(x); }); break;
      case VOp::Tanh:
        ew1<W, kTile, true>(in, r, rows, [](double x) { return std::tanh(x); });
        break;
      case VOp::Abs: ew1<W, kTile>(in, r, rows, [](double x) { return std::fabs(x); }); break;
      case VOp::Sign:
        ew1<W, kTile>(in, r, rows, [](double x) { return x > 0 ? 1.0 : (x < 0 ? -1.0 : 0.0); });
        break;
      case VOp::LGamma:
        ew1<W, kTile, true>(in, r, rows, [](double x) { return std::lgamma(x); });
        break;
      case VOp::Digamma:
        ew1<W, kTile, true>(in, r, rows, [](double x) { return digamma(x); });
        break;
      case VOp::Not:
        ew1<W, kTile>(in, r, rows, [](double x) { return x == 0.0 ? 1.0 : 0.0; });
        break;
      case VOp::Trunc: ew1<W, kTile>(in, r, rows, [](double x) { return std::trunc(x); }); break;
      case VOp::Select:
        ew3<W, kTile>(in, r, rows, [](double x, double y, double z) { return x != 0.0 ? y : z; });
        break;
      case VOp::LoadElem: {
        double* d = r + in.d;
        const ArrayVal& arr = L.inputs[static_cast<size_t>(in.slot)];
        if (lane_stride == 1 && arr.elem == ScalarType::F64) {
          const double* src = arr.buf->f64() + arr.offset + base;
          for (int l = 0; l < W; ++l) d[l] = src[l];
        } else if (lane_stride == 1) {
          for (int l = 0; l < W; ++l) d[l] = arr.get_f64(base + l);
        } else if (arr.elem == ScalarType::F64) {
          const double* src = arr.buf->f64() + arr.offset + base;
          for (int l = 0; l < W; ++l) d[l] = src[static_cast<int64_t>(l) * lane_stride];
        } else {
          for (int l = 0; l < W; ++l) {
            d[l] = arr.get_f64(base + static_cast<int64_t>(l) * lane_stride);
          }
        }
        break;
      }
      case VOp::LoadIdx:
        // Current iteration index per lane — same lane layout as LoadElem.
        for (int l = 0; l < W; ++l) {
          r[in.d + l] = static_cast<double>(base + static_cast<int64_t>(l) * lane_stride);
        }
        break;
      case VOp::Gather: {
        const int64_t sd = stride<W, kTile>(in, kTileD);
        gather_rows<W, kTile>(L, r, in, rows, [&](int j, const double* g) {
          std::memcpy(r + in.d + j * sd, g, sizeof(double) * W);
        });
        break;
      }
      case VOp::UpdAcc: scatter_rows<W, kTile, false>(L, r, in, rows); break;
      case VOp::StoreIdx: scatter_rows<W, kTile, true>(L, r, in, rows); break;
      case VOp::MulUpd: scatter_rows<W, kTile, false, true>(L, r, in, rows); break;
      case VOp::StoreOut: store_result<W>(L, in.slot, base, r + in.a); break;
      case VOp::CheckIdx: {
        const int j0 = kTile ? rows.j0 : 0, j1 = kTile ? rows.j1 : 1;
        const int64_t sa = stride<W, kTile>(in, kTileA), sb = stride<W, kTile>(in, kTileB);
        for (int j = j0; j < j1; ++j) {
          const double* a = r + in.a + j * sa;
          const double* b = r + in.b + j * sb;
          for (int l = 0; l < W; ++l) {
            const auto i = static_cast<int64_t>(a[l]), ext = static_cast<int64_t>(b[l]);
            if (i < 0 || i >= ext) voob(i, 0, ext);
          }
        }
        break;
      }
      // --- superinstructions: fused pairs, every intermediate keeps its
      // own rounding (no contraction; see TU flags) ---------------------
      case VOp::MulAdd: pair<W, kTile>(in, r, rows, std::multiplies<>{}, std::plus<>{}); break;
      case VOp::MulSub: pair<W, kTile>(in, r, rows, std::multiplies<>{}, std::minus<>{}); break;
      case VOp::AddAdd: pair<W, kTile>(in, r, rows, std::plus<>{}, std::plus<>{}); break;
      case VOp::MulMul:
        pair<W, kTile>(in, r, rows, std::multiplies<>{}, std::multiplies<>{});
        break;
      case VOp::NegExp:
        ew1<W, kTile, true>(in, r, rows, [](double x) { return std::exp(-x); });
        break;
      case VOp::GatherMul:
      case VOp::GatherAdd: {
        const int64_t sd = stride<W, kTile>(in, kTileD), sb = stride<W, kTile>(in, kTileB);
        const bool mul = in.op == VOp::GatherMul, swap = (in.flags & 1) != 0;
        gather_rows<W, kTile>(L, r, in, rows, [&](int j, const double* g) {
          double* d = r + in.d + j * sd;
          const double* b = r + in.b + j * sb;
          if (mul && swap) {
            for (int l = 0; l < W; ++l) d[l] = b[l] * g[l];
          } else if (mul) {
            for (int l = 0; l < W; ++l) d[l] = g[l] * b[l];
          } else if (swap) {
            for (int l = 0; l < W; ++l) d[l] = b[l] + g[l];
          } else {
            for (int l = 0; l < W; ++l) d[l] = g[l] + b[l];
          }
        });
        break;
      }
      case VOp::MulStore: {
        double t[W];
        for (int l = 0; l < W; ++l) t[l] = r[in.a + l] * r[in.b + l];
        store_result<W>(L, in.slot, base, t);
        break;
      }
      case VOp::AddStore: {
        double t[W];
        for (int l = 0; l < W; ++l) t[l] = r[in.a + l] + r[in.b + l];
        store_result<W>(L, in.slot, base, t);
        break;
      }
      // --- inline SOAC block (span form only: tile code has none) -------
      case VOp::Loop:
        if constexpr (!kTile) {
          const VLoop& vl = p.loops[static_cast<size_t>(in.slot)];
          run_vloop<W>(p, L, r, vl);
          ii = vl.body_end - 1;  // ++ii lands on body_end
        }
        break;
    }
  }
}

// Trips [t_begin, t_end) of an InlineLoop in trip order, one body dispatch
// each.
template <int W>
void run_trips(const VProgram& p, const KernelLaunch& L, double* r, const VLoop& vl,
               int64_t t_begin, int64_t t_end) {
  for (int64_t t = t_begin; t < t_end; ++t) {
    const auto tv = static_cast<double>(t);
    for (int l = 0; l < W; ++l) r[vl.ivar + l] = tv;
    span<W>(p, L, r, 0, 1, vl.body_begin, vl.body_end, 1);
    ++t_dispatches;
  }
}

// One tile: the map part instruction-major, then the fold part — one pass
// in trip order when fold_major, else once per trip.
template <int W>
void run_tile(const VProgram& p, const KernelLaunch& L, double* r, const VLoop& vl,
              const Rows& rows) {
  const VInstr* tc = p.tile_code.data();
  if (vl.ivar_tile >= 0) {
    for (int j = rows.j0; j < rows.j1; ++j) {
      const auto tv = static_cast<double>(rows.t0 + j);
      for (int l = 0; l < W; ++l) r[vl.ivar_tile + j * W + l] = tv;
    }
  }
  if (vl.tile_mid > vl.tile_begin) {
    exec<W, true>(p, L, r, tc, vl.tile_begin, vl.tile_mid, 0, 1, rows);
    ++t_dispatches;
  }
  if (vl.tile_mid == vl.tile_end) return;
  if (vl.fold_major) {
    exec<W, true>(p, L, r, tc, vl.tile_mid, vl.tile_end, 0, 1, rows);
    ++t_dispatches;
    return;
  }
  for (int j = rows.j0; j < rows.j1; ++j) {
    exec<W, true>(p, L, r, tc, vl.tile_mid, vl.tile_end, 0, 1, Rows{rows.t0, j, j + 1});
    ++t_dispatches;
  }
}

// Copies the carries (acc, then accs2) into the save block, or back.
template <int W>
void copy_carries(double* r, const VLoop& vl, bool save) {
  auto copy = [&](int32_t reg, int32_t k) {
    double* c = r + reg;
    double* s = r + vl.save + k * W;
    std::memcpy(save ? s : c, save ? c : s, sizeof(double) * W);
  };
  if (vl.acc >= 0) copy(vl.acc, 0);
  for (size_t j = 0; j < vl.accs2.size(); ++j) copy(vl.accs2[j], static_cast<int32_t>(j) + 1);
}

// The trips of a tiled loop whose streams all bound, T at a time (a
// whole_trip loop's one tile is capped only to keep rows an int).
template <int W>
void run_tiles(const VProgram& p, const KernelLaunch& L, double* r, const VLoop& vl,
               int64_t trip) {
  const int64_t T = vl.whole_trip ? int64_t{1} << 30 : tile_trips(W);
  for (int64_t t0 = 0; t0 < trip; t0 += T) {
    const Rows rows{t0, 0, static_cast<int>(std::min<int64_t>(T, trip - t0))};
    if (!vl.may_throw) {
      run_tile<W>(p, L, r, vl, rows);
      continue;
    }
    copy_carries<W>(r, vl, true);
    try {
      run_tile<W>(p, L, r, vl, rows);
    } catch (const ShapeError&) {
      // The body has no memory effect: replaying the tile per trip from its
      // start raises the register machine's error at its point.
      copy_carries<W>(r, vl, false);
      run_trips<W>(p, L, r, vl, t0, t0 + rows.j1);
    }
  }
}

// InlineLoop execution: seed the carries, bind the loop's streams once, then
// run the trips — by tiles when the body has tile code and every stream it
// reads bound, else one trip at a time.
template <int W>
void run_vloop(const VProgram& p, const KernelLaunch& L, double* r, const VLoop& vl) {
  const auto trip = static_cast<int64_t>(r[vl.trip]);
  if (vl.acc >= 0) {
    for (int l = 0; l < W; ++l) r[vl.acc + l] = r[vl.neutral + l];
  }
  for (size_t j = 0; j < vl.accs2.size(); ++j) {
    for (int l = 0; l < W; ++l) r[vl.accs2[j] + l] = r[vl.neutrals2[j] + l];
  }
  if (trip <= 0) return;
  bind_streams<W>(L, r, vl);
  if (vl.tile_end > vl.tile_begin && all_bound(r, vl.bound)) {
    run_tiles<W>(p, L, r, vl, trip);
  } else {
    run_trips<W>(p, L, r, vl, 0, trip);
  }
}

} // namespace

void prepare(const VProgram& p, const KernelLaunch& L, double* r) {
  const int W = p.W;
  std::fill(r, r + static_cast<size_t>(p.num_regs) * static_cast<size_t>(W), 0.0);
  for (const VInit& in : p.prologue) {
    double v = in.imm;
    switch (in.kind) {
      case VInit::Kind::Imm: break;
      case VInit::Kind::FreeScalar: v = L.free_scalar_vals[static_cast<size_t>(in.src)]; break;
      case VInit::Kind::ArrayLen: {
        const ArrayVal& arr = L.free_array_vals[static_cast<size_t>(in.src)];
        const auto dim = static_cast<size_t>(in.dim);
        v = static_cast<double>(dim < arr.shape.size() ? arr.shape[dim] : 0);
        break;
      }
    }
    for (int l = 0; l < W; ++l) r[in.off + l] = v;
  }
}

// One exec per batch of W lanes.
template <int W>
void span(const VProgram& p, const KernelLaunch& L, double* r, int64_t lo, int64_t hi,
          uint32_t ib, uint32_t ie, int64_t lane_stride) {
  const int64_t advance = lane_stride == 1 ? W : 1;
  for (int64_t base = lo; base < hi; base += advance) {
    exec<W, false>(p, L, r, p.code.data(), ib, ie, base, lane_stride, Rows{});
  }
}

template void span<1>(const VProgram&, const KernelLaunch&, double*, int64_t, int64_t, uint32_t,
                      uint32_t, int64_t);
template void span<kWide>(const VProgram&, const KernelLaunch&, double*, int64_t, int64_t,
                          uint32_t, uint32_t, int64_t);

DispatchTally::DispatchTally(std::atomic<uint64_t>* s) : sink(s) { t_dispatches = 0; }

DispatchTally::~DispatchTally() {
  if (sink != nullptr && t_dispatches != 0) {
    sink->fetch_add(t_dispatches, std::memory_order_relaxed);
  }
}

} // namespace npad::rt::vexec
