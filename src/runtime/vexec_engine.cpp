// The vexec engine: the handlers and drivers that execute a lowered
// VProgram (runtime/vexec.hpp). Every driver here mirrors the corresponding
// KernelLaunch method in runtime/kernel.cpp bit-exactly: same batch/tail
// splits, same fold lane-blocking and combine order, same instruction-major
// lane order for memory effects. The only differences are mechanical —
// operands are pre-baked element offsets, launch-invariant registers are
// broadcast from a compact prologue list instead of re-dispatched ConstF /
// LoadLen cases, and fused handlers execute the same arithmetic with each
// intermediate's own IEEE rounding (the project builds with
// -ffp-contract=off, so no step ever contracts to a hardware FMA).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "runtime/vexec.hpp"
#include "support/error.hpp"

namespace npad::rt::vexec {

namespace {

// Same asymptotic-series digamma as runtime/kernel.cpp (bit-identical).
inline double digamma(double x) {
  double result = 0.0;
  while (x < 6.0) {
    result -= 1.0 / x;
    x += 1.0;
  }
  const double inv = 1.0 / x, inv2 = inv * inv;
  result += std::log(x) - 0.5 * inv -
            inv2 * (1.0 / 12 - inv2 * (1.0 / 120 - inv2 * (1.0 / 252 - inv2 / 240)));
  return result;
}

// Thread-local scratch arena for register files — vexec launches are not
// reentrant on a thread (kernels never launch kernels), so one arena per
// thread serves every driver with zero per-launch allocation.
inline double* arena(size_t n) {
  thread_local std::vector<double> buf;
  if (buf.size() < n) buf.resize(n);
  return buf.data();
}

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

// Applies the prologue (launch-invariant broadcasts) to a fresh register
// file. `frees`/`arrays` are passed raw so the scalar-block driver can feed
// its flat free-scalar buffer.
inline void apply_prologue(const VProgram& p, const double* frees, const ArrayVal* arrays,
                           double* r) {
  const int W = p.W;
  for (const VInit& in : p.prologue) {
    double v = in.imm;
    switch (in.kind) {
      case VInit::Kind::Imm: break;
      case VInit::Kind::FreeScalar: v = frees[in.src]; break;
      case VInit::Kind::ArrayLen: {
        const ArrayVal& arr = arrays[in.src];
        const auto dim = static_cast<size_t>(in.dim);
        v = static_cast<double>(dim < arr.shape.size() ? arr.shape[dim] : 0);
        break;
      }
    }
    for (int l = 0; l < W; ++l) r[in.off + l] = v;
  }
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

// Binds every stream of `vl` for a loop entry of `trip` > 0 steps: per lane,
// the row pointer of a[lead..., 0..trip), written into the stream's register
// as raw pointer bits. A stream that does not fit, or a lane whose lead is
// out of range, leaves null in lane 0: its instructions then take the
// checked per-lane path, which raises the register machine's error at the
// register machine's point (an UpdAcc skips the lane, as the register
// machine does). Returns true when every stream bound.
template <int W>
bool bind_streams(const KernelLaunch& L, double* r, const VLoop& vl, int64_t trip) {
  bool all = true;
  for (const VStream& st : vl.streams) {
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
    all = all && ok;
  }
  return all;
}

// The lane pointers a stream instruction's loop bound into register `s`;
// false when the instruction has no stream or its stream did not bind.
template <int W>
inline bool stream_lanes(const double* r, int32_t s, double* (&q)[W]) {
  if (s < 0) return false;
  std::memcpy(q, r + s, sizeof q);
  return q[0] != nullptr;
}

// The trip index of a stream instruction: its trailing index register is
// its loop's variable, equal in every lane.
inline int64_t stream_trip(const double* r, const VInstr& in) {
  return static_cast<int64_t>(r[in.idx[in.nidx - 1]]);
}

template <int W>
void vspan(const VProgram& p, const KernelLaunch& L, double* r, int64_t lo, int64_t hi,
           uint32_t ib, uint32_t ie, int64_t lane_stride);

// The trips of an InlineLoop whose streams are bound: identical to the
// KOp::InlineLoop case of exec_span.
template <int W>
void run_trips(const VProgram& p, const KernelLaunch& L, double* r, const VLoop& vl,
               int64_t trip) {
  if (vl.acc >= 0) {
    for (int l = 0; l < W; ++l) r[vl.acc + l] = r[vl.neutral + l];
  }
  for (size_t j = 0; j < vl.accs2.size(); ++j) {
    for (int l = 0; l < W; ++l) r[vl.accs2[j] + l] = r[vl.neutrals2[j] + l];
  }
  for (int64_t t = 0; t < trip; ++t) {
    const auto tv = static_cast<double>(t);
    for (int l = 0; l < W; ++l) r[vl.ivar + l] = tv;
    vspan<W>(p, L, r, 0, 1, vl.body_begin, vl.body_end, 1);
  }
}

// Generic InlineLoop execution: bind the body's streams once, then run the
// trips.
template <int W>
void run_vloop(const VProgram& p, const KernelLaunch& L, double* r, const VLoop& vl) {
  const auto trip = static_cast<int64_t>(r[vl.trip]);
  if (trip > 0) bind_streams<W>(L, r, vl, trip);
  run_trips<W>(p, L, r, vl, trip);
}

// Fused dot-product fold: per lane, acc = fold(acc, A[t] * B[t]) over the
// bound streams A = streams[0], B = streams[1] — one handler instead of
// trip * 5 dispatches, with the same per-lane value chain (product then
// fold-add, operand order preserved via dot_flags) as the generic body. A
// one-stream fold adds A[t] itself. A stream that does not bind takes the
// generic trips, whose checked Gather raises the register machine's error.
template <int W>
void run_dot_loop(const VProgram& p, const KernelLaunch& L, double* r, const VLoop& vl) {
  const auto trip = static_cast<int64_t>(r[vl.trip]);
  if (trip <= 0 || !bind_streams<W>(L, r, vl, trip)) {
    run_trips<W>(p, L, r, vl, trip);
    return;
  }
  const bool one = vl.streams.size() == 1;
  double* pa[W];
  double* pb[W];
  std::memcpy(pa, r + vl.streams[0].reg, sizeof pa);
  std::memcpy(pb, r + vl.streams[one ? 0 : 1].reg, sizeof pb);
  double acc[W];
  for (int l = 0; l < W; ++l) acc[l] = r[vl.neutral + l];
  if (one) {
    if (vl.dot_flags & 2) {  // acc = a + acc
      for (int64_t t = 0; t < trip; ++t) {
        for (int l = 0; l < W; ++l) acc[l] = pa[l][t] + acc[l];
      }
    } else {  // acc = acc + a
      for (int64_t t = 0; t < trip; ++t) {
        for (int l = 0; l < W; ++l) acc[l] = acc[l] + pa[l][t];
      }
    }
    for (int l = 0; l < W; ++l) r[vl.acc + l] = acc[l];
    return;
  }
  switch (vl.dot_flags & 3) {
    case 0:  // prod = a*b; acc = acc + prod
      for (int64_t t = 0; t < trip; ++t) {
        for (int l = 0; l < W; ++l) {
          const double pr = pa[l][t] * pb[l][t];
          acc[l] = acc[l] + pr;
        }
      }
      break;
    case 1:  // prod = b*a; acc = acc + prod
      for (int64_t t = 0; t < trip; ++t) {
        for (int l = 0; l < W; ++l) {
          const double pr = pb[l][t] * pa[l][t];
          acc[l] = acc[l] + pr;
        }
      }
      break;
    case 2:  // prod = a*b; acc = prod + acc
      for (int64_t t = 0; t < trip; ++t) {
        for (int l = 0; l < W; ++l) {
          const double pr = pa[l][t] * pb[l][t];
          acc[l] = pr + acc[l];
        }
      }
      break;
    default:  // prod = b*a; acc = prod + acc
      for (int64_t t = 0; t < trip; ++t) {
        for (int l = 0; l < W; ++l) {
          const double pr = pb[l][t] * pa[l][t];
          acc[l] = pr + acc[l];
        }
      }
      break;
  }
  for (int l = 0; l < W; ++l) r[vl.acc + l] = acc[l];
}

// Fused dual-scatter map loop (the transpose-of-dot shape): per trip, two
// gathered streams, two invariant-scaled products, two UpdAcc streams —
// memory effects in the generic body's instruction-major lane order.
template <int W>
void run_axpy2_loop(const VProgram& p, const KernelLaunch& L, double* r, const VLoop& vl) {
  const auto trip = static_cast<int64_t>(r[vl.trip]);
  if (trip <= 0 || !bind_streams<W>(L, r, vl, trip)) {
    run_trips<W>(p, L, r, vl, trip);
    return;
  }
  double* p1[W];
  double* p2[W];
  double* q1[W];
  double* q2[W];
  std::memcpy(p1, r + vl.streams[0].reg, sizeof p1);
  std::memcpy(p2, r + vl.streams[1].reg, sizeof p2);
  std::memcpy(q1, r + vl.streams[2].reg, sizeof q1);
  std::memcpy(q2, r + vl.streams[3].reg, sizeof q2);
  const auto at = [&](const VStream& st) {
    return L.acc_atomic.empty() || L.acc_atomic[static_cast<size_t>(st.slot)] != 0;
  };
  const bool at1 = at(vl.streams[2]), at2 = at(vl.streams[3]);
  double s1[W], s2[W];
  for (int l = 0; l < W; ++l) {
    s1[l] = r[vl.s1 + l];
    s2[l] = r[vl.s2 + l];
  }
  const uint8_t fl = vl.ax_flags;
  for (int64_t t = 0; t < trip; ++t) {
    double g1[W], g2[W], m1[W], m2[W];
    for (int l = 0; l < W; ++l) g1[l] = p1[l][t];
    for (int l = 0; l < W; ++l) g2[l] = p2[l][t];
    const double* x1 = (fl & 1) ? g1 : g2;
    const double* x2 = (fl & 4) ? g1 : g2;
    if (fl & 2) { for (int l = 0; l < W; ++l) m1[l] = s1[l] * x1[l]; }
    else        { for (int l = 0; l < W; ++l) m1[l] = x1[l] * s1[l]; }
    if (fl & 8) { for (int l = 0; l < W; ++l) m2[l] = s2[l] * x2[l]; }
    else        { for (int l = 0; l < W; ++l) m2[l] = x2[l] * s2[l]; }
    const double* v1 = (fl & 16) ? m1 : m2;
    const double* v2 = (fl & 16) ? m2 : m1;
    if (at1) {
      for (int l = 0; l < W; ++l) {
        std::atomic_ref<double>(q1[l][t]).fetch_add(v1[l], std::memory_order_relaxed);
      }
    } else {
      for (int l = 0; l < W; ++l) q1[l][t] += v1[l];
    }
    if (at2) {
      for (int l = 0; l < W; ++l) {
        std::atomic_ref<double>(q2[l][t]).fetch_add(v2[l], std::memory_order_relaxed);
      }
    } else {
      for (int l = 0; l < W; ++l) q2[l][t] += v2[l];
    }
  }
}

// d = f(a) per lane, or f(a[0]) once and broadcast when the op is
// kUniform (every lane's operand holds the same bits).
template <int W, class F>
inline void lanes1(const VInstr& in, double* d, const double* a, F f) {
  if (in.flags & kUniform) {
    const double v = f(a[0]);
    for (int l = 0; l < W; ++l) d[l] = v;
  } else {
    for (int l = 0; l < W; ++l) d[l] = f(a[l]);
  }
}

template <int W, class F>
inline void lanes2(const VInstr& in, double* d, const double* a, const double* b, F f) {
  if (in.flags & kUniform) {
    const double v = f(a[0], b[0]);
    for (int l = 0; l < W; ++l) d[l] = v;
  } else {
    for (int l = 0; l < W; ++l) d[l] = f(a[l], b[l]);
  }
}

// The gathered value per lane of a Gather-form instruction: through its
// bound stream, else the checked address path.
template <int W>
inline void gather_lanes(const KernelLaunch& L, const double* r, const VInstr& in, double* g) {
  double* q[W];
  if (stream_lanes<W>(r, in.s, q)) {
    const int64_t t = stream_trip(r, in);
    for (int l = 0; l < W; ++l) g[l] = q[l][t];
    return;
  }
  const ArrayVal& arr = L.free_array_vals[static_cast<size_t>(in.slot)];
  for (int l = 0; l < W; ++l) g[l] = arr.get_f64(vflat(arr, r, in.idx, in.nidx, l));
}

// The batched span over a lowered program: one dispatch per VInstr per
// batch, constexpr lane loops, pre-baked operand offsets. Lane layout
// (lane_stride) is exactly exec_span's: 1 = maps/scans (batches advance by
// W, contiguous LoadElem/StoreOut strips), blk = reductions (lane l folds
// the contiguous block starting at lo + l*blk, batches advance by 1).
template <int W>
void vspan(const VProgram& p, const KernelLaunch& L, double* r, int64_t lo, int64_t hi,
           uint32_t ib, uint32_t ie, int64_t lane_stride) {
  const int64_t advance = lane_stride == 1 ? W : 1;
  const VInstr* code = p.code.data();
  for (int64_t base = lo; base < hi; base += advance) {
    for (uint32_t ii = ib; ii < ie; ++ii) {
      const VInstr& in = code[ii];
      double* d = r + in.d;
      const double* a = in.a >= 0 ? r + in.a : nullptr;
      const double* b = in.b >= 0 ? r + in.b : nullptr;
      const double* c = in.c >= 0 ? r + in.c : nullptr;
      switch (in.op) {
        case VOp::Mov: for (int l = 0; l < W; ++l) d[l] = a[l]; break;
        case VOp::Add: for (int l = 0; l < W; ++l) d[l] = a[l] + b[l]; break;
        case VOp::Sub: for (int l = 0; l < W; ++l) d[l] = a[l] - b[l]; break;
        case VOp::Mul: for (int l = 0; l < W; ++l) d[l] = a[l] * b[l]; break;
        case VOp::Div: lanes2<W>(in, d, a, b, [](double x, double y) { return x / y; }); break;
        case VOp::IDiv:
          for (int l = 0; l < W; ++l) {
            const auto x = static_cast<int64_t>(a[l]), y = static_cast<int64_t>(b[l]);
            d[l] = static_cast<double>(y == 0 ? 0 : x / y);
          }
          break;
        case VOp::Pow:
          lanes2<W>(in, d, a, b, [](double x, double y) { return std::pow(x, y); });
          break;
        case VOp::Min: for (int l = 0; l < W; ++l) d[l] = std::min(a[l], b[l]); break;
        case VOp::Max: for (int l = 0; l < W; ++l) d[l] = std::max(a[l], b[l]); break;
        case VOp::Mod:
          for (int l = 0; l < W; ++l) {
            const auto x = static_cast<int64_t>(a[l]), y = static_cast<int64_t>(b[l]);
            d[l] = static_cast<double>(y == 0 ? 0 : x % y);
          }
          break;
        case VOp::Eq: for (int l = 0; l < W; ++l) d[l] = a[l] == b[l] ? 1.0 : 0.0; break;
        case VOp::Ne: for (int l = 0; l < W; ++l) d[l] = a[l] != b[l] ? 1.0 : 0.0; break;
        case VOp::Lt: for (int l = 0; l < W; ++l) d[l] = a[l] < b[l] ? 1.0 : 0.0; break;
        case VOp::Le: for (int l = 0; l < W; ++l) d[l] = a[l] <= b[l] ? 1.0 : 0.0; break;
        case VOp::Gt: for (int l = 0; l < W; ++l) d[l] = a[l] > b[l] ? 1.0 : 0.0; break;
        case VOp::Ge: for (int l = 0; l < W; ++l) d[l] = a[l] >= b[l] ? 1.0 : 0.0; break;
        case VOp::And:
          for (int l = 0; l < W; ++l) d[l] = (a[l] != 0.0 && b[l] != 0.0) ? 1.0 : 0.0;
          break;
        case VOp::Or:
          for (int l = 0; l < W; ++l) d[l] = (a[l] != 0.0 || b[l] != 0.0) ? 1.0 : 0.0;
          break;
        case VOp::Neg: for (int l = 0; l < W; ++l) d[l] = -a[l]; break;
        case VOp::Exp: lanes1<W>(in, d, a, [](double x) { return std::exp(x); }); break;
        case VOp::Log: lanes1<W>(in, d, a, [](double x) { return std::log(x); }); break;
        case VOp::Sqrt: lanes1<W>(in, d, a, [](double x) { return std::sqrt(x); }); break;
        case VOp::Sin: lanes1<W>(in, d, a, [](double x) { return std::sin(x); }); break;
        case VOp::Cos: lanes1<W>(in, d, a, [](double x) { return std::cos(x); }); break;
        case VOp::Tanh: lanes1<W>(in, d, a, [](double x) { return std::tanh(x); }); break;
        case VOp::Abs: for (int l = 0; l < W; ++l) d[l] = std::fabs(a[l]); break;
        case VOp::Sign:
          for (int l = 0; l < W; ++l) d[l] = a[l] > 0 ? 1.0 : (a[l] < 0 ? -1.0 : 0.0);
          break;
        case VOp::LGamma: lanes1<W>(in, d, a, [](double x) { return std::lgamma(x); }); break;
        case VOp::Digamma: lanes1<W>(in, d, a, [](double x) { return digamma(x); }); break;
        case VOp::Not: for (int l = 0; l < W; ++l) d[l] = a[l] == 0.0 ? 1.0 : 0.0; break;
        case VOp::Trunc: for (int l = 0; l < W; ++l) d[l] = std::trunc(a[l]); break;
        case VOp::Select:
          for (int l = 0; l < W; ++l) d[l] = a[l] != 0.0 ? b[l] : c[l];
          break;
        case VOp::LoadElem: {
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
            d[l] = static_cast<double>(base + static_cast<int64_t>(l) * lane_stride);
          }
          break;
        case VOp::Gather: gather_lanes<W>(L, r, in, d); break;
        case VOp::UpdAcc: {
          const bool atomic =
              L.acc_atomic.empty() || L.acc_atomic[static_cast<size_t>(in.slot)] != 0;
          double* q[W];
          if (stream_lanes<W>(r, in.s, q)) {
            const int64_t t = stream_trip(r, in);
            if (atomic) {
              for (int l = 0; l < W; ++l) {
                std::atomic_ref<double>(q[l][t]).fetch_add(a[l], std::memory_order_relaxed);
              }
            } else {
              for (int l = 0; l < W; ++l) q[l][t] += a[l];
            }
            break;
          }
          auto& arr = const_cast<ArrayVal&>(L.acc_array_vals[static_cast<size_t>(in.slot)]);
          for (int l = 0; l < W; ++l) {
            const int64_t at = vflat<true>(arr, r, in.idx, in.nidx, l);
            if (at < 0) continue;
            if (atomic) {
              atomic_add_f64(arr, at, a[l]);
            } else {
              plain_add_f64(arr, at, a[l]);
            }
          }
          break;
        }
        case VOp::StoreIdx: {
          double* q[W];
          if (stream_lanes<W>(r, in.s, q)) {
            const int64_t t = stream_trip(r, in);
            for (int l = 0; l < W; ++l) q[l][t] = a[l];
            break;
          }
          auto& arr = const_cast<ArrayVal&>(L.acc_array_vals[static_cast<size_t>(in.slot)]);
          for (int l = 0; l < W; ++l) arr.set_f64(vflat(arr, r, in.idx, in.nidx, l), a[l]);
          break;
        }
        case VOp::StoreOut: store_result<W>(L, in.slot, base, a); break;
        case VOp::CheckIdx:
          for (int l = 0; l < W; ++l) {
            const auto i = static_cast<int64_t>(a[l]), ext = static_cast<int64_t>(b[l]);
            if (i < 0 || i >= ext) voob(i, 0, ext);
          }
          break;
        // --- superinstructions: fused pairs, every intermediate keeps its
        // own rounding (no contraction; see TU flags) -------------------
        case VOp::MulAdd:
          if (in.flags & 1) {
            for (int l = 0; l < W; ++l) { const double t = a[l] * b[l]; d[l] = c[l] + t; }
          } else {
            for (int l = 0; l < W; ++l) { const double t = a[l] * b[l]; d[l] = t + c[l]; }
          }
          break;
        case VOp::MulSub:
          if (in.flags & 1) {
            for (int l = 0; l < W; ++l) { const double t = a[l] * b[l]; d[l] = c[l] - t; }
          } else {
            for (int l = 0; l < W; ++l) { const double t = a[l] * b[l]; d[l] = t - c[l]; }
          }
          break;
        case VOp::AddAdd:
          if (in.flags & 1) {
            for (int l = 0; l < W; ++l) { const double t = a[l] + b[l]; d[l] = c[l] + t; }
          } else {
            for (int l = 0; l < W; ++l) { const double t = a[l] + b[l]; d[l] = t + c[l]; }
          }
          break;
        case VOp::MulMul:
          if (in.flags & 1) {
            for (int l = 0; l < W; ++l) { const double t = a[l] * b[l]; d[l] = c[l] * t; }
          } else {
            for (int l = 0; l < W; ++l) { const double t = a[l] * b[l]; d[l] = t * c[l]; }
          }
          break;
        case VOp::NegExp: lanes1<W>(in, d, a, [](double x) { return std::exp(-x); }); break;
        case VOp::GatherMul: {
          double g[W];
          gather_lanes<W>(L, r, in, g);
          if (in.flags & 1) {
            for (int l = 0; l < W; ++l) d[l] = b[l] * g[l];
          } else {
            for (int l = 0; l < W; ++l) d[l] = g[l] * b[l];
          }
          break;
        }
        case VOp::GatherAdd: {
          double g[W];
          gather_lanes<W>(L, r, in, g);
          if (in.flags & 1) {
            for (int l = 0; l < W; ++l) d[l] = b[l] + g[l];
          } else {
            for (int l = 0; l < W; ++l) d[l] = g[l] + b[l];
          }
          break;
        }
        case VOp::MulStore: {
          double t[W];
          for (int l = 0; l < W; ++l) t[l] = a[l] * b[l];
          store_result<W>(L, in.slot, base, t);
          break;
        }
        case VOp::AddStore: {
          double t[W];
          for (int l = 0; l < W; ++l) t[l] = a[l] + b[l];
          store_result<W>(L, in.slot, base, t);
          break;
        }
        // --- inline SOAC blocks ----------------------------------------
        case VOp::Loop: {
          const VLoop& vl = p.loops[static_cast<size_t>(in.slot)];
          run_vloop<W>(p, L, r, vl);
          ii = vl.body_end - 1;  // ++ii lands on body_end
          break;
        }
        case VOp::DotLoop: {
          const VLoop& vl = p.loops[static_cast<size_t>(in.slot)];
          run_dot_loop<W>(p, L, r, vl);
          ii = vl.body_end - 1;
          break;
        }
        case VOp::Axpy2Loop: {
          const VLoop& vl = p.loops[static_cast<size_t>(in.slot)];
          run_axpy2_loop<W>(p, L, r, vl);
          ii = vl.body_end - 1;
          break;
        }
      }
    }
  }
}

// Runs the whole wide program over [lo, hi) with compile-time lane counts
// for the supported widths (lookup only produces wide programs for these).
inline void wide_span(const VProgram& p, const KernelLaunch& L, double* r, int64_t lo,
                      int64_t hi, int64_t lane_stride) {
  const auto ie = static_cast<uint32_t>(p.code.size());
  switch (p.W) {
    case 4: vspan<4>(p, L, r, lo, hi, 0, ie, lane_stride); break;
    case 8: vspan<8>(p, L, r, lo, hi, 0, ie, lane_stride); break;
    case 16: vspan<16>(p, L, r, lo, hi, 0, ie, lane_stride); break;
    default: break;  // unreachable: lookup rejects other widths
  }
}

// Zeroed register file + prologue for one program.
inline double* fresh_file(const VProgram& p, const KernelLaunch& L, double* r) {
  std::fill(r, r + static_cast<size_t>(p.num_regs) * static_cast<size_t>(p.W), 0.0);
  apply_prologue(p, L.free_scalar_vals.data(), L.free_array_vals.data(), r);
  return r;
}

// acc = op(acc, other) on a prepared scalar file (combine_on's mirror).
inline void vcombine(const Entry& e, const KernelLaunch& L, double* r1, double* acc,
                     const double* other) {
  const VProgram& n = e.narrow;
  for (size_t j = 0; j < n.red_acc_off.size(); ++j) {
    r1[n.red_acc_off[j]] = acc[j];
    r1[n.red_elem_off[j]] = other[j];
  }
  vspan<1>(n, L, r1, 0, 1, n.fold_begin, n.fold_end, 1);
  for (size_t j = 0; j < n.red_acc_off.size(); ++j) acc[j] = r1[n.red_acc_off[j]];
}

} // namespace

// ---- drivers ----------------------------------------------------------------

void run(const Entry& e, const KernelLaunch& L, int64_t lo, int64_t hi) {
  const int W = L.lanes;
  if (e.wide.W == W && W > 1 && hi - lo >= W) {
    if (L.batched_spans != nullptr) L.batched_spans->fetch_add(1, std::memory_order_relaxed);
    const int64_t full = lo + ((hi - lo) / W) * W;
    double* rw = arena(static_cast<size_t>(e.wide.num_regs) * static_cast<size_t>(W) +
                       static_cast<size_t>(e.narrow.num_regs));
    fresh_file(e.wide, L, rw);
    wide_span(e.wide, L, rw, lo, full, 1);
    lo = full;
    if (lo < hi) {
      double* r1 = rw + static_cast<size_t>(e.wide.num_regs) * static_cast<size_t>(W);
      fresh_file(e.narrow, L, r1);
      vspan<1>(e.narrow, L, r1, lo, hi, 0, static_cast<uint32_t>(e.narrow.code.size()), 1);
    }
    return;
  }
  if (lo < hi) {
    double* r1 = fresh_file(e.narrow, L, arena(static_cast<size_t>(e.narrow.num_regs)));
    vspan<1>(e.narrow, L, r1, lo, hi, 0, static_cast<uint32_t>(e.narrow.code.size()), 1);
  }
}

// run_reduce's mirror: lane-blocked wide span, lane combines in block
// order, scalar tail.
void run_reduce(const Entry& e, const KernelLaunch& L, int64_t lo, int64_t hi,
                double* partials) {
  const VProgram& n = e.narrow;
  const size_t nred = n.red_acc_off.size();
  const size_t n1 = static_cast<size_t>(n.num_regs);
  const int W = L.lanes;
  const bool wide = W > 1 && hi - lo >= W && e.wide.W == W;
  const size_t nw = wide ? static_cast<size_t>(e.wide.num_regs) * static_cast<size_t>(W) : 0;
  double* r1 = arena(n1 + nw + nred);
  double* rw = r1 + n1;
  double* lane = rw + nw;
  fresh_file(n, L, r1);
  if (wide) {
    if (L.batched_spans != nullptr) L.batched_spans->fetch_add(1, std::memory_order_relaxed);
    const VProgram& w = e.wide;
    fresh_file(w, L, rw);
    for (size_t j = 0; j < nred; ++j) {
      for (int l = 0; l < W; ++l) rw[w.red_acc_off[j] + l] = L.red_neutral[j];
    }
    const int64_t blk = (hi - lo) / W;
    wide_span(w, L, rw, lo, lo + blk, blk);
    lo += blk * W;
    for (int l = 0; l < W; ++l) {
      for (size_t j = 0; j < nred; ++j) lane[j] = rw[w.red_acc_off[j] + l];
      vcombine(e, L, r1, partials, lane);
    }
  }
  if (lo < hi) {
    for (size_t j = 0; j < nred; ++j) r1[n.red_acc_off[j]] = partials[j];
    vspan<1>(n, L, r1, lo, hi, 0, static_cast<uint32_t>(n.code.size()), 1);
    for (size_t j = 0; j < nred; ++j) partials[j] = r1[n.red_acc_off[j]];
  }
}

void run_scan_chunk(const Entry& e, const KernelLaunch& L, int64_t lo, int64_t hi,
                    double* carry) {
  const VProgram& n = e.narrow;
  double* r1 = fresh_file(n, L, arena(static_cast<size_t>(n.num_regs)));
  for (size_t j = 0; j < n.red_acc_off.size(); ++j) r1[n.red_acc_off[j]] = carry[j];
  if (lo < hi) {
    vspan<1>(n, L, r1, lo, hi, 0, static_cast<uint32_t>(n.code.size()), 1);
  }
  for (size_t j = 0; j < n.red_acc_off.size(); ++j) carry[j] = r1[n.red_acc_off[j]];
}

int64_t run_hist_chunk(const Entry& e, const KernelLaunch& L, int64_t lo, int64_t hi,
                       double* bins, int64_t m, const int64_t* inds) {
  const VProgram& n = e.narrow;
  const int32_t acc_off = n.red_acc_off[0];
  double* r1 = fresh_file(n, L, arena(static_cast<size_t>(n.num_regs)));
  int64_t performed = 0;
  for (int64_t i = lo; i < hi; ++i) {
    const int64_t b = inds[i];
    if (b < 0 || b >= m) continue;
    vspan<1>(n, L, r1, i, i + 1, 0, n.fold_begin, 1);
    r1[acc_off] = bins[b];
    vspan<1>(n, L, r1, 0, 1, n.fold_begin, n.fold_end, 1);
    bins[b] = r1[acc_off];
    ++performed;
  }
  return performed;
}

void run_scalar(const Entry& e, const Kernel& k, const double* frees, double* out) {
  const VProgram& n = e.narrow;
  KernelLaunch L;
  L.k = &k;
  L.scalar_out = out;
  double* r1 = arena(static_cast<size_t>(n.num_regs));
  std::fill(r1, r1 + static_cast<size_t>(n.num_regs), 0.0);
  apply_prologue(n, frees, nullptr, r1);
  vspan<1>(n, L, r1, 0, 1, 0, static_cast<uint32_t>(n.code.size()), 1);
}

} // namespace npad::rt::vexec
