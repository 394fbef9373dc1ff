// AVX2 vexec engine build: the same engine body compiled with
// -mavx2 -mfma so the constexpr lane loops vectorize to 4-wide ymm ops
// (gathers and atomics stay scalar). -ffp-contract=off still applies —
// mul+add pairs must NOT contract to vfmadd, or results would diverge from
// the portable/scalar tiers. The TU compiles to nothing unless CMake
// detected x86-64 AVX2 support and defined NPAD_VEXEC_HAVE_AVX2 for it;
// select_ops() additionally checks the running CPU before dispatching here.

#ifdef NPAD_VEXEC_HAVE_AVX2

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "runtime/vexec.hpp"
#include "support/error.hpp"

namespace npad::rt::vexec::avx2 {
#define NPAD_VEXEC_NAME "avx2"
#include "runtime/vexec_engine.inc"
#undef NPAD_VEXEC_NAME
} // namespace npad::rt::vexec::avx2

#endif // NPAD_VEXEC_HAVE_AVX2
