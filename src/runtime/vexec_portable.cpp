// Portable vexec engine build: plain auto-vectorized lane loops, no ISA
// flags beyond the project baseline — the always-available handler set that
// select_ops() falls back to (and NPAD_VEXEC=portable pins).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "runtime/vexec.hpp"
#include "support/error.hpp"

namespace npad::rt::vexec::portable {
#define NPAD_VEXEC_NAME "portable"
#include "runtime/vexec_engine.inc"
#undef NPAD_VEXEC_NAME
} // namespace npad::rt::vexec::portable
