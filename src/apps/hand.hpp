#pragma once

// Hand tracking (ADBench HAND, Section 7.1), reduced kinematic model
// (substitution documented in docs/ARCHITECTURE.md § Substitutions and
// deviations from the paper): a chain of `nbones` Euler-angle
// rotations is composed sequentially (the kinematic chain); every vertex is
// attached to one bone (gather) and transformed by that bone's cumulative
// rotation; residuals are the 3 coordinate differences to target positions.
// The "complicated" variant adds two per-vertex displacement parameters
// (us) applied along fixed direction vectors before skinning, mirroring
// ADBench's theta+us parameterization and its sparse Jacobian columns.

#include <vector>

#include "ir/ast.hpp"
#include "runtime/value.hpp"
#include "support/rng.hpp"
#include "tape/tape.hpp"

namespace npad::apps {

struct HandData {
  int64_t nbones = 0, nverts = 0;
  std::vector<double> theta;    // 3*nbones
  std::vector<double> us;       // 2*nverts (complicated variant)
  std::vector<double> base;     // nverts*3
  std::vector<double> dirs;     // nverts*6 (two direction vectors)
  std::vector<int64_t> bone_of; // nverts
  std::vector<double> targets;  // nverts*3
};

HandData hand_gen(support::Rng& rng, int64_t nbones, int64_t nverts);

// IR residual program. complicated=false: params (theta, base, dirs, boneOf,
// targets) -> residuals [nverts][3]; complicated=true adds us:[2*nverts].
ir::Prog hand_ir_residuals(bool complicated);

std::vector<rt::Value> hand_ir_args(const HandData& data, bool complicated);

// Templated scalar kernel (tape baseline + primal). Writes residuals (3 per
// vertex) to out.
template <class Real>
void hand_residuals(const HandData& d, const Real* theta, const Real* us, Real* out) {
  using std::cos;
  using std::sin;
  const int64_t nb = d.nbones, nv = d.nverts;
  // Cumulative rotations along the chain.
  std::vector<Real> R(static_cast<size_t>(nb * 9));
  Real prev[9] = {Real(1.0), Real(0.0), Real(0.0), Real(0.0), Real(1.0),
                  Real(0.0), Real(0.0), Real(0.0), Real(1.0)};
  for (int64_t b = 0; b < nb; ++b) {
    const Real& ax = theta[3 * b];
    const Real& ay = theta[3 * b + 1];
    const Real& az = theta[3 * b + 2];
    Real cx = cos(ax), sx = sin(ax), cy = cos(ay), sy = sin(ay), cz = cos(az), sz = sin(az);
    // R = Rz * Ry * Rx
    Real rot[9] = {cz * cy,
                   cz * sy * sx - sz * cx,
                   cz * sy * cx + sz * sx,
                   sz * cy,
                   sz * sy * sx + cz * cx,
                   sz * sy * cx - cz * sx,
                   Real(0.0) - sy,
                   cy * sx,
                   cy * cx};
    Real cur[9];
    for (int i = 0; i < 3; ++i) {
      for (int j = 0; j < 3; ++j) {
        Real s(0.0);
        for (int k = 0; k < 3; ++k) s = s + prev[i * 3 + k] * rot[k * 3 + j];
        cur[i * 3 + j] = s;
      }
    }
    for (int i = 0; i < 9; ++i) {
      R[static_cast<size_t>(b * 9 + i)] = cur[i];
      prev[i] = cur[i];
    }
  }
  for (int64_t v = 0; v < nv; ++v) {
    Real pos[3];
    for (int i = 0; i < 3; ++i) pos[i] = Real(d.base[static_cast<size_t>(v * 3 + i)]);
    if (us != nullptr) {
      for (int i = 0; i < 3; ++i) {
        pos[i] = pos[i] + us[2 * v] * d.dirs[static_cast<size_t>(v * 6 + i)] +
                 us[2 * v + 1] * d.dirs[static_cast<size_t>(v * 6 + 3 + i)];
      }
    }
    const Real* Rb = R.data() + d.bone_of[static_cast<size_t>(v)] * 9;
    for (int i = 0; i < 3; ++i) {
      Real s = Rb[i * 3] * pos[0] + Rb[i * 3 + 1] * pos[1] + Rb[i * 3 + 2] * pos[2];
      out[v * 3 + i] = s - d.targets[static_cast<size_t>(v * 3 + i)];
    }
  }
}

// Tape-baseline full Jacobian: one tape reversal per residual row.
size_t hand_tape_jacobian(const HandData& d, bool complicated);

} // namespace npad::apps
