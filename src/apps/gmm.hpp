#pragma once

// Gaussian Mixture Model log-likelihood (ADBench GMM; Sections 7.1 and 7.6).
//
// Substitution note (docs/ARCHITECTURE.md § Substitutions and deviations
// from the paper): ADBench parameterizes covariances with a
// full inverse Cholesky factor; we use the diagonal parameterization
// (q = log inverse sigma per dimension) plus the same logsumexp/prior
// structure. This keeps identical map/reduce/logsumexp shape and the same
// dominant pairwise (point x component x dimension) computation while
// avoiding the triangular-index bookkeeping that adds nothing to the AD
// evaluation.
//
// Objective:
//   L(alpha, mu, q) = sum_i lse_k[ alpha_k + sum_j q_kj
//                                  - 0.5 sum_j ((x_ij - mu_kj) e^{q_kj})^2 ]
//                     - n * lse_k[alpha_k] + prior(q)
//   prior(q) = sum_k sum_j ( 0.5 gamma^2 e^{2 q_kj} - m_w q_kj )

#include <vector>

#include "ir/ast.hpp"
#include "runtime/value.hpp"
#include "support/rng.hpp"

namespace npad::apps {

struct GmmData {
  int64_t n = 0, d = 0, k = 0;
  std::vector<double> x;       // n*d
  std::vector<double> alphas;  // k
  std::vector<double> means;   // k*d
  std::vector<double> qs;      // k*d (log inverse sigmas)
  double wishart_gamma = 1.0;
  double wishart_m = 1.0;
};

GmmData gmm_gen(support::Rng& rng, int64_t n, int64_t d, int64_t k);

// IR program: params (alphas:[k], means:[k][d], qs:[k][d], x:[n][d]) -> f64.
ir::Prog gmm_ir_objective();

std::vector<rt::Value> gmm_ir_args(const GmmData& data);

// Reference objective + analytic gradient (the "manual" column).
struct GmmManualResult {
  double objective = 0;
  std::vector<double> d_alphas, d_means, d_qs;
};
GmmManualResult gmm_manual(const GmmData& data);

// Eager (PyTorch-style) objective + gradient via autograd (vectorized with
// expanded quadratics, as the paper's improved PyTorch implementation).
GmmManualResult gmm_eager(const GmmData& data, bool with_grad = true);

} // namespace npad::apps
