#pragma once

// Sparse matrix support for the sparse k-means case study (Section 7.5):
// CSR for the npad IR implementations, COO for the eager baseline (the paper
// notes PyTorch AD forces COO). coo_matmul supports gradient flow to the
// dense operand only, matching torch.sparse.mm's "sparse gradient" usage in
// the paper's setup (data is constant, centroids are differentiated).

#include <cstdint>
#include <vector>

#include "eager/autograd.hpp"
#include "support/rng.hpp"

namespace npad::eager {

struct Csr {
  int64_t rows = 0, cols = 0;
  std::vector<int64_t> row_ptr;  // rows+1
  std::vector<int64_t> col_idx;  // nnz
  std::vector<double> values;    // nnz
  int64_t nnz() const { return static_cast<int64_t>(values.size()); }
};

struct Coo {
  int64_t rows = 0, cols = 0;
  std::vector<int64_t> row_idx, col_idx;
  std::vector<double> values;
  int64_t nnz() const { return static_cast<int64_t>(values.size()); }
};

Coo to_coo(const Csr& a);

// Random CSR matrix with ~nnz_per_row nonzeros per row (synthetic stand-in
// for the MovieLens / NYTimes / scRNA workloads; see docs/ARCHITECTURE.md
// § Substitutions and deviations from the paper).
Csr random_csr(support::Rng& rng, int64_t rows, int64_t cols, int64_t nnz_per_row);

// Dense C[m,n] = A[m,k] (COO) * B[k,n]; gradient flows to B only.
Var coo_matmul(const Coo& a, const Var& b);

// Row-wise squared norms of a CSR matrix (constant, no gradient).
std::vector<double> csr_row_sqnorms(const Csr& a);

} // namespace npad::eager
