#pragma once

// LSTM sequence model (Sections 7.1 D-LSTM and 7.7). One cell following the
// standard architecture of [40]:
//   g = [i f o c~] = sigma/tanh( x_t Wx^T + h Wh^T + b )
//   c = f*c + i*c~ ;  h = o * tanh(c)
// Objective: sum over time of sum(h_t^2) (an MSE-style scalar objective;
// substitution for ADBench's sequence NLL documented in docs/ARCHITECTURE.md
// § Substitutions and deviations from the paper).
//
// Implementations: npad IR (time loop + batched maps), eager autograd
// (matmul-based BPTT, the PyTorch baseline), and a fused manual
// implementation with a hand-derived backward pass (the cuDNN stand-in).

#include <vector>

#include "ir/ast.hpp"
#include "runtime/value.hpp"
#include "support/rng.hpp"

namespace npad::apps {

struct LstmData {
  int64_t bs = 0, n = 0, d = 0, h = 0;  // batch, seq len, input dim, hidden
  std::vector<double> wx;  // 4h * d
  std::vector<double> wh;  // 4h * h
  std::vector<double> b;   // 4h
  std::vector<double> x;   // n * bs * d
};

LstmData lstm_gen(support::Rng& rng, int64_t bs, int64_t n, int64_t d, int64_t h);

// IR program: params (wx:[4h][d], wh:[4h][h], b:[4h], x:[n][bs][d]) -> f64.
ir::Prog lstm_ir_objective();

std::vector<rt::Value> lstm_ir_args(const LstmData& data);

struct LstmResult {
  double objective = 0;
  std::vector<double> d_wx, d_wh, d_b;
};

// Eager autograd implementation (PyTorch stand-in).
LstmResult lstm_eager(const LstmData& data, bool with_grad = true);

// Fused manual forward + analytic backward (cuDNN stand-in).
LstmResult lstm_manual(const LstmData& data);
double lstm_manual_objective_only(const LstmData& data);

} // namespace npad::apps
