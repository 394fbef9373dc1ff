#include "serve/registry.hpp"

#include <algorithm>
#include <mutex>
#include <shared_mutex>
#include <tuple>
#include <unordered_map>
#include <variant>

#include "apps/ba.hpp"
#include "apps/gmm.hpp"
#include "apps/hand.hpp"
#include "apps/kmeans.hpp"
#include "apps/lstm.hpp"
#include "apps/mc_transport.hpp"
#include "core/ad.hpp"
#include "ir/typecheck.hpp"
#include "opt/pipeline.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace npad::serve {

using rt::ArrayVal;
using rt::Value;

bool parse_mode(const std::string& s, Mode* out) {
  if (s == "objective") { *out = Mode::Objective; return true; }
  if (s == "jacobian") { *out = Mode::Jacobian; return true; }
  return false;
}

// ---------------------------------------------------------------- registry --

struct Registry::Impl {
  mutable std::shared_mutex mu;
  std::unordered_map<std::string, std::shared_ptr<const ProgramEntry>> by_name;
  std::vector<std::string> order;  // registration order, for listings
};

Registry::Registry() : impl_(new Impl) {}

Registry& Registry::global() {
  static Registry* reg = new Registry();  // immortal
  return *reg;
}

void Registry::add(ProgramEntry e) {
  auto entry = std::make_shared<const ProgramEntry>(std::move(e));
  std::unique_lock lk(impl_->mu);
  if (!impl_->by_name.emplace(entry->name, entry).second) {
    throw TypeError("serve registry: duplicate program '" + entry->name + "'");
  }
  impl_->order.push_back(entry->name);
}

std::shared_ptr<const ProgramEntry> Registry::find(const std::string& name) const {
  std::shared_lock lk(impl_->mu);
  auto it = impl_->by_name.find(name);
  return it == impl_->by_name.end() ? nullptr : it->second;
}

std::vector<std::string> Registry::names() const {
  std::shared_lock lk(impl_->mu);
  return impl_->order;
}

size_t Registry::size() const {
  std::shared_lock lk(impl_->mu);
  return impl_->by_name.size();
}

// ---------------------------------------------------------- builtin programs --

namespace {

int64_t sz(const SizeMap& size, const SizeMap& defaults, const char* key) {
  auto it = size.find(key);
  int64_t v = 0;
  if (it != size.end()) {
    v = it->second;
  } else {
    auto dit = defaults.find(key);
    if (dit == defaults.end()) throw TypeError(std::string("no default for size key '") + key + "'");
    v = dit->second;
  }
  // Serving guard: requests pick workload sizes, so clamp them to a sane
  // band instead of letting one request allocate the process away.
  if (v < 1) v = 1;
  if (v > 16384) v = 16384;
  return v;
}

// AD prep mirrors the paper-table benches: differentiate the *pre-fusion*
// primal (the AD passes reject fused forms), then optimize both.
std::pair<ir::Prog, ir::Prog> build_vjp(ir::Prog primal) {
  ir::typecheck(primal);
  ir::Prog grad = ad::vjp(primal);
  primal = opt::optimize(primal);
  grad = opt::optimize(grad);
  ir::typecheck(primal);
  ir::typecheck(grad);
  return {std::move(primal), std::move(grad)};
}

std::pair<ir::Prog, ir::Prog> build_jvp(ir::Prog primal) {
  ir::typecheck(primal);
  ir::Prog tan = ad::jvp(primal);
  primal = opt::optimize(primal);
  tan = opt::optimize(tan);
  ir::typecheck(primal);
  ir::typecheck(tan);
  return {std::move(primal), std::move(tan)};
}

// Appends one tangent per differentiable (f64) argument, in argument order:
// ones for the "parameter" positions in `ones_idx`, zeros for the data
// positions — a fixed directional derivative, like the benches' seed-vector
// Jacobian columns.
void append_jvp_tangents(std::vector<Value>& args, std::initializer_list<size_t> ones_idx) {
  const size_t n = args.size();
  for (size_t i = 0; i < n; ++i) {
    const bool one = std::find(ones_idx.begin(), ones_idx.end(), i) != ones_idx.end();
    Value v = args[i];  // copy: push_back below may reallocate
    if (std::holds_alternative<double>(v)) {
      args.push_back(one ? 1.0 : 0.0);
    } else if (rt::is_array(v) && rt::as_array(v).elem == ir::ScalarType::F64) {
      const ArrayVal& a = rt::as_array(v);
      ArrayVal t = ArrayVal::alloc(a.elem, a.shape);  // zero-filled
      if (one) {
        for (int64_t j = 0; j < t.elems(); ++j) t.set_f64(j, 1.0);
      }
      args.push_back(std::move(t));
    }
    // non-f64 args (index arrays, flags) carry no tangent
  }
}

void register_builtins_once() {
  Registry& reg = Registry::global();

  {  // GMM log-likelihood: (alphas, means, qs, x) -> f64; vjp seed 1.0.
    ProgramEntry e;
    e.name = "gmm";
    std::tie(e.objective, e.jacobian) = build_vjp(apps::gmm_ir_objective());
    e.jacobian_kind = "vjp";
    e.default_size = {{"n", 64}, {"d", 4}, {"k", 5}};
    e.make_args = [defaults = e.default_size](Mode m, uint64_t seed, const SizeMap& size) {
      support::Rng rng(seed ^ 0x676d6d5f73727600ull);
      apps::GmmData data = apps::gmm_gen(rng, sz(size, defaults, "n"),
                                         sz(size, defaults, "d"), sz(size, defaults, "k"));
      std::vector<Value> args = apps::gmm_ir_args(data);
      if (m == Mode::Jacobian) args.push_back(1.0);
      return args;
    };
    reg.add(std::move(e));
  }

  {  // LSTM sequence objective: (wx, wh, b, x) -> f64; vjp seed 1.0.
    ProgramEntry e;
    e.name = "lstm";
    std::tie(e.objective, e.jacobian) = build_vjp(apps::lstm_ir_objective());
    e.jacobian_kind = "vjp";
    e.default_size = {{"bs", 2}, {"n", 4}, {"d", 8}, {"h", 8}};
    e.make_args = [defaults = e.default_size](Mode m, uint64_t seed, const SizeMap& size) {
      support::Rng rng(seed ^ 0x6c73746d5f737276ull);
      apps::LstmData data = apps::lstm_gen(rng, sz(size, defaults, "bs"),
                                           sz(size, defaults, "n"), sz(size, defaults, "d"),
                                           sz(size, defaults, "h"));
      std::vector<Value> args = apps::lstm_ir_args(data);
      if (m == Mode::Jacobian) args.push_back(1.0);
      return args;
    };
    reg.add(std::move(e));
  }

  {  // k-means cost: (C, P) -> f64; vjp seed 1.0.
    ProgramEntry e;
    e.name = "kmeans";
    std::tie(e.objective, e.jacobian) = build_vjp(apps::kmeans_ir_cost());
    e.jacobian_kind = "vjp";
    e.default_size = {{"n", 128}, {"d", 4}, {"k", 8}};
    e.make_args = [defaults = e.default_size](Mode m, uint64_t seed, const SizeMap& size) {
      support::Rng rng(seed ^ 0x6b6d65616e730000ull);
      const int64_t n = sz(size, defaults, "n");
      const int64_t d = sz(size, defaults, "d");
      const int64_t k = sz(size, defaults, "k");
      apps::KmeansData data = apps::kmeans_gen(rng, n, d, k);
      std::vector<Value> args = {rt::make_f64_array(data.centroids, {k, d}),
                                 rt::make_f64_array(data.points, {n, d})};
      if (m == Mode::Jacobian) args.push_back(1.0);
      return args;
    };
    reg.add(std::move(e));
  }

  {  // Bundle adjustment residuals -> (reproj, werr); jvp over cams/pts/w.
    ProgramEntry e;
    e.name = "ba";
    std::tie(e.objective, e.jacobian) = build_jvp(apps::ba_ir_residuals());
    e.jacobian_kind = "jvp";
    e.default_size = {{"cams", 4}, {"pts", 16}, {"obs", 32}};
    e.make_args = [defaults = e.default_size](Mode m, uint64_t seed, const SizeMap& size) {
      support::Rng rng(seed ^ 0x62615f7372760000ull);
      apps::BaData data = apps::ba_gen(rng, sz(size, defaults, "cams"),
                                       sz(size, defaults, "pts"), sz(size, defaults, "obs"));
      std::vector<Value> args = apps::ba_ir_args(data);
      // params: cams(0), pts(1), w(2), camIdx(3:i64), ptIdx(4:i64), feats(5)
      if (m == Mode::Jacobian) append_jvp_tangents(args, {0, 1, 2});
      return args;
    };
    reg.add(std::move(e));
  }

  {  // Hand-tracking residuals (simple model); jvp over theta.
    ProgramEntry e;
    e.name = "hand";
    std::tie(e.objective, e.jacobian) = build_jvp(apps::hand_ir_residuals(/*complicated=*/false));
    e.jacobian_kind = "jvp";
    e.default_size = {{"bones", 6}, {"verts", 32}};
    e.make_args = [defaults = e.default_size](Mode m, uint64_t seed, const SizeMap& size) {
      support::Rng rng(seed ^ 0x68616e645f737276ull);
      apps::HandData data = apps::hand_gen(rng, sz(size, defaults, "bones"),
                                           sz(size, defaults, "verts"));
      std::vector<Value> args = apps::hand_ir_args(data, /*complicated=*/false);
      // params: theta(0), base(1), dirs(2), boneOf(3:i64), targets(4)
      if (m == Mode::Jacobian) append_jvp_tangents(args, {0});
      return args;
    };
    reg.add(std::move(e));
  }

  {  // XSBench-like macro cross-section sum: -> f64; vjp seed 1.0.
    ProgramEntry e;
    e.name = "mc_transport";
    std::tie(e.objective, e.jacobian) = build_vjp(apps::xs_ir_objective());
    e.jacobian_kind = "vjp";
    e.default_size = {{"nuclides", 4}, {"grid", 32}, {"lookups", 128}};
    e.make_args = [defaults = e.default_size](Mode m, uint64_t seed, const SizeMap& size) {
      support::Rng rng(seed ^ 0x78735f7372760000ull);
      apps::XsData data = apps::xs_gen(rng, sz(size, defaults, "nuclides"),
                                       sz(size, defaults, "grid"), sz(size, defaults, "lookups"));
      std::vector<Value> args = apps::xs_ir_args(data);
      if (m == Mode::Jacobian) args.push_back(1.0);
      return args;
    };
    reg.add(std::move(e));
  }
}

} // namespace

void register_builtin_programs() {
  static std::once_flag once;
  std::call_once(once, register_builtins_once);
}

} // namespace npad::serve
