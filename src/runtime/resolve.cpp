#include "runtime/resolve.hpp"

#include <algorithm>
#include <cassert>
#include <mutex>
#include <optional>

#include "ir/analysis.hpp"
#include "ir/visit.hpp"
#include "runtime/batch.hpp"

namespace npad::rt {

namespace {

using namespace ir;

// A statement foldable into a scalar-glue block: binds exactly one scalar
// (non-acc) result through a pure scalar operation. OpIndex is excluded: its
// bounds check must keep throwing ShapeError with the exact general-path
// message, and a Gather in a folded block would bypass it.
bool scalar_glue(const Stm& st) {
  if (st.vars.size() != 1) return false;
  const Type& t = st.types[0];
  if (t.rank != 0 || t.is_acc) return false;
  return std::holds_alternative<OpAtom>(st.e) || std::holds_alternative<OpBin>(st.e) ||
         std::holds_alternative<OpUn>(st.e) || std::holds_alternative<OpSelect>(st.e);
}

// Folds stms [begin, end) of `b` into one extent-1 kernel program. Every
// binding of the run is a result, since later statements may read any of
// them. A run the kernel compiler rejects stays unfolded.
std::optional<ScalarBlock> fold_scalar_run(const Body& b, size_t begin, size_t end) {
  Lambda glue;
  glue.body.stms.assign(b.stms.begin() + static_cast<ptrdiff_t>(begin),
                        b.stms.begin() + static_cast<ptrdiff_t>(end));
  ScalarBlock blk;
  for (size_t i = begin; i < end; ++i) {
    glue.body.result.emplace_back(b.stms[i].vars[0]);
    glue.rets.push_back(b.stms[i].types[0]);
    blk.out_vars.push_back(b.stms[i].vars[0]);
    blk.out_types.push_back(b.stms[i].types[0].elem);
  }
  auto k = compile_kernel(glue);
  if (!k || !k->accs.empty() || k->num_inputs != 0 || !k->free_arrays.empty()) {
    return std::nullopt;
  }
  blk.first = static_cast<uint32_t>(begin);
  blk.count = static_cast<uint32_t>(end - begin);
  blk.kernel = std::move(*k);
  blk.vx = vexec::lower(blk.kernel);
  return blk;
}

std::vector<ScalarBlock> scalar_blocks(const Body& b) {
  std::vector<ScalarBlock> out;
  size_t i = 0;
  while (i < b.stms.size()) {
    size_t j = i;
    while (j < b.stms.size() && scalar_glue(b.stms[j])) ++j;
    if (j - i >= 2) {
      if (auto blk = fold_scalar_run(b, i, j)) out.push_back(std::move(*blk));
    }
    i = std::max(j, i + 1);
  }
  return out;
}

// Walks an alpha-renamed function and assigns every binding a slot in its
// enclosing activation. Activations are opened at the function root, at each
// lambda, and at each loop body; if-branch bodies (and any other nested
// bodies) share the enclosing activation's frame — their binding ids are
// unique after renaming, so slots never collide.
class Resolver {
public:
  explicit Resolver(ResolvedProg& rp) : rp_(rp) {}

  void run() {
    rp_.slots.assign(rp_.mod->num_vars(), SlotRef{});
    rp_.root_activation = push_activation();
    for (const auto& p : rp_.fn.params) bind(p.var);
    body(rp_.fn.body);
    pop_activation();
    rp_.scalar_blocks[rp_.root_activation] = scalar_blocks(rp_.fn.body);
  }

private:
  struct Act {
    uint32_t id = 0;
    uint32_t next_slot = 0;
  };

  uint32_t push_activation() {
    const auto id = static_cast<uint32_t>(rp_.activations.size());
    rp_.activations.push_back(ActivationInfo{static_cast<uint32_t>(stack_.size()), 0});
    rp_.scalar_blocks.emplace_back();
    stack_.push_back(Act{id, 0});
    return id;
  }

  void pop_activation() {
    rp_.activations[stack_.back().id].num_slots = stack_.back().next_slot;
    stack_.pop_back();
  }

  void bind(Var v) {
    assert(v.valid() && v.id < rp_.slots.size());
    assert(!rp_.slots[v.id].valid() && "binding id not unique after alpha-renaming");
    rp_.slots[v.id] =
        SlotRef{rp_.activations[stack_.back().id].level, stack_.back().next_slot++};
  }

  void lambda(const Lambda& l) {
    l.activation_id = push_activation();
    for (const auto& p : l.params) bind(p.var);
    body(l.body);
    pop_activation();
  }

  void body(const Body& b) {
    for (const auto& st : b.stms) {
      exp(st.e);
      for (Var v : st.vars) bind(v);
    }
  }

  void exp(const Exp& e) {
    std::visit(Overload{
                   [&](const OpIf& o) {
                     body(*o.tb);
                     body(*o.fb);
                   },
                   [&](const OpLoop& o) {
                     if (o.while_cond) lambda(*o.while_cond);
                     o.activation_id = push_activation();
                     for (const auto& p : o.params) bind(p.var);
                     if (o.idx.valid()) bind(o.idx);
                     body(*o.body);
                     pop_activation();
                     rp_.scalar_blocks[o.activation_id] = scalar_blocks(*o.body);
                   },
                   [&](const OpMap& o) { lambda(*o.f); },
                   [&](const OpReduce& o) {
                     lambda(*o.op);
                     if (o.pre) lambda(*o.pre);
                   },
                   [&](const OpScan& o) { lambda(*o.op); },
                   [&](const OpHist& o) { lambda(*o.op); },
                   [&](const OpWithAcc& o) { lambda(*o.f); },
                   [&](const auto&) {},
               },
               e);
  }

  ResolvedProg& rp_;
  std::vector<Act> stack_;
};

} // namespace

std::shared_ptr<const ResolvedProg> resolve_prog(const ir::Prog& p) {
  auto rp = std::make_shared<ResolvedProg>();
  // Clone into a private module copy: Cloner::bind allocates fresh ids there,
  // and the original module stays untouched (it may be shared by callers).
  rp->mod = std::make_shared<ir::Module>(*p.mod);
  ir::Cloner c(*rp->mod);
  ir::Subst s;
  rp->fn.name = p.fn.name;
  rp->fn.rets = p.fn.rets;
  rp->fn.params.reserve(p.fn.params.size());
  for (const auto& pr : p.fn.params) {
    rp->fn.params.push_back(ir::Param{c.bind(pr.var, s), pr.type});
  }
  rp->fn.body = c.body(p.fn.body, std::move(s));
  Resolver(*rp).run();
  rp->kernels_ = std::vector<ResolvedProg::KernelSlot>(rp->activations.size());
  return rp;
}

namespace {

// Fills `slot` on its first call with `compile()` and its lowering.
template <class Compile>
const LambdaKernel& fill(std::once_flag& once, std::unique_ptr<const LambdaKernel>& slot,
                         Compile compile) {
  std::call_once(once, [&] {
    auto lk = std::make_unique<LambdaKernel>();
    lk->kernel = compile();
    if (lk->kernel) lk->vx = vexec::lower(*lk->kernel);
    slot = std::move(lk);
  });
  return *slot;
}

} // namespace

const LambdaKernel& ResolvedProg::map_kernel(const ir::Lambda& f) const {
  KernelSlot& s = kernels_[f.activation_id];
  return fill(s.once, s.k, [&] { return compile_kernel(f); });
}

const LambdaKernel& ResolvedProg::fold_kernel(const ir::Lambda& op, const ir::Lambda* pre,
                                              bool scan) const {
  KernelSlot& s = kernels_[op.activation_id];
  return fill(s.once, s.k, [&] { return compile_reduce_kernel(op, pre, scan); });
}

const ResolvedProg& ResolvedProg::batched(const ir::Prog& p) const {
  std::call_once(batched_once_, [&] { batched_ = resolve_prog(make_batched_prog(p)); });
  return *batched_;
}

ProgCache& ProgCache::global() {
  // Leaked singleton: a resolved program, and so every kernel compiled from
  // it, stays valid on every thread until exit.
  static ProgCache* cache = new ProgCache();
  return *cache;
}

size_t ProgCache::size() const {
  std::shared_lock lk(mu_);
  return by_sig_.size();
}

std::shared_ptr<const ResolvedProg> ProgCache::get(const ir::Prog& p) {
  std::vector<uint64_t> sig = ir::structural_sig(p.fn);
  const uint64_t h = ir::structural_hash(sig);
  {
    std::shared_lock lk(mu_);
    auto [lo, hi] = by_sig_.equal_range(h);
    for (auto it = lo; it != hi; ++it) {
      if (it->second.sig == sig) return it->second.rp;
    }
  }
  // Resolve outside the lock; a racing thread may do the same work, but the
  // first insert wins and the duplicate is discarded.
  auto rp = resolve_prog(p);
  std::unique_lock lk(mu_);
  auto [lo, hi] = by_sig_.equal_range(h);
  for (auto it = lo; it != hi; ++it) {
    if (it->second.sig == sig) return it->second.rp;
  }
  by_sig_.emplace(h, Entry{std::move(sig), rp});
  return rp;
}

} // namespace npad::rt
