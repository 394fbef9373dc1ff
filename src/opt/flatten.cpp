#include "opt/flatten.hpp"

#include "ir/patterns.hpp"
#include "ir/visit.hpp"

namespace npad::opt {

namespace {

using namespace ir;

class Flattener {
public:
  explicit Flattener(FlattenStats& stats) : stats_(&stats) {}

  Body body(const Body& in) {
    Body out;
    out.result = in.result;
    out.stms.reserve(in.stms.size());
    for (const auto& st : in.stms) {
      Stm ns = st;
      ns.e = exp(st.e);
      out.stms.push_back(std::move(ns));
    }
    return out;
  }

private:
  // Rewrites nested scopes first (deeper nests annotate at their own level),
  // then matches this map. A rank-3 nest map(λslab. map(λrow. map(g, row)))
  // thus annotates the middle map @flat; the outer stays general (its inner
  // lambda is row-level, not scalar) but each of its rows now runs one
  // collapsed launch instead of m inner launches.
  Exp exp(const Exp& e) {
    Exp out = map_nested(e, [&](const NestedScope& s) { return body(*s.body); });
    if (auto* m = std::get_if<OpMap>(&out)) {
      // Annotates fresh matches; also clears a stale annotation whose
      // structure no longer qualifies (idempotent re-runs).
      m->flat = flatten_form(*m);
      if (m->flat == FlatForm::Inner) ++stats_->flattened_maps;
      if (m->flat == FlatForm::SegRed) ++stats_->flattened_redomaps;
    }
    return out;
  }

  FlattenStats* stats_;
};

} // namespace

Prog flatten_nested(const Prog& p, FlattenStats* stats) {
  FlattenStats local;
  Flattener fl(stats != nullptr ? *stats : local);
  Prog out = p;
  out.fn.body = fl.body(p.fn.body);
  return out;
}

} // namespace npad::opt
