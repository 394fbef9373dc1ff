#include "opt/pipeline.hpp"

#include "opt/simplify.hpp"

namespace npad::opt {

ir::Prog optimize(const ir::Prog& p, const OptOptions& opts, PipelineStats* stats) {
  ir::Prog cur = p;
  if (opts.simplify) cur = simplify(cur);
  if (opts.accopt) cur = optimize_accumulators(cur, stats != nullptr ? &stats->accopt : nullptr);
  if (opts.fuse_maps) cur = fuse_maps(cur, stats != nullptr ? &stats->fuse : nullptr);
  if (opts.simplify) cur = simplify(cur);
  return cur;
}

} // namespace npad::opt
