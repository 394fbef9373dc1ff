#include "opt/pipeline.hpp"

#include "opt/simplify.hpp"

namespace npad::opt {

ir::Prog optimize(const ir::Prog& p, const OptOptions& opts, PipelineStats* stats) {
  ir::Prog cur = simplify(p);
  if (opts.fuse_maps) cur = fuse_maps(cur, stats != nullptr ? &stats->fuse : nullptr);
  return simplify(cur);
}

} // namespace npad::opt
