#include "hw/pipeline.hpp"

#include "core/scheduler.hpp"

namespace ftsched {

PBlock::PBlock(const FatTree& tree, std::uint32_t level)
    : tree_(tree),
      level_(level),
      umem_(tree.switches_at(level), tree.parent_arity()),
      dmem_(tree.switches_at(level), tree.parent_arity()) {}

HwDescriptor PBlock::process(const HwDescriptor& in) {
  HwDescriptor out = in;
  if (!in.valid || !in.alive || in.ancestor <= level_) {
    // Bubble, already-rejected, or pass-through (the request's circuit does
    // not reach this level); the block idles this cycle.
    last_written_urow_ = UINT64_MAX;
    last_written_drow_ = UINT64_MAX;
    return out;
  }
  ++busy_cycles_;

  // Load stage: both availability rows. A row written by the previous
  // request in the previous cycle is being committed as we read — the
  // dual-port RAM forwards the new value (functionally our memory is always
  // consistent; we just count the bypass).
  if (in.sigma == last_written_urow_ || in.delta == last_written_drow_) {
    ++raw_forwards_;
  }
  const std::uint64_t urow = umem_.read(in.sigma);
  const std::uint64_t drow = dmem_.read(in.delta);

  // Compute stage: AND + priority selector.
  const std::uint64_t avail = urow & drow;
  const std::uint32_t port = priority_select(avail, umem_.width());

  if (port == umem_.width()) {
    // No common free port: the request is dead but its lower-level
    // allocations stand (no rollback path in the pipeline).
    out.alive = false;
    out.fail_level = level_;
    last_written_urow_ = UINT64_MAX;
    last_written_drow_ = UINT64_MAX;
    return out;
  }

  // Update stage: clear the chosen bit in both rows.
  umem_.write(in.sigma, urow & ~(std::uint64_t{1} << port));
  dmem_.write(in.delta, drow & ~(std::uint64_t{1} << port));
  last_written_urow_ = in.sigma;
  last_written_drow_ = in.delta;

  out.ports.push_back(port);
  out.sigma = tree_.ascend(level_, in.sigma, port);
  out.delta = tree_.ascend(level_, in.delta, port);
  return out;
}

void PBlock::reset() {
  umem_.fill_available();
  dmem_.fill_available();
  umem_.reset_counters();
  dmem_.reset_counters();
  last_written_urow_ = UINT64_MAX;
  last_written_drow_ = UINT64_MAX;
  raw_forwards_ = 0;
  busy_cycles_ = 0;
}

LevelwisePipeline::LevelwisePipeline(const FatTree& tree) : tree_(tree) {
  FT_REQUIRE(tree.levels() >= 2);
  FT_REQUIRE(tree.parent_arity() <= 64);
  blocks_.reserve(tree.levels() - 1);
  for (std::uint32_t h = 0; h + 1 < tree.levels(); ++h) {
    blocks_.emplace_back(tree, h);
  }
}

PipelineReport LevelwisePipeline::schedule(std::span<const Request> requests) {
  PipelineReport report;
  report.result.outcomes.resize(requests.size());
  LeafTracker leaves(tree_.node_count());

  // Admission front-end: build the input descriptor stream.
  std::vector<HwDescriptor> stream;
  stream.reserve(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Request& r = requests[i];
    RequestOutcome& out = report.result.outcomes[i];
    out.path = Path{r.src, r.dst, 0, {}};
    if (!leaves.try_claim(r.src, r.dst)) {
      out.reason = RejectReason::kLeafBusy;
      continue;
    }
    const std::uint64_t src_leaf = tree_.leaf_switch(r.src).index;
    const std::uint64_t dst_leaf = tree_.leaf_switch(r.dst).index;
    HwDescriptor d;
    d.valid = true;
    d.alive = true;
    d.request_index = i;
    d.sigma = src_leaf;
    d.delta = dst_leaf;
    d.ancestor = tree_.common_ancestor_level(src_leaf, dst_leaf);
    stream.push_back(d);
  }

  // Stage registers: latch_[k] is the descriptor entering block k this
  // cycle. One cycle = every block processes its latched descriptor, then
  // descriptors shift one stage to the right.
  const std::size_t stages = blocks_.size();
  std::vector<HwDescriptor> latch(stages + 1);  // latch[stages] = output
  std::size_t fed = 0;
  std::size_t drained = 0;
  const std::size_t total = stream.size();

  while (drained < total) {
    // Feed the next request into block 0's input register.
    latch[0] = fed < total ? stream[fed++] : HwDescriptor{};

    // All blocks fire in parallel on their current inputs; compute from the
    // right so latch values are consumed before being overwritten.
    for (std::size_t k = stages; k-- > 0;) {
      latch[k + 1] = blocks_[k].process(latch[k]);
    }
    ++report.cycles;

    // Drain the output register.
    const HwDescriptor& outd = latch[stages];
    if (outd.valid) {
      ++drained;
      RequestOutcome& out = report.result.outcomes[outd.request_index];
      if (outd.alive) {
        out.granted = true;
        out.path.ancestor_level = outd.ancestor;
        out.path.ports = outd.ports;
        FT_ASSERT(out.path.ports.size() == outd.ancestor);
        FT_ASSERT(outd.sigma == outd.delta);
      } else {
        out.reason = RejectReason::kNoCommonPort;
        out.fail_level = outd.fail_level;
        ++report.rejected_in_flight;
        leaves.release(requests[outd.request_index].src,
                       requests[outd.request_index].dst);
      }
    }
  }

  for (const PBlock& b : blocks_) report.raw_forwards += b.raw_forwards();
  return report;
}

void LevelwisePipeline::reset() {
  for (PBlock& b : blocks_) b.reset();
}

}  // namespace ftsched
