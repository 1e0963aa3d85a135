// Streams a random permutation through the cycle-accurate model of the
// paper's §6 FPGA scheduler and prints per-block statistics plus the
// calibrated wall-clock estimates of Table 1.
//
//   ./hw_pipeline_demo [levels] [arity] [seed]     (defaults: 3 8 1)
#include <cstdint>
#include <iostream>
#include <optional>

#include "hw/pipeline.hpp"
#include "hw/timing_model.hpp"
#include "util/parse.hpp"
#include "util/table.hpp"
#include "workload/patterns.hpp"

using namespace ftsched;

int main(int argc, char** argv) {
  // levels, arity, seed: each a plain unsigned integer, the first two
  // 32-bit.
  std::uint64_t args[] = {3, 8, 1};
  if (argc > 4) {
    std::cerr << "usage: hw_pipeline_demo [levels] [arity] [seed]\n";
    return 2;
  }
  for (int i = 1; i < argc; ++i) {
    const std::optional<std::uint64_t> value = parse_unsigned(argv[i]);
    if (!value || (i <= 2 && *value > UINT32_MAX)) {
      std::cerr << "bad argument '" << argv[i]
                << "' (expected an unsigned integer)\n";
      return 2;
    }
    args[i - 1] = *value;
  }
  const auto levels = static_cast<std::uint32_t>(args[0]);
  const auto arity = static_cast<std::uint32_t>(args[1]);
  const std::uint64_t seed = args[2];

  auto tree_or = FatTree::create(FatTreeParams::symmetric(levels, arity));
  if (!tree_or.ok() || arity > 64) {
    std::cerr << "unsupported shape (need valid FT and w <= 64)\n";
    return 1;
  }
  const FatTree tree = std::move(tree_or).value();

  Xoshiro256ss rng(seed);
  const std::vector<Request> batch = random_permutation(tree.node_count(), rng);

  LevelwisePipeline pipeline(tree);
  const PipelineReport report = pipeline.schedule(batch);

  std::cout << "FT(" << levels << "," << arity << "), " << tree.node_count()
            << " requests streamed through " << pipeline.stage_count()
            << " P-blocks\n\n";
  std::cout << "granted            : " << report.result.granted_count() << " ("
            << TextTable::pct(report.result.schedulability_ratio()) << ")\n";
  std::cout << "rejected in flight : " << report.rejected_in_flight
            << " (no rollback: their lower-level channels stay allocated)\n";
  std::cout << "block-cycles       : " << report.cycles << " (N + stages - 1)\n";
  std::cout << "RAW forwards       : " << report.raw_forwards
            << " (back-to-back same-row accesses bridged by the dual-port "
               "RAM bypass)\n\n";

  TextTable blocks({"block", "level", "busy cycles", "mem reads", "mem writes"});
  for (std::uint32_t b = 0; b < pipeline.stage_count(); ++b) {
    const PBlock& block = pipeline.block(b);
    blocks.add_row(
        {std::string("P").append(std::to_string(b)),
         std::to_string(block.level()),
         std::to_string(block.busy_cycles()),
         std::to_string(block.ulink_memory().read_count() +
                        block.dlink_memory().read_count()),
         std::to_string(block.ulink_memory().write_count() +
                        block.dlink_memory().write_count())});
  }
  blocks.print(std::cout);

  const TimingModel timing;
  std::cout << "\ncalibrated timing (Stratix II model, paper Table 1):\n";
  std::cout << "  block cycle        : "
            << TextTable::num(timing.cycle_ns(arity), 2) << " ns\n";
  std::cout << "  single request     : "
            << TextTable::num(timing.request_latency_ns(levels, arity), 2)
            << " ns\n";
  std::cout << "  all " << tree.node_count() << " requests : "
            << TextTable::num(
                   timing.batch_total_ns(tree.node_count(), levels, arity) /
                       1000.0,
                   3)
            << " us\n";
  return 0;
}
