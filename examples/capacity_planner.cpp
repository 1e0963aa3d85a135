// Capacity planner: given a minimum node count, enumerate fat-tree shapes
// that reach it, estimate each shape's schedulability under the level-wise
// scheduler at several load factors, and estimate the centralized hardware
// scheduler's batch time from the Table-1-calibrated timing model. This is
// the "which fabric do I build for my cluster" workflow the paper's
// introduction motivates (long-lived connections on massively parallel
// machines).
//
//   ./capacity_planner [min_nodes] [reps]     (defaults: 500 30)
#include <cstdint>
#include <iostream>
#include <optional>
#include <vector>

#include "hw/timing_model.hpp"
#include "stats/runner.hpp"
#include "util/parse.hpp"
#include "util/table.hpp"

using namespace ftsched;

int main(int argc, char** argv) {
  // min_nodes and reps: each a plain unsigned integer, reps positive.
  std::uint64_t args[] = {500, 30};
  if (argc > 3) {
    std::cerr << "usage: capacity_planner [min_nodes] [reps]\n";
    return 2;
  }
  for (int i = 1; i < argc; ++i) {
    const std::optional<std::uint64_t> value = parse_unsigned(argv[i]);
    if (!value || (i == 2 && *value == 0)) {
      std::cerr << "bad argument '" << argv[i]
                << "' (expected an unsigned integer, reps > 0)\n";
      return 2;
    }
    args[i - 1] = *value;
  }
  const std::uint64_t min_nodes = args[0];
  const auto reps = static_cast<std::size_t>(args[1]);

  std::cout << "Fat-tree capacity plan for >= " << min_nodes
            << " processing elements\n"
            << "(schedulability: level-wise scheduler, random permutations, "
            << reps << " reps per point)\n\n";

  // Candidate shapes: smallest arity per level count that reaches the
  // target, plus one size up for headroom.
  std::vector<FatTreeParams> candidates;
  for (std::uint32_t levels = 2; levels <= 4; ++levels) {
    std::uint32_t w = 2;
    while (true) {
      const FatTreeParams params = FatTreeParams::symmetric(levels, w);
      if (!params.validate().ok()) break;
      const FatTree probe = FatTree::create(params).value();
      if (probe.node_count() >= min_nodes) {
        candidates.push_back(params);
        const FatTreeParams next = FatTreeParams::symmetric(levels, w + 1);
        if (next.validate().ok()) candidates.push_back(next);
        break;
      }
      ++w;
    }
  }

  const TimingModel timing;
  TextTable table({"shape", "nodes", "switches", "ratio@100%", "ratio@50%",
                   "sched all (us)", "radix"});
  for (const FatTreeParams& params : candidates) {
    if (params.parent_arity > 64) continue;  // hardware row = one mem word
    const FatTree tree = FatTree::create(params).value();

    ExperimentConfig config;
    config.scheduler = "levelwise";
    config.repetitions = reps;
    const ExperimentPoint full = run_experiment(tree, config);
    config.workload.load_factor = 0.5;
    const ExperimentPoint half = run_experiment(tree, config);

    const double batch_us =
        timing.batch_total_ns(tree.node_count(), params.levels,
                              params.parent_arity) /
        1000.0;
    table.add_row({"FT(" + std::to_string(params.levels) + "," +
                       std::to_string(params.parent_arity) + ")",
                   std::to_string(tree.node_count()),
                   std::to_string(tree.total_switches()),
                   TextTable::pct(full.schedulability.mean),
                   TextTable::pct(half.schedulability.mean),
                   TextTable::num(batch_us, 2),
                   std::to_string(2 * params.parent_arity) + "-port"});
  }
  table.print(std::cout);

  std::cout << "\nReading the table: deeper trees need cheaper (lower-radix)"
               "\nswitches but schedule a smaller fraction of a random"
               "\npermutation; the hardware scheduler's full-batch time stays"
               "\nin microseconds either way (paper Table 1).\n";
  return 0;
}
