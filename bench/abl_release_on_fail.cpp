// Ablation: what a failed request leaves behind.
//   * local baseline: tear down the partial path (default) vs hold it
//     ("local-hold", modeling switches that do not reclaim reservations
//     within the scheduling window),
//   * level-wise: release rejected requests' lower-level channels vs keep
//     them (the pipelined hardware has no rollback path) — measured by the
//     residual occupancy a following batch inherits.
#include <iostream>

#include "bench_args.hpp"
#include "core/levelwise_scheduler.hpp"
#include "stats/runner.hpp"
#include "util/table.hpp"
#include "workload/patterns.hpp"

using namespace ftsched;

int main(int argc, char** argv) {
  const std::size_t reps = bench::count_arg(argc, argv, 50);

  std::cout << "Ablation: release-on-fail (" << reps << " reps)\n\n";

  // Part 1: local baseline, release vs hold.
  TextTable part1({"shape", "scheduler", "schedulability"});
  struct Shape {
    std::uint32_t levels;
    std::uint32_t w;
  };
  for (const Shape& shape : {Shape{3, 8}, Shape{4, 5}}) {
    const FatTree tree = FatTree::symmetric(shape.levels, shape.w);
    for (const char* name : {"local", "local-hold"}) {
      ExperimentConfig config;
      config.scheduler = name;
      config.repetitions = reps;
      config.allow_residual = std::string(name) == "local-hold";
      const ExperimentPoint point = run_experiment(tree, config);
      part1.add_row({"FT(" + std::to_string(shape.levels) + "," +
                         std::to_string(shape.w) + ")",
                     name, point.schedulability.ratio_string()});
    }
  }
  part1.print(std::cout);

  // Part 2: level-wise residual occupancy — channels a rejected request
  // would strand if the scheduler (like the hardware pipeline) cannot roll
  // back, measured as extra occupied channels after a full permutation.
  std::cout << "\nLevel-wise residual occupancy without rollback:\n\n";
  TextTable part2(
      {"shape", "granted-only channels", "with residue", "stranded"});
  for (const Shape& shape : {Shape{3, 8}, Shape{4, 5}}) {
    const FatTree tree = FatTree::symmetric(shape.levels, shape.w);
    Xoshiro256ss rng(7);
    std::uint64_t clean_total = 0;
    std::uint64_t residue_total = 0;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      const auto batch = random_permutation(tree.node_count(), rng);
      LevelwiseOptions release;
      LevelwiseScheduler with_release(release);
      LinkState a(tree);
      (void)with_release.schedule(tree, batch, a);
      clean_total += a.total_occupied();

      LevelwiseOptions hold;
      hold.release_rejected = false;
      LevelwiseScheduler without_release(hold);
      LinkState b(tree);
      (void)without_release.schedule(tree, batch, b);
      residue_total += b.total_occupied();
    }
    part2.add_row({"FT(" + std::to_string(shape.levels) + "," +
                       std::to_string(shape.w) + ")",
                   std::to_string(clean_total / reps),
                   std::to_string(residue_total / reps),
                   "+" + std::to_string((residue_total - clean_total) / reps)});
  }
  part2.print(std::cout);
  std::cout << "\nTakeaway: within one batch the grant set is identical "
               "either way\n(level-major order); rollback only matters for "
               "what the NEXT batch\ninherits — the stranded channels column "
               "is what the FPGA design pays\nfor having no rollback path.\n";
  return 0;
}
