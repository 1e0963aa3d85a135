// Ablation: offered load. Partial permutations at load factors 0.1 - 1.0 —
// where does the local baseline start losing circuits, and how far does the
// level-wise scheduler push the knee?
#include <iostream>

#include "bench_args.hpp"
#include "stats/runner.hpp"
#include "util/table.hpp"

using namespace ftsched;

int main(int argc, char** argv) {
  const std::size_t reps = bench::count_arg(argc, argv, 50);

  std::cout << "Ablation: schedulability vs offered load "
               "(FT(3,8), 512 nodes, partial permutations, " << reps
            << " reps)\n\n";

  const FatTree tree = FatTree::symmetric(3, 8);
  TextTable table({"load", "Global (level-wise)", "Local (random)",
                   "Local (greedy)", "turnback"});
  for (const double load : {0.1, 0.25, 0.5, 0.75, 0.9, 1.0}) {
    std::vector<std::string> row{TextTable::pct(load, 0)};
    for (const char* name :
         {"levelwise", "local-random", "local", "turnback"}) {
      ExperimentConfig config;
      config.scheduler = name;
      config.repetitions = reps;
      config.workload.load_factor = load;
      const ExperimentPoint point = run_experiment(tree, config);
      row.push_back(TextTable::pct(point.schedulability.mean));
    }
    table.add_row(row);
  }
  table.print(std::cout);
  std::cout << "\nTakeaway: at light load everything schedules; the gap "
               "opens as the\nfabric saturates, which is exactly the regime "
               "long-lived connections\ncreate (paper §1: the penalty of low "
               "bandwidth utilization).\n";
  return 0;
}
