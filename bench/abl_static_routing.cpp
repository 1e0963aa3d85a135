// Ablation: how much of the level-wise gain comes from GLOBAL STATE versus
// just good path structure? Compare against static destination-based
// routing (OpenSM-style d-mod-k, which provably never down-conflicts across
// distinct destination leaves) on random permutations and on the adversarial
// patterns where static routing's up-side hashing degenerates.
#include <iostream>

#include "bench_args.hpp"
#include "stats/runner.hpp"
#include "util/table.hpp"

using namespace ftsched;

int main(int argc, char** argv) {
  const std::size_t reps = bench::count_arg(argc, argv, 50);

  std::cout << "Ablation: level-wise vs static destination routing (d-mod-k) "
               "vs local\n(" << reps << " reps per cell)\n\n";

  struct Shape {
    std::uint32_t levels;
    std::uint32_t w;
  };
  const TrafficPattern patterns[] = {
      TrafficPattern::kRandomPermutation, TrafficPattern::kShift,
      TrafficPattern::kDigitReversal, TrafficPattern::kTranspose};

  TextTable table({"shape", "pattern", "levelwise", "dmodk",
                   "Local (random)"});
  for (const Shape& shape : {Shape{2, 16}, Shape{3, 8}, Shape{4, 4}}) {
    const FatTree tree = FatTree::symmetric(shape.levels, shape.w);
    for (const TrafficPattern pattern : patterns) {
      std::vector<std::string> row{
          "FT(" + std::to_string(shape.levels) + "," +
              std::to_string(shape.w) + ")",
          std::string(to_string(pattern))};
      for (const char* name : {"levelwise", "dmodk", "local-random"}) {
        ExperimentConfig config;
        config.scheduler = name;
        config.pattern = pattern;
        config.repetitions = reps;
        const ExperimentPoint point = run_experiment(tree, config);
        row.push_back(TextTable::pct(point.schedulability.mean));
      }
      table.add_row(row);
    }
  }
  table.print(std::cout);
  std::cout
      << "\nTakeaway: d-mod-k beats the adaptive local baseline on random "
         "permutations\n(its down paths are conflict-free by construction) "
         "but pays brutally on\npatterns whose destinations share low digits "
         "— while the level-wise\nscheduler, holding the actual global state, "
         "is the best or tied on every\npattern without per-pattern tuning.\n";
  return 0;
}
