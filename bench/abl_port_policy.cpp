// Ablation: port-selection policy. The paper's hardware fixes "select the
// first available port" (a priority selector); this sweep quantifies what
// that choice costs or buys against random and round-robin selection, for
// both the level-wise scheduler and the local baseline, plus the
// near-optimal matching reference on two-level trees.
#include <iostream>

#include "bench_args.hpp"
#include "stats/runner.hpp"
#include "util/table.hpp"

using namespace ftsched;

int main(int argc, char** argv) {
  const std::size_t reps = bench::count_arg(argc, argv, 50);

  std::cout << "Ablation: port-selection policy "
               "(random permutations, " << reps << " reps)\n\n";

  struct Shape {
    std::uint32_t levels;
    std::uint32_t w;
  };
  const Shape shapes[] = {{2, 16}, {3, 8}, {4, 5}};
  const char* schedulers[] = {"levelwise", "levelwise-random", "levelwise-rr",
                              "local", "local-random", "local-rr"};

  TextTable table({"shape", "scheduler", "schedulability"});
  for (const Shape& shape : shapes) {
    const FatTree tree = FatTree::symmetric(shape.levels, shape.w);
    for (const char* name : schedulers) {
      ExperimentConfig config;
      config.scheduler = name;
      config.repetitions = reps;
      const ExperimentPoint point = run_experiment(tree, config);
      table.add_row({"FT(" + std::to_string(shape.levels) + "," +
                         std::to_string(shape.w) + ")",
                     name, point.schedulability.ratio_string()});
    }
    if (shape.levels == 2) {
      ExperimentConfig config;
      config.scheduler = "matching2";
      config.repetitions = reps;
      const ExperimentPoint point = run_experiment(tree, config);
      table.add_row({"FT(2," + std::to_string(shape.w) + ")",
                     "matching2 (reference)",
                     point.schedulability.ratio_string()});
    }
  }
  table.print(std::cout);
  std::cout << "\nTakeaway: the policy barely moves the level-wise scheduler "
               "(the AND row\nalready encodes both sides), but moves the "
               "local baseline a lot — greedy\nherds requests onto low ports "
               "and collides them downstream.\n";
  return 0;
}
