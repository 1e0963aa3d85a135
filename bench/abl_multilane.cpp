// Ablation: multi-lane hardware pipeline. The paper's design accepts one
// request per block-cycle; banking the availability RAMs row-interleaved
// lets K requests enter per cycle at the cost of bank-conflict stalls.
// Sweep K and report speedup and the conflict tax on random permutations.
#include <iostream>

#include "bench_args.hpp"
#include "hw/multilane.hpp"
#include "stats/summary.hpp"
#include "util/table.hpp"
#include "workload/patterns.hpp"

using namespace ftsched;

int main(int argc, char** argv) {
  const std::size_t reps = bench::count_arg(argc, argv, 20);

  std::cout << "Ablation: multi-lane scheduler pipeline "
               "(random permutations, " << reps << " reps)\n\n";

  TextTable table({"shape", "lanes", "banks", "cycles", "speedup",
                   "stall cycles", "granted"});
  struct Shape {
    std::uint32_t levels;
    std::uint32_t w;
  };
  struct LaneConfig {
    std::uint32_t lanes;
    std::uint32_t banks;  // 0 = same as lanes
  };
  for (const Shape& shape : {Shape{3, 8}, Shape{3, 16}}) {
    const FatTree tree = FatTree::symmetric(shape.levels, shape.w);
    for (const LaneConfig cfg : {LaneConfig{1, 0}, LaneConfig{2, 0},
                                 LaneConfig{4, 0}, LaneConfig{4, 16},
                                 LaneConfig{8, 0}, LaneConfig{8, 32}}) {
      MultilaneOptions options;
      options.lanes = cfg.lanes;
      options.banks = cfg.banks;
      MultilanePipeline pipeline(tree, options);
      Xoshiro256ss rng(31);
      std::vector<double> cycles;
      std::vector<double> speedups;
      std::vector<double> stalls;
      std::vector<double> granted;
      for (std::size_t rep = 0; rep < reps; ++rep) {
        const auto batch = random_permutation(tree.node_count(), rng);
        const MultilaneReport report = pipeline.schedule(batch);
        cycles.push_back(static_cast<double>(report.cycles));
        speedups.push_back(report.speedup());
        stalls.push_back(static_cast<double>(report.bank_stall_cycles));
        granted.push_back(static_cast<double>(report.result.granted_count()));
      }
      table.add_row({"FT(" + std::to_string(shape.levels) + "," +
                         std::to_string(shape.w) + ")",
                     std::to_string(cfg.lanes),
                     std::to_string(cfg.banks == 0 ? cfg.lanes : cfg.banks),
                     TextTable::num(Summary::from(cycles).mean, 1),
                     TextTable::num(Summary::from(speedups).mean, 2) + "x",
                     TextTable::num(Summary::from(stalls).mean, 1),
                     TextTable::num(Summary::from(granted).mean, 1)});
    }
  }
  table.print(std::cout);
  std::cout << "\nTakeaway: grants are identical at every configuration "
               "(lane order preserves\nthe sequential semantics). With banks "
               "= lanes, random destination rows\ncollide birthday-style and "
               "the speedup is sublinear; widening to 4x banks\nrecovers "
               "most of the ideal K.\n";
  return 0;
}
