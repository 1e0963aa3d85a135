// Table 1: performance of the pipelined hardware scheduler (paper §6) for
// three-level fat trees with 64 (4×4 switches), 512 (8×8) and 4096 (16×16)
// nodes. The cycle COUNTS come from the cycle-accurate pipeline model
// streaming a full permutation; the nanosecond scaling comes from the
// Table-1-calibrated TimingModel (base 5.5 ns + 1 ns per priority-selector
// level). Paper values printed alongside for comparison.
#include <iostream>
#include <optional>

#include "hw/pipeline.hpp"
#include "hw/timing_model.hpp"
#include "util/parse.hpp"
#include "util/table.hpp"
#include "workload/patterns.hpp"

using namespace ftsched;

int main(int argc, char** argv) {
  const std::optional<std::uint64_t> seed =
      argc > 1 ? parse_unsigned(argv[1]) : std::uint64_t{2006};
  if (argc > 2 || !seed) {
    std::cerr << "usage: table1_hw_timing [seed]   (default 2006)\n";
    return 2;
  }

  std::cout << "Table 1: hardware scheduler performance "
               "(three-level fat tree, one full permutation)\n\n";

  struct PaperRow {
    std::uint32_t w;
    double single_ns;
    double all_ns;
  };
  const PaperRow paper_rows[] = {{4, 15.0, 480.0},
                                 {8, 17.0, 4352.0},
                                 {16, 19.0, 38912.0}};

  const TimingModel timing;
  TextTable table({"N (switch)", "single req (ns)", "paper", "all reqs (ns)",
                   "paper", "cycles", "granted", "RAW fwds"});
  for (const PaperRow& row : paper_rows) {
    const FatTree tree = FatTree::symmetric(3, row.w);
    LevelwisePipeline pipeline(tree);
    Xoshiro256ss rng(*seed);
    const auto batch = random_permutation(tree.node_count(), rng);
    const PipelineReport report = pipeline.schedule(batch);

    const double single = timing.request_latency_ns(3, row.w);
    const double all =
        timing.batch_throughput_ns(tree.node_count(), row.w);
    table.add_row(
        {std::to_string(tree.node_count()) + " (" + std::to_string(row.w) +
             "x" + std::to_string(row.w) + ")",
         TextTable::num(single, 1), TextTable::num(row.single_ns, 1),
         TextTable::num(all, 0), TextTable::num(row.all_ns, 0),
         std::to_string(report.cycles),
         std::to_string(report.result.granted_count()) + "/" +
             std::to_string(batch.size()),
         std::to_string(report.raw_forwards)});
  }
  table.print(std::cout);

  std::cout << "\nNotes: 'all reqs' uses the paper's accounting (N cycles, "
               "fill excluded);\nthe cycle column is the model's exact count "
               "N + blocks - 1. The paper's\n<40us claim for 4096 nodes: "
            << TextTable::num(timing.batch_total_ns(4096, 3, 16) / 1000.0, 2)
            << " us including fill.\n";
  return 0;
}
