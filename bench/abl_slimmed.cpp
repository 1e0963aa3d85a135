// Ablation: non-symmetric arity (m != w), which paper §2 notes the algorithm
// also covers. Slimmed trees (w < m) oversubscribe every level — the cheap
// fabric a cost-conscious cluster builds — and fattened trees (w > m) add
// headroom. Sweep the w:m ratio at fixed node count and watch the
// level-wise/local gap.
#include <iostream>

#include "bench_args.hpp"
#include "stats/runner.hpp"
#include "util/table.hpp"

using namespace ftsched;

int main(int argc, char** argv) {
  const std::size_t reps = bench::count_arg(argc, argv, 50);

  std::cout << "Ablation: slimmed / fattened fat trees "
               "(three levels, m = 4 -> 64 nodes, " << reps << " reps)\n\n";

  TextTable table({"FT(l,m,w)", "oversub", "levelwise", "lw-reqmajor",
                   "Local (random)", "gap (reqmajor)"});
  for (std::uint32_t w : {2u, 3u, 4u, 6u, 8u}) {
    const FatTree tree = FatTree::create(FatTreeParams{3, 4, w}).value();
    ExperimentConfig config;
    config.repetitions = reps;
    config.scheduler = "levelwise";
    const ExperimentPoint global_ff = run_experiment(tree, config);
    config.scheduler = "levelwise-reqmajor";
    const ExperimentPoint global_rm = run_experiment(tree, config);
    config.scheduler = "local-random";
    const ExperimentPoint local = run_experiment(tree, config);
    const double gap = global_rm.schedulability.mean -
                       local.schedulability.mean;
    table.add_row(
        {"FT(3,4," + std::to_string(w) + ")",
         TextTable::num(4.0 / w, 2) + ":1",
         TextTable::pct(global_ff.schedulability.mean),
         TextTable::pct(global_rm.schedulability.mean),
         TextTable::pct(local.schedulability.mean),
         std::string(gap >= 0 ? "+" : "").append(TextTable::pct(gap))});
  }
  table.print(std::cout);
  std::cout
      << "\nTakeaway: the theorems only need the digit structure, not "
         "symmetry, so the\nalgorithm runs unchanged on m != w. Under heavy "
         "2:1 oversubscription the\npaper's level-major order loses its edge: "
         "a request rejected at level 1\nkeeps holding its level-0 channels "
         "while the rest of the batch is still\nbeing placed at level 0. "
         "Request-major order with immediate rollback\n(lw-reqmajor) returns "
         "those channels in time and stays ahead of the local\nbaseline at "
         "every ratio. With w > m both approaches converge toward 100%\nas "
         "the fabric becomes rearrangeable.\n";
  return 0;
}
