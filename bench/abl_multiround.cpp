// Ablation: rounds to drain a permutation. Circuit scheduling is time-
// slotted: each slot, the scheduler grants what it can, granted circuits
// transmit and release, and the rejects retry next slot. Fewer slots =
// higher delivered bandwidth; this turns the schedulability ratio into the
// execution-time penalty the paper's introduction warns about.
#include <iostream>

#include "bench_args.hpp"
#include "core/registry.hpp"
#include "stats/summary.hpp"
#include "util/table.hpp"
#include "workload/patterns.hpp"

using namespace ftsched;

namespace {

std::uint64_t rounds_to_drain(const FatTree& tree, Scheduler& scheduler,
                              std::vector<Request> pending, LinkState& state) {
  std::uint64_t rounds = 0;
  while (!pending.empty()) {
    ++rounds;
    FT_REQUIRE(rounds < 1000);  // a correct scheduler always progresses
    state.reset();
    const ScheduleResult result = scheduler.schedule(tree, pending, state);
    std::vector<Request> next;
    for (std::size_t i = 0; i < pending.size(); ++i) {
      if (!result.outcomes[i].granted) next.push_back(pending[i]);
    }
    FT_REQUIRE(next.size() < pending.size());  // progress every slot
    pending = std::move(next);
  }
  return rounds;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t reps = bench::count_arg(argc, argv, 30);

  std::cout << "Ablation: time slots needed to deliver one full permutation "
               "(" << reps << " reps)\n\n";

  struct Shape {
    std::uint32_t levels;
    std::uint32_t w;
  };
  TextTable table({"shape", "scheduler", "rounds avg", "rounds max"});
  for (const Shape& shape : {Shape{2, 16}, Shape{3, 8}, Shape{4, 5}}) {
    const FatTree tree = FatTree::symmetric(shape.levels, shape.w);
    for (const char* name : {"levelwise", "local-random", "local"}) {
      auto scheduler = make_scheduler(name, 11).value();
      LinkState state(tree);
      Xoshiro256ss rng(17);
      std::vector<double> rounds;
      for (std::size_t rep = 0; rep < reps; ++rep) {
        scheduler->reseed(1000 + rep);
        rounds.push_back(static_cast<double>(rounds_to_drain(
            tree, *scheduler, random_permutation(tree.node_count(), rng),
            state)));
      }
      const Summary summary = Summary::from(rounds);
      table.add_row({"FT(" + std::to_string(shape.levels) + "," +
                         std::to_string(shape.w) + ")",
                     name, TextTable::num(summary.mean, 2),
                     TextTable::num(summary.max, 0)});
    }
  }
  table.print(std::cout);
  std::cout << "\nTakeaway: a ~30-point schedulability gap compounds into "
               "roughly an\nextra slot (or more) per permutation for the "
               "local scheduler — this is\nthe bandwidth-utilization penalty "
               "quantified.\n";
  return 0;
}
