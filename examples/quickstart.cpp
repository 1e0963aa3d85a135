// Quickstart: build a fat tree, generate a random permutation, schedule it
// with the paper's level-wise algorithm and with the conventional local
// baseline, verify both, and print the schedulability ratios.
//
//   ./quickstart [levels] [arity] [seed]     (defaults: 3 8 2006)
#include <cstdint>
#include <iostream>
#include <optional>

#include "core/registry.hpp"
#include "core/verifier.hpp"
#include "stats/summary.hpp"
#include "util/parse.hpp"
#include "util/table.hpp"
#include "workload/patterns.hpp"

using namespace ftsched;

int main(int argc, char** argv) {
  // levels, arity, seed: each a plain unsigned integer, the first two
  // 32-bit.
  std::uint64_t args[] = {3, 8, 2006};
  if (argc > 4) {
    std::cerr << "usage: quickstart [levels] [arity] [seed]\n";
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

  // 1. Build and validate the topology.
  auto tree_or = FatTree::create(FatTreeParams::symmetric(levels, arity));
  if (!tree_or.ok()) {
    std::cerr << "bad tree parameters: " << tree_or.message() << "\n";
    return 1;
  }
  const FatTree tree = std::move(tree_or).value();
  std::cout << "FT(l=" << levels << ", w=" << arity << "): "
            << tree.node_count() << " processing elements, "
            << tree.total_switches() << " switches\n\n";

  // 2. One random communication permutation (the paper's workload).
  Xoshiro256ss rng(seed);
  const std::vector<Request> batch = random_permutation(tree.node_count(), rng);

  // 3. Schedule with each algorithm and verify the result.
  TextTable table({"scheduler", "granted", "requests", "ratio"});
  for (const std::string name : {"levelwise", "local", "local-random"}) {
    auto scheduler = make_scheduler(name, seed).value();
    LinkState state(tree);
    const ScheduleResult result = scheduler->schedule(tree, batch, state);
    const Status verified = verify_schedule(tree, batch, result, &state);
    if (!verified.ok()) {
      std::cerr << name << ": verification FAILED: " << verified.message()
                << "\n";
      return 1;
    }
    table.add_row({std::string(scheduler->name()),
                   std::to_string(result.granted_count()),
                   std::to_string(result.outcomes.size()),
                   TextTable::pct(result.schedulability_ratio())});
  }
  table.print(std::cout);

  std::cout << "\nEvery granted circuit was verified: legal per Theorems 1-2,"
               "\nno channel shared, link state consistent.\n";
  return 0;
}
