// Dynamic circuit traffic: long-lived connections arrive and depart, and the
// fabric manager must admit each one against whatever is already placed —
// the workload the paper's introduction motivates. This example runs an
// open/close churn process at several offered loads and compares blocking
// probability for:
//   * plain level-wise admission (ConnectionManager::open, no moves),
//   * admission with bounded circuit rearrangement (up to four moves per
//     open, an extension of this repository).
//
//   ./dynamic_traffic [levels] [arity] [events] [seed]   (defaults: 3 8 20000 1)
#include <cstdlib>
#include <iostream>
#include <optional>
#include <vector>

#include "core/connection_manager.hpp"
#include "util/parse.hpp"
#include "util/table.hpp"

using namespace ftsched;

namespace {

struct ChurnResult {
  std::uint64_t attempts = 0;
  std::uint64_t blocked = 0;
  double blocking() const {
    return attempts == 0 ? 0.0
                         : static_cast<double>(blocked) /
                               static_cast<double>(attempts);
  }
};

/// Runs an arrival/departure process: at each event, with probability
/// `arrival_bias` a request between a FREE injector and a FREE ejector
/// arrives (so every blocked attempt is a FABRIC rejection, the quantity
/// rearrangement can influence), otherwise a random open circuit departs.
ChurnResult churn(ConnectionManager& manager, std::uint32_t max_moves,
                  std::uint64_t node_count, std::uint64_t events,
                  double arrival_bias, std::uint64_t seed) {
  Xoshiro256ss rng(seed);
  struct OpenCircuit {
    ConnectionId id;
    Request request;
  };
  std::vector<OpenCircuit> open;
  std::vector<bool> src_busy(node_count, false);
  std::vector<bool> dst_busy(node_count, false);
  ChurnResult result;
  for (std::uint64_t e = 0; e < events; ++e) {
    const bool arrive = open.empty() || rng.uniform01() < arrival_bias;
    if (arrive) {
      // Rejection-sample free endpoints; give up if the fabric is
      // endpoint-saturated.
      Request request{0, 0};
      bool found = false;
      for (int tries = 0; tries < 64; ++tries) {
        request.src = rng.below(node_count);
        request.dst = rng.below(node_count);
        if (request.src != request.dst && !src_busy[request.src] &&
            !dst_busy[request.dst]) {
          found = true;
          break;
        }
      }
      if (!found) continue;
      ++result.attempts;
      if (const auto id = manager.open(request, max_moves)) {
        open.push_back(OpenCircuit{*id, request});
        src_busy[request.src] = true;
        dst_busy[request.dst] = true;
      } else {
        ++result.blocked;
      }
    } else {
      const std::size_t pick = rng.below(open.size());
      const Status s = manager.close(open[pick].id);
      if (!s.ok()) {
        std::cerr << "close failed: " << s.message() << "\n";
        std::exit(1);
      }
      src_busy[open[pick].request.src] = false;
      dst_busy[open[pick].request.dst] = false;
      open.erase(open.begin() + static_cast<std::ptrdiff_t>(pick));
    }
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  // levels, arity, events, seed: each a plain unsigned integer, the first
  // two 32-bit.
  std::uint64_t args[] = {3, 8, 20000, 1};
  if (argc > 5) {
    std::cerr << "usage: dynamic_traffic [levels] [arity] [events] [seed]\n";
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
  const std::uint64_t events = args[2];
  const std::uint64_t seed = args[3];
  auto tree_or = FatTree::create(FatTreeParams::symmetric(levels, arity));
  if (!tree_or.ok()) {
    std::cerr << tree_or.message() << "\n";
    return 2;
  }
  const FatTree& tree = tree_or.value();
  std::cout << "Dynamic circuit churn on FT(" << levels << "," << arity
            << "), " << tree.node_count() << " PEs, " << events
            << " events per cell\n\n";

  TextTable table({"arrival bias", "plain blocking", "rearranging blocking",
                   "moves", "rearranged grants"});
  for (const double bias : {0.55, 0.65, 0.75, 0.85}) {
    ConnectionManager plain(tree);
    const ChurnResult p =
        churn(plain, 0, tree.node_count(), events, bias, seed);

    ConnectionManager rearranging(tree);
    const ChurnResult r =
        churn(rearranging, 4, tree.node_count(), events, bias, seed);

    table.add_row({TextTable::num(bias, 2), TextTable::pct(p.blocking()),
                   TextTable::pct(r.blocking()),
                   std::to_string(rearranging.stats().moves),
                   std::to_string(rearranging.stats().rearranged_grants)});
  }
  table.print(std::cout);

  std::cout << "\nHigher arrival bias = more circuits held concurrently = "
               "more contention.\nRearrangement converts part of the "
               "blocking into circuit moves; each move\nis one circuit "
               "briefly re-routed, the price of admitting one more tenant.\n";
  return 0;
}
