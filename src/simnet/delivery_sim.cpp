#include "simnet/delivery_sim.hpp"

#include <array>

#include "topology/circuit_labels.hpp"

namespace ftsched {

Status DeliverySim::configure(std::span<const Path> circuits) {
  for (const Path& path : circuits) {
    Status legal = check_path_legal(tree_, path);
    if (!legal.ok()) return legal;

    const std::uint32_t H = path.ancestor_level;
    const std::uint64_t src_leaf = tree_.leaf_switch(path.src).index;
    const std::uint64_t dst_leaf = tree_.leaf_switch(path.dst).index;

    if (H == 0) {
      // Circuit inside one leaf crossbar: PE port to PE port.
      SwitchNode& sw = network_.at(SwitchId{0, src_leaf});
      Status s = sw.connect(sw.down_port(tree_.leaf_port(path.src)),
                            sw.down_port(tree_.leaf_port(path.dst)));
      if (!s.ok()) return s;
      circuits_.push_back(path);
      continue;
    }

    // σ_h and δ_h of every level the circuit touches, in one label walk.
    std::array<std::uint64_t, kMaxTreeLevels> sigma{};
    std::array<std::uint64_t, kMaxTreeLevels> delta{};
    CircuitLabels labels = CircuitLabels::start(tree_, src_leaf, dst_leaf);
    for (std::uint32_t h = 0; h <= H; ++h) {
      sigma[h] = labels.sigma();
      delta[h] = labels.delta();
      if (h < H) labels.ascend(tree_, path.ports[h]);
    }

    // Upward side: σ_0 enters from the source PE; σ_h (h >= 1) from the
    // down port leading back to σ_{h-1}; each exits through up port P_h.
    for (std::uint32_t h = 0; h < H; ++h) {
      SwitchNode& sw = network_.at(SwitchId{h, sigma[h]});
      const std::uint32_t input =
          h == 0 ? sw.down_port(tree_.leaf_port(path.src))
                 : sw.down_port(
                       tree_.parent_down_port(SwitchId{h - 1, sigma[h - 1]}));
      Status s = sw.connect(input, sw.up_port(path.ports[h]));
      if (!s.ok()) return s;
    }

    // Ancestor: arrives from σ_{H-1}, leaves toward δ_{H-1}.
    {
      SwitchNode& sw = network_.at(SwitchId{H, sigma[H]});
      Status s = sw.connect(
          sw.down_port(tree_.parent_down_port(SwitchId{H - 1, sigma[H - 1]})),
          sw.down_port(tree_.parent_down_port(SwitchId{H - 1, delta[H - 1]})));
      if (!s.ok()) return s;
    }

    // Downward side: δ_h receives from its parent through upper port P_h
    // (Theorem 2) and forwards down toward δ_{h-1} / the destination PE.
    for (std::uint32_t h = H; h-- > 0;) {
      SwitchNode& sw = network_.at(SwitchId{h, delta[h]});
      const std::uint32_t output =
          h == 0 ? sw.down_port(tree_.leaf_port(path.dst))
                 : sw.down_port(
                       tree_.parent_down_port(SwitchId{h - 1, delta[h - 1]}));
      Status s = sw.connect(sw.up_port(path.ports[h]), output);
      if (!s.ok()) return s;
    }

    circuits_.push_back(path);
  }
  return Status();
}

DeliveryReport DeliverySim::run() {
  Simulator sim;
  DeliveryReport report;
  report.injected = circuits_.size();

  struct Cell {
    NodeId expected_dst;
    SimTime injected_at;
  };

  // Recursive hop function: a cell sits at (switch, dense input port).
  // std::function allows the self-reference; one cycle per hop.
  std::function<void(Cell, SwitchId, std::uint32_t)> arrive =
      [&](Cell cell, SwitchId sw, std::uint32_t input) {
        const auto output = network_.at(sw).route(input);
        if (!output) {
          ++report.stuck;
          return;
        }
        const NetworkModel::Hop hop = network_.next_hop(sw, *output);
        if (hop.to_node) {
          if (hop.node == cell.expected_dst) {
            ++report.delivered;
            report.latencies.push_back(sim.now() - cell.injected_at + 1);
            report.last_arrival = std::max(report.last_arrival, sim.now() + 1);
          } else {
            ++report.misdelivered;
          }
          return;
        }
        sim.schedule_in(1, [&, cell, hop] { arrive(cell, hop.next, hop.input); });
      };

  for (const Path& path : circuits_) {
    const SwitchId entry = tree_.leaf_switch(path.src);
    const std::uint32_t input =
        network_.at(entry).down_port(tree_.leaf_port(path.src));
    const Cell cell{path.dst, 0};
    sim.schedule_at(0, [&, cell, entry, input] { arrive(cell, entry, input); });
  }
  sim.run();
  return report;
}

void DeliverySim::reset() {
  network_.clear();
  circuits_.clear();
}

}  // namespace ftsched
