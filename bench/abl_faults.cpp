// Ablation: graceful degradation under cable faults. Failed cables are
// masked as permanently occupied (both directions); schedulers route around
// them through their normal availability logic. Sweep the cable failure
// rate and compare how much schedulability each algorithm retains — global
// information should degrade more gracefully because it sees the damage on
// BOTH sides of every candidate port — and how evenly each policy loads
// the surviving subtree planes (linkstate/imbalance.hpp): the balanced
// policies buy their keep here, steering circuits off the depleted planes.
//
// Usage: abl_faults [reps] [--json[=FILE]]
//
// --json writes BENCH_abl_faults.json: one point per (scheduler, rate) with
// the schedulability summary and the post-batch residual-fabric imbalance
// summaries (imbalance_max_over_mean / imbalance_cov / imbalance_hotspot),
// the same summary shapes the degradation sweep emits.
#include <iostream>
#include <string>
#include <vector>

#include "bench_args.hpp"
#include "core/registry.hpp"
#include "linkstate/faults.hpp"
#include "linkstate/imbalance.hpp"
#include "obs/env.hpp"
#include "stats/summary.hpp"
#include "util/json.hpp"
#include "util/table.hpp"
#include "workload/patterns.hpp"

using namespace ftsched;

namespace {

struct AblationPoint {
  std::string scheduler;
  double rate = 0.0;
  Summary schedulability;
  Summary imbalance_max_over_mean;
  Summary imbalance_cov;
  Summary imbalance_hotspot;
};

void write_json(const std::string& path, std::size_t reps,
                const std::vector<AblationPoint>& points) {
  const auto head = [&](std::ostream& os) { os << ",\"reps\":" << reps; };
  const auto point = [](std::ostream& os, const AblationPoint& p) {
    os << "{\"levels\":3,\"arity\":8,\"fault_rate\":" << p.rate
       << ",\"scheduler\":\"" << json_escape(p.scheduler) << '"';
    write_json_member(os, "schedulability", p.schedulability);
    write_json_member(os, "imbalance_max_over_mean",
                      p.imbalance_max_over_mean);
    write_json_member(os, "imbalance_cov", p.imbalance_cov);
    write_json_member(os, "imbalance_hotspot", p.imbalance_hotspot);
    os << '}';
  };
  if (!obs::write_artifact(path, "abl_faults", head, points, point)) {
    std::cerr << "cannot open " << path << "\n";
    return;
  }
  std::cout << "wrote " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t reps = 40;
  bool reps_seen = false;
  bool json = false;
  std::string json_path = "BENCH_abl_faults.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      json = true;
      json_path = arg.substr(7);
    } else if (!bench::read_reps_arg(arg, reps_seen, reps)) {
      std::cerr << "usage: abl_faults [reps] [--json[=FILE]]\n";
      return 2;
    }
  }

  const FatTree tree = FatTree::symmetric(3, 8);
  std::cout << "Ablation: schedulability vs cable failure rate "
               "(FT(3,8), 512 nodes, " << reps << " reps)\n\n";

  TextTable table({"fault rate", "Global (level-wise)", "Balanced",
                   "Local (random)", "turnback", "hotspot ff/bal",
                   "retained (global)"});
  const std::vector<std::string> schedulers = {
      "levelwise", "levelwise-balanced", "local-random", "turnback"};
  std::vector<AblationPoint> points;
  double baseline_global = 0.0;
  for (const double rate : {0.0, 0.02, 0.05, 0.10, 0.20}) {
    std::vector<std::string> row{TextTable::pct(rate, 0)};
    double global_mean = 0.0;
    double hotspot_ff = 0.0;
    double hotspot_bal = 0.0;
    for (const std::string& name : schedulers) {
      auto scheduler = make_scheduler(name, 3).value();
      LinkState state(tree);
      std::vector<double> ratios;
      std::vector<double> imb_mom, imb_cov, imb_hot;
      Xoshiro256ss rng(13);
      for (std::size_t rep = 0; rep < reps; ++rep) {
        const FaultPlan plan = random_cable_faults(tree, rate, 1000 + rep);
        state.reset();
        apply_faults(state, plan);
        scheduler->reseed(500 + rep);
        const auto batch = random_permutation(tree.node_count(), rng);
        ratios.push_back(
            scheduler->schedule(tree, batch, state).schedulability_ratio());
        // Residual-fabric quality with the batch's circuits still in place.
        const ImbalanceReport imbalance = measure_imbalance(state);
        imb_mom.push_back(imbalance.worst_max_over_mean);
        imb_cov.push_back(imbalance.worst_cov);
        imb_hot.push_back(imbalance.worst_hotspot);
      }
      const Summary summary = Summary::from(ratios);
      AblationPoint point;
      point.scheduler = name;
      point.rate = rate;
      point.schedulability = summary;
      point.imbalance_max_over_mean = Summary::from(imb_mom);
      point.imbalance_cov = Summary::from(imb_cov);
      point.imbalance_hotspot = Summary::from(imb_hot);
      if (name == "levelwise") {
        global_mean = summary.mean;
        hotspot_ff = point.imbalance_hotspot.mean;
      }
      if (name == "levelwise-balanced") {
        hotspot_bal = point.imbalance_hotspot.mean;
      }
      row.push_back(TextTable::pct(summary.mean));
      points.push_back(std::move(point));
    }
    if (rate == 0.0) baseline_global = global_mean;
    row.push_back(TextTable::num(hotspot_ff, 3) + "x/" +
                  TextTable::num(hotspot_bal, 3) + "x");
    row.push_back(TextTable::pct(global_mean / baseline_global));
    table.add_row(row);
  }
  table.print(std::cout);
  std::cout << "\nTakeaway: the level-wise AND row absorbs faults exactly "
               "like contention;\nno special fault handling exists anywhere "
               "in the scheduler, yet it keeps\nmost of its advantage as the "
               "fabric decays. The balanced policy trades a\nsliver of "
               "schedulability for a much flatter load on the surviving "
               "planes.\n";
  if (json) write_json(json_path, reps, points);
  return 0;
}
