// Packet-switched backdrop: latency vs offered load on the same fabric the
// circuit scheduler manages, for adaptive and static (d-mod-k) per-hop
// routing. This is the regime the paper's circuit scheduling escapes for
// long-lived connections — once a circuit is granted, its "latency" is one
// traversal with zero queueing, at the price of the setup pass (Table 1).
#include <iostream>

#include "bench_args.hpp"
#include "simnet/packet_sim.hpp"
#include "util/table.hpp"

using namespace ftsched;

int main(int argc, char** argv) {
  const std::uint64_t measure = bench::count_arg(argc, argv, 3000);

  const FatTree tree = FatTree::symmetric(3, 8);
  std::cout << "Packet switching on FT(3,8), 512 PEs, uniform traffic "
               "(measure window " << measure << " cycles)\n\n";

  TextTable table({"offered load", "routing", "throughput", "avg latency",
                   "max latency", "queue fill"});
  for (const double rate : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    for (const PacketRouting routing :
         {PacketRouting::kAdaptive, PacketRouting::kStatic}) {
      PacketSimOptions options;
      options.injection_rate = rate;
      options.routing = routing;
      options.measure_cycles = measure;
      PacketSim sim(tree, options);
      const PacketSimReport report = sim.run();
      table.add_row(
          {TextTable::pct(rate, 0),
           routing == PacketRouting::kAdaptive ? "adaptive" : "d-mod-k",
           TextTable::pct(report.throughput),
           TextTable::num(report.avg_latency, 1),
           TextTable::num(report.max_latency, 0),
           TextTable::pct(report.avg_queue_occupancy)});
    }
  }
  table.print(std::cout);

  std::cout << "\nWormhole switching (4-flit messages, adaptive routing):\n\n";
  TextTable worm({"offered msgs", "flit load", "throughput (msgs)",
                  "avg tail latency", "queue fill"});
  for (const double rate : {0.05, 0.1, 0.15, 0.2, 0.25}) {
    PacketSimOptions options;
    options.injection_rate = rate;
    options.flits_per_packet = 4;
    options.measure_cycles = measure;
    PacketSim sim(tree, options);
    const PacketSimReport report = sim.run();
    worm.add_row({TextTable::pct(rate, 0), TextTable::pct(rate * 4, 0),
                  TextTable::pct(report.throughput),
                  TextTable::num(report.avg_latency, 1),
                  TextTable::pct(report.avg_queue_occupancy)});
  }
  worm.print(std::cout);

  std::cout << "\nContrast with circuit mode: a granted circuit's transfer "
               "latency is the\nwire path alone (5 hops here) for the "
               "connection's whole lifetime, and the\ncentralized level-wise "
               "setup costs ~N block-cycles once (Table 1). Packet\nmode "
               "needs no setup but pays per-packet queueing that explodes "
               "past the\nsaturation knee.\n";
  return 0;
}
