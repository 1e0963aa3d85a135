// Figure 9(c): schedulability ratio of four-level fat trees,
// N ∈ {81 (3⁴), 256 (4⁴), 625 (5⁴), 1296 (6⁴), 2401 (7⁴)}.
// Usage: fig9c_fourlevel [reps] [--csv] [--json[=FILE]]
#include <cstdlib>

#include "fig9_common.hpp"

int main(int argc, char** argv) {
  const auto args = ftsched::bench::parse_fig9_args(argc, argv);
  if (!args) return 2;
  return ftsched::bench::run_sweep_bench(
      "fig9c_fourlevel", "Figure 9(c): Schedulability of Four-Level Fat-Tree",
      4, {3, 4, 5, 6, 7}, *args);
}
