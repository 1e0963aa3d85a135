// Figure 9(b): schedulability ratio of three-level fat trees,
// N ∈ {64 (4³), 216 (6³), 512 (8³), 1728 (12³), 4096 (16³)}.
// Usage: fig9b_threelevel [reps] [--csv] [--json[=FILE]]
#include <cstdlib>

#include "fig9_common.hpp"

int main(int argc, char** argv) {
  const auto args = ftsched::bench::parse_fig9_args(argc, argv);
  if (!args) return 2;
  return ftsched::bench::run_sweep_bench(
      "fig9b_threelevel", "Figure 9(b): Schedulability of Three-Level Fat-Tree",
      3, {4, 6, 8, 12, 16}, *args);
}
