// Figure 9(a): schedulability ratio of two-level fat trees,
// N ∈ {64 (8²), 256 (16²), 1024 (32²), 2304 (48²), 4096 (64²)}.
// (The paper's "64(4²)" label is inconsistent — 4² = 16; every other label
// is N = w², so the 64-node point is built as FT(2,8). See DESIGN.md.)
// Usage: fig9a_twolevel [reps] [--csv] [--json[=FILE]]
#include <cstdlib>

#include "fig9_common.hpp"

int main(int argc, char** argv) {
  const auto args = ftsched::bench::parse_fig9_args(argc, argv);
  if (!args) return 2;
  return ftsched::bench::run_sweep_bench(
      "fig9a_twolevel", "Figure 9(a): Schedulability of Two-Level Fat-Tree",
      2, {8, 16, 32, 48, 64}, *args);
}
