// Figure 9(d): average schedulability — six bars (Global and Local at 2, 3,
// and 4 levels), each the mean over that level count's full size sweep.
// Also prints the §5 headline claims derived from the same data:
//   * improvement > 30% beyond 500 nodes,
//   * level-wise minimum above local maximum,
//   * deviation shrinking with system size.
#include "fig9_common.hpp"

using namespace ftsched;
using namespace ftsched::bench;

int main(int argc, char** argv) {
  const std::optional<Fig9Args> args = parse_fig9_args(argc, argv);
  if (!args) return 2;
  const std::size_t reps = args->reps;

  struct Family {
    std::uint32_t levels;
    std::vector<std::uint32_t> arities;
  };
  const std::vector<Family> families{
      {2, {8, 16, 32, 48, 64}},
      {3, {4, 6, 8, 12, 16}},
      {4, {3, 4, 5, 6, 7}},
  };

  std::cout << "Figure 9(d): Average Schedulability\n\n";
  TextTable table({"bar", "avg schedulability"});
  std::vector<std::vector<Fig9Row>> all_rows;
  for (const Family& family : families) {
    std::vector<Fig9Row> rows;
    for (std::uint32_t w : family.arities) {
      rows.push_back(run_point(family.levels, w, reps, 2006 + w));
    }
    double global_sum = 0;
    double local_sum = 0;
    for (const Fig9Row& row : rows) {
      global_sum += row.global.point.schedulability.mean;
      local_sum += row.local_random.point.schedulability.mean;
    }
    table.add_row({"G " + std::to_string(family.levels) + "-level",
                   TextTable::pct(global_sum /
                                  static_cast<double>(rows.size()))});
    table.add_row({"L " + std::to_string(family.levels) + "-level",
                   TextTable::pct(local_sum /
                                  static_cast<double>(rows.size()))});
    all_rows.push_back(std::move(rows));
  }
  table.print(std::cout);

  std::cout << "\nPaper claims derived from this data:\n";
  bool min_above_max = true;
  bool improvement_over_30 = true;
  for (const auto& rows : all_rows) {
    for (const Fig9Row& row : rows) {
      const Summary& global = row.global.point.schedulability;
      const Summary& local = row.local_random.point.schedulability;
      if (global.min <= local.max) min_above_max = false;
      if (row.nodes > 500) {
        const double improvement = (global.mean - local.mean) / local.mean;
        if (improvement <= 0.30) improvement_over_30 = false;
      }
    }
  }
  std::cout << "  level-wise min > local max at every point : "
            << (min_above_max ? "HOLDS" : "VIOLATED") << "\n";
  std::cout << "  improvement > 30% beyond 500 nodes        : "
            << (improvement_over_30 ? "HOLDS" : "VIOLATED") << "\n";
  for (const auto& rows : all_rows) {
    const Summary& small = rows.front().global.point.schedulability;
    const Summary& large = rows.back().global.point.schedulability;
    const double small_spread = small.max - small.min;
    const double large_spread = large.max - large.min;
    std::cout << "  deviation (global) N=" << rows.front().nodes << " -> N="
              << rows.back().nodes << "              : "
              << TextTable::pct(small_spread) << " -> "
              << TextTable::pct(large_spread)
              << (large_spread < small_spread ? "  (shrinks)" : "") << "\n";
  }
  if (args->json) {
    std::vector<Fig9Row> flat;
    for (const auto& rows : all_rows) {
      flat.insert(flat.end(), rows.begin(), rows.end());
    }
    const std::string path = args->json_path.empty()
                                 ? "BENCH_fig9d_average.json"
                                 : args->json_path;
    write_bench_json(path, "fig9d_average", reps, flat);
  }
  return 0;
}
