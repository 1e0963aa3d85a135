#include "linkstate/imbalance.hpp"

#include <cmath>
#include <string>

namespace ftsched {
namespace {

/// Occupancy fractions of residual capacity, accumulated incrementally:
/// add(busy, cap) per row or column, finish() summarizes. Entries with zero
/// residual capacity (fully-faulted rows/columns) carry no load information
/// and are skipped.
class FractionStats {
 public:
  void add(std::uint64_t busy, std::uint64_t cap) {
    if (cap == 0) return;
    const double f = static_cast<double>(busy) / static_cast<double>(cap);
    sum_ += f;
    sum_sq_ += f * f;
    if (f > max_) max_ = f;
    ++n_;
  }

  double mean() const { return n_ ? sum_ / static_cast<double>(n_) : 0.0; }

  /// max/mean; 1.0 when the level is idle (mean 0) or empty — an idle
  /// fabric is perfectly balanced, not infinitely imbalanced.
  double max_over_mean() const {
    const double m = mean();
    return m > 0.0 ? max_ / m : 1.0;
  }

  double cov() const {
    const double m = mean();
    if (m <= 0.0 || n_ == 0) return 0.0;
    const double var = sum_sq_ / static_cast<double>(n_) - m * m;
    return var > 0.0 ? std::sqrt(var) / m : 0.0;
  }

 private:
  double sum_ = 0.0;
  double sum_sq_ = 0.0;
  double max_ = 0.0;
  std::uint64_t n_ = 0;
};

std::uint32_t row_popcount(const std::uint64_t* row, std::uint64_t words) {
  std::uint32_t bits = 0;
  for (std::uint64_t k = 0; k < words; ++k) {
    bits += static_cast<std::uint32_t>(bits::popcount(row[k]));
  }
  return bits;
}

}  // namespace

ImbalanceReport measure_imbalance(const LinkState& state) {
  const std::uint32_t levels = state.link_levels();
  const std::uint32_t w = state.ports_per_switch();
  const std::uint64_t words = state.row_words();
  const bool any_faults = state.faulted_cables() > 0;

  ImbalanceReport report;
  report.levels.resize(levels);

  std::vector<std::uint64_t> col_faulted(w);
  for (std::uint32_t h = 0; h < levels; ++h) {
    const std::uint64_t rows = state.rows_at(h);
    FractionStats row_u;
    FractionStats row_d;
    col_faulted.assign(w, 0);

    for (std::uint64_t sw = 0; sw < rows; ++sw) {
      // A faulted cable forces both its channels to read busy through the
      // bitmaps; subtract the faults so the fractions cover only channels a
      // scheduler could actually have loaded.
      std::uint32_t faulted_row = 0;
      if (any_faults) {
        for (std::uint32_t p = 0; p < w; ++p) {
          if (state.cable_faulted(h, sw, p)) {
            ++faulted_row;
            ++col_faulted[p];
          }
        }
      }
      const std::uint64_t cap = w - faulted_row;
      const std::uint32_t free_u = row_popcount(state.ulink_row(h, sw), words);
      const std::uint32_t free_d = row_popcount(state.dlink_row(h, sw), words);
      row_u.add(w - free_u - faulted_row, cap);
      row_d.add(w - free_d - faulted_row, cap);
    }

    FractionStats col_u;
    FractionStats col_d;
    for (std::uint32_t p = 0; p < w; ++p) {
      const std::uint64_t cap = rows - col_faulted[p];
      col_u.add(rows - state.column_free_ulinks(h, p) - col_faulted[p], cap);
      col_d.add(rows - state.column_free_dlinks(h, p) - col_faulted[p], cap);
    }

    LevelImbalance& lvl = report.levels[h];
    lvl.up.mean = row_u.mean();
    lvl.up.max_over_mean = row_u.max_over_mean();
    lvl.up.cov = row_u.cov();
    lvl.up.hotspot = col_u.max_over_mean();
    lvl.down.mean = row_d.mean();
    lvl.down.max_over_mean = row_d.max_over_mean();
    lvl.down.cov = row_d.cov();
    lvl.down.hotspot = col_d.max_over_mean();

    for (const DirectionImbalance* dir : {&lvl.up, &lvl.down}) {
      if (dir->max_over_mean > report.worst_max_over_mean) {
        report.worst_max_over_mean = dir->max_over_mean;
      }
      if (dir->cov > report.worst_cov) report.worst_cov = dir->cov;
      if (dir->hotspot > report.worst_hotspot) {
        report.worst_hotspot = dir->hotspot;
      }
    }
  }
  return report;
}

void export_imbalance_metrics(const ImbalanceReport& report,
                              obs::MetricsRegistry& registry) {
  registry.gauge("fabric.imbalance.worst_max_over_mean")
      .set(report.worst_max_over_mean);
  registry.gauge("fabric.imbalance.worst_cov").set(report.worst_cov);
  registry.gauge("fabric.imbalance.worst_hotspot").set(report.worst_hotspot);
  for (std::size_t h = 0; h < report.levels.size(); ++h) {
    const std::string level = "level" + std::to_string(h);
    const LevelImbalance& lvl = report.levels[h];
    struct Dir {
      const char* name;
      const DirectionImbalance* d;
    };
    for (const Dir& dir : {Dir{"up", &lvl.up}, Dir{"down", &lvl.down}}) {
      const std::string base = "fabric.imbalance." + level + "." + dir.name;
      registry.gauge(base + ".mean").set(dir.d->mean);
      registry.gauge(base + ".max_over_mean").set(dir.d->max_over_mean);
      registry.gauge(base + ".cov").set(dir.d->cov);
      registry.gauge(base + ".hotspot").set(dir.d->hotspot);
    }
  }
}

}  // namespace ftsched
