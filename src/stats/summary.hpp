// Summary statistics over repeated experiment runs.
//
// Figure 9's bars are the average schedulability ratio over 100 random
// permutations, with whiskers at the observed minimum and maximum — Summary
// carries exactly those plus stddev and a normal-approximation confidence
// interval for the extended analyses.
#pragma once

#include <cstddef>
#include <ostream>
#include <span>
#include <string>
#include <string_view>

namespace ftsched {

struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
  double stddev = 0.0;  ///< sample standard deviation (n-1)

  /// Empty input yields the all-zero Summary (count == 0), no NaNs —
  /// degenerate series summarize without a special case at the call site.
  static Summary from(std::span<const double> samples);

  /// Half-width of the normal-approximation CI at ~95% (1.96 s / sqrt(n)).
  double ci95_half_width() const;

  /// "mean [min, max]" with percentages, for ratio-valued samples.
  std::string ratio_string() const;
};

/// Writes `s` as JSON object fields at the stream's precision,
/// "mean":..,"min":..,"max":..,"stddev":.. — the summary form every
/// BENCH_*.json artifact carries.
inline void write_json_fields(std::ostream& os, const Summary& s) {
  os << "\"mean\":" << s.mean << ",\"min\":" << s.min << ",\"max\":" << s.max
     << ",\"stddev\":" << s.stddev;
}

/// Writes the member ,"<name>":{<write_json_fields>}.
inline void write_json_member(std::ostream& os, std::string_view name,
                              const Summary& s) {
  os << ",\"" << name << "\":{";
  write_json_fields(os, s);
  os << '}';
}

/// The q-quantile (q in [0, 1]) of `samples` by linear interpolation
/// between order statistics (the common "type 7" definition). Copies and
/// sorts internally — analysis-path helper, not for hot loops.
double percentile(std::span<const double> samples, double q);

}  // namespace ftsched
