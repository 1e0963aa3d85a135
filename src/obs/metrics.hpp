// MetricsRegistry — named counters, gauges, and fixed-bin histograms.
//
// The observability layer's data model. Instrumented code asks the registry
// for a metric once (creation is O(log n) name lookup) and then mutates it
// through a stable reference — increments are plain integer adds, cheap
// enough for per-request call sites. Export is pulled, never pushed: the
// registry renders every metric as JSON-lines (one object per metric, easy
// to stream and to `json.loads` line by line) on demand.
//
// Naming convention (see docs/OBSERVABILITY.md): dotted lowercase paths,
// `<subsystem>.<noun>[.<qualifier>]`, e.g. `sched.reject.level0`,
// `des.events`, `hw.raw_forwards`.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/contracts.hpp"

namespace ftsched::obs {

/// Monotonically increasing event count. Wraps modulo 2^64 on overflow —
/// unsigned arithmetic, never undefined behavior; at one increment per
/// nanosecond the first wrap is ~584 years out, so exporters do not carry
/// wrap markers.
class Counter {
 public:
  void add(std::uint64_t delta = 1) { value_ += delta; }
  std::uint64_t value() const { return value_; }
  void reset() { value_ = 0; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-write-wins scalar (a level occupancy, a ratio, a config echo).
class Gauge {
 public:
  void set(double value) { value_ = value; }
  double value() const { return value_; }
  void reset() { value_ = 0.0; }

 private:
  double value_ = 0.0;
};

/// Fixed-bin histogram over [lo, hi): `bins` equal-width buckets plus an
/// underflow bucket (x < lo) and an overflow bucket (x >= hi). Bin edges are
/// fixed at construction — observation is one multiply and one clamp, no
/// allocation, no rebalancing.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins)
      : lo_(lo), hi_(hi), counts_(bins, 0) {
    FT_REQUIRE(bins >= 1);
    FT_REQUIRE(lo < hi);
    width_ = (hi - lo) / static_cast<double>(bins);
  }

  void observe(double x) {
    ++count_;
    sum_ += x;
    if (x < lo_) {
      ++underflow_;
      return;
    }
    if (x >= hi_) {
      ++overflow_;
      return;
    }
    auto bin = static_cast<std::size_t>((x - lo_) / width_);
    // Floating-point division can land exactly on bins() for x just below
    // hi; clamp to the last real bucket.
    if (bin >= counts_.size()) bin = counts_.size() - 1;
    ++counts_[bin];
  }

  double lo() const { return lo_; }
  double hi() const { return hi_; }
  double bin_width() const { return width_; }
  std::size_t bins() const { return counts_.size(); }
  std::uint64_t bin(std::size_t i) const {
    FT_REQUIRE(i < counts_.size());
    return counts_[i];
  }
  std::uint64_t underflow() const { return underflow_; }
  std::uint64_t overflow() const { return overflow_; }
  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }

  /// Estimated q-quantile (q in [0, 1]) of the observed distribution, with
  /// `stats::percentile` semantics (type 7: rank q·(n-1), linear
  /// interpolation between adjacent order statistics). Order statistics are
  /// reconstructed from the bins by spreading each bin's observations
  /// uniformly across its width; underflow observations are clamped to
  /// lo() and overflow observations to hi() (their true values are not
  /// retained). Requires count() > 0.
  double percentile(double q) const;

  /// Adds `other`'s observations into this histogram, bin by bin. Requires
  /// identical bin edges — merging differently-shaped histograms would
  /// silently misattribute counts. Exact: merging shards recorded separately
  /// equals recording every observation into one histogram (the sum_ is a
  /// double, but addition order per bin-merge is fixed, so merged results
  /// are deterministic for a fixed merge order).
  void merge_from(const Histogram& other) {
    FT_REQUIRE(lo_ == other.lo_);
    FT_REQUIRE(hi_ == other.hi_);
    FT_REQUIRE(counts_.size() == other.counts_.size());
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      counts_[i] += other.counts_[i];
    }
    underflow_ += other.underflow_;
    overflow_ += other.overflow_;
    count_ += other.count_;
    sum_ += other.sum_;
  }

  void reset();

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t underflow_ = 0;
  std::uint64_t overflow_ = 0;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
};

/// Owns metrics by name; references returned from the accessors stay valid
/// for the registry's lifetime (metrics live behind unique_ptr). Re-asking
/// for an existing name returns the same instance; asking with a kind or
/// histogram shape that contradicts the first registration is a contract
/// violation — names are global within a registry.
class MetricsRegistry {
 public:
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name, double lo, double hi,
                       std::size_t bins);

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// One JSON object per line, in registration order:
  ///   {"metric":"<name>","type":"counter","value":N}
  ///   {"metric":"<name>","type":"gauge","value":X}
  ///   {"metric":"<name>","type":"histogram","lo":..,"hi":..,
  ///    "bins":[..],"underflow":..,"overflow":..,"count":..,"sum":..}
  void write_jsonl(std::ostream& os) const;

 private:
  enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };

  struct Entry {
    std::string name;
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& find_or_create(std::string_view name, Kind kind);

  std::vector<Entry> entries_;                   // registration order
  std::map<std::string, std::size_t, std::less<>> index_;
};

}  // namespace ftsched::obs
