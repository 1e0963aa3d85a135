#include "obs/metrics.hpp"

#include <array>
#include <ostream>

#include "util/json.hpp"

namespace ftsched::obs {

double Histogram::percentile(double q) const {
  FT_REQUIRE(q >= 0.0 && q <= 1.0);
  FT_REQUIRE(count_ > 0);
  // Estimated value of the k-th (0-based) order statistic: walk the
  // cumulative counts to the bucket holding rank k, then spread that
  // bucket's n observations uniformly across its width (the j-th of n sits
  // at fraction (j + 0.5) / n). Underflow/overflow buckets have no width to
  // interpolate in; their observations clamp to the nearest edge.
  const auto order_stat = [this](std::uint64_t k) -> double {
    if (k < underflow_) return lo_;
    std::uint64_t cum = underflow_;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      if (k < cum + counts_[i]) {
        const double within =
            (static_cast<double>(k - cum) + 0.5) /
            static_cast<double>(counts_[i]);
        return lo_ + width_ * (static_cast<double>(i) + within);
      }
      cum += counts_[i];
    }
    return hi_;
  };
  const double rank = q * static_cast<double>(count_ - 1);
  const auto lower = static_cast<std::uint64_t>(rank);
  const double fraction = rank - static_cast<double>(lower);
  const double at_lower = order_stat(lower);
  if (fraction == 0.0 || lower + 1 >= count_) return at_lower;
  return at_lower + fraction * (order_stat(lower + 1) - at_lower);
}

void Histogram::reset() {
  counts_.assign(counts_.size(), 0);
  underflow_ = 0;
  overflow_ = 0;
  count_ = 0;
  sum_ = 0.0;
}

MetricsRegistry::Entry& MetricsRegistry::find_or_create(std::string_view name,
                                                        Kind kind) {
  const auto it = index_.find(name);
  if (it != index_.end()) {
    Entry& entry = entries_[it->second];
    FT_REQUIRE(entry.kind == kind);  // one name, one metric kind
    return entry;
  }
  Entry entry;
  entry.name = std::string(name);
  entry.kind = kind;
  entries_.push_back(std::move(entry));
  index_.emplace(entries_.back().name, entries_.size() - 1);
  return entries_.back();
}

Counter& MetricsRegistry::counter(std::string_view name) {
  Entry& entry = find_or_create(name, Kind::kCounter);
  if (!entry.counter) entry.counter = std::make_unique<Counter>();
  return *entry.counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  Entry& entry = find_or_create(name, Kind::kGauge);
  if (!entry.gauge) entry.gauge = std::make_unique<Gauge>();
  return *entry.gauge;
}

Histogram& MetricsRegistry::histogram(std::string_view name, double lo,
                                      double hi, std::size_t bins) {
  Entry& entry = find_or_create(name, Kind::kHistogram);
  if (!entry.histogram) {
    entry.histogram = std::make_unique<Histogram>(lo, hi, bins);
  } else {
    FT_REQUIRE(entry.histogram->lo() == lo && entry.histogram->hi() == hi &&
               entry.histogram->bins() == bins);
  }
  return *entry.histogram;
}

void MetricsRegistry::write_jsonl(std::ostream& os) const {
  for (const Entry& e : entries_) {
    os << "{\"metric\":\"" << json_escape(e.name) << "\",";
    switch (e.kind) {
      case Kind::kCounter:
        os << "\"type\":\"counter\",\"value\":" << e.counter->value();
        break;
      case Kind::kGauge:
        os << "\"type\":\"gauge\",\"value\":" << e.gauge->value();
        break;
      case Kind::kHistogram: {
        const Histogram& h = *e.histogram;
        os << "\"type\":\"histogram\",\"lo\":" << h.lo() << ",\"hi\":"
           << h.hi() << ",\"bins\":[";
        for (std::size_t i = 0; i < h.bins(); ++i) {
          if (i) os << ',';
          os << h.bin(i);
        }
        os << "],\"underflow\":" << h.underflow() << ",\"overflow\":"
           << h.overflow() << ",\"count\":" << h.count() << ",\"sum\":"
           << h.sum();
        if (h.count() > 0) {
          // percentile() requires observations; empty histograms skip the
          // fields rather than inventing a value.
          os << ",\"p50\":" << h.percentile(0.50)
             << ",\"p90\":" << h.percentile(0.90)
             << ",\"p99\":" << h.percentile(0.99);
        }
        break;
      }
    }
    os << "}\n";
  }
}

}  // namespace ftsched::obs
