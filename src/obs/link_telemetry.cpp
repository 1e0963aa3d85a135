#include "obs/link_telemetry.hpp"

#include <algorithm>
#include <ostream>
#include <string>

namespace ftsched::obs {

std::string_view to_string(ChannelDir dir) {
  return dir == ChannelDir::kUp ? "up" : "down";
}

LinkTelemetry::LinkTelemetry(LinkTelemetryOptions options)
    : options_(options) {
  FT_REQUIRE(options_.series_every >= 1);
}

void LinkTelemetry::configure(std::vector<LinkLevelShape> shape) {
  FT_REQUIRE(!shape.empty());
  if (configured()) {
    FT_REQUIRE_MSG(shape == shape_,
                   "LinkTelemetry reconfigured with a different fabric shape");
    return;
  }
  for (const LinkLevelShape& lvl : shape) {
    FT_REQUIRE(lvl.rows >= 1);
    FT_REQUIRE(lvl.ports >= 1);
  }
  shape_ = std::move(shape);
  levels_.resize(shape_.size());
  for (std::size_t h = 0; h < shape_.size(); ++h) {
    const std::size_t channels = shape_[h].rows * shape_[h].ports;
    PerLevel& lvl = levels_[h];
    lvl.busy_up.assign(channels, 0);
    lvl.busy_down.assign(channels, 0);
    lvl.row_up.assign(shape_[h].rows, 0);
    lvl.row_down.assign(shape_[h].rows, 0);
    // Exact integer occupancy bins: one per possible count, 0 … ports.
    lvl.saturation.clear();
    lvl.saturation.emplace_back(0.0, shape_[h].ports + 1.0,
                                shape_[h].ports + 1);
    lvl.saturation.emplace_back(0.0, shape_[h].ports + 1.0,
                                shape_[h].ports + 1);
  }
}

void LinkTelemetry::begin_sample(std::uint64_t t) {
  FT_REQUIRE(configured());
  FT_REQUIRE(!in_sample_);
  FT_REQUIRE(!have_sample_ || t >= current_t_);
  in_sample_ = true;
  current_t_ = t;
  for (PerLevel& lvl : levels_) {
    std::fill(lvl.row_up.begin(), lvl.row_up.end(), 0u);
    std::fill(lvl.row_down.begin(), lvl.row_down.end(), 0u);
    lvl.cur_up = 0;
    lvl.cur_down = 0;
  }
}

void LinkTelemetry::end_sample() {
  FT_REQUIRE(in_sample_);
  in_sample_ = false;
  have_sample_ = true;
  for (std::size_t h = 0; h < levels_.size(); ++h) {
    PerLevel& lvl = levels_[h];
    for (std::uint64_t row = 0; row < shape_[h].rows; ++row) {
      lvl.saturation[0].observe(static_cast<double>(lvl.row_up[row]));
      lvl.saturation[1].observe(static_cast<double>(lvl.row_down[row]));
    }
    lvl.last_up = lvl.cur_up;
    lvl.last_down = lvl.cur_down;
  }
  if (samples_ % options_.series_every == 0) {
    LinkUtilizationPoint point;
    point.t = current_t_;
    point.up_occupied.reserve(levels_.size());
    point.down_occupied.reserve(levels_.size());
    for (const PerLevel& lvl : levels_) {
      point.up_occupied.push_back(lvl.cur_up);
      point.down_occupied.push_back(lvl.cur_down);
    }
    series_.push_back(std::move(point));
  }
  ++samples_;
}

const Histogram& LinkTelemetry::saturation(std::uint32_t level,
                                           ChannelDir dir) const {
  FT_REQUIRE(level < levels_.size());
  return levels_[level].saturation[dir == ChannelDir::kUp ? 0 : 1];
}

std::uint64_t LinkTelemetry::busy_samples(std::uint32_t level,
                                          std::uint64_t row,
                                          std::uint32_t port,
                                          ChannelDir dir) const {
  FT_REQUIRE(level < levels_.size());
  FT_REQUIRE(row < shape_[level].rows);
  FT_REQUIRE(port < shape_[level].ports);
  const std::size_t channel = row * shape_[level].ports + port;
  return dir == ChannelDir::kUp ? levels_[level].busy_up[channel]
                                : levels_[level].busy_down[channel];
}

double LinkTelemetry::utilization(std::uint32_t level, ChannelDir dir) const {
  FT_REQUIRE(level < levels_.size());
  if (samples_ == 0) return 0.0;
  const std::vector<std::uint64_t>& busy = dir == ChannelDir::kUp
                                               ? levels_[level].busy_up
                                               : levels_[level].busy_down;
  std::uint64_t total = 0;
  for (const std::uint64_t b : busy) total += b;
  return static_cast<double>(total) /
         (static_cast<double>(samples_) * static_cast<double>(busy.size()));
}

std::vector<ContendedLink> LinkTelemetry::top_contended(std::size_t k) const {
  if (k == 0) k = options_.top_k;
  std::vector<ContendedLink> all;
  for (std::uint32_t h = 0; h < levels_.size(); ++h) {
    const std::uint32_t ports = shape_[h].ports;
    for (std::uint64_t row = 0; row < shape_[h].rows; ++row) {
      for (std::uint32_t port = 0; port < ports; ++port) {
        const std::size_t channel = row * ports + port;
        if (levels_[h].busy_up[channel] > 0) {
          all.push_back(ContendedLink{h, row, port, ChannelDir::kUp,
                                      levels_[h].busy_up[channel]});
        }
        if (levels_[h].busy_down[channel] > 0) {
          all.push_back(ContendedLink{h, row, port, ChannelDir::kDown,
                                      levels_[h].busy_down[channel]});
        }
      }
    }
  }
  const auto order = [](const ContendedLink& a, const ContendedLink& b) {
    if (a.busy_samples != b.busy_samples) {
      return a.busy_samples > b.busy_samples;
    }
    if (a.level != b.level) return a.level < b.level;
    if (a.row != b.row) return a.row < b.row;
    if (a.port != b.port) return a.port < b.port;
    return a.dir == ChannelDir::kUp && b.dir == ChannelDir::kDown;
  };
  if (all.size() > k) {
    std::partial_sort(all.begin(), all.begin() + static_cast<long>(k),
                      all.end(), order);
    all.resize(k);
  } else {
    std::sort(all.begin(), all.end(), order);
  }
  return all;
}

void LinkTelemetry::reset() {
  for (std::size_t h = 0; h < levels_.size(); ++h) {
    PerLevel& lvl = levels_[h];
    std::fill(lvl.busy_up.begin(), lvl.busy_up.end(), 0u);
    std::fill(lvl.busy_down.begin(), lvl.busy_down.end(), 0u);
    std::fill(lvl.row_up.begin(), lvl.row_up.end(), 0u);
    std::fill(lvl.row_down.begin(), lvl.row_down.end(), 0u);
    lvl.cur_up = lvl.cur_down = 0;
    lvl.last_up = lvl.last_down = 0;
    lvl.saturation[0].reset();
    lvl.saturation[1].reset();
  }
  series_.clear();
  samples_ = 0;
  current_t_ = 0;
  in_sample_ = false;
  have_sample_ = false;
}

void LinkTelemetry::merge_shard(const LinkTelemetry& other) {
  FT_REQUIRE(!in_sample_);
  FT_REQUIRE(!other.in_sample_);
  if (!other.configured()) {
    FT_REQUIRE(other.samples_ == 0);
    return;
  }
  FT_REQUIRE_MSG(other.options_.series_every == 1,
                 "merge_shard: shards must keep every sample");
  FT_REQUIRE(other.series_.size() == other.samples_);
  configure(other.shape_);

  // Replay the shard's kept samples (all of them, series_every == 1) as if
  // recorded here: this collector's series_every applies to the combined
  // sample ordinal, reproducing exactly the sequential kept-sample set.
  for (const LinkUtilizationPoint& point : other.series_) {
    FT_REQUIRE(!have_sample_ || point.t >= current_t_);
    if (samples_ % options_.series_every == 0) series_.push_back(point);
    ++samples_;
    current_t_ = point.t;
    have_sample_ = true;
  }

  for (std::size_t h = 0; h < levels_.size(); ++h) {
    PerLevel& into = levels_[h];
    const PerLevel& from = other.levels_[h];
    for (std::size_t c = 0; c < into.busy_up.size(); ++c) {
      into.busy_up[c] += from.busy_up[c];
      into.busy_down[c] += from.busy_down[c];
    }
    into.saturation[0].merge_from(from.saturation[0]);
    into.saturation[1].merge_from(from.saturation[1]);
    if (other.have_sample_) {
      into.last_up = from.last_up;
      into.last_down = from.last_down;
    }
  }
}

void LinkTelemetry::export_metrics(MetricsRegistry& registry) const {
  registry.counter("fabric.samples").add(samples_);
  for (std::uint32_t h = 0; h < levels_.size(); ++h) {
    const std::string level = "level" + std::to_string(h);
    for (const ChannelDir dir : {ChannelDir::kUp, ChannelDir::kDown}) {
      std::string suffix(".");
      suffix += to_string(dir);
      registry.gauge("fabric.util." + level + suffix)
          .set(utilization(h, dir));
      const PerLevel& lvl = levels_[h];
      registry.gauge("fabric.occupied." + level + suffix)
          .set(static_cast<double>(dir == ChannelDir::kUp ? lvl.last_up
                                                          : lvl.last_down));
      const Histogram& sat = saturation(h, dir);
      for (std::size_t bin = 0; bin < sat.bins(); ++bin) {
        registry
            .counter("fabric.saturation." + level + suffix + ".occ" +
                     std::to_string(bin))
            .add(sat.bin(bin));
      }
    }
  }
}

void LinkTelemetry::write_series_jsonl(std::ostream& os) const {
  os << "{\"type\":\"link_telemetry\",\"version\":1,\"samples\":" << samples_
     << ",\"series_every\":" << options_.series_every << ",\"levels\":[";
  for (std::size_t h = 0; h < shape_.size(); ++h) {
    if (h) os << ',';
    os << "{\"level\":" << h << ",\"rows\":" << shape_[h].rows
       << ",\"ports\":" << shape_[h].ports << "}";
  }
  os << "]}\n";
  for (const LinkUtilizationPoint& point : series_) {
    os << "{\"type\":\"sample\",\"t\":" << point.t << ",\"u\":[";
    for (std::size_t h = 0; h < point.up_occupied.size(); ++h) {
      if (h) os << ',';
      os << point.up_occupied[h];
    }
    os << "],\"d\":[";
    for (std::size_t h = 0; h < point.down_occupied.size(); ++h) {
      if (h) os << ',';
      os << point.down_occupied[h];
    }
    os << "]}\n";
  }
  os << "{\"type\":\"utilization\",\"u\":[";
  for (std::uint32_t h = 0; h < levels_.size(); ++h) {
    if (h) os << ',';
    os << utilization(h, ChannelDir::kUp);
  }
  os << "],\"d\":[";
  for (std::uint32_t h = 0; h < levels_.size(); ++h) {
    if (h) os << ',';
    os << utilization(h, ChannelDir::kDown);
  }
  os << "]}\n";
  for (std::uint32_t h = 0; h < levels_.size(); ++h) {
    for (const ChannelDir dir : {ChannelDir::kUp, ChannelDir::kDown}) {
      const Histogram& sat = saturation(h, dir);
      os << "{\"type\":\"saturation\",\"level\":" << h << ",\"dir\":\""
         << to_string(dir) << "\",\"bins\":[";
      for (std::size_t bin = 0; bin < sat.bins(); ++bin) {
        if (bin) os << ',';
        os << sat.bin(bin);
      }
      os << "]}\n";
    }
  }
  os << "{\"type\":\"top_contended\",\"links\":[";
  const std::vector<ContendedLink> top = top_contended();
  for (std::size_t i = 0; i < top.size(); ++i) {
    if (i) os << ',';
    os << "{\"level\":" << top[i].level << ",\"row\":" << top[i].row
       << ",\"port\":" << top[i].port << ",\"dir\":\""
       << to_string(top[i].dir) << "\",\"busy\":" << top[i].busy_samples
       << "}";
  }
  os << "]}\n";
}

}  // namespace ftsched::obs
