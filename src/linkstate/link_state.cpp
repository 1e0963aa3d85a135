#include "linkstate/link_state.hpp"

#include <array>

#include "topology/circuit_labels.hpp"
#include "util/bitvec.hpp"

namespace ftsched {

LinkState::LinkState(const FatTree& tree)
    : link_levels_(tree.levels() - 1),
      w_(tree.parent_arity()),
      row_words_(BitVec::word_count(tree.parent_arity())) {
  for (std::uint32_t h = 0; h < link_levels_; ++h) {
    rows_.push_back(tree.switches_at(h));
  }
  u_.resize(link_levels_);
  d_.resize(link_levels_);
  occupied_u_.assign(link_levels_, 0);
  occupied_d_.assign(link_levels_, 0);
  col_free_u_.assign(std::uint64_t{link_levels_} * w_, 0);
  col_free_d_.assign(std::uint64_t{link_levels_} * w_, 0);
  reset();
}

void LinkState::reset() {
  f_.clear();
  su_.clear();
  sd_.clear();
  faulted_ = 0;
  for (std::uint32_t h = 0; h < link_levels_; ++h) {
    u_[h].assign(rows_[h] * row_words_, 0);
    d_[h].assign(rows_[h] * row_words_, 0);
    // Set exactly w_ bits per row (spare high bits stay 0 so popcount-based
    // accounting is exact).
    for (std::uint64_t sw = 0; sw < rows_[h]; ++sw) {
      for (std::uint64_t wd = 0; wd < row_words_; ++wd) {
        const std::uint64_t bits_before = wd * 64;
        const std::uint64_t bits_here =
            w_ > bits_before ? std::min<std::uint64_t>(64, w_ - bits_before)
                             : 0;
        const std::uint64_t mask = bits::low_mask(bits_here);
        u_[h][sw * row_words_ + wd] = mask;
        d_[h][sw * row_words_ + wd] = mask;
      }
    }
    occupied_u_[h] = 0;
    occupied_d_[h] = 0;
    for (std::uint32_t p = 0; p < w_; ++p) {
      col_free_u_[std::uint64_t{h} * w_ + p] = rows_[h];
      col_free_d_[std::uint64_t{h} * w_ + p] = rows_[h];
    }
  }
}

void LinkState::set_bit(std::vector<Matrix>& mats, std::uint32_t level,
                        std::uint64_t sw, std::uint32_t port, bool value) {
  FT_REQUIRE(level < link_levels_);
  FT_REQUIRE(sw < rows_[level]);
  FT_REQUIRE(port < w_);
  std::uint64_t& word = mats[level][sw * row_words_ + port / 64];
  const std::uint64_t mask = std::uint64_t{1} << (port % 64);
  if (value) {
    word |= mask;
  } else {
    word &= ~mask;
  }
}

void LinkState::ensure_overlay() {
  if (!f_.empty()) return;
  f_.resize(link_levels_);
  su_.resize(link_levels_);
  sd_.resize(link_levels_);
  for (std::uint32_t h = 0; h < link_levels_; ++h) {
    f_[h].assign(rows_[h] * row_words_, 0);
    su_[h].assign(rows_[h] * row_words_, 0);
    sd_[h].assign(rows_[h] * row_words_, 0);
  }
}

bool LinkState::cable_faulted(std::uint32_t level, std::uint64_t sw,
                              std::uint32_t port) const {
  if (f_.empty()) return false;
  return test(f_, level, sw, port);
}

void LinkState::park_release(std::vector<Matrix>& shadow, std::uint32_t level,
                             std::uint64_t sw, std::uint32_t port) {
  FT_REQUIRE_MSG(!test(shadow, level, sw, port),
                 "double release of a faulted channel");
  set_bit(shadow, level, sw, port, true);
}

void LinkState::fail_cable(std::uint32_t level, std::uint64_t sw,
                           std::uint32_t port) {
  FT_REQUIRE_MSG(level < link_levels_, "fail_cable: level out of range");
  FT_REQUIRE_MSG(sw < rows_[level], "fail_cable: switch out of range");
  FT_REQUIRE_MSG(port < w_, "fail_cable: port out of range");
  ensure_overlay();
  FT_REQUIRE_MSG(!test(f_, level, sw, port),
                 "fail_cable: cable already faulted");
  // Park the current availability; force both channels effectively busy.
  if (ulink(level, sw, port)) {
    set_bit(su_, level, sw, port, true);
    set_bit(u_, level, sw, port, false);
    ++occupied_u_[level];
    --col_free_u_[std::uint64_t{level} * w_ + port];
  }
  if (dlink(level, sw, port)) {
    set_bit(sd_, level, sw, port, true);
    set_bit(d_, level, sw, port, false);
    ++occupied_d_[level];
    --col_free_d_[std::uint64_t{level} * w_ + port];
  }
  set_bit(f_, level, sw, port, true);
  ++faulted_;
}

void LinkState::repair_cable(std::uint32_t level, std::uint64_t sw,
                             std::uint32_t port) {
  FT_REQUIRE_MSG(level < link_levels_, "repair_cable: level out of range");
  FT_REQUIRE_MSG(sw < rows_[level], "repair_cable: switch out of range");
  FT_REQUIRE_MSG(port < w_, "repair_cable: port out of range");
  FT_REQUIRE_MSG(!f_.empty() && test(f_, level, sw, port),
                 "repair_cable: cable is not faulted");
  set_bit(f_, level, sw, port, false);
  --faulted_;
  // A shadow bit means nobody holds the channel: restore it. A clear shadow
  // bit means a circuit still held it at failure time and never released —
  // the channel stays occupied by that holder.
  if (test(su_, level, sw, port)) {
    set_bit(su_, level, sw, port, false);
    set_bit(u_, level, sw, port, true);
    --occupied_u_[level];
    ++col_free_u_[std::uint64_t{level} * w_ + port];
  }
  if (test(sd_, level, sw, port)) {
    set_bit(sd_, level, sw, port, false);
    set_bit(d_, level, sw, port, true);
    --occupied_d_[level];
    ++col_free_d_[std::uint64_t{level} * w_ + port];
  }
}

void LinkState::set_ulink(std::uint32_t level, std::uint64_t sw,
                          std::uint32_t port, bool available) {
  if (cable_faulted(level, sw, port)) {
    FT_REQUIRE_MSG(available, "cannot occupy a channel on a faulted cable");
    park_release(su_, level, sw, port);
    return;
  }
  const bool was = ulink(level, sw, port);
  if (was == available) return;
  set_bit(u_, level, sw, port, available);
  occupied_u_[level] += available ? std::uint64_t(-1) : 1;
  col_free_u_[std::uint64_t{level} * w_ + port] +=
      available ? 1 : std::uint64_t(-1);
}

void LinkState::set_dlink(std::uint32_t level, std::uint64_t sw,
                          std::uint32_t port, bool available) {
  if (cable_faulted(level, sw, port)) {
    FT_REQUIRE_MSG(available, "cannot occupy a channel on a faulted cable");
    park_release(sd_, level, sw, port);
    return;
  }
  const bool was = dlink(level, sw, port);
  if (was == available) return;
  set_bit(d_, level, sw, port, available);
  occupied_d_[level] += available ? std::uint64_t(-1) : 1;
  col_free_d_[std::uint64_t{level} * w_ + port] +=
      available ? 1 : std::uint64_t(-1);
}

void LinkState::occupy(std::uint32_t level, std::uint64_t src_sw,
                       std::uint64_t dst_sw, std::uint32_t port) {
  occupy_ulink(level, src_sw, port);
  occupy_dlink(level, dst_sw, port);
}

void LinkState::release(std::uint32_t level, std::uint64_t src_sw,
                        std::uint64_t dst_sw, std::uint32_t port) {
  // Either side's cable may have failed since the channel was granted; a
  // release then parks in the shadow so the channel stays effectively busy
  // until repair.
  if (cable_faulted(level, src_sw, port)) {
    park_release(su_, level, src_sw, port);
  } else {
    FT_REQUIRE(!ulink(level, src_sw, port));
    set_bit(u_, level, src_sw, port, true);
    --occupied_u_[level];
    ++col_free_u_[std::uint64_t{level} * w_ + port];
  }
  if (cable_faulted(level, dst_sw, port)) {
    park_release(sd_, level, dst_sw, port);
  } else {
    FT_REQUIRE(!dlink(level, dst_sw, port));
    set_bit(d_, level, dst_sw, port, true);
    --occupied_d_[level];
    ++col_free_d_[std::uint64_t{level} * w_ + port];
  }
}

void LinkState::occupy_path(const FatTree& tree, const Path& path) {
  CircuitLabels labels = CircuitLabels::from_nodes(tree, path.src, path.dst);
  for (std::uint32_t h = 0; h < path.ancestor_level; ++h) {
    occupy(h, labels.sigma(), labels.delta(), path.ports[h]);
    labels.ascend(tree, path.ports[h]);
  }
}

void LinkState::release_path(const FatTree& tree, const Path& path) {
  CircuitLabels labels = CircuitLabels::from_nodes(tree, path.src, path.dst);
  for (std::uint32_t h = 0; h < path.ancestor_level; ++h) {
    release(h, labels.sigma(), labels.delta(), path.ports[h]);
    labels.ascend(tree, path.ports[h]);
  }
}

bool LinkState::path_available(const FatTree& tree, const Path& path) const {
  CircuitLabels labels = CircuitLabels::from_nodes(tree, path.src, path.dst);
  for (std::uint32_t h = 0; h < path.ancestor_level; ++h) {
    if (!ulink(h, labels.sigma(), path.ports[h]) ||
        !dlink(h, labels.delta(), path.ports[h])) {
      return false;
    }
    labels.ascend(tree, path.ports[h]);
  }
  return true;
}

std::uint64_t LinkState::occupied_ulinks_at(std::uint32_t level) const {
  FT_REQUIRE(level < link_levels_);
  return occupied_u_[level];
}

std::uint64_t LinkState::occupied_dlinks_at(std::uint32_t level) const {
  FT_REQUIRE(level < link_levels_);
  return occupied_d_[level];
}

std::uint64_t LinkState::total_occupied() const {
  std::uint64_t total = 0;
  for (std::uint32_t h = 0; h < link_levels_; ++h) {
    total += occupied_u_[h] + occupied_d_[h];
  }
  return total;
}

Status LinkState::audit() const {
  for (std::uint32_t h = 0; h < link_levels_; ++h) {
    std::uint64_t set_u = 0;
    std::uint64_t set_d = 0;
    for (std::uint64_t i = 0; i < rows_[h] * row_words_; ++i) {
      set_u += bits::popcount(u_[h][i]);
      set_d += bits::popcount(d_[h][i]);
    }
    const std::uint64_t total = rows_[h] * w_;
    if (total - set_u != occupied_u_[h]) {
      return Status::error("ulink occupancy counter drift at level " +
                           std::to_string(h));
    }
    if (total - set_d != occupied_d_[h]) {
      return Status::error("dlink occupancy counter drift at level " +
                           std::to_string(h));
    }
    // Column tallies 64 ports (one row word) at a time, so they fit on the
    // stack: an audit allocates nothing, whatever w is.
    for (std::uint64_t wd = 0; wd < row_words_; ++wd) {
      std::array<std::uint64_t, 64> col_u{};
      std::array<std::uint64_t, 64> col_d{};
      for (std::uint64_t sw = 0; sw < rows_[h]; ++sw) {
        std::uint64_t wu = u_[h][sw * row_words_ + wd];
        std::uint64_t wv = d_[h][sw * row_words_ + wd];
        while (wu != 0) {
          ++col_u[bits::find_first_word(wu)];
          wu &= wu - 1;
        }
        while (wv != 0) {
          ++col_d[bits::find_first_word(wv)];
          wv &= wv - 1;
        }
      }
      const std::uint32_t first = static_cast<std::uint32_t>(wd * 64);
      for (std::uint32_t p = first; p < w_ && p < first + 64; ++p) {
        if (col_u[p - first] != col_free_u_[std::uint64_t{h} * w_ + p]) {
          return Status::error("ulink column-free counter drift at level " +
                               std::to_string(h) + " port " +
                               std::to_string(p));
        }
        if (col_d[p - first] != col_free_d_[std::uint64_t{h} * w_ + p]) {
          return Status::error("dlink column-free counter drift at level " +
                               std::to_string(h) + " port " +
                               std::to_string(p));
        }
      }
    }
  }
  if (!f_.empty()) {
    std::uint64_t fault_bits = 0;
    for (std::uint32_t h = 0; h < link_levels_; ++h) {
      for (std::uint64_t wd = 0; wd < rows_[h] * row_words_; ++wd) {
        fault_bits += bits::popcount(f_[h][wd]);
        if ((f_[h][wd] & (u_[h][wd] | d_[h][wd])) != 0) {
          return Status::error("faulted channel reads available at level " +
                               std::to_string(h));
        }
        if (((su_[h][wd] | sd_[h][wd]) & ~f_[h][wd]) != 0) {
          return Status::error("shadow bit without fault bit at level " +
                               std::to_string(h));
        }
      }
    }
    if (fault_bits != faulted_) {
      return Status::error("faulted-cable counter drift");
    }
  } else if (faulted_ != 0) {
    return Status::error("faulted-cable counter without overlay");
  }
  return Status();
}

namespace {

// The overlay is lazily allocated, so an absent matrix set means all-zero.
bool overlay_equal(const std::vector<std::vector<std::uint64_t>>& a,
                   const std::vector<std::vector<std::uint64_t>>& b) {
  auto all_zero = [](const std::vector<std::vector<std::uint64_t>>& m) {
    for (const auto& level : m) {
      for (std::uint64_t word : level) {
        if (word != 0) return false;
      }
    }
    return true;
  };
  if (a.empty()) return all_zero(b);
  if (b.empty()) return all_zero(a);
  return a == b;
}

}  // namespace

bool LinkState::same_faults(const LinkState* other) const {
  static const std::vector<Matrix> kNone;
  if (other == nullptr) {
    return faulted_ == 0 && overlay_equal(f_, kNone) &&
           overlay_equal(su_, kNone) && overlay_equal(sd_, kNone);
  }
  return faulted_ == other->faulted_ && overlay_equal(f_, other->f_) &&
         overlay_equal(su_, other->su_) && overlay_equal(sd_, other->sd_);
}

bool operator==(const LinkState& a, const LinkState& b) {
  return a.link_levels_ == b.link_levels_ && a.w_ == b.w_ &&
         a.rows_ == b.rows_ && a.u_ == b.u_ && a.d_ == b.d_ &&
         a.occupied_u_ == b.occupied_u_ && a.occupied_d_ == b.occupied_d_ &&
         a.col_free_u_ == b.col_free_u_ && a.col_free_d_ == b.col_free_d_ &&
         a.same_faults(&b);
}

}  // namespace ftsched
