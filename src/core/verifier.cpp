#include "core/verifier.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <memory>
#include <string>
#include <vector>

#include "util/bitvec.hpp"

namespace ftsched {

const std::string& VerifyReport::first() const {
  static const std::string kEmpty;
  return violations.empty() ? kEmpty : violations.front();
}

Status VerifyReport::status() const {
  if (ok()) return Status();
  std::string msg = violations.front();
  if (violations.size() > 1) {
    msg += " (+" + std::to_string(violations.size() - 1) + " more violations)";
  }
  return Status::error(std::move(msg));
}

std::string VerifyReport::to_string() const {
  if (ok()) {
    return "schedule verified: " + std::to_string(granted) + " granted, " +
           std::to_string(rejected) + " rejected, " +
           std::to_string(channels_checked) + " channels checked";
  }
  std::string out = std::to_string(violations.size()) + " violation(s):";
  for (const std::string& v : violations) {
    out += "\n  - " + v;
  }
  return out;
}

namespace {

/// The tree's dimensions as the verifier's own Theorem-1 derivation uses
/// them. Deliberately re-implemented here (not MixedRadix, FatTree or the
/// shared ChildDivider) so the verifier shares no arithmetic with the code
/// it checks; /m is its own shift when m is a power of two.
struct OwnRadix {
  explicit OwnRadix(const FatTree& tree)
      : m(tree.child_arity()),
        w(tree.parent_arity()),
        m_pow2((m & (m - 1)) == 0),
        m_shift(m_pow2 ? static_cast<std::uint32_t>(std::countr_zero(m))
                       : 0) {}

  std::uint64_t div_m(std::uint64_t x) const {
    return m_pow2 ? x >> m_shift : x / m;
  }

  std::uint64_t m;
  std::uint64_t w;
  bool m_pow2;
  std::uint32_t m_shift;
};

/// The Theorem-1 re-derivation of a path's channels into `out`, in
/// expand_path order; returns 2·H. Both sides in one pass, carrying the
/// level-h label σ_h = pval + w^h·rest level by level:
///   pval ← P_h + w·pval   (the port prefix [P_{h-1} … P_0]_w)
///   rest ← rest / m       (the leaf's remaining digits t_h … t_{l-2})
/// so no level re-reads the digits below it.
std::size_t rederive(const OwnRadix& radix, const Path& path,
                     std::span<ChannelId> out) {
  const std::uint32_t H = path.ancestor_level;
  FT_REQUIRE(path.ports.size() >= H);
  FT_REQUIRE(out.size() >= 2 * static_cast<std::size_t>(H));
  std::uint64_t src_rest = radix.div_m(path.src);
  std::uint64_t dst_rest = radix.div_m(path.dst);
  std::uint64_t pval = 0;
  std::uint64_t place = 1;
  for (std::uint32_t h = 0; h < H; ++h) {
    const std::uint32_t port = path.ports[h];
    out[h] = ChannelId{CableId{h, pval + place * src_rest, port},
                       Direction::kUp};
    out[2 * H - 1 - h] = ChannelId{CableId{h, pval + place * dst_rest, port},
                                   Direction::kDown};
    pval = port + radix.w * pval;
    place *= radix.w;
    src_rest = radix.div_m(src_rest);
    dst_rest = radix.div_m(dst_rest);
  }
  return 2 * static_cast<std::size_t>(H);
}

/// Dense index of a directed channel for the claim bitmap of check (a):
/// (offset of its level + lower_index·w + port) · 2 + direction. A cable
/// outside the tree has no index (npos).
class ChannelIndex {
 public:
  static constexpr std::uint64_t npos = ~std::uint64_t{0};

  explicit ChannelIndex(const FatTree& tree) : w_(tree.parent_arity()) {
    std::uint64_t cables = 0;
    for (std::uint32_t h = 0; h + 1 < tree.levels(); ++h) {
      offset_.push_back(cables);
      rows_.push_back(tree.switches_at(h));
      cables += tree.cables_at(h);
    }
    size_ = 2 * cables;
  }

  std::uint64_t size() const { return size_; }

  std::uint64_t operator()(const ChannelId& ch) const {
    const CableId& c = ch.cable;
    if (c.level >= offset_.size() || c.lower_index >= rows_[c.level] ||
        c.port >= w_) {
      return npos;
    }
    const std::uint64_t cable = offset_[c.level] + c.lower_index * w_ + c.port;
    return 2 * cable + (ch.direction == Direction::kDown ? 1 : 0);
  }

 private:
  std::uint32_t w_;
  SmallVec<std::uint64_t, kMaxTreeLevels> offset_;
  SmallVec<std::uint64_t, kMaxTreeLevels> rows_;
  std::uint64_t size_ = 0;
};

/// Check (d)'s expected occupancy: one up and one down bit plane per link
/// level in LinkState's row layout (row_words() words per switch, bit i =
/// port i), but with a set bit meaning occupied — by the state before the
/// batch or by a granted circuit claimed so far. The planes hold only the
/// expected availability bits: a LinkState's occupancy counters follow
/// from its bits, and audit() checks that they do.
class ClaimPlanes {
 public:
  explicit ClaimPlanes(const FatTree& tree)
      : w_(tree.parent_arity()), row_words_(BitVec::word_count(w_)) {
    std::uint64_t words = 0;
    for (std::uint32_t h = 0; h + 1 < tree.levels(); ++h) {
      offset_.push_back(words);
      rows_.push_back(tree.switches_at(h));
      words += tree.switches_at(h) * row_words_;
    }
    up_.assign(words, 0);
    down_.assign(words, 0);
    for (std::uint64_t wd = 0; wd < row_words_; ++wd) {
      row_mask_.push_back(
          bits::low_mask(std::min<std::uint64_t>(64, w_ - wd * 64)));
    }
  }

  /// Starts a batch: empty for a fresh state, else `before`'s occupied
  /// (and faulted) channels.
  void seed(const LinkState* before) {
    if (before == nullptr) {
      std::fill(up_.begin(), up_.end(), 0);
      std::fill(down_.begin(), down_.end(), 0);
      return;
    }
    FT_REQUIRE(same_shape(*before));
    for (std::uint32_t h = 0; h < offset_.size(); ++h) {
      copy_level(before->ulink_row(h, 0), up_.data() + offset_[h], h);
      copy_level(before->dlink_row(h, 0), down_.data() + offset_[h], h);
    }
  }

  /// Claims a channel of a legal path; false when it is already occupied.
  bool claim(const ChannelId& ch) {
    const CableId& c = ch.cable;
    FT_ASSERT(c.level < offset_.size());
    FT_ASSERT(c.lower_index < rows_[c.level]);
    FT_ASSERT(c.port < w_);
    std::uint64_t& word =
        (ch.direction == Direction::kUp ? up_ : down_)
            [offset_[c.level] + c.lower_index * row_words_ + c.port / 64];
    const std::uint64_t bit = std::uint64_t{1} << (c.port % 64);
    if ((word & bit) != 0) return false;
    word |= bit;
    return true;
  }

  /// True when `after`'s availability bits are exactly the complement of
  /// the planes (spare high bits zero), word by word.
  bool matches(const LinkState& after) const {
    if (!same_shape(after)) return false;
    for (std::uint32_t h = 0; h < offset_.size(); ++h) {
      if (!level_matches(after.ulink_row(h, 0), up_.data() + offset_[h], h) ||
          !level_matches(after.dlink_row(h, 0), down_.data() + offset_[h],
                         h)) {
        return false;
      }
    }
    return true;
  }

  /// Occupied channels of one direction at `level`.
  std::uint64_t occupied_at(std::uint32_t level, Direction direction) const {
    const std::uint64_t* plane =
        (direction == Direction::kUp ? up_ : down_).data() + offset_[level];
    std::uint64_t count = 0;
    for (std::uint64_t i = 0; i < rows_[level] * row_words_; ++i) {
      count += bits::popcount(plane[i]);
    }
    return count;
  }

 private:
  bool same_shape(const LinkState& state) const {
    if (state.link_levels() != offset_.size() ||
        state.ports_per_switch() != w_ || state.row_words() != row_words_) {
      return false;
    }
    for (std::uint32_t h = 0; h < offset_.size(); ++h) {
      if (state.rows_at(h) != rows_[h]) return false;
    }
    return true;
  }

  void copy_level(const std::uint64_t* rows, std::uint64_t* plane,
                  std::uint32_t level) const {
    for (std::uint64_t sw = 0; sw < rows_[level]; ++sw) {
      for (std::uint64_t wd = 0; wd < row_words_; ++wd) {
        const std::uint64_t i = sw * row_words_ + wd;
        plane[i] = ~rows[i] & row_mask_[wd];
      }
    }
  }

  bool level_matches(const std::uint64_t* rows, const std::uint64_t* plane,
                     std::uint32_t level) const {
    std::uint64_t diff = 0;
    for (std::uint64_t sw = 0; sw < rows_[level]; ++sw) {
      for (std::uint64_t wd = 0; wd < row_words_; ++wd) {
        const std::uint64_t i = sw * row_words_ + wd;
        diff |= rows[i] ^ (~plane[i] & row_mask_[wd]);
      }
    }
    return diff == 0;
  }

  std::uint64_t w_;
  std::uint64_t row_words_;
  SmallVec<std::uint64_t, kMaxTreeLevels> offset_;
  SmallVec<std::uint64_t, kMaxTreeLevels> rows_;
  std::vector<std::uint64_t> row_mask_;
  std::vector<std::uint64_t> up_;
  std::vector<std::uint64_t> down_;
};

bool available(const LinkState& state, const ChannelId& ch) {
  const CableId& c = ch.cable;
  return ch.direction == Direction::kUp
             ? state.ulink(c.level, c.lower_index, c.port)
             : state.dlink(c.level, c.lower_index, c.port);
}

}  // namespace

/// Everything verify() reuses from batch to batch, sized for the tree on
/// first use.
struct ScheduleVerifier::Scratch {
  explicit Scratch(const FatTree& tree)
      : radix(tree),
        channel_index(tree),
        claimed(channel_index.size()),
        src_used(tree.node_count()),
        dst_used(tree.node_count()),
        planes(tree) {}

  OwnRadix radix;
  ChannelIndex channel_index;
  BitVec claimed;  ///< check (a): directed channels granted so far
  BitVec src_used;
  BitVec dst_used;
  ClaimPlanes planes;  ///< check (d)
};

ScheduleVerifier::ScheduleVerifier(const FatTree& tree, VerifyOptions options)
    : tree_(tree), options_(options) {}

ScheduleVerifier::~ScheduleVerifier() = default;

std::vector<ChannelId> ScheduleVerifier::rederive_channels(
    const Path& path) const {
  ChannelBuffer buffer;
  const std::size_t n = rederive(OwnRadix(tree_), path, buffer);
  return {buffer.begin(), buffer.begin() + static_cast<std::ptrdiff_t>(n)};
}

Status ScheduleVerifier::check_mirror(const PathExpansion& expansion,
                                      std::uint32_t ancestor_level) {
  return check_mirror(std::span<const ChannelId>(expansion.channels),
                      ancestor_level);
}

Status ScheduleVerifier::check_mirror(std::span<const ChannelId> channels,
                                      std::uint32_t ancestor_level) {
  const std::size_t H = ancestor_level;
  if (channels.size() != 2 * H) {
    return Status::error("expansion has " + std::to_string(channels.size()) +
                         " channels for ancestor level " + std::to_string(H));
  }
  for (std::size_t h = 0; h < H; ++h) {
    const ChannelId& up = channels[h];
    const ChannelId& down = channels[2 * H - 1 - h];
    if (up.direction != Direction::kUp || down.direction != Direction::kDown) {
      return Status::error("expansion channel order is not up*H then down*H");
    }
    if (up.cable.level != h || down.cable.level != h) {
      return Status::error("expansion levels do not mirror at position " +
                           std::to_string(h));
    }
    if (up.cable.port != down.cable.port) {
      return Status::error(
          "up/down port sequences do not mirror (Theorem 2): level " +
          std::to_string(h) + " ascends through port " +
          std::to_string(up.cable.port) + " but descends through port " +
          std::to_string(down.cable.port));
    }
  }
  return Status();
}

VerifyReport ScheduleVerifier::verify(std::span<const Request> requests,
                                      const ScheduleResult& result,
                                      const LinkState* state_after,
                                      const LinkState* state_before) const {
  VerifyReport report;
  auto add = [&](std::string msg) {
    if (report.violations.size() < options_.max_violations) {
      report.violations.push_back(std::move(msg));
    }
  };

  if (result.outcomes.size() != requests.size()) {
    add("result has " + std::to_string(result.outcomes.size()) +
        " outcomes for " + std::to_string(requests.size()) + " requests");
    return report;
  }

  // Scratch lives as long as the verifier: sized for the tree on the first
  // verify(), cleared here. Nothing below allocates unless it has a
  // violation to report.
  if (!scratch_) scratch_ = std::make_unique<Scratch>(tree_);
  Scratch& scratch = *scratch_;
  const OwnRadix& radix = scratch.radix;
  const ChannelIndex& channel_index = scratch.channel_index;
  BitVec& claimed = scratch.claimed;
  BitVec& src_used = scratch.src_used;
  BitVec& dst_used = scratch.dst_used;
  ClaimPlanes& planes = scratch.planes;
  claimed.reset_all();
  src_used.reset_all();
  dst_used.reset_all();
  const std::uint32_t link_levels = tree_.levels() - 1;
  ChannelBuffer derived;
  ChannelBuffer expanded;

  // Check (d) runs in the same pass, on the same re-derivation, against the
  // expected occupancy: the claim planes, seeded with the state before the
  // batch (empty if not supplied) and claimed with every granted circuit.
  // Its findings are held back and reported after every (a)–(c) finding
  // and the audit.
  const bool relaxed = options_.allow_residual_occupancy;
  const bool occupancy = state_after != nullptr;
  if (occupancy) planes.seed(state_before);
  std::vector<std::string> preoccupied;
  std::vector<std::string> unoccupied;
  auto hold = [&](std::vector<std::string>& held, std::string msg) {
    if (held.size() < options_.max_violations) held.push_back(std::move(msg));
  };
  auto account = [&](const Path& path, std::span<const ChannelId> channels) {
    for (const ChannelId& ch : channels) {
      // Relaxed mode: every granted channel must still be occupied.
      if (relaxed && available(*state_after, ch)) {
        hold(unoccupied, "channel " + to_string(ch) + " of granted circuit " +
                             to_string(path) +
                             " is not occupied in the final state");
      }
      if (!planes.claim(ch)) {
        hold(preoccupied, "channel " + to_string(ch) +
                              " of granted circuit " + to_string(path) +
                              " was already occupied before the batch");
      }
    }
  };

  for (std::size_t i = 0; i < requests.size(); ++i) {
    const RequestOutcome& out = result.outcomes[i];
    const Request& r = requests[i];
    ++report.requests_checked;

    if (!out.granted) {
      ++report.rejected;
      if (out.reason == RejectReason::kNone) {
        add("request " + std::to_string(i) +
            " is rejected but carries no reject reason");
      }
      if (!out.path.ports.empty() || out.path.ancestor_level != 0) {
        add("rejected request " + std::to_string(i) +
            " retains path data (ports or ancestor level)");
      }
      if (out.reason != RejectReason::kNone &&
          out.reason != RejectReason::kLeafBusy) {
        if (out.fail_level >= link_levels) {
          add("rejected request " + std::to_string(i) + " fails at level " +
              std::to_string(out.fail_level) +
              ", beyond the last inter-switch level");
        }
      }
      continue;
    }

    ++report.granted;
    if (out.path.src != r.src || out.path.dst != r.dst) {
      add("outcome " + std::to_string(i) +
          " carries a path for the wrong endpoints");
      // A legal path still occupies its channels, so check (d) counts it.
      if (occupancy && check_path_legal(tree_, out.path).ok()) {
        account(out.path,
                std::span(derived).first(rederive(radix, out.path, derived)));
      }
      continue;
    }
    if (out.reason != RejectReason::kNone) {
      add("request " + std::to_string(i) +
          " is granted but carries reject reason '" +
          std::string(to_string(out.reason)) + "'");
    }
    const Status legal = check_path_legal(tree_, out.path);
    if (!legal.ok()) {
      add("request " + std::to_string(i) + " (" + to_string(out.path) +
          "): " + legal.message());
      continue;  // the expansion below requires a legal path
    }

    // Independent Theorem-1 re-derivation: the expansion produced by the
    // topology layer must equal the one recomputed from raw digits. That
    // re-derivation mirrors by construction (Theorem 2), so an expansion
    // that equals it needs no separate check_mirror.
    const std::span<const ChannelId> own =
        std::span(derived).first(rederive(radix, out.path, derived));
    const std::span<const ChannelId> topo = std::span(expanded).first(
        expand_channels(tree_, out.path, expanded));
    if (!std::ranges::equal(own, topo)) {
      add("request " + std::to_string(i) + " (" + to_string(out.path) +
          "): expansion diverges from the Theorem-1 digit re-derivation");
    }

    if (src_used.test(r.src)) {
      add("PE " + std::to_string(r.src) + " injects two granted circuits");
    }
    if (dst_used.test(r.dst)) {
      add("PE " + std::to_string(r.dst) + " receives two granted circuits");
    }
    src_used.set(r.src);
    dst_used.set(r.dst);

    for (const ChannelId& ch : topo) {
      ++report.channels_checked;
      const std::uint64_t slot = channel_index(ch);
      if (slot == ChannelIndex::npos) continue;  // reported as a divergence
      if (claimed.test(slot)) {
        add("channel " + to_string(ch) +
            " is claimed by two granted circuits (second: " +
            to_string(out.path) + ")");
      }
      claimed.set(slot);
    }

    if (occupancy) account(out.path, own);
  }

  if (state_after == nullptr) return report;

  const Status audit = state_after->audit();
  if (!audit.ok()) add(audit.message());
  for (std::string& msg : preoccupied) add(std::move(msg));

  if (!relaxed) {
    if (!planes.matches(*state_after) ||
        !state_after->same_faults(state_before)) {
      add("final link state differs from the union of granted circuits "
          "(rejected requests left residue, or grants were not applied)");
    }
    return report;
  }

  for (std::string& msg : unoccupied) add(std::move(msg));

  // Any residue beyond the granted union must be attributable, level by
  // level, to the recorded failure levels: a request rejected at level h
  // can hold up-channels only below h (levelwise and local ascent) and
  // down-channels only between its failure level and its true ancestor
  // level (local descent). Residue a rejection cannot explain means a
  // leaked or double-counted reservation.
  std::array<std::uint64_t, kMaxTreeLevels> up_bound{};
  std::array<std::uint64_t, kMaxTreeLevels> dn_bound{};
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const RequestOutcome& out = result.outcomes[i];
    if (out.granted) continue;
    const Request& r = requests[i];
    if (r.src >= tree_.node_count() || r.dst >= tree_.node_count()) {
      add("rejected request " + std::to_string(i) + " (node " +
          std::to_string(r.src) + " -> node " + std::to_string(r.dst) +
          ") has an endpoint out of range for this tree; no residue can be "
          "attributed to it");
      continue;
    }
    const std::uint64_t src_leaf = tree_.leaf_switch(r.src).index;
    const std::uint64_t dst_leaf = tree_.leaf_switch(r.dst).index;
    const std::uint32_t H = tree_.common_ancestor_level(src_leaf, dst_leaf);
    switch (out.reason) {
      case RejectReason::kNoCommonPort:
        for (std::uint32_t h = 0; h < out.fail_level && h < link_levels; ++h) {
          ++up_bound[h];
          ++dn_bound[h];
        }
        break;
      case RejectReason::kNoLocalUplink:
        for (std::uint32_t h = 0; h < out.fail_level && h < link_levels; ++h) {
          ++up_bound[h];
        }
        break;
      case RejectReason::kDownConflict:
        for (std::uint32_t h = 0; h < H; ++h) ++up_bound[h];
        for (std::uint32_t h = out.fail_level + 1; h < H; ++h) ++dn_bound[h];
        break;
      case RejectReason::kNone:
      case RejectReason::kLeafBusy:
        break;
    }
  }
  for (std::uint32_t h = 0; h < link_levels; ++h) {
    const std::uint64_t expected_u = planes.occupied_at(h, Direction::kUp);
    const std::uint64_t after_u = state_after->occupied_ulinks_at(h);
    const std::uint64_t expected_d = planes.occupied_at(h, Direction::kDown);
    const std::uint64_t after_d = state_after->occupied_dlinks_at(h);
    if (after_u < expected_u || after_d < expected_d) {
      continue;  // already reported above as an unoccupied granted channel
    }
    if (after_u - expected_u > up_bound[h]) {
      add("level " + std::to_string(h) + " holds " +
          std::to_string(after_u - expected_u) +
          " residual up-channels but the rejected requests account for at "
          "most " +
          std::to_string(up_bound[h]) +
          " (a request rejected at level h may hold reservations only below "
          "h)");
    }
    if (after_d - expected_d > dn_bound[h]) {
      add("level " + std::to_string(h) + " holds " +
          std::to_string(after_d - expected_d) +
          " residual down-channels but the rejected requests account for at "
          "most " +
          std::to_string(dn_bound[h]));
    }
  }
  return report;
}

Status verify_schedule(const FatTree& tree, std::span<const Request> requests,
                       const ScheduleResult& result,
                       const LinkState* state_after,
                       const VerifyOptions& options) {
  return ScheduleVerifier(tree, options)
      .verify(requests, result, state_after)
      .status();
}

}  // namespace ftsched
