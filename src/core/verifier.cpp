#include "core/verifier.hpp"

#include <algorithm>
#include <array>
#include <optional>
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

ScheduleVerifier::ScheduleVerifier(const FatTree& tree, VerifyOptions options)
    : tree_(tree), options_(options) {}

namespace {

using Digits = std::array<std::uint32_t, kMaxTreeLevels>;

/// Base-m digits of a leaf-switch label, LSB first — the paper's t_0…t_{l-2}.
/// Deliberately re-implemented here (not MixedRadix) so the verifier shares
/// no arithmetic with the code it checks.
Digits leaf_digits(std::uint64_t leaf, std::uint32_t m, std::uint32_t count) {
  Digits digits{};
  for (std::uint32_t i = 0; i < count; ++i) {
    digits[i] = static_cast<std::uint32_t>(leaf % m);
    leaf /= m;
  }
  return digits;
}

/// Theorem 1, as pure digit arithmetic: the level-h switch on the side of
/// `leaf` (digits t_0…t_{count-1}) given port digits P_0…P_{h-1} has label
///   [P_{h-1} … P_0]_w  followed by  [t_h … t_{l-2}]_m
/// (digit 0 least significant, the low h digits in radix w, the rest radix m).
std::uint64_t side_value(const Digits& t, std::uint32_t count,
                         const DigitVec& ports, std::uint32_t h,
                         std::uint32_t m, std::uint32_t w) {
  std::uint64_t value = 0;
  std::uint64_t place = 1;
  for (std::uint32_t i = 0; i < h; ++i) {
    value += place * ports[h - 1 - i];
    place *= w;
  }
  for (std::uint32_t j = h; j < count; ++j) {
    value += place * t[j];
    place *= m;
  }
  return value;
}

/// The Theorem-1 re-derivation of a path's channels into `out`, in
/// expand_path order; returns 2·H. Uses only the tree's dimensions.
std::size_t rederive(const FatTree& tree, const Path& path,
                     std::span<ChannelId> out) {
  const std::uint32_t m = tree.child_arity();
  const std::uint32_t w = tree.parent_arity();
  const std::uint32_t count = tree.levels() - 1;
  const std::uint32_t H = path.ancestor_level;
  FT_REQUIRE(path.ports.size() >= H);
  FT_REQUIRE(out.size() >= 2 * static_cast<std::size_t>(H));
  const Digits s = leaf_digits(path.src / m, m, count);
  const Digits d = leaf_digits(path.dst / m, m, count);

  std::size_t n = 0;
  for (std::uint32_t h = 0; h < H; ++h) {
    out[n++] = ChannelId{
        CableId{h, side_value(s, count, path.ports, h, m, w), path.ports[h]},
        Direction::kUp};
  }
  for (std::uint32_t h = H; h-- > 0;) {
    out[n++] = ChannelId{
        CableId{h, side_value(d, count, path.ports, h, m, w), path.ports[h]},
        Direction::kDown};
  }
  return n;
}

/// Dense index of a directed channel for the per-batch claim bitmap:
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

bool available(const LinkState& state, const ChannelId& ch) {
  const CableId& c = ch.cable;
  return ch.direction == Direction::kUp
             ? state.ulink(c.level, c.lower_index, c.port)
             : state.dlink(c.level, c.lower_index, c.port);
}

}  // namespace

std::vector<ChannelId> ScheduleVerifier::rederive_channels(
    const Path& path) const {
  ChannelBuffer buffer;
  const std::size_t n = rederive(tree_, path, buffer);
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

  // Per-batch scratch, sized once: nothing below allocates per grant unless
  // it has a violation to report.
  const std::uint32_t link_levels = tree_.levels() - 1;
  const ChannelIndex channel_index(tree_);
  BitVec claimed(channel_index.size());
  BitVec src_used(tree_.node_count());
  BitVec dst_used(tree_.node_count());
  ChannelBuffer derived;
  ChannelBuffer expanded;

  // Check (d) runs in the same pass, on the same re-derivation, against the
  // expected occupancy: the state before the batch (fresh if not supplied)
  // plus the union of granted circuits. Its findings are held back and
  // reported after every (a)–(c) finding and the audit.
  const bool relaxed = options_.allow_residual_occupancy;
  std::optional<LinkState> expected;
  if (state_after != nullptr) {
    expected.emplace(state_before != nullptr ? *state_before
                                             : LinkState(tree_));
  }
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
      if (!available(*expected, ch)) {
        hold(preoccupied, "channel " + to_string(ch) +
                              " of granted circuit " + to_string(path) +
                              " was already occupied before the batch");
        continue;
      }
      const CableId& c = ch.cable;
      if (ch.direction == Direction::kUp) {
        expected->occupy_ulink(c.level, c.lower_index, c.port);
      } else {
        expected->occupy_dlink(c.level, c.lower_index, c.port);
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
      if (expected && check_path_legal(tree_, out.path).ok()) {
        account(out.path,
                std::span(derived).first(rederive(tree_, out.path, derived)));
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
    // topology layer must equal the one recomputed from raw digits.
    const std::span<const ChannelId> own =
        std::span(derived).first(rederive(tree_, out.path, derived));
    const std::span<const ChannelId> topo = std::span(expanded).first(
        expand_channels(tree_, out.path, expanded));
    if (!std::ranges::equal(own, topo)) {
      add("request " + std::to_string(i) + " (" + to_string(out.path) +
          "): expansion diverges from the Theorem-1 digit re-derivation");
    }

    // Theorem 2: the port sequence must mirror between ascent and descent.
    const Status mirror = check_mirror(topo, out.path.ancestor_level);
    if (!mirror.ok()) {
      add("request " + std::to_string(i) + " (" + to_string(out.path) +
          "): " + mirror.message());
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

    if (expected) account(out.path, own);
  }

  if (state_after == nullptr) return report;

  const Status audit = state_after->audit();
  if (!audit.ok()) add(audit.message());
  for (std::string& msg : preoccupied) add(std::move(msg));

  if (!relaxed) {
    if (!(*expected == *state_after)) {
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
  std::vector<std::uint64_t> up_bound(link_levels, 0);
  std::vector<std::uint64_t> dn_bound(link_levels, 0);
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
    const std::uint64_t expected_u = expected->occupied_ulinks_at(h);
    const std::uint64_t after_u = state_after->occupied_ulinks_at(h);
    const std::uint64_t expected_d = expected->occupied_dlinks_at(h);
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
