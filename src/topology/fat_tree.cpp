#include "topology/fat_tree.hpp"

#include <string>

namespace ftsched {

namespace {

/// pow with overflow detection; returns false if the result exceeds 64 bits.
bool checked_pow(std::uint64_t base, std::uint32_t exp, std::uint64_t& out) {
  std::uint64_t result = 1;
  for (std::uint32_t i = 0; i < exp; ++i) {
    if (base != 0 && result > UINT64_MAX / base) return false;
    result *= base;
  }
  out = result;
  return true;
}

}  // namespace

Status FatTreeParams::validate() const {
  if (levels < 1) return Status::error("FT(l,m,w): levels must be >= 1");
  if (levels > kMaxTreeLevels) {
    return Status::error("FT(l,m,w): levels exceeds kMaxTreeLevels (" +
                         std::to_string(kMaxTreeLevels) + ")");
  }
  if (child_arity < 2) {
    return Status::error("FT(l,m,w): child arity m must be >= 2");
  }
  if (parent_arity < 1) {
    return Status::error("FT(l,m,w): parent arity w must be >= 1");
  }
  std::uint64_t nodes = 0;
  if (!checked_pow(child_arity, levels, nodes)) {
    return Status::error("FT(l,m,w): node count m^l overflows 64 bits");
  }
  // Largest per-level switch count is max(m,w)^(l-1); cable count adds one
  // more factor of w.
  std::uint64_t worst = 0;
  const std::uint64_t big = child_arity > parent_arity ? child_arity
                                                       : parent_arity;
  if (!checked_pow(big, levels, worst)) {
    return Status::error("FT(l,m,w): switch/cable counts overflow 64 bits");
  }
  return Status();
}

FatTree::FatTree(const FatTreeParams& params)
    : params_(params), divm_(params.child_arity) {
  const std::uint32_t l = params.levels;
  const std::uint64_t m = params.child_arity;
  const std::uint64_t w = params.parent_arity;

  node_count_ = 1;
  for (std::uint32_t i = 0; i < l; ++i) node_count_ *= m;

  // switches_at(h) = m^(l-1-h) * w^h
  for (std::uint32_t h = 0; h < l; ++h) {
    std::uint64_t count = 1;
    for (std::uint32_t i = 0; i < l - 1 - h; ++i) count *= m;
    for (std::uint32_t i = 0; i < h; ++i) count *= w;
    switches_per_level_.push_back(count);
  }

  // Label system of level h: digits 0..h-1 radix w, digits h..l-2 radix m.
  for (std::uint32_t h = 0; h < l; ++h) {
    DigitVec radices;
    for (std::uint32_t i = 0; i + 1 < l; ++i) {
      radices.push_back(i < h ? params.parent_arity : params.child_arity);
    }
    label_systems_.push_back(MixedRadix(radices));
    FT_ASSERT(label_systems_[h].cardinality() == switches_per_level_[h]);
  }
}

Result<FatTree> FatTree::create(const FatTreeParams& params) {
  Status status = params.validate();
  if (!status.ok()) return status;
  return FatTree(params);
}

FatTree FatTree::symmetric(std::uint32_t levels, std::uint32_t arity) {
  auto result = create(FatTreeParams::symmetric(levels, arity));
  FT_REQUIRE(result.ok());
  return std::move(result).value();
}

std::uint64_t FatTree::switches_at(std::uint32_t level) const {
  FT_REQUIRE(level < params_.levels);
  return switches_per_level_[level];
}

std::uint64_t FatTree::total_switches() const {
  std::uint64_t total = 0;
  for (std::uint32_t h = 0; h < params_.levels; ++h) {
    total += switches_per_level_[h];
  }
  return total;
}

std::uint64_t FatTree::cables_at(std::uint32_t level) const {
  FT_REQUIRE(level + 1 < params_.levels);
  return switches_per_level_[level] * params_.parent_arity;
}

const MixedRadix& FatTree::label_system(std::uint32_t level) const {
  FT_REQUIRE(level < params_.levels);
  return label_systems_[level];
}

NodeId FatTree::node_at(std::uint64_t leaf_switch_index,
                        std::uint32_t port) const {
  FT_REQUIRE(leaf_switch_index < switches_per_level_[0]);
  FT_REQUIRE(port < params_.child_arity);
  return leaf_switch_index * params_.child_arity + port;
}

std::uint64_t FatTree::ascend(std::uint32_t level, std::uint64_t index,
                              std::uint32_t port) const {
  FT_REQUIRE(level + 1 < params_.levels);
  FT_REQUIRE(port < params_.parent_arity);
  const MixedRadix& from = label_systems_[level];
  const MixedRadix& to = label_systems_[level + 1];
  FT_REQUIRE(index < from.cardinality());

  const DigitVec digits = from.decompose(index);
  DigitVec next;
  next.push_back(port);                                 // new digit 0 = P_h
  for (std::uint32_t i = 0; i < level; ++i) {
    next.push_back(digits[i]);                          // ports shift up
  }
  for (std::size_t i = level + 1; i < digits.size(); ++i) {
    next.push_back(digits[i]);                          // source digits stay
  }
  // Old digit `level` (the consumed source digit s_h) is dropped.
  return to.compose(next);
}

SwitchId FatTree::up_neighbor(const SwitchId& sw, std::uint32_t port) const {
  return SwitchId{sw.level + 1, ascend(sw.level, sw.index, port)};
}

FatTree::DownHop FatTree::down_neighbor(const SwitchId& sw,
                                        std::uint32_t down_port) const {
  FT_REQUIRE(sw.level >= 1);
  FT_REQUIRE(sw.level < params_.levels);
  FT_REQUIRE(down_port < params_.child_arity);
  const std::uint32_t child_level = sw.level - 1;
  const MixedRadix& from = label_systems_[sw.level];
  const MixedRadix& to = label_systems_[child_level];
  FT_REQUIRE(sw.index < from.cardinality());

  const DigitVec digits = from.decompose(sw.index);
  DigitVec child;
  for (std::uint32_t i = 1; i <= child_level; ++i) {
    child.push_back(digits[i]);                 // ports shift back down
  }
  child.push_back(down_port);                   // reinsert source digit s_h
  for (std::size_t i = child_level + 1; i < digits.size(); ++i) {
    child.push_back(digits[i]);
  }
  return DownHop{SwitchId{child_level, to.compose(child)},
                 digits[0]};  // cable uses the child's up-port = P_h
}

std::uint32_t FatTree::parent_down_port(const SwitchId& sw) const {
  FT_REQUIRE(sw.level + 1 < params_.levels);
  const MixedRadix& system = label_systems_[sw.level];
  FT_REQUIRE(sw.index < system.cardinality());
  return system.decompose(sw.index)[sw.level];
}

}  // namespace ftsched
