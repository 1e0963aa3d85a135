// Path — a scheduled circuit through the fat tree, and its expansion.
//
// Per Theorems 1–2 a circuit from leaf switch σ_0 to leaf switch δ_0 with
// common ancestor at level H is fully determined by the up-port choices
// P_0 … P_{H-1}: the upward path visits σ_h and the downward path visits δ_h
// (topology/circuit_labels.hpp derives both from P), using the SAME port
// number at each level. Path stores exactly that compact form; expand()
// materializes the switch/channel sequence for verification and display.
#pragma once

#include <array>
#include <span>
#include <string>
#include <vector>

#include "topology/fat_tree.hpp"
#include "topology/ids.hpp"

namespace ftsched {

struct Path {
  NodeId src = 0;
  NodeId dst = 0;
  std::uint32_t ancestor_level = 0;  ///< H; 0 = same leaf switch
  DigitVec ports;                    ///< P_0 … P_{H-1}

  friend bool operator==(const Path&, const Path&) = default;
};

struct PathExpansion {
  /// σ_0 … σ_H then δ_{H-1} … δ_0 — every switch the circuit traverses.
  std::vector<SwitchId> switches;
  /// Ulink(h, σ_h, P_h) for h = 0…H-1, then Dlink(h, δ_h, P_h) for
  /// h = H-1…0 — every inter-switch channel the circuit occupies.
  std::vector<ChannelId> channels;
};

/// Materializes the circuit. Aborts (contract) if `path.ports` is
/// inconsistent with the tree or with `ancestor_level`.
PathExpansion expand_path(const FatTree& tree, const Path& path);

/// Channel-only expansion into a caller buffer: writes exactly
/// expand_path(tree, path).channels to the front of `out` and returns their
/// number, 2·H. No switch list, no allocation. `path` must be legal
/// (check_path_legal) and `out` must hold at least 2·H channels.
std::size_t expand_channels(const FatTree& tree, const Path& path,
                            std::span<ChannelId> out);

/// A buffer that holds the channels of any legal path (2·H < 2·l).
using ChannelBuffer = std::array<ChannelId, 2 * kMaxTreeLevels>;

/// Checks that `path` is a legal circuit for (src, dst) on `tree`:
/// H equals the true common-ancestor level, ports.size() == H, every port is
/// < w, and the up/down sides meet at the same level-H switch. Returns a
/// diagnostic on the first violation.
Status check_path_legal(const FatTree& tree, const Path& path);

/// True if the circuit uses either channel of `cable` — the crossing test a
/// fabric manager runs when a cable dies. Pure Theorem-1/2 digit
/// arithmetic: the circuit crosses iff cable.level < H, the port digit
/// matches P_{cable.level}, and the cable's lower switch is the circuit's
/// σ_{level} (upward channel) or δ_{level} (downward channel). No expansion
/// or path storage needed. The path must be legal; the cable need not exist
/// on `tree` (an out-of-range cable simply never matches).
bool path_crosses_cable(const FatTree& tree, const Path& path,
                        const CableId& cable);

/// Human-readable rendering: "node 3 -> node 95 via P=(0,1,0)".
std::string to_string(const Path& path);

}  // namespace ftsched
