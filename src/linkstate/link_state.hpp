// LinkState — the global routing information of the paper's scheduler.
//
// For every inter-switch level h (0 … l-2) the paper keeps two bit matrices:
//   Ulink(h, τ)[i] — upward channel through upper port i of SW(h, τ) is free
//   Dlink(h, τ)[i] — downward channel through upper port i of SW(h, τ) is free
// (bit value 1 = available, exactly as in the paper). Rows are packed w bits
// wide into uint64 words; the scheduler's inner operation — AND the source
// row with the destination row, take the first set bit (Fig. 7 lines 3-6) —
// is one or a few word ops (Core Guidelines Per.16/19).
//
// LinkState is a value: copyable, snapshot-able, independent of the FatTree
// object that sized it (it remembers only the dimensions).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "topology/fat_tree.hpp"
#include "topology/path.hpp"
#include "util/bitvec.hpp"
#include "util/contracts.hpp"
#include "util/result.hpp"

namespace ftsched {

class LinkState {
 public:
  /// Sizes the matrices for `tree`; all channels start available.
  explicit LinkState(const FatTree& tree);

  /// Number of inter-switch levels (l - 1).
  std::uint32_t link_levels() const { return link_levels_; }
  std::uint32_t ports_per_switch() const { return w_; }
  std::uint64_t rows_at(std::uint32_t level) const {
    FT_REQUIRE(level < link_levels_);
    return rows_[level];
  }

  /// Marks every channel available again.
  void reset();

  // --- Single-bit accessors -------------------------------------------------

  bool ulink(std::uint32_t level, std::uint64_t sw, std::uint32_t port) const {
    return test(u_, level, sw, port);
  }
  bool dlink(std::uint32_t level, std::uint64_t sw, std::uint32_t port) const {
    return test(d_, level, sw, port);
  }
  void set_ulink(std::uint32_t level, std::uint64_t sw, std::uint32_t port,
                 bool available);
  void set_dlink(std::uint32_t level, std::uint64_t sw, std::uint32_t port,
                 bool available);

  // --- The scheduler's fused row operation ----------------------------------

  /// What a LevelView pick returns when no port qualifies.
  static constexpr std::uint32_t kNoPort = ~std::uint32_t{0};

  /// One level's packed rows, resolved once per level sweep. A scheduler's
  /// hot loop fetches the view when it enters level h and then picks
  /// through it (core/port_picker.hpp): the pick is the paper's priority
  /// selector, a single-word AND of Ulink(h, σ) with Dlink(h, δ) and a
  /// count-trailing-zeros, with no per-pick reload of the level's matrices.
  /// Rows wider than 64 ports take the multi-word loop inside the same
  /// functions. The primitives return a plain port or kNoPort, not an
  /// optional: merged across a policy switch, GCC spills an
  /// optional<uint32_t> to the stack as two narrow stores and reloads it as
  /// one wide load, which stalls store forwarding on every pick. A view is
  /// invalidated by whatever invalidates ulink_row/dlink_row; it sees every
  /// occupy and release made after it was taken.
  class LevelView {
   public:
    /// A candidate row: Ulink(σ = src_sw) AND one more packed row of this
    /// level — Dlink(δ) for the level-wise pick, Ulink(σ) again for the
    /// local one. Held as switch indices rather than row pointers, so a
    /// one-word row reads as u[σ] & d[δ] with no row-width multiply.
    struct Row {
      std::uint64_t src_sw = 0;
      const std::uint64_t* mate = nullptr;  ///< the second row's matrix
      std::uint64_t mate_sw = 0;
    };

    std::uint32_t level() const { return level_; }
    std::uint32_t ports() const { return w_; }

    /// Ulink(σ = src_sw) AND Dlink(δ = dst_sw): the ports free on both
    /// sides, which is all the level-wise scheduler picks from.
    Row and_row(std::uint64_t src_sw, std::uint64_t dst_sw) const {
      FT_REQUIRE(src_sw < rows_);
      FT_REQUIRE(dst_sw < rows_);
      return {src_sw, d_, dst_sw};
    }

    /// Ulink(σ = src_sw) alone (ANDed with itself): the ports free on the
    /// source side, all a locally-informed scheduler can see.
    Row ulink_row(std::uint64_t src_sw) const {
      FT_REQUIRE(src_sw < rows_);
      return {src_sw, u_, src_sw};
    }

    /// First port of `row` at or after `from`, or kNoPort if none is.
    std::uint32_t next_set(Row row, std::uint32_t from) const {
      if (from >= w_) return kNoPort;
      if (words_ == 1) [[likely]] {
        return lowest(u_[row.src_sw] & row.mate[row.mate_sw] &
                      (~std::uint64_t{0} << from));
      }
      const std::uint64_t* a = u_ + row.src_sw * words_;
      const std::uint64_t* b = row.mate + row.mate_sw * words_;
      std::uint64_t wd = from / 64;
      std::uint64_t word = a[wd] & b[wd] & ~bits::low_mask(from % 64);
      while (word == 0) {
        if (++wd >= words_) return kNoPort;
        word = a[wd] & b[wd];
      }
      return static_cast<std::uint32_t>(wd * 64 + bits::find_first_word(word));
    }

    std::uint32_t first_set(Row row) const { return next_set(row, 0); }

    /// Number of ports in `row`.
    std::uint32_t popcount(Row row) const {
      const std::uint64_t* a = u_ + row.src_sw * words_;
      const std::uint64_t* b = row.mate + row.mate_sw * words_;
      std::uint32_t count = 0;
      for (std::uint64_t wd = 0; wd < words_; ++wd) {
        count += static_cast<std::uint32_t>(bits::popcount(a[wd] & b[wd]));
      }
      return count;
    }

    /// The ports of `row` in ascending order, handed to `stop` until it
    /// returns true: returns that port, or kNoPort when it never does. One
    /// AND per row word, then each set bit is peeled off the word, so a
    /// scan over every candidate costs a word's AND once, not per port.
    template <typename Stop>
    std::uint32_t find_set(Row row, Stop&& stop) const {
      const std::uint64_t* a = u_ + row.src_sw * words_;
      const std::uint64_t* b = row.mate + row.mate_sw * words_;
      for (std::uint64_t wd = 0; wd < words_; ++wd) {
        for (std::uint64_t word = a[wd] & b[wd]; word != 0;
             word &= word - 1) {
          const auto port = static_cast<std::uint32_t>(
              wd * 64 + bits::find_first_word(word));
          if (stop(port)) return port;
        }
      }
      return kNoPort;
    }

    /// The `index`-th (0-based) port of `row`, or kNoPort if it has fewer.
    std::uint32_t nth_set(Row row, std::uint32_t index) const {
      return find_set(row, [&index](std::uint32_t) { return index-- == 0; });
    }

    /// This level's column counters (LinkState::column_free_ulinks/_dlinks).
    std::uint64_t column_free_ulinks(std::uint32_t port) const {
      FT_ASSERT(port < w_);
      return col_u_[port];
    }
    std::uint64_t column_free_dlinks(std::uint32_t port) const {
      FT_ASSERT(port < w_);
      return col_d_[port];
    }

   private:
    friend class LinkState;

    static std::uint32_t lowest(std::uint64_t word) {
      if (word == 0) return kNoPort;
      return static_cast<std::uint32_t>(bits::find_first_word(word));
    }

    const std::uint64_t* u_ = nullptr;
    const std::uint64_t* d_ = nullptr;
    const std::uint64_t* col_u_ = nullptr;
    const std::uint64_t* col_d_ = nullptr;
    std::uint64_t rows_ = 0;
    std::uint64_t words_ = 0;
    std::uint32_t w_ = 0;
    std::uint32_t level_ = 0;
  };

  LevelView level_view(std::uint32_t level) const {
    FT_REQUIRE(level < link_levels_);
    LevelView view;
    view.u_ = u_[level].data();
    view.d_ = d_[level].data();
    view.col_u_ = col_free_u_.data() + std::uint64_t{level} * w_;
    view.col_d_ = col_free_d_.data() + std::uint64_t{level} * w_;
    view.rows_ = rows_[level];
    view.words_ = row_words_;
    view.w_ = w_;
    view.level_ = level;
    return view;
  }

  /// First port i with Ulink(level, src_sw)[i] AND Dlink(level, dst_sw)[i]
  /// (the paper's priority-selector semantics), or nullopt if the AND is all
  /// zero — the request is unschedulable at this level.
  std::optional<std::uint32_t> first_available_port(std::uint32_t level,
                                                    std::uint64_t src_sw,
                                                    std::uint64_t dst_sw) const {
    return next_available_port(level, src_sw, dst_sw, 0);
  }

  /// Like first_available_port but skips ports below `from`.
  std::optional<std::uint32_t> next_available_port(std::uint32_t level,
                                                   std::uint64_t src_sw,
                                                   std::uint64_t dst_sw,
                                                   std::uint32_t from) const {
    const LevelView view = level_view(level);
    const std::uint32_t port =
        view.next_set(view.and_row(src_sw, dst_sw), from);
    if (port == kNoPort) return std::nullopt;
    return port;
  }

  // --- Column free counters -------------------------------------------------
  //
  // Port column p at level h feeds a distinct 1/w slice of the level-(h+1)
  // switches (the Theorem-1 port digit is the next label digit), so the
  // number of free channels in that column is the residual capacity of a
  // whole subtree plane. The balanced port policies weigh each candidate
  // port by these counts (core/port_picker.hpp); they are maintained
  // incrementally as circuits come and go and as cables fail and repair,
  // so a degraded fabric steers new circuits away from the depleted planes.

  /// Free up-channels in column `port` of `level` (count over switches).
  std::uint64_t column_free_ulinks(std::uint32_t level,
                                   std::uint32_t port) const {
    FT_ASSERT(level < link_levels_);
    FT_ASSERT(port < w_);
    return col_free_u_[std::uint64_t{level} * w_ + port];
  }
  /// Free down-channels in column `port` of `level`.
  std::uint64_t column_free_dlinks(std::uint32_t level,
                                   std::uint32_t port) const {
    FT_ASSERT(level < link_levels_);
    FT_ASSERT(port < w_);
    return col_free_d_[std::uint64_t{level} * w_ + port];
  }

  // --- Raw-row access -------------------------------------------------------
  //
  // Bulk readers (the imbalance telemetry in linkstate/imbalance.hpp) scan
  // every switch's rows; these accessors expose the packed row storage so
  // they can popcount whole words. Rows are row_words() uint64 words, bit
  // i = port i available, spare high bits zero. Faults are already folded in
  // (a faulted channel reads busy here, like through every other accessor).
  // Pointers are invalidated by nothing short of destroying or assigning
  // over the LinkState itself.

  /// Words per packed row (= BitVec::word_count(ports_per_switch())).
  std::uint64_t row_words() const { return row_words_; }

  const std::uint64_t* ulink_row(std::uint32_t level, std::uint64_t sw) const {
    FT_ASSERT(level < link_levels_);
    FT_ASSERT(sw < rows_[level]);
    return u_[level].data() + sw * row_words_;
  }

  const std::uint64_t* dlink_row(std::uint32_t level, std::uint64_t sw) const {
    FT_ASSERT(level < link_levels_);
    FT_ASSERT(sw < rows_[level]);
    return d_[level].data() + sw * row_words_;
  }

  // --- Allocation -----------------------------------------------------------

  /// Clears Ulink(level, src_sw)[port] and Dlink(level, dst_sw)[port]
  /// (both must currently be available).
  void occupy(std::uint32_t level, std::uint64_t src_sw, std::uint64_t dst_sw,
              std::uint32_t port);

  /// Single-sided occupies — the transaction hot path. The free-channel
  /// precondition stays FT_REQUIRE'd (it is also what keeps faulted channels
  /// untouchable: a fault forces the availability bit to 0, so the check
  /// subsumes the overlay lookup); coordinate bounds are internal-invariant
  /// territory (FT_ASSERT), since every caller passes labels the scheduler
  /// already validated and an out-of-range coordinate would trip the
  /// availability check's own load first.
  void occupy_ulink(std::uint32_t level, std::uint64_t sw, std::uint32_t port) {
    std::uint64_t& word = row_word(u_, level, sw, port);
    const std::uint64_t mask = std::uint64_t{1} << (port % 64);
    FT_REQUIRE((word & mask) != 0);
    word &= ~mask;
    ++occupied_u_[level];
    --col_free_u_[std::uint64_t{level} * w_ + port];
  }

  void occupy_dlink(std::uint32_t level, std::uint64_t sw, std::uint32_t port) {
    std::uint64_t& word = row_word(d_, level, sw, port);
    const std::uint64_t mask = std::uint64_t{1} << (port % 64);
    FT_REQUIRE((word & mask) != 0);
    word &= ~mask;
    ++occupied_d_[level];
    --col_free_d_[std::uint64_t{level} * w_ + port];
  }

  /// Inverse of occupy (both must currently be occupied).
  void release(std::uint32_t level, std::uint64_t src_sw, std::uint64_t dst_sw,
               std::uint32_t port);

  /// Occupies every channel of an already-legal path (Ulink(h, σ_h, P_h) and
  /// Dlink(h, δ_h, P_h) for h < H). All channels must be free.
  void occupy_path(const FatTree& tree, const Path& path);
  void release_path(const FatTree& tree, const Path& path);

  /// True if every channel the path needs is currently available.
  bool path_available(const FatTree& tree, const Path& path) const;

  // --- Fault overlay --------------------------------------------------------
  //
  // A cable (level, sw, port) carries one up and one down channel, both
  // indexed by the same coordinates. Failing a cable forces both channels
  // effectively unavailable: schedulers see them as permanently busy through
  // the ordinary row operations, so the hot path needs no fault branch.
  // The pre-failure availability is parked in shadow matrices; a release by
  // the surviving holder of a faulted channel lands in the shadow too, so
  // repair_cable restores exactly the channels nobody holds — repair is a
  // total operation no matter how revocation and rescheduling interleaved.

  /// Marks both channels of the cable unavailable. The cable must not
  /// already be faulted (double failure is a caller bug).
  void fail_cable(std::uint32_t level, std::uint64_t sw, std::uint32_t port);

  /// Clears the fault and restores each channel that is not held by a
  /// circuit. The cable must currently be faulted.
  void repair_cable(std::uint32_t level, std::uint64_t sw, std::uint32_t port);

  bool cable_faulted(std::uint32_t level, std::uint64_t sw,
                     std::uint32_t port) const;

  /// Number of cables currently faulted.
  std::uint64_t faulted_cables() const { return faulted_; }

  // --- Accounting & integrity -----------------------------------------------

  std::uint64_t occupied_ulinks_at(std::uint32_t level) const;
  std::uint64_t occupied_dlinks_at(std::uint32_t level) const;
  std::uint64_t total_occupied() const;

  /// Verifies internal counters against the bitmaps (and, when faults are
  /// present, the overlay invariants: faulted channels read busy, shadow
  /// bits only under fault bits); a failure indicates a bug in
  /// occupy/release/fail/repair sequencing.
  Status audit() const;

  /// The fault half of operator==: the faulted-cable count and the fault
  /// and shadow overlay. `other == nullptr` stands for a fresh state, which
  /// has no faults.
  bool same_faults(const LinkState* other) const;

  /// Value equality over effective availability, occupancy, and the fault
  /// overlay. The overlay is allocated lazily, so an empty overlay compares
  /// equal to an allocated all-zero one.
  friend bool operator==(const LinkState& a, const LinkState& b);

 private:
  using Matrix = std::vector<std::uint64_t>;  // one per level, rows flattened

  bool test(const std::vector<Matrix>& mats, std::uint32_t level,
            std::uint64_t sw, std::uint32_t port) const {
    FT_ASSERT(level < link_levels_);
    FT_ASSERT(sw < rows_[level]);
    FT_ASSERT(port < w_);
    const std::uint64_t word =
        mats[level][sw * row_words_ + port / 64];
    return (word >> (port % 64)) & 1u;
  }

  void set_bit(std::vector<Matrix>& mats, std::uint32_t level,
               std::uint64_t sw, std::uint32_t port, bool value);

  std::uint64_t& row_word(std::vector<Matrix>& mats, std::uint32_t level,
                          std::uint64_t sw, std::uint32_t port) {
    FT_ASSERT(level < link_levels_);
    FT_ASSERT(sw < rows_[level]);
    FT_ASSERT(port < w_);
    return mats[level][sw * row_words_ + port / 64];
  }

  /// Allocates the fault/shadow matrices on first failure; reset() frees
  /// them again so fault-free runs never pay for the overlay.
  void ensure_overlay();

  /// Records a release of a faulted channel into `shadow` (aborts on double
  /// release).
  void park_release(std::vector<Matrix>& shadow, std::uint32_t level,
                    std::uint64_t sw, std::uint32_t port);

  std::uint32_t link_levels_ = 0;
  std::uint32_t w_ = 0;
  std::uint64_t row_words_ = 0;
  std::vector<std::uint64_t> rows_;  // switches per link level
  std::vector<Matrix> u_;
  std::vector<Matrix> d_;
  std::vector<std::uint64_t> occupied_u_;
  std::vector<std::uint64_t> occupied_d_;
  // Per-column free-channel counters, [level * w_ + port]: the number of
  // switches at `level` whose availability bit at `port` is set. Updated
  // in lock-step with occupied_u_/occupied_d_ (every effective-availability
  // flip adjusts both), verified against the bitmaps by audit().
  std::vector<std::uint64_t> col_free_u_;
  std::vector<std::uint64_t> col_free_d_;
  // Fault overlay (empty until the first fail_cable): f_ marks faulted
  // cables; su_/sd_ park the availability the fault displaced.
  std::vector<Matrix> f_;
  std::vector<Matrix> su_;
  std::vector<Matrix> sd_;
  std::uint64_t faulted_ = 0;
};

}  // namespace ftsched
