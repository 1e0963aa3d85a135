// LevelwisePipeline — cycle-accurate model of the paper's §6 architecture.
//
// One P-block per inter-switch level; block h owns the Ulink/Dlink memories
// of level h and performs load → compute (AND + priority select) → update in
// a single block-cycle, handing the request to block h+1. While block h+1
// processes request i, block h processes request i+1 — one request enters
// per cycle, one leaves per cycle after (l-1) fill cycles.
//
// The model is faithful to two hardware realities the pseudo-code glosses
// over:
//   * a request whose AND is all-zero is marked invalid but keeps flowing
//     (and keeps its lower-level allocations — the pipeline has no rollback
//     path), matching LevelwiseScheduler's level-major/no-release mode;
//   * back-to-back requests can read a memory row the previous request is
//     writing this cycle (read-after-write); a dual-port RAM with write
//     forwarding resolves it, and the model counts these forwarding events
//     so benches can report how often the bypass is exercised.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/request.hpp"
#include "hw/link_memory.hpp"
#include "topology/fat_tree.hpp"

namespace ftsched {

/// The descriptor registers between pipeline stages (paper Fig. 5: source,
/// destination, and the port fields filled in block by block).
struct HwDescriptor {
  bool valid = false;        ///< a real request occupies this slot
  bool alive = false;        ///< still schedulable (AND never came up empty)
  std::uint64_t request_index = 0;
  std::uint64_t sigma = 0;   ///< σ_h entering block h
  std::uint64_t delta = 0;   ///< δ_h entering block h
  std::uint32_t ancestor = 0;
  std::uint32_t fail_level = 0;
  DigitVec ports;
};

class PBlock {
 public:
  PBlock(const FatTree& tree, std::uint32_t level);

  std::uint32_t level() const { return level_; }

  /// One block-cycle: consumes the descriptor latched at this block's input
  /// and produces the descriptor for the next block.
  HwDescriptor process(const HwDescriptor& in);

  LinkMemory& ulink_memory() { return umem_; }
  LinkMemory& dlink_memory() { return dmem_; }
  const LinkMemory& ulink_memory() const { return umem_; }
  const LinkMemory& dlink_memory() const { return dmem_; }

  std::uint64_t raw_forwards() const { return raw_forwards_; }
  std::uint64_t busy_cycles() const { return busy_cycles_; }

  void reset();

 private:
  const FatTree& tree_;
  std::uint32_t level_;
  LinkMemory umem_;
  LinkMemory dmem_;
  // Rows written in the previous cycle, for read-after-write detection.
  std::uint64_t last_written_urow_ = UINT64_MAX;
  std::uint64_t last_written_drow_ = UINT64_MAX;
  std::uint64_t raw_forwards_ = 0;
  std::uint64_t busy_cycles_ = 0;
};

struct PipelineReport {
  ScheduleResult result;
  std::uint64_t cycles = 0;          ///< total block-cycles for the batch
  std::uint64_t raw_forwards = 0;    ///< read-after-write bypasses
  std::uint64_t rejected_in_flight = 0;  ///< requests invalidated mid-pipe
};

class LevelwisePipeline {
 public:
  /// The tree must outlive the pipeline. Requires levels >= 2 and w <= 64
  /// (one memory word per row, as the hardware stores it).
  explicit LevelwisePipeline(const FatTree& tree);

  /// Streams the batch through; leaf-channel conflicts (duplicate sources /
  /// destinations) are rejected at admission, as the centralized scheduler's
  /// front-end would do.
  PipelineReport schedule(std::span<const Request> requests);

  std::uint32_t stage_count() const {
    return static_cast<std::uint32_t>(blocks_.size());
  }
  const PBlock& block(std::uint32_t i) const { return blocks_[i]; }
  /// Mutable access, e.g. for pre-loading occupancy into the memories.
  PBlock& block(std::uint32_t i) { return blocks_[i]; }

  /// Clears memories and counters.
  void reset();

 private:
  const FatTree& tree_;
  std::vector<PBlock> blocks_;
};

}  // namespace ftsched
