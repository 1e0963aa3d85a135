// Scheduler registry — names to instances, for benches / examples / CLIs.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/scheduler.hpp"
#include "util/result.hpp"

namespace ftsched {

/// Known names:
///   levelwise            — paper algorithm, first-fit ports, level-major
///   levelwise-random     — paper algorithm, random port pick
///   levelwise-rr         — paper algorithm, round-robin port pick
///   levelwise-balanced*  — paper algorithm, max residual plane capacity
///                          (ties: lowest port, -rr rotating, -random drawn)
///   levelwise-reqmajor   — paper algorithm, request-major order
///   local                — conventional adaptive baseline, greedy (first-fit)
///   local-random         — conventional adaptive baseline, random ports
///   local-rr             — conventional adaptive baseline, round-robin
///   local-hold           — baseline that keeps partial paths on failure
///   turnback             — TBWP-style backtracking local (8 probes)
///   matching2            — optimal/near-optimal matching reference (2-level)
///   dmodk                — static destination-based routing (OpenSM-style)
Result<std::unique_ptr<Scheduler>> make_scheduler(const std::string& name,
                                                  std::uint64_t seed = 1);

/// All registered names, in a stable order.
std::vector<std::string> scheduler_names();

}  // namespace ftsched
