#include "obs/sched_probe.hpp"

#include <string>

namespace ftsched::obs {

void SchedulerProbe::reset() {
  batches_ = 0;
  requests_ = 0;
  grants_ = 0;
  rejects_ = 0;
  leaf_claim_failures_ = 0;
  rollbacks_ = 0;
  rollback_entries_ = 0;
  grant_by_ancestor_.clear();
  reject_by_level_.clear();
  reject_by_reason_.clear();
  popcount_by_level_.clear();
  pick_by_level_.clear();
}

namespace {

void add_vec(std::vector<std::uint64_t>& into,
             const std::vector<std::uint64_t>& from) {
  if (into.size() < from.size()) into.resize(from.size(), 0);
  for (std::size_t i = 0; i < from.size(); ++i) into[i] += from[i];
}

void add_nested(std::vector<std::vector<std::uint64_t>>& into,
                const std::vector<std::vector<std::uint64_t>>& from) {
  if (into.size() < from.size()) into.resize(from.size());
  for (std::size_t i = 0; i < from.size(); ++i) add_vec(into[i], from[i]);
}

}  // namespace

void SchedulerProbe::merge_from(const SchedulerProbe& other) {
  batches_ += other.batches_;
  requests_ += other.requests_;
  grants_ += other.grants_;
  rejects_ += other.rejects_;
  leaf_claim_failures_ += other.leaf_claim_failures_;
  rollbacks_ += other.rollbacks_;
  rollback_entries_ += other.rollback_entries_;
  add_vec(grant_by_ancestor_, other.grant_by_ancestor_);
  add_vec(reject_by_level_, other.reject_by_level_);
  add_vec(reject_by_reason_, other.reject_by_reason_);
  add_nested(popcount_by_level_, other.popcount_by_level_);
  add_nested(pick_by_level_, other.pick_by_level_);
}

void SchedulerProbe::export_metrics(MetricsRegistry& registry,
                                    ReasonNameFn reason_name) const {
  registry.counter("sched.batches").add(batches_);
  registry.counter("sched.requests").add(requests_);
  registry.counter("sched.grants").add(grants_);
  registry.counter("sched.rejects").add(rejects_);
  registry.counter("sched.leaf_claim_failures").add(leaf_claim_failures_);
  registry.counter("sched.rollbacks").add(rollbacks_);
  registry.counter("sched.rollback_entries").add(rollback_entries_);
  for (std::size_t h = 0; h < reject_by_level_.size(); ++h) {
    registry.counter("sched.reject.level" + std::to_string(h))
        .add(reject_by_level_[h]);
  }
  for (std::size_t r = 0; r < reject_by_reason_.size(); ++r) {
    if (reject_by_reason_[r] == 0) continue;
    registry
        .counter("sched.reject.reason." +
                 std::string(reason_name(static_cast<std::uint8_t>(r))))
        .add(reject_by_reason_[r]);
  }
  for (std::size_t h = 0; h < grant_by_ancestor_.size(); ++h) {
    registry.counter("sched.grant.ancestor" + std::to_string(h))
        .add(grant_by_ancestor_[h]);
  }
  for (std::size_t h = 0; h < popcount_by_level_.size(); ++h) {
    const auto& dist = popcount_by_level_[h];
    if (dist.empty()) continue;
    Histogram& hist = registry.histogram(
        "sched.and_popcount.level" + std::to_string(h), 0.0,
        static_cast<double>(dist.size()), dist.size());
    for (std::size_t p = 0; p < dist.size(); ++p) {
      for (std::uint64_t n = 0; n < dist[p]; ++n) {
        hist.observe(static_cast<double>(p));
      }
    }
  }
  for (std::size_t h = 0; h < pick_by_level_.size(); ++h) {
    const auto& dist = pick_by_level_[h];
    for (std::size_t p = 0; p < dist.size(); ++p) {
      if (dist[p] == 0) continue;
      registry
          .counter("sched.pick.level" + std::to_string(h) + ".port" +
                   std::to_string(p))
          .add(dist[p]);
    }
  }
}

}  // namespace ftsched::obs
