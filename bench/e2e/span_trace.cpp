#include "span_trace.hpp"

#include <cstdio>

#include "util/contracts.hpp"

namespace ftsched::e2e {

SpanTrace::SpanTrace(std::size_t capacity) : capacity_(capacity) {
  spans_.reserve(capacity);
  stack_.reserve(16);
}

std::uint32_t SpanTrace::intern(std::string_view name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  }
  names_.emplace_back(name);
  totals_.emplace_back();
  return static_cast<std::uint32_t>(names_.size() - 1);
}

void SpanTrace::begin(std::uint32_t name, std::uint64_t unit_id) {
  FT_REQUIRE(name < names_.size());
  Open open;
  open.name = name;
  open.start_ns = clock_.elapsed_ns();
  if (spans_.size() < capacity_) {
    SpanRecord record;
    record.start_ns = open.start_ns;
    record.unit_id = unit_id;
    record.name = name;
    record.parent_id = stack_.empty() ? 0 : stack_.back().span_id;
    spans_.push_back(record);
    open.span_id = static_cast<std::uint32_t>(spans_.size());
  } else {
    ++dropped_;
  }
  stack_.push_back(open);
}

std::uint64_t SpanTrace::end() {
  FT_REQUIRE(!stack_.empty());
  const std::uint64_t now = clock_.elapsed_ns();
  const Open open = stack_.back();
  stack_.pop_back();
  const std::uint64_t duration = now - open.start_ns;
  if (open.span_id != kNotKept) spans_[open.span_id - 1].end_ns = now;
  SpanTotals& totals = totals_[open.name];
  ++totals.count;
  totals.total_ns += duration;
  totals.self_ns += duration - open.child_ns;
  if (!stack_.empty()) stack_.back().child_ns += duration;
  return duration;
}

SpanTotals SpanTrace::totals(std::string_view name) const {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return totals_[i];
  }
  return SpanTotals{};
}

bool SpanTrace::write_jsonl(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::fprintf(out,
                 "{\"name\":\"%s\",\"start_ns\":%llu,\"end_ns\":%llu,"
                 "\"span_id\":%zu,\"parent_id\":%u,\"unit_id\":%llu}\n",
                 names_[s.name].c_str(),
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns), i + 1,
                 s.parent_id, static_cast<unsigned long long>(s.unit_id));
  }
  const bool ok = std::ferror(out) == 0;
  return std::fclose(out) == 0 && ok;
}

}  // namespace ftsched::e2e
