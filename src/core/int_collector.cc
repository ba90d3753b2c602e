#include "core/int_collector.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <utility>

namespace p4db::core {

namespace {

/// The "int.cp.*" histogram family, in the order the JSON emits terms.
constexpr const char* kTermNames[] = {
    "admission_wait_ns", "egress_batch_ns",     "wire_ns",
    "switch_queue_ns",   "switch_lock_wait_ns", "switch_recirc_ns",
    "switch_service_ns", "wal_ns",              "commit_ns",
};

int64_t ClampNonNegative(SimTime v) { return v < 0 ? 0 : v; }

}  // namespace

std::string IntCollector::SwitchPrefix(uint16_t switch_id) {
  return switch_id == 0 ? "switch."
                        : "switch" + std::to_string(switch_id) + ".";
}

IntCollector::IntCollector(MetricsRegistry* registry, uint16_t num_switches,
                           size_t register_slots) {
  admission_wait_ = &registry->histogram("int.cp.admission_wait_ns");
  egress_batch_ = &registry->histogram("int.cp.egress_batch_ns");
  wire_ = &registry->histogram("int.cp.wire_ns");
  switch_queue_ = &registry->histogram("int.cp.switch_queue_ns");
  switch_service_ = &registry->histogram("int.cp.switch_service_ns");
  switch_lock_wait_ = &registry->histogram("int.cp.switch_lock_wait_ns");
  switch_recirc_ = &registry->histogram("int.cp.switch_recirc_ns");
  wal_ = &registry->histogram("int.cp.wal_ns");
  commit_ = &registry->histogram("int.cp.commit_ns");

  postcards_ = &registry->counter("int.postcards");
  out_of_order_ = &registry->counter("int.postcards_out_of_order");
  stale_view_ = &registry->counter("int.postcards_stale_view");
  switch_postcards_.resize(num_switches);
  switch_reg_accesses_.resize(num_switches);
  for (uint16_t k = 0; k < num_switches; ++k) {
    const std::string prefix = SwitchPrefix(k);
    switch_postcards_[k] = &registry->counter(prefix, "int_postcards");
    switch_reg_accesses_[k] = &registry->counter(prefix, "int_reg_accesses");
  }
  seq_.assign(num_switches, sw::PostcardSeq());
  slot_accesses_.assign(register_slots, 0);
}

void IntCollector::FoldPostcard(const sw::SwitchResult& result, SimTime submit,
                                SimTime flushed, SimTime received) {
  const sw::IntMeta& m = result.telemetry;
  if (!m.valid()) return;
  const uint16_t k = m.switch_id;
  if (k >= seq_.size()) return;
  if (!seq_[k].Admit(m.view)) {
    stale_view_->Increment();
    return;
  }
  if (!seq_[k].AdvanceGid(result.gid)) out_of_order_->Increment();

  postcards_->Increment();
  switch_postcards_[k]->Increment();
  switch_reg_accesses_[k]->Increment(m.reg_accesses);
  for (uint32_t slot : m.slots) {
    if (slot < slot_accesses_.size()) ++slot_accesses_[slot];
  }

  // Node-observed legs.
  egress_batch_->Record(ClampNonNegative(flushed - submit));
  wire_->Record(ClampNonNegative(m.arrival_ns - flushed) +
                ClampNonNegative(received - m.depart_ns));
  // Switch-stamped legs. Lock-blocked loops happen between arrival and
  // first admission, so the queue term is the pre-admission residue after
  // subtracting them; holder loops happen after admission, so the service
  // term is the post-admission residue after subtracting those.
  switch_queue_->Record(
      ClampNonNegative(m.admit_ns - m.arrival_ns - m.lock_wait_ns));
  switch_lock_wait_->Record(m.lock_wait_ns);
  switch_recirc_->Record(m.recirc_ns);
  switch_service_->Record(
      ClampNonNegative(m.depart_ns - m.admit_ns - m.recirc_ns));
}

void IntCollector::OnViewChange(uint32_t new_view) {
  for (sw::PostcardSeq& s : seq_) s.Reset(new_view);
}

void IntCollector::ResetWindow() {
  std::fill(slot_accesses_.begin(), slot_accesses_.end(), 0);
}

void AppendCriticalPathJson(const MetricsRegistry& registry,
                            std::span<const uint64_t> slot_accesses,
                            size_t top_k, std::string* out) {
  const MetricsRegistry::Counter* postcards =
      registry.FindCounter("int.postcards");
  char buf[256];
  std::snprintf(buf, sizeof(buf), "{\n      \"postcards\": %" PRIu64 ",\n",
                postcards != nullptr ? postcards->value() : 0);
  *out += buf;

  *out += "      \"terms\": {";
  const char* dominant = "";
  int64_t dominant_sum = -1;
  bool first = true;
  for (const char* term : kTermNames) {
    std::string name = std::string("int.cp.") + term;
    const Histogram* h = registry.FindHistogram(name);
    if (h == nullptr) continue;
    if (h->count() > 0 && h->sum() > dominant_sum) {
      dominant_sum = h->sum();
      dominant = term;
    }
    std::snprintf(buf, sizeof(buf),
                  "%s\n        \"%s\": {\"count\": %" PRIu64
                  ", \"mean\": %.1f, \"p50\": %" PRId64 ", \"p95\": %" PRId64
                  ", \"p99\": %" PRId64 ", \"sum\": %" PRId64 "}",
                  first ? "" : ",", term, h->count(), h->Mean(),
                  h->Quantile(0.5), h->Quantile(0.95), h->Quantile(0.99),
                  h->sum());
    *out += buf;
    first = false;
  }
  *out += first ? "},\n" : "\n      },\n";

  std::snprintf(buf, sizeof(buf), "      \"dominant\": \"%s\",\n", dominant);
  *out += buf;

  // Top-k hottest register slots by access count; slot index breaks ties so
  // the list is a pure function of the counts (thread-count invariant).
  std::vector<std::pair<uint64_t, size_t>> hot;
  for (size_t i = 0; i < slot_accesses.size(); ++i) {
    if (slot_accesses[i] != 0) hot.emplace_back(slot_accesses[i], i);
  }
  std::sort(hot.begin(), hot.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  if (hot.size() > top_k) hot.resize(top_k);
  *out += "      \"hot_slots\": [";
  for (size_t i = 0; i < hot.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s[%zu, %" PRIu64 "]",
                  i == 0 ? "" : ", ", hot[i].second, hot[i].first);
    *out += buf;
  }
  *out += "]\n    }";
}

}  // namespace p4db::core
