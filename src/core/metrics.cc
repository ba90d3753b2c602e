#include "core/metrics.h"

#include <string>
#include <string_view>
#include <utility>

namespace p4db::core {
namespace {

constexpr std::string_view kCommitted = "engine.committed";
constexpr std::string_view kAborted = "engine.aborted_attempts";
constexpr std::string_view kDistributed = "engine.committed_distributed";
constexpr std::string_view kLatency = "engine.latency_ns";

/// TxnTimers' terms in declaration order, with their series names.
constexpr std::pair<std::string_view, int64_t TxnTimers::*> kTerms[6] = {
    {"engine.breakdown.lock_wait_ns", &TxnTimers::lock_wait},
    {"engine.breakdown.remote_access_ns", &TxnTimers::remote_access},
    {"engine.breakdown.switch_access_ns", &TxnTimers::switch_access},
    {"engine.breakdown.local_work_ns", &TxnTimers::local_work},
    {"engine.breakdown.commit_ns", &TxnTimers::commit},
    {"engine.breakdown.backoff_ns", &TxnTimers::backoff},
};

/// "<base>.<class>", e.g. "engine.committed.hot"; `cls` indexes TxnClass.
std::string PerClass(std::string_view base, int cls) {
  return std::string(base) + "." +
         db::TxnClassName(static_cast<db::TxnClass>(cls));
}

uint64_t CounterOr0(const MetricsRegistry& reg, std::string_view name) {
  const MetricsRegistry::Counter* c = reg.FindCounter(name);
  return c == nullptr ? 0 : c->value();
}

Histogram HistogramOrEmpty(const MetricsRegistry& reg,
                           std::string_view name) {
  const Histogram* h = reg.FindHistogram(name);
  return h == nullptr ? Histogram() : *h;
}

}  // namespace

TxnSeries::TxnSeries(MetricsRegistry& reg)
    : committed_(&reg.counter(kCommitted)),
      aborted_(&reg.counter(kAborted)),
      committed_distributed_(&reg.counter(kDistributed)),
      latency_(&reg.histogram(kLatency)) {
  for (int i = 0; i < 3; ++i) {
    committed_by_class_[i] = &reg.counter(PerClass(kCommitted, i));
    aborts_by_class_[i] = &reg.counter(PerClass(kAborted, i));
    latency_by_class_[i] = &reg.histogram(PerClass(kLatency, i));
  }
  for (size_t t = 0; t < breakdown_.size(); ++t) {
    breakdown_[t] = &reg.counter(kTerms[t].first);
  }
}

void TxnSeries::RecordCommit(db::TxnClass cls, bool distributed,
                             int64_t latency_ns, const TxnTimers& timers) {
  const int c = static_cast<int>(cls);
  committed_->Increment();
  committed_by_class_[c]->Increment();
  if (distributed) committed_distributed_->Increment();
  latency_->Record(latency_ns);
  latency_by_class_[c]->Record(latency_ns);
  // Unsigned sums wrap exactly as int64 ones would, so ReadMetrics' cast
  // back is exact.
  for (size_t t = 0; t < breakdown_.size(); ++t) {
    breakdown_[t]->Increment(static_cast<uint64_t>(timers.*kTerms[t].second));
  }
}

void TxnSeries::RecordAbort(db::TxnClass cls) {
  aborted_->Increment();
  aborts_by_class_[static_cast<int>(cls)]->Increment();
}

Metrics ReadMetrics(const MetricsRegistry& reg) {
  Metrics m;
  m.committed = CounterOr0(reg, kCommitted);
  m.aborted_attempts = CounterOr0(reg, kAborted);
  m.committed_distributed = CounterOr0(reg, kDistributed);
  m.latency_all = HistogramOrEmpty(reg, kLatency);
  for (int i = 0; i < 3; ++i) {
    m.committed_by_class[i] = CounterOr0(reg, PerClass(kCommitted, i));
    m.aborts_by_class[i] = CounterOr0(reg, PerClass(kAborted, i));
    m.latency_by_class[i] = HistogramOrEmpty(reg, PerClass(kLatency, i));
  }
  for (const auto& [name, term] : kTerms) {
    m.breakdown.*term = static_cast<int64_t>(CounterOr0(reg, name));
  }
  return m;
}

}  // namespace p4db::core
