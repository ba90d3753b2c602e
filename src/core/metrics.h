#ifndef P4DB_CORE_METRICS_H_
#define P4DB_CORE_METRICS_H_

#include <array>
#include <cstdint>

#include "common/histogram.h"
#include "common/metrics_registry.h"
#include "common/types.h"
#include "db/txn.h"

namespace p4db::core {

/// Per-transaction wall-time attribution (simulated ns), accumulated across
/// all attempts of one transaction and counted into the
/// "engine.breakdown.<term>_ns" series at commit. Drives the Figure 18a
/// latency breakdown.
struct TxnTimers {
  int64_t lock_wait = 0;      // lock manager round trips + queueing
  int64_t remote_access = 0;  // node<->node data round trips
  int64_t switch_access = 0;  // node<->switch round trip incl. pipeline
  int64_t local_work = 0;     // setup + tuple ops + WAL
  int64_t commit = 0;         // 2PC rounds / local commit
  int64_t backoff = 0;        // abort penalty + retry backoff

  int64_t Total() const {
    return lock_wait + remote_access + switch_access + local_work + commit +
           backoff;
  }
};

/// Results of one simulated run over its measured window: a read-out of the
/// engine's transaction series (TxnSeries) from the merged registry. It
/// records nothing itself.
struct Metrics {
  uint64_t committed = 0;
  uint64_t aborted_attempts = 0;
  uint64_t committed_by_class[3] = {0, 0, 0};  // indexed by TxnClass
  uint64_t aborts_by_class[3] = {0, 0, 0};
  uint64_t committed_distributed = 0;

  Histogram latency_all;
  Histogram latency_by_class[3];

  TxnTimers breakdown;  // sums over committed transactions

  /// Committed transactions per (real) second of simulated time.
  double Throughput(SimTime duration) const {
    return duration <= 0 ? 0.0
                         : static_cast<double>(committed) * kSecond /
                               static_cast<double>(duration);
  }

  double AbortRate() const {
    const uint64_t attempts = committed + aborted_attempts;
    return attempts == 0 ? 0.0
                         : static_cast<double>(aborted_attempts) /
                               static_cast<double>(attempts);
  }
};

/// The registry series one home node's transactions are counted in, bound
/// once at construction:
///   engine.committed[.<class>], engine.aborted_attempts[.<class>],
///   engine.committed_distributed, engine.latency_ns[.<class>] (histograms)
///   and engine.breakdown.<term>_ns, one per TxnTimers term,
/// where <class> is db::TxnClassName. Each commit or abort is counted here
/// and nowhere else; ReadMetrics reads the totals back.
class TxnSeries {
 public:
  explicit TxnSeries(MetricsRegistry& reg);

  void RecordCommit(db::TxnClass cls, bool distributed, int64_t latency_ns,
                    const TxnTimers& timers);
  void RecordAbort(db::TxnClass cls);

  const MetricsRegistry::Counter& committed() const { return *committed_; }
  const MetricsRegistry::Counter& aborted() const { return *aborted_; }
  const Histogram& latency() const { return *latency_; }

 private:
  MetricsRegistry::Counter* committed_;
  MetricsRegistry::Counter* aborted_;
  std::array<MetricsRegistry::Counter*, 3> committed_by_class_;
  std::array<MetricsRegistry::Counter*, 3> aborts_by_class_;
  MetricsRegistry::Counter* committed_distributed_;
  Histogram* latency_;
  std::array<Histogram*, 3> latency_by_class_;
  std::array<MetricsRegistry::Counter*, 6> breakdown_;  // TxnTimers order
};

/// Reads the TxnSeries totals out of `reg` (an unregistered series reads
/// as zero).
Metrics ReadMetrics(const MetricsRegistry& reg);

}  // namespace p4db::core

#endif  // P4DB_CORE_METRICS_H_
