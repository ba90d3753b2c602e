#ifndef P4DB_CORE_METRICS_H_
#define P4DB_CORE_METRICS_H_

#include <cstdint>

#include "common/histogram.h"
#include "common/types.h"
#include "db/txn.h"

namespace p4db::core {

/// Per-transaction wall-time attribution (simulated ns), accumulated across
/// all attempts of one transaction and folded into Metrics at commit.
/// Drives the Figure 18a latency breakdown.
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

  TxnTimers& operator+=(const TxnTimers& other) {
    lock_wait += other.lock_wait;
    remote_access += other.remote_access;
    switch_access += other.switch_access;
    local_work += other.local_work;
    commit += other.commit;
    backoff += other.backoff;
    return *this;
  }
};

inline TxnTimers operator+(TxnTimers lhs, const TxnTimers& rhs) {
  lhs += rhs;
  return lhs;
}

/// Aggregated results of one simulated run.
struct Metrics {
  uint64_t committed = 0;
  uint64_t aborted_attempts = 0;
  uint64_t committed_by_class[3] = {0, 0, 0};  // indexed by TxnClass
  uint64_t aborts_by_class[3] = {0, 0, 0};
  uint64_t committed_distributed = 0;

  Histogram latency_all;
  Histogram latency_by_class[3];

  TxnTimers breakdown;  // sums over committed transactions

  void RecordCommit(db::TxnClass cls, bool distributed, int64_t latency_ns,
                    const TxnTimers& timers) {
    ++committed;
    ++committed_by_class[static_cast<int>(cls)];
    if (distributed) ++committed_distributed;
    latency_all.Record(latency_ns);
    latency_by_class[static_cast<int>(cls)].Record(latency_ns);
    breakdown += timers;
  }

  void RecordAbort(db::TxnClass cls) {
    ++aborted_attempts;
    ++aborts_by_class[static_cast<int>(cls)];
  }

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

  /// Folds another shard's metrics into this one (counts add, histograms
  /// merge). All fields are order-independent sums, so merging the shards
  /// in fixed shard order yields the same aggregate regardless of how many
  /// threads executed them.
  void Merge(const Metrics& other) {
    committed += other.committed;
    aborted_attempts += other.aborted_attempts;
    for (int i = 0; i < 3; ++i) {
      committed_by_class[i] += other.committed_by_class[i];
      aborts_by_class[i] += other.aborts_by_class[i];
    }
    committed_distributed += other.committed_distributed;
    latency_all.Merge(other.latency_all);
    for (int i = 0; i < 3; ++i) {
      latency_by_class[i].Merge(other.latency_by_class[i]);
    }
    breakdown += other.breakdown;
  }
};

}  // namespace p4db::core

#endif  // P4DB_CORE_METRICS_H_
