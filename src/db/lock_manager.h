#ifndef P4DB_DB_LOCK_MANAGER_H_
#define P4DB_DB_LOCK_MANAGER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/flat_map.h"
#include "common/metrics_registry.h"
#include "common/status.h"
#include "common/types.h"
#include "sim/future.h"
#include "sim/simulator.h"

namespace p4db::db {

enum class LockMode : uint8_t { kShared, kExclusive };

/// Deadlock-prevention flavors of 2PL implemented by the host DBMS
/// (Section 7.1): NO_WAIT aborts on any denied request; WAIT_DIE lets a
/// transaction wait only if it is older than every conflicting transaction,
/// otherwise it aborts ("dies").
enum class CcScheme : uint8_t { kNoWait, kWaitDie };

/// Per-node pessimistic lock table. One instance guards one node's
/// partition; remote transactions reach it after paying network latency.
///
/// Storage is allocation-free in steady state: the lock table is an
/// open-addressed FlatMap keyed by TupleId, and holders / waiters /
/// held-lock lists are index-linked nodes in free-listed pools, so lock
/// churn recycles nodes instead of hitting the allocator. Waiter order
/// (FIFO, with upgraders jumping the queue) is a linked list, exactly the
/// order the old deque enforced.
///
/// Coroutine integration: Acquire returns a future that resolves to
/// kOk (granted) or kAborted (deadlock prevention). A transaction waits on
/// at most one lock at a time (the executor acquires sequentially), so no
/// cancellation path is needed: every enqueued waiter is eventually granted
/// because WAIT_DIE waits-for chains are strictly ordered by timestamp.
class LockManager {
 public:
  /// The lock manager counts into "<prefix>.*" series of `metrics`, or of
  /// a registry it owns when `metrics` is null. All node lock managers of
  /// one cluster share a prefix, and so one series set (the registry sums
  /// their counts); the switch lock manager gets its own.
  LockManager(sim::Simulator* sim, CcScheme scheme,
              MetricsRegistry* metrics = nullptr,
              std::string_view prefix = "lock")
      : sim_(sim), scheme_(scheme) {
    MetricsRegistry& reg =
        MetricsRegistry::GivenOrOwned(metrics, &owned_metrics_);
    const std::string p(prefix);
    series_.acquisitions = &reg.counter(p + ".acquisitions");
    series_.immediate_grants = &reg.counter(p + ".immediate_grants");
    series_.waits = &reg.counter(p + ".waits");
    series_.no_wait_aborts = &reg.counter(p + ".no_wait_aborts");
    series_.wait_die_aborts = &reg.counter(p + ".wait_die_aborts");
    series_.upgrades = &reg.counter(p + ".upgrades");
  }

  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;

  /// Requests a lock for transaction (txn_id, ts). ts is the WAIT_DIE
  /// priority: smaller = older = wins. Re-acquisition by a holder is a
  /// no-op grant; shared->exclusive upgrades are supported and are
  /// evaluated against the other holders only (upgraders go to the front
  /// of the wait queue to stay deadlock-free).
  sim::Future<Status> Acquire(uint64_t txn_id, uint64_t ts, TupleId tuple,
                              LockMode mode);

  /// Releases every lock held by txn_id and hands freed locks to waiters.
  void ReleaseAll(uint64_t txn_id);

  /// Releases one specific lock early (Chiller-style early release of
  /// contended items, Figure 18b). No-op if txn_id does not hold it.
  void ReleaseOne(uint64_t txn_id, TupleId tuple);

  /// Number of locks txn_id currently holds (testing/diagnostics).
  size_t HeldBy(uint64_t txn_id) const;
  bool IsLocked(TupleId tuple) const;

  CcScheme scheme() const { return scheme_; }

 private:
  static constexpr uint32_t kNil = UINT32_MAX;

  /// Holder of a granted lock; entries chain through `next` (unordered —
  /// every consumer scans the whole chain).
  struct Holder {
    uint64_t txn_id;
    uint64_t ts;
    LockMode mode;
    uint32_t next;
  };
  /// Queued request; chains head->tail in grant (FIFO) order. Free-listed
  /// through `next`; the promise is cleared on release so the pooled node
  /// holds no shared state between uses.
  struct Waiter {
    uint64_t txn_id = 0;
    uint64_t ts = 0;
    LockMode mode = LockMode::kShared;
    bool upgrade = false;
    uint32_t next = kNil;
    sim::Promise<Status> promise;
  };
  /// Per-transaction held-lock list node, in acquisition order (ReleaseAll
  /// walks it front to back, preserving the old vector's release order).
  struct HeldNode {
    TupleId tuple;
    uint32_t next;
  };

  struct Entry {
    uint32_t holders = kNil;
    uint32_t waiters_head = kNil;
    uint32_t waiters_tail = kNil;
  };
  struct HeldList {
    uint32_t head = kNil;
    uint32_t tail = kNil;
  };

  /// Grants as many front waiters as compatibility allows (FIFO; stops at
  /// the first incompatible waiter so writers cannot starve).
  void GrantWaiters(TupleId tuple, Entry& entry);
  bool Compatible(const Entry& entry, uint64_t txn_id, LockMode mode) const;

  uint32_t AllocHolder();
  void FreeHolder(uint32_t idx);
  uint32_t AllocWaiter();
  void FreeWaiter(uint32_t idx);
  uint32_t AllocHeld();
  void FreeHeld(uint32_t idx);

  void PushHolder(Entry& entry, uint64_t txn_id, uint64_t ts, LockMode mode);
  /// Unlinks txn_id's holder node (if any) from the entry.
  void RemoveHolder(Entry& entry, uint64_t txn_id);
  void HeldAppend(uint64_t txn_id, TupleId tuple);
  /// Releases the lock on `tuple` held by txn_id within `entry`, grants
  /// waiters, and drops the entry when it becomes empty.
  void ReleaseInEntry(uint64_t txn_id, TupleId tuple);

  /// The registry series the lock manager bumps, bound once at
  /// construction.
  struct Series {
    MetricsRegistry::Counter* acquisitions;
    MetricsRegistry::Counter* immediate_grants;
    MetricsRegistry::Counter* waits;
    MetricsRegistry::Counter* no_wait_aborts;
    MetricsRegistry::Counter* wait_die_aborts;
    MetricsRegistry::Counter* upgrades;
  };

  sim::Simulator* sim_;
  CcScheme scheme_;
  std::unique_ptr<MetricsRegistry> owned_metrics_;  // when none was given
  Series series_;

  FlatMap<TupleId, Entry> table_;
  FlatMap<uint64_t, HeldList> held_;
  std::vector<Holder> holder_pool_;
  std::vector<Waiter> waiter_pool_;
  std::vector<HeldNode> held_pool_;
  uint32_t holder_free_ = kNil;
  uint32_t waiter_free_ = kNil;
  uint32_t held_free_ = kNil;
};

}  // namespace p4db::db

#endif  // P4DB_DB_LOCK_MANAGER_H_
