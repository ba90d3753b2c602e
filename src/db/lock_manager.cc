#include "db/lock_manager.h"

#include <cassert>
#include <utility>

namespace p4db::db {

namespace {

sim::Future<Status> Ready(sim::Simulator* sim, Status s) {
  sim::Promise<Status> p(sim);
  auto f = p.future();
  p.Set(std::move(s));
  return f;
}

// Hot-path abort statuses carry no message: abort is a normal event under
// contention and building a std::string per denial would put the allocator
// back on the hot path. The code alone identifies the cause.
Status AbortStatus() { return Status(Code::kAborted); }

}  // namespace

// ------------------------------------------------------------ node pools --

uint32_t LockManager::AllocHolder() {
  if (holder_free_ != kNil) {
    const uint32_t idx = holder_free_;
    holder_free_ = holder_pool_[idx].next;
    return idx;
  }
  holder_pool_.emplace_back();
  return static_cast<uint32_t>(holder_pool_.size() - 1);
}

void LockManager::FreeHolder(uint32_t idx) {
  holder_pool_[idx].next = holder_free_;
  holder_free_ = idx;
}

uint32_t LockManager::AllocWaiter() {
  if (waiter_free_ != kNil) {
    const uint32_t idx = waiter_free_;
    waiter_free_ = waiter_pool_[idx].next;
    return idx;
  }
  waiter_pool_.emplace_back();
  return static_cast<uint32_t>(waiter_pool_.size() - 1);
}

void LockManager::FreeWaiter(uint32_t idx) {
  // Drop the shared state so a pooled node keeps nothing alive.
  waiter_pool_[idx].promise = sim::Promise<Status>();
  waiter_pool_[idx].next = waiter_free_;
  waiter_free_ = idx;
}

uint32_t LockManager::AllocHeld() {
  if (held_free_ != kNil) {
    const uint32_t idx = held_free_;
    held_free_ = held_pool_[idx].next;
    return idx;
  }
  held_pool_.emplace_back();
  return static_cast<uint32_t>(held_pool_.size() - 1);
}

void LockManager::FreeHeld(uint32_t idx) {
  held_pool_[idx].next = held_free_;
  held_free_ = idx;
}

void LockManager::PushHolder(Entry& entry, uint64_t txn_id, uint64_t ts,
                             LockMode mode) {
  const uint32_t idx = AllocHolder();
  holder_pool_[idx] = Holder{txn_id, ts, mode, entry.holders};
  entry.holders = idx;
}

void LockManager::RemoveHolder(Entry& entry, uint64_t txn_id) {
  uint32_t prev = kNil;
  uint32_t cur = entry.holders;
  while (cur != kNil) {
    const uint32_t next = holder_pool_[cur].next;
    if (holder_pool_[cur].txn_id == txn_id) {
      if (prev == kNil) {
        entry.holders = next;
      } else {
        holder_pool_[prev].next = next;
      }
      FreeHolder(cur);
    } else {
      prev = cur;
    }
    cur = next;
  }
}

void LockManager::HeldAppend(uint64_t txn_id, TupleId tuple) {
  const uint32_t idx = AllocHeld();
  held_pool_[idx] = HeldNode{tuple, kNil};
  HeldList& list = held_[txn_id];
  if (list.tail == kNil) {
    list.head = idx;
  } else {
    held_pool_[list.tail].next = idx;
  }
  list.tail = idx;
}

// -------------------------------------------------------------- protocol --

bool LockManager::Compatible(const Entry& entry, uint64_t txn_id,
                             LockMode mode) const {
  for (uint32_t i = entry.holders; i != kNil; i = holder_pool_[i].next) {
    const Holder& h = holder_pool_[i];
    if (h.txn_id == txn_id) continue;
    if (mode == LockMode::kExclusive || h.mode == LockMode::kExclusive) {
      return false;
    }
  }
  return true;
}

sim::Future<Status> LockManager::Acquire(uint64_t txn_id, uint64_t ts,
                                         TupleId tuple, LockMode mode) {
  series_.acquisitions->Increment();
  Entry& entry = table_[tuple];

  // Re-acquisition / upgrade detection.
  uint32_t mine = kNil;
  for (uint32_t i = entry.holders; i != kNil; i = holder_pool_[i].next) {
    if (holder_pool_[i].txn_id == txn_id) {
      mine = i;
      break;
    }
  }
  if (mine != kNil) {
    if (mode == LockMode::kShared ||
        holder_pool_[mine].mode == LockMode::kExclusive) {
      series_.immediate_grants->Increment();
      return Ready(sim_, Status::Ok());  // already sufficient
    }
    // Shared -> exclusive upgrade: judged against the OTHER holders only.
    if (Compatible(entry, txn_id, LockMode::kExclusive)) {
      holder_pool_[mine].mode = LockMode::kExclusive;
      series_.upgrades->Increment();
      series_.immediate_grants->Increment();
      return Ready(sim_, Status::Ok());
    }
    if (scheme_ == CcScheme::kNoWait) {
      series_.no_wait_aborts->Increment();
      return Ready(sim_, AbortStatus());  // upgrade denied (NO_WAIT)
    }
    // WAIT_DIE: wait only if older than every other holder.
    for (uint32_t i = entry.holders; i != kNil; i = holder_pool_[i].next) {
      const Holder& h = holder_pool_[i];
      if (h.txn_id != txn_id && h.ts <= ts) {
        series_.wait_die_aborts->Increment();
        return Ready(sim_, AbortStatus());  // upgrade died (WAIT_DIE)
      }
    }
    series_.waits->Increment();
    const uint32_t idx = AllocWaiter();
    Waiter& w = waiter_pool_[idx];
    w.txn_id = txn_id;
    w.ts = ts;
    w.mode = LockMode::kExclusive;
    w.upgrade = true;
    w.promise = sim::Promise<Status>(sim_);
    auto f = w.promise.future();
    w.next = entry.waiters_head;  // upgraders jump the queue
    entry.waiters_head = idx;
    if (entry.waiters_tail == kNil) entry.waiters_tail = idx;
    return f;
  }

  // Fresh request: conflicts consider holders and any queued waiter (FIFO
  // fairness: nobody overtakes a queued incompatible waiter, so writers
  // cannot starve behind a stream of readers).
  const bool conflict =
      !Compatible(entry, txn_id, mode) || entry.waiters_head != kNil;
  if (!conflict) {
    PushHolder(entry, txn_id, ts, mode);
    HeldAppend(txn_id, tuple);
    series_.immediate_grants->Increment();
    return Ready(sim_, Status::Ok());
  }

  if (scheme_ == CcScheme::kNoWait) {
    series_.no_wait_aborts->Increment();
    return Ready(sim_, AbortStatus());  // lock denied (NO_WAIT)
  }

  // WAIT_DIE: may wait only if strictly older than every conflicting
  // transaction (holders and queued waiters).
  for (uint32_t i = entry.holders; i != kNil; i = holder_pool_[i].next) {
    const Holder& h = holder_pool_[i];
    if (h.txn_id != txn_id && h.ts <= ts) {
      series_.wait_die_aborts->Increment();
      return Ready(sim_, AbortStatus());  // died on holder (WAIT_DIE)
    }
  }
  for (uint32_t i = entry.waiters_head; i != kNil; i = waiter_pool_[i].next) {
    const Waiter& w = waiter_pool_[i];
    const bool incompatible =
        mode == LockMode::kExclusive || w.mode == LockMode::kExclusive;
    if (incompatible && w.txn_id != txn_id && w.ts <= ts) {
      series_.wait_die_aborts->Increment();
      return Ready(sim_, AbortStatus());  // died on waiter (WAIT_DIE)
    }
  }
  series_.waits->Increment();
  const uint32_t idx = AllocWaiter();
  Waiter& w = waiter_pool_[idx];
  w.txn_id = txn_id;
  w.ts = ts;
  w.mode = mode;
  w.upgrade = false;
  w.promise = sim::Promise<Status>(sim_);
  auto f = w.promise.future();
  w.next = kNil;
  if (entry.waiters_tail == kNil) {
    entry.waiters_head = idx;
  } else {
    waiter_pool_[entry.waiters_tail].next = idx;
  }
  entry.waiters_tail = idx;
  return f;
}

void LockManager::GrantWaiters(TupleId tuple, Entry& entry) {
  while (entry.waiters_head != kNil) {
    const uint32_t widx = entry.waiters_head;
    LockMode granted;
    {
      Waiter& w = waiter_pool_[widx];
      if (w.upgrade) {
        // Grantable once the upgrader is the sole holder.
        uint32_t mine = kNil;
        bool others = false;
        for (uint32_t i = entry.holders; i != kNil;
             i = holder_pool_[i].next) {
          if (holder_pool_[i].txn_id == w.txn_id) {
            mine = i;
          } else {
            others = true;
          }
        }
        if (others) return;
        assert(mine != kNil && "upgrader lost its shared lock");
        holder_pool_[mine].mode = LockMode::kExclusive;
        series_.upgrades->Increment();
        granted = LockMode::kExclusive;
      } else {
        if (!Compatible(entry, w.txn_id, w.mode)) return;
        PushHolder(entry, w.txn_id, w.ts, w.mode);
        HeldAppend(w.txn_id, tuple);
        granted = w.mode;
      }
    }
    // Re-resolve: PushHolder/HeldAppend never touch waiter_pool_, but keep
    // the access pattern obviously safe against future pool growth.
    Waiter& w = waiter_pool_[widx];
    w.promise.Set(Status::Ok());
    entry.waiters_head = w.next;
    if (entry.waiters_head == kNil) entry.waiters_tail = kNil;
    FreeWaiter(widx);
    if (granted == LockMode::kExclusive) return;
  }
}

void LockManager::ReleaseInEntry(uint64_t txn_id, TupleId tuple) {
  Entry* entry = table_.find(tuple);
  if (entry == nullptr) return;
  RemoveHolder(*entry, txn_id);
  GrantWaiters(tuple, *entry);
  if (entry->holders == kNil && entry->waiters_head == kNil) {
    table_.erase(tuple);
  }
}

void LockManager::ReleaseAll(uint64_t txn_id) {
  HeldList* list = held_.find(txn_id);
  if (list == nullptr) return;
  uint32_t cur = list->head;
  held_.erase(txn_id);  // GrantWaiters may insert into held_; detach first
  while (cur != kNil) {
    const TupleId tuple = held_pool_[cur].tuple;
    const uint32_t next = held_pool_[cur].next;
    FreeHeld(cur);
    ReleaseInEntry(txn_id, tuple);
    cur = next;
  }
}

void LockManager::ReleaseOne(uint64_t txn_id, TupleId tuple) {
  HeldList* list = held_.find(txn_id);
  if (list == nullptr) return;
  uint32_t prev = kNil;
  uint32_t cur = list->head;
  while (cur != kNil && !(held_pool_[cur].tuple == tuple)) {
    prev = cur;
    cur = held_pool_[cur].next;
  }
  if (cur == kNil) return;
  const uint32_t next = held_pool_[cur].next;
  if (prev == kNil) {
    list->head = next;
  } else {
    held_pool_[prev].next = next;
  }
  if (list->tail == cur) list->tail = prev;
  FreeHeld(cur);
  if (list->head == kNil) held_.erase(txn_id);

  ReleaseInEntry(txn_id, tuple);
}

size_t LockManager::HeldBy(uint64_t txn_id) const {
  const HeldList* list = held_.find(txn_id);
  if (list == nullptr) return 0;
  size_t n = 0;
  for (uint32_t i = list->head; i != kNil; i = held_pool_[i].next) ++n;
  return n;
}

bool LockManager::IsLocked(TupleId tuple) const {
  const Entry* entry = table_.find(tuple);
  return entry != nullptr && entry->holders != kNil;
}

}  // namespace p4db::db
