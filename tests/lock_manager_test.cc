#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "common/metrics_registry.h"
#include "db/lock_manager.h"
#include "sim/simulator.h"
#include "sim/task.h"

namespace p4db::db {
namespace {

constexpr TupleId kT1{0, 1};
constexpr TupleId kT2{0, 2};

struct Box {
  std::optional<Status> status;
};

sim::Task Acquire(LockManager& lm, uint64_t txn, uint64_t ts, TupleId t,
                  LockMode m, Box* box) {
  box->status = co_await lm.Acquire(txn, ts, t, m);
}

template <CcScheme kScheme>
class LockTest : public ::testing::Test {
 protected:
  LockTest() : lm_(&sim_, kScheme, &registry_) {}
  /// Value of one of the lock manager's "lock.*" registry series.
  uint64_t Count(const char* name) { return registry_.counter(name).value(); }
  sim::Simulator sim_;
  MetricsRegistry registry_;
  LockManager lm_;
};

using NoWaitTest = LockTest<CcScheme::kNoWait>;
using WaitDieTest = LockTest<CcScheme::kWaitDie>;

TEST_F(NoWaitTest, GrantsUncontendedExclusive) {
  Box b;
  sim::Task t = Acquire(lm_, 1, 1, kT1, LockMode::kExclusive, &b);
  sim_.Run();
  ASSERT_TRUE(b.status.has_value());
  EXPECT_TRUE(b.status->ok());
  EXPECT_TRUE(lm_.IsLocked(kT1));
  EXPECT_EQ(lm_.HeldBy(1), 1u);
}

TEST_F(NoWaitTest, SharedLocksCoexist) {
  Box a, b;
  sim::Task ta = Acquire(lm_, 1, 1, kT1, LockMode::kShared, &a);
  sim::Task tb = Acquire(lm_, 2, 2, kT1, LockMode::kShared, &b);
  sim_.Run();
  EXPECT_TRUE(a.status->ok());
  EXPECT_TRUE(b.status->ok());
}

TEST_F(NoWaitTest, ExclusiveConflictAborts) {
  Box a, b;
  sim::Task ta = Acquire(lm_, 1, 1, kT1, LockMode::kExclusive, &a);
  sim::Task tb = Acquire(lm_, 2, 2, kT1, LockMode::kExclusive, &b);
  sim_.Run();
  EXPECT_TRUE(a.status->ok());
  EXPECT_EQ(b.status->code(), Code::kAborted);
  EXPECT_EQ(Count("lock.no_wait_aborts"), 1u);
}

TEST_F(NoWaitTest, SharedVsExclusiveConflictAborts) {
  Box a, b;
  sim::Task ta = Acquire(lm_, 1, 1, kT1, LockMode::kShared, &a);
  sim::Task tb = Acquire(lm_, 2, 2, kT1, LockMode::kExclusive, &b);
  sim_.Run();
  EXPECT_EQ(b.status->code(), Code::kAborted);
}

TEST_F(NoWaitTest, ReacquisitionIsNoOp) {
  Box a, b;
  sim::Task ta = Acquire(lm_, 1, 1, kT1, LockMode::kExclusive, &a);
  sim::Task tb = Acquire(lm_, 1, 1, kT1, LockMode::kShared, &b);
  sim_.Run();
  EXPECT_TRUE(b.status->ok());
  EXPECT_EQ(lm_.HeldBy(1), 1u);
}

TEST_F(NoWaitTest, UpgradeSucceedsWhenSoleHolder) {
  Box a, b;
  sim::Task ta = Acquire(lm_, 1, 1, kT1, LockMode::kShared, &a);
  sim::Task tb = Acquire(lm_, 1, 1, kT1, LockMode::kExclusive, &b);
  sim_.Run();
  EXPECT_TRUE(b.status->ok());
  EXPECT_EQ(Count("lock.upgrades"), 1u);
  // Now exclusive: another shared request must abort.
  Box c;
  sim::Task tc = Acquire(lm_, 2, 2, kT1, LockMode::kShared, &c);
  sim_.Run();
  EXPECT_EQ(c.status->code(), Code::kAborted);
}

TEST_F(NoWaitTest, UpgradeDeniedWithOtherHolders) {
  Box a, b, c;
  sim::Task ta = Acquire(lm_, 1, 1, kT1, LockMode::kShared, &a);
  sim::Task tb = Acquire(lm_, 2, 2, kT1, LockMode::kShared, &b);
  sim::Task tc = Acquire(lm_, 1, 1, kT1, LockMode::kExclusive, &c);
  sim_.Run();
  EXPECT_EQ(c.status->code(), Code::kAborted);
}

TEST_F(NoWaitTest, ReleaseAllFreesEverything) {
  Box a, b;
  sim::Task ta = Acquire(lm_, 1, 1, kT1, LockMode::kExclusive, &a);
  sim::Task tb = Acquire(lm_, 1, 1, kT2, LockMode::kExclusive, &b);
  sim_.Run();
  lm_.ReleaseAll(1);
  EXPECT_FALSE(lm_.IsLocked(kT1));
  EXPECT_FALSE(lm_.IsLocked(kT2));
  EXPECT_EQ(lm_.HeldBy(1), 0u);
}

TEST_F(NoWaitTest, ReleaseOneKeepsOthers) {
  Box a, b;
  sim::Task ta = Acquire(lm_, 1, 1, kT1, LockMode::kExclusive, &a);
  sim::Task tb = Acquire(lm_, 1, 1, kT2, LockMode::kExclusive, &b);
  sim_.Run();
  lm_.ReleaseOne(1, kT1);
  EXPECT_FALSE(lm_.IsLocked(kT1));
  EXPECT_TRUE(lm_.IsLocked(kT2));
  EXPECT_EQ(lm_.HeldBy(1), 1u);
}

TEST_F(NoWaitTest, ReleaseUnknownTxnIsNoOp) {
  lm_.ReleaseAll(99);
  lm_.ReleaseOne(99, kT1);
  EXPECT_EQ(lm_.HeldBy(99), 0u);
}

// ------------------------------------------------------------- WAIT_DIE --

TEST_F(WaitDieTest, OlderWaitsAndIsGrantedOnRelease) {
  Box young, old;
  sim::Task ta = Acquire(lm_, 2, 20, kT1, LockMode::kExclusive, &young);
  sim::Task tb = Acquire(lm_, 1, 10, kT1, LockMode::kExclusive, &old);
  sim_.Run();
  EXPECT_TRUE(young.status->ok());
  EXPECT_FALSE(old.status.has_value());  // still waiting
  EXPECT_EQ(Count("lock.waits"), 1u);
  lm_.ReleaseAll(2);
  sim_.Run();
  ASSERT_TRUE(old.status.has_value());
  EXPECT_TRUE(old.status->ok());
  EXPECT_EQ(lm_.HeldBy(1), 1u);
}

TEST_F(WaitDieTest, YoungerDies) {
  Box old, young;
  sim::Task ta = Acquire(lm_, 1, 10, kT1, LockMode::kExclusive, &old);
  sim::Task tb = Acquire(lm_, 2, 20, kT1, LockMode::kExclusive, &young);
  sim_.Run();
  EXPECT_TRUE(old.status->ok());
  EXPECT_EQ(young.status->code(), Code::kAborted);
  EXPECT_EQ(Count("lock.wait_die_aborts"), 1u);
}

TEST_F(WaitDieTest, YoungerDiesOnQueuedWaiterToo) {
  Box a, b, c;
  sim::Task ta = Acquire(lm_, 3, 30, kT1, LockMode::kExclusive, &a);
  sim::Task tb = Acquire(lm_, 1, 10, kT1, LockMode::kExclusive, &b);  // waits
  sim::Task tc = Acquire(lm_, 2, 20, kT1, LockMode::kExclusive, &c);
  sim_.Run();
  // c (ts 20) is younger than waiter b (ts 10): dies.
  EXPECT_EQ(c.status->code(), Code::kAborted);
}

TEST_F(WaitDieTest, FifoGrantOrderForWaiters) {
  Box holder, w1, w2;
  sim::Task t0 = Acquire(lm_, 9, 90, kT1, LockMode::kExclusive, &holder);
  sim::Task t1 = Acquire(lm_, 2, 20, kT1, LockMode::kExclusive, &w1);
  sim::Task t2 = Acquire(lm_, 1, 10, kT1, LockMode::kExclusive, &w2);
  sim_.Run();
  EXPECT_FALSE(w1.status.has_value());
  EXPECT_FALSE(w2.status.has_value());
  lm_.ReleaseAll(9);
  sim_.Run();
  // w1 queued first, gets the lock; w2 still behind it.
  ASSERT_TRUE(w1.status.has_value());
  EXPECT_TRUE(w1.status->ok());
  EXPECT_FALSE(w2.status.has_value());
  lm_.ReleaseAll(2);
  sim_.Run();
  EXPECT_TRUE(w2.status->ok());
}

TEST_F(WaitDieTest, SharedBatchGrantedTogether) {
  Box holder, r1, r2;
  sim::Task t0 = Acquire(lm_, 9, 90, kT1, LockMode::kExclusive, &holder);
  sim::Task t1 = Acquire(lm_, 1, 10, kT1, LockMode::kShared, &r1);
  sim::Task t2 = Acquire(lm_, 2, 20, kT1, LockMode::kShared, &r2);
  sim_.Run();
  // r2 is younger than holder 9? ts 20 < 90: older, so it waits (behind r1).
  EXPECT_FALSE(r1.status.has_value());
  EXPECT_FALSE(r2.status.has_value());
  lm_.ReleaseAll(9);
  sim_.Run();
  // Both compatible shared waiters granted in one sweep.
  EXPECT_TRUE(r1.status->ok());
  EXPECT_TRUE(r2.status->ok());
}

TEST_F(WaitDieTest, WaiterBehindSharedBatchStopsAtExclusive) {
  Box holder, r1, x1;
  sim::Task t0 = Acquire(lm_, 9, 90, kT1, LockMode::kExclusive, &holder);
  sim::Task t1 = Acquire(lm_, 1, 10, kT1, LockMode::kShared, &r1);
  // ts 5: older than both the holder and the queued reader, so it waits.
  sim::Task t2 = Acquire(lm_, 2, 5, kT1, LockMode::kExclusive, &x1);
  sim_.Run();
  lm_.ReleaseAll(9);
  sim_.Run();
  EXPECT_TRUE(r1.status->ok());
  EXPECT_FALSE(x1.status.has_value());  // X waits for the reader to finish
  lm_.ReleaseAll(1);
  sim_.Run();
  EXPECT_TRUE(x1.status->ok());
}

TEST_F(WaitDieTest, UpgraderJumpsQueueWhenSoleHolder) {
  Box s, w, up;
  sim::Task t0 = Acquire(lm_, 1, 10, kT1, LockMode::kShared, &s);
  sim::Task t1 = Acquire(lm_, 5, 50, kT1, LockMode::kExclusive, &w);
  sim_.Run();
  // Txn 5 (younger) dies against holder 1; so start a fresh waiter that is
  // older than nobody... use ts 5 (older than holder? 5 < 10 -> waits).
  Box w2;
  sim::Task t2 = Acquire(lm_, 3, 5, kT1, LockMode::kExclusive, &w2);
  sim_.Run();
  EXPECT_FALSE(w2.status.has_value());
  // Holder 1 upgrades: must jump ahead of the queued waiter (deadlock
  // avoidance) and be granted immediately as the sole holder.
  sim::Task t3 = Acquire(lm_, 1, 10, kT1, LockMode::kExclusive, &up);
  sim_.Run();
  ASSERT_TRUE(up.status.has_value());
  EXPECT_TRUE(up.status->ok());
  EXPECT_FALSE(w2.status.has_value());
  lm_.ReleaseAll(1);
  sim_.Run();
  EXPECT_TRUE(w2.status->ok());
}

TEST_F(WaitDieTest, NoDeadlockUnderTimestampOrdering) {
  // Classic 2-txn crossing pattern: T1 holds A wants B, T2 holds B wants A.
  // WAIT_DIE: the younger one dies instead of waiting -> no deadlock.
  Box a1, b2, b1, a2;
  sim::Task t0 = Acquire(lm_, 1, 10, kT1, LockMode::kExclusive, &a1);
  sim::Task t1 = Acquire(lm_, 2, 20, kT2, LockMode::kExclusive, &b2);
  sim_.Run();
  sim::Task t2 = Acquire(lm_, 1, 10, kT2, LockMode::kExclusive, &b1);
  sim::Task t3 = Acquire(lm_, 2, 20, kT1, LockMode::kExclusive, &a2);
  sim_.Run();
  // T1 (older) waits for kT2; T2 (younger) dies on kT1.
  EXPECT_FALSE(b1.status.has_value());
  EXPECT_EQ(a2.status->code(), Code::kAborted);
  lm_.ReleaseAll(2);  // T2 aborts, releasing kT2
  sim_.Run();
  EXPECT_TRUE(b1.status->ok());  // T1 proceeds: no deadlock
}

TEST_F(WaitDieTest, StatsCount) {
  Box a, b, c;
  sim::Task t0 = Acquire(lm_, 1, 10, kT1, LockMode::kExclusive, &a);
  sim::Task t1 = Acquire(lm_, 2, 20, kT1, LockMode::kExclusive, &b);  // dies
  sim::Task t2 = Acquire(lm_, 3, 5, kT1, LockMode::kExclusive, &c);   // waits
  sim_.Run();
  EXPECT_EQ(Count("lock.acquisitions"), 3u);
  EXPECT_EQ(Count("lock.immediate_grants"), 1u);
  EXPECT_EQ(Count("lock.wait_die_aborts"), 1u);
  EXPECT_EQ(Count("lock.waits"), 1u);
}

}  // namespace
}  // namespace p4db::db
