#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "alloc_counter.h"
#include "core/engine.h"
#include "net/fault_injector.h"
#include "workload/smallbank.h"
#include "workload/ycsb.h"

// Determinism suite for the parallel sharded runtime: a sharded run is a
// pure function of (seed, schedule) — the OS thread count only changes how
// fast the answer arrives, never the answer. Every test compares complete
// artifacts (metrics registry dump, sampler time series, trace export)
// byte for byte between thread counts.

namespace p4db::core {
namespace {

uint64_t ChaosSeed() {
  const char* env = std::getenv("P4DB_CHAOS_SEED");
  if (env == nullptr || *env == '\0') return 42;
  return std::strtoull(env, nullptr, 10);
}

SystemConfig ShardedCluster(int threads, uint64_t seed) {
  SystemConfig cfg;
  cfg.mode = EngineMode::kP4db;
  cfg.num_nodes = 4;
  cfg.workers_per_node = 4;
  cfg.seed = seed;
  cfg.threads = threads;
  return cfg;
}

wl::YcsbConfig SmallYcsb() {
  wl::YcsbConfig ycsb;
  ycsb.variant = 'A';
  ycsb.table_size = 100000;
  ycsb.hot_keys_per_node = 10;
  return ycsb;
}

struct ParallelRun {
  std::string metrics_json;      // complete registry dump
  std::string time_series_json;  // sampler curves over the window
  std::string trace_json;        // merged per-shard trace export
  uint64_t committed_warm = 0;
  uint64_t admission_shed = 0;  // open-loop arrivals dropped at admission
  uint64_t batches_sent = 0;
  uint64_t stale_epoch_drops = 0;
};

/// One full sharded run with every observable artifact captured. The trace
/// is a FULL trace (not just the flight ring) so record interleaving across
/// shards is part of the comparison.
ParallelRun RunSharded(int threads, uint64_t seed, wl::Workload* workload,
                       size_t hot_items,
                       const net::FaultSchedule* schedule = nullptr,
                       void (*mutate)(SystemConfig&) = nullptr) {
  SystemConfig cfg = ShardedCluster(threads, seed);
  if (mutate != nullptr) mutate(cfg);
  Engine engine(cfg);
  engine.SetWorkload(workload);
  trace::Sampler& sampler = engine.EnableTimeSeries(100 * kMicrosecond);
  engine.EnableFullTrace();
  engine.Offload(5000, hot_items);
  std::string schedule_json;
  if (schedule != nullptr) {
    engine.InstallFaultSchedule(*schedule);
    schedule_json = schedule->ToJson();
  }
  const Metrics m = engine.Run(kMillisecond, 3 * kMillisecond);
  EXPECT_GT(m.committed, 0u);
  ParallelRun out;
  out.metrics_json = engine.metrics_registry().ToJson();
  out.time_series_json = sampler.ToJson();
  out.trace_json = engine.TraceJson(schedule_json);
  out.committed_warm =
      m.committed_by_class[static_cast<int>(db::TxnClass::kWarm)];
  const MetricsRegistry& reg = engine.metrics_registry();
  const auto value = [&reg](const char* name) {
    const MetricsRegistry::Counter* c = reg.FindCounter(name);
    return c == nullptr ? 0 : c->value();
  };
  out.admission_shed = value("engine.admission_shed");
  out.batches_sent = value("net.batches_sent");
  out.stale_epoch_drops = value("switch.stale_epoch_drops");
  return out;
}

void ExpectIdentical(const ParallelRun& a, const ParallelRun& b,
                     const char* what) {
  EXPECT_EQ(a.metrics_json, b.metrics_json)
      << what << ": metrics dumps differ between thread counts";
  EXPECT_EQ(a.time_series_json, b.time_series_json)
      << what << ": time series differ between thread counts";
  EXPECT_EQ(a.trace_json, b.trace_json)
      << what << ": trace exports differ between thread counts";
}

TEST(ParallelParityTest, YcsbThreads1Vs4ByteIdentical) {
  wl::Ycsb a(SmallYcsb()), b(SmallYcsb());
  const ParallelRun t1 = RunSharded(1, 42, &a, 40);
  const ParallelRun t4 = RunSharded(4, 42, &b, 40);
  ExpectIdentical(t1, t4, "YCSB");
}

TEST(ParallelParityTest, SmallBankThreads1Vs4ByteIdentical) {
  wl::SmallBankConfig cfg;
  cfg.num_accounts = 100000;
  wl::SmallBank a(cfg), b(cfg);
  const ParallelRun t1 = RunSharded(1, 42, &a, 80);
  const ParallelRun t4 = RunSharded(4, 42, &b, 80);
  ExpectIdentical(t1, t4, "SmallBank");
}

TEST(ParallelParityTest, WarmCommitMulticastThreads1Vs4ByteIdentical) {
  // Offloading half of the hot set leaves the other half on the nodes, so
  // every-distributed YCSB transactions mix switch and remote host ops. A
  // warm transaction's commit is multicast from the switch shard to its
  // remote participants (ShardRouter::MulticastCommit), which releases
  // their locks on their own shards.
  wl::YcsbConfig ycsb = SmallYcsb();
  ycsb.distributed_fraction = 1.0;
  wl::Ycsb a(ycsb), b(ycsb);
  const ParallelRun t1 = RunSharded(1, 7, &a, 20);
  const ParallelRun t4 = RunSharded(4, 7, &b, 20);
  ExpectIdentical(t1, t4, "warm multicast");
  EXPECT_GT(t1.committed_warm, 0u);
  EXPECT_EQ(t1.committed_warm, t4.committed_warm);
}

TEST(ParallelParityTest, WarmCommitMulticastPast64Nodes) {
  // Node ids past 63 fit no 64-bit participant mask: the multicast must
  // release the locks of participants 64 and 65 like any other. The
  // registry dump carries the comparison.
  wl::YcsbConfig ycsb = SmallYcsb();
  ycsb.distributed_fraction = 1.0;
  const auto run = [&ycsb](int threads, uint64_t* committed_warm) {
    SystemConfig cfg = ShardedCluster(threads, 7);
    cfg.num_nodes = 66;
    cfg.workers_per_node = 1;
    wl::Ycsb workload(ycsb);
    Engine engine(cfg);
    engine.SetWorkload(&workload);
    engine.Offload(5000, 330);
    const Metrics m = engine.Run(kMillisecond, 3 * kMillisecond);
    *committed_warm =
        m.committed_by_class[static_cast<int>(db::TxnClass::kWarm)];
    return engine.metrics_registry().ToJson();
  };
  uint64_t warm1 = 0;
  uint64_t warm2 = 0;
  EXPECT_EQ(run(1, &warm1), run(2, &warm2));
  EXPECT_GT(warm1, 0u);
  EXPECT_EQ(warm1, warm2);
}

TEST(ParallelParityTest, RepeatedThreads4RunsAreByteIdentical) {
  // Same thread count twice: catches nondeterminism that happens to bite
  // both sides of a 1-vs-4 comparison the same way (e.g. an address-keyed
  // container leaking iteration order into an artifact).
  wl::Ycsb a(SmallYcsb()), b(SmallYcsb());
  const ParallelRun first = RunSharded(4, 1234, &a, 40);
  const ParallelRun second = RunSharded(4, 1234, &b, 40);
  ExpectIdentical(first, second, "repeat");
}

TEST(ParallelParityTest, DifferentSeedsDiverge) {
  // Sanity check that the comparison has teeth: a different seed must
  // produce a different run.
  wl::Ycsb a(SmallYcsb()), b(SmallYcsb());
  const ParallelRun s1 = RunSharded(2, 42, &a, 40);
  const ParallelRun s2 = RunSharded(2, 43, &b, 40);
  EXPECT_NE(s1.metrics_json, s2.metrics_json);
}

TEST(ParallelParityTest, OpenLoopBatchedThreads1Vs4ByteIdentical) {
  // Open-loop Poisson arrivals + egress batching: generator draws, admission
  // queueing/shedding, doorbell flushes, and batched cross-shard delivery
  // must all stay a pure function of the seed under the parallel runtime.
  // The offered load overloads this small cluster on purpose so the shed
  // path is part of the compared artifacts.
  const auto openloop = [](SystemConfig& cfg) {
    cfg.open_loop.enabled = true;
    cfg.open_loop.offered_load = 2e6;
    cfg.batch.size = 4;
  };
  wl::Ycsb a(SmallYcsb()), b(SmallYcsb());
  const ParallelRun t1 = RunSharded(1, 42, &a, 40, nullptr, openloop);
  const ParallelRun t4 = RunSharded(4, 42, &b, 40, nullptr, openloop);
  ExpectIdentical(t1, t4, "open-loop");
  // The run actually exercised the new machinery.
  EXPECT_GT(t1.batches_sent, 0u);
  EXPECT_NE(t1.metrics_json.find("engine.admission_admitted"),
            std::string::npos);
  EXPECT_GT(t1.admission_shed, 0u);
}

TEST(ParallelChaosTest, RebootChaosThreads1Vs4ByteIdentical) {
  // The chaos machinery end to end — per-shard fault injectors, scripted
  // mid-run switch reboot, epoch fencing, failback — must stay a pure
  // function of (seed, schedule) under the parallel runtime too. CI runs
  // this across a seed matrix via P4DB_CHAOS_SEED.
  const uint64_t seed = ChaosSeed();
  net::FaultSchedule schedule;
  schedule.links.drop_prob = 0.01;
  schedule.links.dup_prob = 0.005;
  schedule.links.delay_spike_prob = 0.01;
  // Lands mid-measurement (warmup 1ms + 3ms window).
  schedule.events.push_back(
      net::FaultEvent::SwitchReboot(2 * kMillisecond, 400 * kMicrosecond));
  wl::Ycsb a(SmallYcsb()), b(SmallYcsb());
  const ParallelRun t1 = RunSharded(1, seed, &a, 40, &schedule);
  const ParallelRun t4 = RunSharded(4, seed, &b, 40, &schedule);
  ExpectIdentical(t1, t4, "chaos");
  // The reboot actually exercised the fencing machinery.
  EXPECT_GT(t1.stale_epoch_drops, 0u);
  EXPECT_NE(t1.metrics_json.find("net.injected_drops"), std::string::npos);
}

TEST(ParallelCheckpointTest, Threads4TruncationMatchesThreads1) {
  // Checkpoints run on the coordinator at window starts: it recycles WAL
  // segments while every shard is parked at the barrier, and each node
  // shard's thread reuses them for its next appends. The cut, the baseline
  // and every log's retained range are the same at any thread count.
  struct Logs {
    std::vector<db::Lsn> begin, end, watermarks;
    std::vector<Value64> baseline;
    std::vector<Gid> gids;  // every retained resolved intent, node order
    Gid floor = 0;
  };
  const auto run = [](int threads) {
    wl::Ycsb ycsb(SmallYcsb());
    Engine engine(ShardedCluster(threads, 42));
    engine.SetWorkload(&ycsb);
    engine.Offload(5000, 40);
    engine.Run(kMillisecond, 5 * kMillisecond);
    Logs out;
    for (NodeId n = 0; n < engine.config().num_nodes; ++n) {
      const db::Wal& wal = engine.wal(n);
      out.begin.push_back(wal.begin_lsn());
      out.end.push_back(wal.end_lsn());
      for (const db::LogRecord& rec : wal.Scan()) {
        if (rec.has_result) out.gids.push_back(rec.gid);
      }
    }
    const PartitionManager& pm = engine.partition_manager();
    out.watermarks = pm.recovery_watermarks();
    out.floor = pm.recovery_gid_floor();
    for (const auto& e : pm.entries()) out.baseline.push_back(e.initial_value);
    return out;
  };
  const Logs t1 = run(1);
  const Logs t4 = run(4);
  for (const db::Lsn b : t4.begin) EXPECT_GT(b, 0u);  // segments recycled
  EXPECT_GT(t4.floor, 0u);
  EXPECT_EQ(t1.begin, t4.begin);
  EXPECT_EQ(t1.end, t4.end);
  EXPECT_EQ(t1.watermarks, t4.watermarks);
  EXPECT_EQ(t1.floor, t4.floor);
  EXPECT_EQ(t1.baseline, t4.baseline);
  EXPECT_EQ(t1.gids, t4.gids);
}

/// Commit count and registry dump of one engine run: everything a run
/// writes that a concurrent neighbour could disturb.
struct EngineOutcome {
  uint64_t committed = 0;
  std::string metrics_json;
  uint64_t stale_epoch_drops = 0;
  uint64_t chaos_events = 0;  // CC timeouts + failovers
  uint64_t injected = 0;      // fault-injector link faults
};

/// One run of a 4-node cluster on the calling thread alone: `threads` is 0
/// (legacy runtime) or 1 (sharded runtime, every shard stepped inline).
EngineOutcome RunOnCallingThread(int threads,
                                 const net::FaultSchedule* schedule) {
  wl::Ycsb ycsb(SmallYcsb());
  Engine engine(ShardedCluster(threads, 42));
  engine.SetWorkload(&ycsb);
  engine.Offload(5000, 40);
  if (schedule != nullptr) engine.InstallFaultSchedule(*schedule);
  EngineOutcome out;
  out.committed = engine.Run(kMillisecond, 3 * kMillisecond).committed;
  MetricsRegistry& reg = engine.metrics_registry();
  out.metrics_json = reg.ToJson();
  const auto value = [&reg](const char* name) {
    const MetricsRegistry::Counter* c = reg.FindCounter(name);
    return c == nullptr ? 0 : c->value();
  };
  out.stale_epoch_drops = value("switch.stale_epoch_drops");
  out.chaos_events = value("engine.txn_timeouts") + value("engine.failovers");
  out.injected = value("net.injected_drops") + value("net.injected_dups") +
                 value("net.injected_delay_spikes");
  return out;
}

TEST(ParallelEnginesTest, TwoEnginesOnTwoThreadsMatchSequentialRuns) {
  // Engines share no mutable state: two of them running at once on two
  // std::threads each produce exactly what they produce alone. One arms a
  // K = 1 reboot with link faults, so its fault injector, stale-epoch drop
  // counter and CC chaos counters all fire while the other runs fault-free
  // on the other runtime. Neither engine starts a thread of its own.
  net::FaultSchedule schedule;
  schedule.links.drop_prob = 0.01;
  schedule.links.dup_prob = 0.005;
  schedule.links.delay_spike_prob = 0.01;
  schedule.events.push_back(
      net::FaultEvent::SwitchReboot(2 * kMillisecond, 400 * kMicrosecond));

  const EngineOutcome chaos_alone = RunOnCallingThread(0, &schedule);
  const EngineOutcome clean_alone = RunOnCallingThread(1, nullptr);
  EXPECT_GT(chaos_alone.stale_epoch_drops, 0u);
  EXPECT_GT(chaos_alone.chaos_events, 0u);
  EXPECT_GT(chaos_alone.injected, 0u);

  EngineOutcome chaos, clean;
  // Each thread hands its pooled coroutine frames back before it exits:
  // FreePool's thread-local lists have no destructor.
  std::thread a([&] {
    chaos = RunOnCallingThread(0, &schedule);
    FreePool::ReleaseThreadCache();
  });
  std::thread b([&] {
    clean = RunOnCallingThread(1, nullptr);
    FreePool::ReleaseThreadCache();
  });
  a.join();
  b.join();
  EXPECT_GT(chaos.committed, 0u);
  EXPECT_GT(clean.committed, 0u);
  EXPECT_EQ(chaos.committed, chaos_alone.committed);
  EXPECT_EQ(clean.committed, clean_alone.committed);
  EXPECT_EQ(chaos.metrics_json, chaos_alone.metrics_json);
  EXPECT_EQ(clean.metrics_json, clean_alone.metrics_json);
}

TEST(ParallelAllocTest, SteadyStateWindowIsAllocFree) {
  // The 0-allocs/txn guarantee survives the parallel runtime: with the
  // working set materialized and every shard's event storage, mailboxes and
  // global queue pre-sized, the measured window performs exactly zero heap
  // allocations — across ALL shards (the counters are process-wide).
  SystemConfig cfg;
  cfg.mode = EngineMode::kP4db;
  cfg.num_nodes = 2;
  cfg.workers_per_node = 4;
  cfg.seed = 42;
  cfg.threads = 2;
  wl::YcsbConfig wcfg;
  wcfg.variant = 'A';
  wcfg.table_size = 20000;
  wcfg.hot_keys_per_node = 10;
  wl::Ycsb workload(wcfg);
  Engine engine(cfg);
  engine.SetWorkload(&workload);
  engine.Offload(5000, 20);
  db::Catalog& catalog = engine.catalog();
  for (TableId t = 0; t < catalog.num_tables(); ++t) {
    for (uint64_t k = 0; k < wcfg.table_size; ++k) {
      catalog.table(t).GetOrCreate(static_cast<Key>(k));
    }
  }
  // Checkpoints recycle WAL segments: a few intervals' worth is retained.
  engine.ReserveSteadyState(wcfg.table_size, 4096, 2u << 20);
  testing::AllocSnapshot begin, end;
  const SimTime warmup = kMillisecond;
  const SimTime measure = 2 * kMillisecond;
  engine.ScheduleGlobalAt(warmup + 1, [&begin] {
    begin = testing::CaptureAllocs();
    if (std::getenv("P4DB_TRAP_ALLOCS") != nullptr) {
      testing::SetAllocTrap(true);
    }
  });
  engine.ScheduleGlobalAt(warmup + measure, [&end] {
    testing::SetAllocTrap(false);
    end = testing::CaptureAllocs();
  });
  const Metrics m = engine.Run(warmup, measure);
  EXPECT_GT(m.committed, 0u);
  EXPECT_EQ(end.allocs - begin.allocs, 0u)
      << "parallel steady state allocated in the measured window";
}

}  // namespace
}  // namespace p4db::core
