#include "common/metrics_registry.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <sstream>
#include <string>

#include "core/engine.h"
#include "net/fault_injector.h"
#include "workload/ycsb.h"

namespace p4db {
namespace {

TEST(MetricsRegistryTest, CounterGetOrCreateReturnsStableIdentity) {
  MetricsRegistry reg;
  MetricsRegistry::Counter& a = reg.counter("x.hits");
  MetricsRegistry::Counter& b = reg.counter("x.hits");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(reg.num_counters(), 1u);

  a.Increment();
  a.Increment(5);
  EXPECT_EQ(b.value(), 6u);
}

TEST(MetricsRegistryTest, CounterAddressesSurviveFurtherRegistration) {
  MetricsRegistry reg;
  MetricsRegistry::Counter* first = &reg.counter("a");
  // Force re-balancing of the underlying map with many more entries.
  for (int i = 0; i < 100; ++i) {
    reg.counter("bulk." + std::to_string(i)).Increment();
  }
  EXPECT_EQ(first, &reg.counter("a"));
  first->Increment(7);
  EXPECT_EQ(reg.counter("a").value(), 7u);
}

TEST(MetricsRegistryTest, SetAndReset) {
  MetricsRegistry reg;
  reg.counter("c").Set(42);
  reg.histogram("h").Record(10);
  reg.histogram("h").Record(20);
  EXPECT_EQ(reg.counter("c").value(), 42u);
  EXPECT_EQ(reg.histogram("h").count(), 2u);

  reg.Reset();
  EXPECT_EQ(reg.counter("c").value(), 0u);
  EXPECT_EQ(reg.histogram("h").count(), 0u);
  // Reset clears values but keeps registrations (components hold pointers).
  EXPECT_EQ(reg.num_counters(), 1u);
  EXPECT_EQ(reg.num_histograms(), 1u);
}

TEST(MetricsRegistryTest, FindDoesNotCreate) {
  MetricsRegistry reg;
  EXPECT_EQ(reg.FindCounter("missing"), nullptr);
  EXPECT_EQ(reg.FindHistogram("missing"), nullptr);
  reg.counter("present");
  EXPECT_NE(reg.FindCounter("present"), nullptr);
  EXPECT_EQ(reg.num_counters(), 1u);
}

TEST(MetricsRegistryTest, ToJsonIsWellFormed) {
  MetricsRegistry reg;
  reg.counter("net.messages_sent").Set(3);
  reg.counter("wal.host_commits").Set(1);
  reg.histogram("switch.recircs_per_txn").Record(2);

  const std::string json = reg.ToJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"net.messages_sent\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"wal.host_commits\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"switch.recircs_per_txn\""), std::string::npos);

  // Balanced braces and quotes — cheap structural sanity.
  int depth = 0;
  size_t quotes = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (c == '"' && (i == 0 || json[i - 1] != '\\')) {
      in_string = !in_string;
      ++quotes;
    } else if (!in_string && c == '{') {
      ++depth;
    } else if (!in_string && c == '}') {
      --depth;
      EXPECT_GE(depth, 0);
    }
  }
  EXPECT_EQ(depth, 0);
  EXPECT_EQ(quotes % 2, 0u);
  EXPECT_FALSE(in_string);
}

TEST(MetricsRegistryTest, JsonEscapesSpecialCharacters) {
  MetricsRegistry reg;
  reg.counter("weird\"name\\here").Set(1);
  const std::string json = reg.ToJson();
  EXPECT_NE(json.find("weird\\\"name\\\\here"), std::string::npos);
}

// A hostile name — embedded quote, backslash, newline, tab, and a raw
// control byte — must come out of every dump as legal JSON via the shared
// escaping helper.
TEST(MetricsRegistryTest, JsonEscapesControlCharactersInNames) {
  MetricsRegistry reg;
  reg.counter(std::string("evil\"\\\n\t\x01name")).Set(9);
  reg.histogram(std::string("evil\rhist")).Record(1);
  const std::string json = reg.ToJson();
  EXPECT_NE(json.find("evil\\\"\\\\\\u000a\\u0009\\u0001name"),
            std::string::npos);
  EXPECT_NE(json.find("evil\\u000dhist"), std::string::npos);
  // No raw control byte from the names may survive into the dump (the
  // dump's own pretty-printing newlines are legal JSON whitespace).
  for (char c : json) {
    if (c == '\n') continue;
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
  }
}

// Components register into the engine-owned registry: every subsystem named
// by the execution-layer refactor must publish at least its headline
// counters, and running a workload must move them.
TEST(MetricsRegistryTest, EngineComponentsPublishCounters) {
  core::SystemConfig cfg;
  cfg.mode = core::EngineMode::kP4db;
  cfg.num_nodes = 4;
  cfg.workers_per_node = 4;
  cfg.seed = 7;

  wl::YcsbConfig wcfg;
  wcfg.table_size = 100000;
  wcfg.hot_keys_per_node = 10;
  wl::Ycsb workload(wcfg);

  core::Engine engine(cfg);
  engine.SetWorkload(&workload);
  engine.Offload(/*sample_size=*/5000,
                 /*max_hot_items=*/10ull * cfg.num_nodes);

  const MetricsRegistry& reg = engine.metrics_registry();
  // Registration happens at construction, before any traffic.
  EXPECT_NE(reg.FindCounter("net.messages_sent"), nullptr);
  EXPECT_NE(reg.FindCounter("net.bytes_sent"), nullptr);
  EXPECT_NE(reg.FindCounter("switch.txns_completed"), nullptr);
  EXPECT_NE(reg.FindCounter("lock.node.acquisitions"), nullptr);
  EXPECT_NE(reg.FindCounter("lock.switch.acquisitions"), nullptr);
  EXPECT_NE(reg.FindCounter("wal.host_commits"), nullptr);
  EXPECT_NE(reg.FindCounter("engine.committed"), nullptr);
  EXPECT_NE(reg.FindHistogram("switch.recircs_per_txn"), nullptr);

  const core::Metrics m = engine.Run(kMillisecond, 2 * kMillisecond);
  ASSERT_GT(m.committed, 0u);

  EXPECT_EQ(reg.FindCounter("engine.committed")->value(), m.committed);
  EXPECT_GT(reg.FindCounter("net.messages_sent")->value(), 0u);
  EXPECT_GT(reg.FindCounter("wal.host_commits")->value(), 0u);
  // P4DB mode with an offloaded hot set must drive the switch pipeline.
  EXPECT_GT(reg.FindCounter("switch.txns_completed")->value(), 0u);

  // The engine dump is valid input for the bench JSON writer.
  const std::string json = reg.ToJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("engine.committed"), std::string::npos);
}

// Shared names aggregate: all per-node lock managers feed the same
// "lock.node.*" counters, so the registry view is cluster-wide.
TEST(MetricsRegistryTest, PerNodeLockManagersAggregateIntoSharedCounters) {
  MetricsRegistry reg;
  sim::Simulator sim;
  db::LockManager lm0(&sim, db::CcScheme::kWaitDie, &reg, "lock.node");
  db::LockManager lm1(&sim, db::CcScheme::kWaitDie, &reg, "lock.node");
  EXPECT_EQ(reg.num_counters(), 6u);  // one shared family, not two
}

// The key set of an engine's dump is a function of its configuration
// alone: every series is registered at construction, so neither the batch
// size nor an armed fault schedule whose events never fire changes which
// keys exist. The three net.injected_* series belong to the fault
// injector, which exists only once a schedule arms.
std::set<std::string> DumpKeys(const MetricsRegistry& reg) {
  // ToJson writes one series per line: `    "name": ...`, counters first.
  std::set<std::string> keys;
  std::istringstream lines(reg.ToJson());
  std::string section;
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("  \"", 0) == 0) section = line.substr(3, 1);
    if (line.rfind("    \"", 0) != 0) continue;
    const size_t end = line.find('"', 5);
    keys.insert(section + ":" + line.substr(5, end - 5));
  }
  return keys;
}

std::set<std::string> RunKeys(int threads, uint32_t batch_size,
                              const net::FaultSchedule* schedule) {
  core::SystemConfig cfg;
  cfg.mode = core::EngineMode::kP4db;
  cfg.num_nodes = 4;
  cfg.workers_per_node = 4;
  cfg.seed = 7;
  cfg.threads = threads;
  cfg.batch.size = batch_size;
  wl::YcsbConfig wcfg;
  wcfg.table_size = 100000;
  wcfg.hot_keys_per_node = 10;
  wl::Ycsb workload(wcfg);
  core::Engine engine(cfg);
  engine.SetWorkload(&workload);
  engine.Offload(5000, 10ull * cfg.num_nodes);
  if (schedule != nullptr) engine.InstallFaultSchedule(*schedule);
  const core::Metrics m = engine.Run(kMillisecond, 2 * kMillisecond);
  EXPECT_GT(m.committed, 0u);
  return DumpKeys(engine.metrics_registry());
}

TEST(EngineKeySetTest, KeySetDependsOnlyOnConfiguration) {
  net::FaultSchedule past_horizon;
  past_horizon.events.push_back(
      net::FaultEvent::SwitchReboot(kSecond, 100 * kMicrosecond));
  for (const int threads : {0, 1}) {
    SCOPED_TRACE(threads == 0 ? "legacy runtime" : "sharded runtime");
    const std::set<std::string> plain = RunKeys(threads, 1, nullptr);
    EXPECT_TRUE(plain.contains("c:net.batches_sent"));
    EXPECT_TRUE(plain.contains("c:engine.failovers"));
    EXPECT_TRUE(plain.contains("h:engine.latency_ns.warm"));
    EXPECT_EQ(RunKeys(threads, 8, nullptr), plain);

    std::set<std::string> armed_expected = plain;
    armed_expected.insert({"c:net.injected_delay_spikes",
                           "c:net.injected_drops", "c:net.injected_dups"});
    EXPECT_EQ(RunKeys(threads, 1, &past_horizon), armed_expected);
  }
}

}  // namespace
}  // namespace p4db
