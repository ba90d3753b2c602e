#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/engine.h"
#include "net/fault_injector.h"
#include "workload/ycsb.h"

// Determinism suite for the chaos harness: a run is a pure function of
// (config.seed, FaultSchedule). CI runs this binary across a seed matrix
// (P4DB_CHAOS_SEED) and uploads the written schedule artifact for any
// failing combination, so every red run reproduces with one command.

namespace p4db::core {
namespace {

uint64_t ChaosSeed() {
  const char* env = std::getenv("P4DB_CHAOS_SEED");
  if (env == nullptr || *env == '\0') return 42;
  return std::strtoull(env, nullptr, 10);
}

SystemConfig ChaosCluster(uint64_t seed) {
  SystemConfig cfg;
  cfg.mode = EngineMode::kP4db;
  cfg.num_nodes = 4;
  cfg.workers_per_node = 4;
  cfg.seed = seed;
  return cfg;
}

wl::YcsbConfig SmallYcsb() {
  wl::YcsbConfig ycsb;
  ycsb.variant = 'A';
  ycsb.table_size = 100000;
  ycsb.hot_keys_per_node = 10;
  return ycsb;
}

net::FaultSchedule StandardChaos() {
  net::FaultSchedule schedule;
  schedule.links.drop_prob = 0.01;
  schedule.links.dup_prob = 0.005;
  schedule.links.delay_spike_prob = 0.01;
  // Reboot lands mid-measurement (warmup 1ms + 4ms window); the dark period
  // is well above one pipeline pass so recirculating stragglers die too.
  schedule.events.push_back(
      net::FaultEvent::SwitchReboot(2500 * kMicrosecond,
                                    400 * kMicrosecond));
  return schedule;
}

/// Writes the (seed, schedule) replay artifact next to the test binary.
/// Written BEFORE the runs so a crash or assertion failure still leaves it
/// behind for the CI artifact upload.
void WriteScheduleArtifact(uint64_t seed, const net::FaultSchedule& schedule) {
  const std::string path =
      "chaos_schedule_seed" + std::to_string(seed) + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fprintf(f, "{\"seed\": %llu, \"schedule\": %s}\n",
               static_cast<unsigned long long>(seed),
               schedule.ToJson().c_str());
  std::fclose(f);
}

struct ChaosRun {
  std::string metrics_json;  // complete dump: counter names and values
  std::string flight_json;   // always-on flight-recorder ring + schedule
  uint64_t stale_epoch_drops = 0;
};

/// One full chaos run: fresh workload + engine, armed schedule, fixed
/// horizon. Also snapshots the engine's flight recorder (the last spans
/// before teardown, with the schedule embedded) so a later assertion
/// failure can still dump the run's final moments.
ChaosRun RunChaos(uint64_t seed, const net::FaultSchedule& schedule) {
  wl::Ycsb ycsb(SmallYcsb());
  Engine engine(ChaosCluster(seed));
  engine.SetWorkload(&ycsb);
  engine.Offload(5000, 40);
  engine.InstallFaultSchedule(schedule);
  const Metrics m = engine.Run(kMillisecond, 4 * kMillisecond);
  EXPECT_GT(m.committed, 0u);
  ChaosRun out;
  out.metrics_json = engine.metrics_registry().ToJson();
  out.flight_json = engine.tracer().ToChromeJson(nullptr, schedule.ToJson());
  out.stale_epoch_drops =
      engine.metrics_registry().counter("switch.stale_epoch_drops").value();
  return out;
}

/// If the current test has failed, writes the flight-recorder dump next to
/// the schedule artifact so CI uploads the moments before death alongside
/// the replay command.
void DumpFlightRecorderIfFailed(uint64_t seed,
                                const std::string& flight_json) {
  if (!::testing::Test::HasFailure()) return;
  const std::string path =
      "flight_recorder_seed" + std::to_string(seed) + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fwrite(flight_json.data(), 1, flight_json.size(), f);
  std::fclose(f);
  std::fprintf(stderr, "[flight recorder] wrote %s\n", path.c_str());
}

TEST(FaultInjectorTest, SameSeedSameDrawSequence) {
  net::FaultSchedule schedule;
  schedule.links.drop_prob = 0.3;
  schedule.links.dup_prob = 0.2;
  schedule.links.delay_spike_prob = 0.1;
  net::FaultInjector a(schedule, 7, nullptr);
  net::FaultInjector b(schedule, 7, nullptr);
  net::FaultInjector c(schedule, 8, nullptr);
  bool diverged_from_c = false;
  for (int i = 0; i < 1000; ++i) {
    const net::Endpoint from = net::Endpoint::Node(i % 4);
    const net::Endpoint to = net::Endpoint::Switch();
    const auto pa = a.OnSend(from, to);
    const auto pb = b.OnSend(from, to);
    const auto pc = c.OnSend(from, to);
    EXPECT_EQ(pa.extra_delay, pb.extra_delay);
    EXPECT_EQ(pa.duplicate, pb.duplicate);
    diverged_from_c |= pa.extra_delay != pc.extra_delay ||
                       pa.duplicate != pc.duplicate;
  }
  EXPECT_TRUE(diverged_from_c);  // different seed, different fault stream
}

TEST(FaultScheduleTest, JsonNamesEveryEvent) {
  net::FaultSchedule schedule;
  schedule.links.drop_prob = 0.25;
  schedule.events.push_back(net::FaultEvent::SwitchReboot(1000, 500));
  schedule.events.push_back(net::FaultEvent::NodeCrash(2000, 3));
  schedule.events.push_back(net::FaultEvent::NodeRestart(3000, 3));
  const std::string json = schedule.ToJson();
  EXPECT_NE(json.find("\"drop_prob\": 0.25"), std::string::npos);
  EXPECT_NE(json.find("switch_reboot"), std::string::npos);
  EXPECT_NE(json.find("node_crash"), std::string::npos);
  EXPECT_NE(json.find("node_restart"), std::string::npos);
  EXPECT_NE(json.find("\"downtime_ns\": 500"), std::string::npos);
  EXPECT_NE(json.find("\"node\": 3"), std::string::npos);
  EXPECT_FALSE(schedule.empty());
  EXPECT_TRUE(net::FaultSchedule{}.empty());
}

TEST(FaultScheduleTest, ToJsonCarriesTargetSwitch) {
  net::FaultSchedule schedule;
  schedule.events.push_back(
      net::FaultEvent::SwitchReboot(2 * kMillisecond, 500 * kMicrosecond));
  schedule.events.push_back(net::FaultEvent::SwitchReboot(
      3 * kMillisecond, 500 * kMicrosecond, /*switch_id=*/1));
  const std::string json = schedule.ToJson();
  // Old single-switch schedules keep working (default target 0); the dump
  // names the target either way so chaos artifacts are unambiguous.
  EXPECT_NE(json.find("\"switch\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"switch\": 1"), std::string::npos);
}

TEST(ChaosDeterminismTest, SameSeedAndScheduleAreByteIdentical) {
  const uint64_t seed = ChaosSeed();
  const net::FaultSchedule schedule = StandardChaos();
  WriteScheduleArtifact(seed, schedule);
  const ChaosRun first = RunChaos(seed, schedule);
  const ChaosRun second = RunChaos(seed, schedule);
  // The whole dump — injected faults, timeouts, failovers, epoch fences,
  // committed work — must match byte for byte.
  EXPECT_EQ(first.metrics_json, second.metrics_json)
      << "chaos run is not reproducible from (seed, "
         "schedule); see chaos_schedule_seed"
      << seed << ".json";
  // The flight recorder is part of the same determinism contract.
  EXPECT_EQ(first.flight_json, second.flight_json);
  // The scripted reboot actually exercised the fencing machinery.
  EXPECT_GT(first.stale_epoch_drops, 0u);
  EXPECT_NE(first.metrics_json.find("net.injected_drops"),
            std::string::npos);
  DumpFlightRecorderIfFailed(seed, second.flight_json);
}

TEST(ChaosDeterminismTest, NullScheduleIsByteIdenticalToPlainEngine) {
  const uint64_t seed = ChaosSeed();
  std::string with_null_schedule;
  {
    wl::Ycsb ycsb(SmallYcsb());
    Engine engine(ChaosCluster(seed));
    engine.SetWorkload(&ycsb);
    engine.Offload(5000, 40);
    engine.InstallFaultSchedule(net::FaultSchedule{});
    EXPECT_FALSE(engine.switches().chaos_armed());
    engine.Run(kMillisecond, 3 * kMillisecond);
    with_null_schedule = engine.metrics_registry().ToJson();
  }
  std::string plain;
  bool injector_series = false;
  {
    wl::Ycsb ycsb(SmallYcsb());
    Engine engine(ChaosCluster(seed));
    engine.SetWorkload(&ycsb);
    engine.Offload(5000, 40);
    engine.Run(kMillisecond, 3 * kMillisecond);
    const MetricsRegistry& reg = engine.metrics_registry();
    plain = reg.ToJson();
    const MetricsRegistry::Counter* stale =
        reg.FindCounter("switch.stale_epoch_drops");
    const MetricsRegistry::Counter* timeouts =
        reg.FindCounter("engine.txn_timeouts");
    ASSERT_TRUE(stale != nullptr && timeouts != nullptr);
    EXPECT_EQ(stale->value() + timeouts->value(), 0u);
    injector_series = reg.FindCounter("net.injected_drops") != nullptr;
  }
  // An empty schedule arms nothing: the chaos counters stay at zero, no
  // fault injector exists, and the run itself (event order, commit counts,
  // every metric) is untouched.
  EXPECT_EQ(with_null_schedule, plain);
  EXPECT_FALSE(injector_series);
}

}  // namespace
}  // namespace p4db::core
