#include "common/trace.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/metrics_registry.h"
#include "core/engine.h"
#include "net/fault_injector.h"
#include "sim/simulator.h"
#include "workload/ycsb.h"

namespace p4db {
namespace {

using trace::Category;
using trace::Tracer;

// ---------------------------------------------------------------- Tracer --

TEST(TracerTest, DisabledInstanceRecordsNothing) {
  Tracer& t = Tracer::Disabled();
  t.Emit(0, 10, Category::kTxn, 1, 0);
  t.Instant(Category::kNetDrop, 1, 0);
  t.CompleteSpan(0, 5, Category::kCommit, 1, 0);
  EXPECT_FALSE(t.enabled());
  EXPECT_EQ(t.mode(), Tracer::Mode::kDisabled);
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.capacity(), 0u);
}

TEST(TracerTest, FlightRecorderKeepsLastRecordsAndCountsDrops) {
  sim::Simulator sim;
  Tracer t(&sim, /*flight_capacity=*/4);
  EXPECT_EQ(t.mode(), Tracer::Mode::kFlightRecorder);
  for (uint64_t i = 1; i <= 6; ++i) {
    t.Emit(static_cast<SimTime>(i), static_cast<SimTime>(i + 1),
           Category::kCommit, i, 0);
  }
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(t.dropped(), 2u);
  const std::vector<trace::Record> recs = t.Snapshot();
  ASSERT_EQ(recs.size(), 4u);
  // Oldest-first after the wrap: ids 3..6 survive.
  EXPECT_EQ(recs.front().txn_id, 3u);
  EXPECT_EQ(recs.back().txn_id, 6u);
}

TEST(TracerTest, EnableFullResizesAndResetsTheRing) {
  sim::Simulator sim;
  Tracer t(&sim, 4);
  t.Emit(0, 1, Category::kTxn, 1, 0);
  t.EnableFull(128);
  EXPECT_EQ(t.mode(), Tracer::Mode::kFull);
  EXPECT_EQ(t.capacity(), 128u);
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.dropped(), 0u);
}

TEST(TracerTest, SpanClosesAtResumeTime) {
  sim::Simulator sim;
  Tracer t(&sim, 16);
  sim.ScheduleAt(10, [&] {
    auto* span = new Tracer::Span(&t, Category::kLockWait, 7, 2,
                                  /*attempt=*/3);
    sim.ScheduleAt(25, [span] { delete span; });
  });
  sim.RunUntil(100);
  ASSERT_EQ(t.size(), 1u);
  const trace::Record r = t.Snapshot()[0];
  EXPECT_EQ(r.begin_ns, 10);
  EXPECT_EQ(r.end_ns, 25);
  EXPECT_EQ(r.txn_id, 7u);
  EXPECT_EQ(r.track, 2u);
  EXPECT_EQ(r.attempt, 3u);
  EXPECT_EQ(r.category, Category::kLockWait);
}

TEST(TracerTest, SpanEndIsIdempotent) {
  sim::Simulator sim;
  Tracer t(&sim, 16);
  {
    Tracer::Span span(&t, Category::kTxn, 1, 0);
    span.End();
    span.End();  // second End and the destructor must not re-emit
  }
  EXPECT_EQ(t.size(), 1u);
}

TEST(TracerTest, InstantSetsFlagAndZeroDuration) {
  sim::Simulator sim;
  Tracer t(&sim, 16);
  sim.ScheduleAt(42, [&] { t.Instant(Category::kNetDrop, 9, 1, /*aux=*/3); });
  sim.RunUntil(50);
  ASSERT_EQ(t.size(), 1u);
  const trace::Record r = t.Snapshot()[0];
  EXPECT_EQ(r.begin_ns, 42);
  EXPECT_EQ(r.end_ns, 42);
  EXPECT_TRUE(r.flags & Tracer::kInstantFlag);
  EXPECT_EQ(r.aux, 3u);
}

// --------------------------------------------------------------- Sampler --

TEST(SamplerTest, RateAndQuantileSeries) {
  sim::Simulator sim;
  MetricsRegistry reg;
  MetricsRegistry::Counter& c = reg.counter("c");
  Histogram h;
  trace::Sampler s(&sim);
  s.AddCounterRate("rate", {&c});
  s.AddHistogramQuantile("p50", {&h}, 0.5);

  sim.ScheduleAt(5, [&] {
    c.Increment();
    h.Record(100);
  });
  sim.ScheduleAt(15, [&] {
    c.Increment(2);
    h.Record(1000);
  });
  s.Begin(/*start=*/0, /*horizon=*/30, /*tick=*/10);
  sim.RunUntil(40);

  ASSERT_EQ(s.num_samples(), 3u);
  const std::vector<int64_t>* rate = s.Find("rate");
  ASSERT_NE(rate, nullptr);
  EXPECT_EQ((*rate)[0], 1);
  EXPECT_EQ((*rate)[1], 2);
  EXPECT_EQ((*rate)[2], 0);
  // Windowed quantile: each window sees only its own samples (bucket
  // midpoints, ~5% error); an empty window reports 0.
  const std::vector<int64_t>* p50 = s.Find("p50");
  ASSERT_NE(p50, nullptr);
  EXPECT_NEAR(static_cast<double>((*p50)[0]), 100, 10);
  EXPECT_NEAR(static_cast<double>((*p50)[1]), 1000, 100);
  EXPECT_EQ((*p50)[2], 0);
  EXPECT_EQ(s.Find("missing"), nullptr);

  const std::string json = s.ToJson();
  EXPECT_NE(json.find("\"tick_ns\": 10"), std::string::npos);
  EXPECT_NE(json.find("\"rate\": [1, 2, 0]"), std::string::npos);
}

// ------------------------------------------------- Engine-level tracing --

core::SystemConfig SmallCluster(uint64_t seed) {
  core::SystemConfig cfg;
  cfg.mode = core::EngineMode::kP4db;
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

struct TracedRun {
  uint64_t committed = 0;
  std::string registry_json;
  std::string trace_json;
  std::string time_series_json;
};

TracedRun RunSmall(uint64_t seed, bool full_trace, bool time_series,
                   const net::FaultSchedule* schedule = nullptr) {
  wl::Ycsb ycsb(SmallYcsb());
  core::Engine engine(SmallCluster(seed));
  engine.SetWorkload(&ycsb);
  engine.Offload(5000, 40);
  if (schedule != nullptr) engine.InstallFaultSchedule(*schedule);
  if (full_trace) engine.tracer().EnableFull(size_t{1} << 18);
  trace::Sampler* sampler = nullptr;
  if (time_series) sampler = &engine.EnableTimeSeries(100 * kMicrosecond);
  const core::Metrics m = engine.Run(kMillisecond, 2 * kMillisecond);
  TracedRun out;
  out.committed = m.committed;
  out.registry_json = engine.metrics_registry().ToJson();
  out.trace_json = engine.tracer().ToChromeJson(sampler);
  if (sampler != nullptr) out.time_series_json = sampler->ToJson();
  return out;
}

// The tentpole determinism contract: a traced run is a pure function of
// (seed, schedule) — the exported trace matches byte for byte.
TEST(TraceDeterminismTest, SameSeedSameTraceBytes) {
  net::FaultSchedule schedule;
  schedule.links.drop_prob = 0.01;
  schedule.links.dup_prob = 0.005;
  schedule.events.push_back(
      net::FaultEvent::SwitchReboot(1800 * kMicrosecond,
                                    300 * kMicrosecond));
  const TracedRun a = RunSmall(42, /*full_trace=*/true, /*time_series=*/true,
                               &schedule);
  const TracedRun b = RunSmall(42, /*full_trace=*/true, /*time_series=*/true,
                               &schedule);
  ASSERT_GT(a.committed, 0u);
  EXPECT_EQ(a.trace_json, b.trace_json);
  EXPECT_EQ(a.time_series_json, b.time_series_json);
  EXPECT_EQ(a.registry_json, b.registry_json);

  const TracedRun c = RunSmall(43, true, true, &schedule);
  EXPECT_NE(a.trace_json, c.trace_json);  // different seed, different run
}

// The passivity contract: arming the tracer and the sampler must not change
// what the simulation computes — the metric dump is byte-identical to a run
// that never heard of them, so tracing-off dumps match the historical ones.
TEST(TraceDeterminismTest, TracingAndSamplingAreByteInvisibleInMetrics) {
  const TracedRun plain = RunSmall(42, /*full_trace=*/false,
                                   /*time_series=*/false);
  const TracedRun traced = RunSmall(42, /*full_trace=*/true,
                                    /*time_series=*/true);
  ASSERT_GT(plain.committed, 0u);
  EXPECT_EQ(plain.committed, traced.committed);
  EXPECT_EQ(plain.registry_json, traced.registry_json);
}

TEST(TraceExportTest, ChromeJsonShowsTheWholeTransactionPath) {
  const TracedRun run = RunSmall(42, /*full_trace=*/true,
                                 /*time_series=*/true);
  const std::string& json = run.trace_json;
  // One process per node plus the switch and the metrics counters.
  EXPECT_NE(json.find("\"name\":\"node 0\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"switch\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"metrics\""), std::string::npos);
  // Dispatch -> CC -> WAL -> switch -> commit all present.
  EXPECT_NE(json.find("\"name\":\"txn\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"attempt\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"lock_wait\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"wal_append\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"switch_access\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"switch_pass\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"net_send\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"commit\""), std::string::npos);
  EXPECT_NE(json.find("\"metadata\":{\"mode\":\"full\""), std::string::npos);

  // Structural sanity: balanced braces outside strings.
  int depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    const char ch = json[i];
    if (ch == '"' && (i == 0 || json[i - 1] != '\\')) {
      in_string = !in_string;
    } else if (!in_string && ch == '{') {
      ++depth;
    } else if (!in_string && ch == '}') {
      --depth;
      ASSERT_GE(depth, 0);
    }
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
}

TEST(TraceExportTest, FlightRecorderDumpCarriesFaultSchedule) {
  net::FaultSchedule schedule;
  schedule.events.push_back(
      net::FaultEvent::SwitchReboot(1500 * kMicrosecond,
                                    200 * kMicrosecond));
  wl::Ycsb ycsb(SmallYcsb());
  core::Engine engine(SmallCluster(42));
  engine.SetWorkload(&ycsb);
  engine.Offload(5000, 40);
  engine.InstallFaultSchedule(schedule);
  engine.Run(kMillisecond, 2 * kMillisecond);
  // Default mode: the always-on flight recorder holds the last spans.
  EXPECT_EQ(engine.tracer().mode(), Tracer::Mode::kFlightRecorder);
  EXPECT_GT(engine.tracer().size(), 0u);
  const std::string json =
      engine.tracer().ToChromeJson(nullptr, schedule.ToJson());
  EXPECT_NE(json.find("\"mode\":\"flight_recorder\""), std::string::npos);
  EXPECT_NE(json.find("\"fault_schedule\":"), std::string::npos);
  EXPECT_NE(json.find("switch_reboot"), std::string::npos);
}

TEST(TraceExportTest, ExportChromeTraceWritesTheFile) {
  sim::Simulator sim;
  Tracer t(&sim, 16);
  t.Emit(0, 10, Category::kTxn, 1, 0);
  const std::string path = "trace_test_out.json";
  ASSERT_TRUE(t.ExportChromeTrace(path));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char first_char = '\0';
  ASSERT_EQ(std::fread(&first_char, 1, 1, f), 1u);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(first_char, '{');
}

}  // namespace
}  // namespace p4db
