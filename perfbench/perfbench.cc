// Repository benchmark driver for the P4DB simulator.
//
// Runs one workload through the engine's public lifecycle (Engine ctor ->
// SetWorkload -> Offload -> Run -> teardown) repeatedly for a host-time
// budget and prints one JSON document with the measured metrics, the raw
// repetitions and the output checks. perfbench/run.py builds this binary,
// attaches units and turns the document into the benchmark's result line;
// perfbench/README.md defines every metric.
//
//   perfbench --workload NAME --seed N --seconds S --mode e2e|trace
//
// Mode e2e measures the end-to-end metrics from untraced repetitions. Mode
// trace measures the per-layer metrics: counts from an untraced repetition,
// host time per layer from replaying each layer's public calls on the
// workload's own generated stream, and the tracing overhead from
// alternating traced and untraced repetitions. In both modes the first
// repetition of the process is a warm-up and is not measured.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "alloc_count.h"
#include "common/histogram.h"
#include "common/metrics_registry.h"
#include "common/rng.h"
#include "core/access_graph.h"
#include "core/engine.h"
#include "core/hotset.h"
#include "core/layout.h"
#include "db/lock_manager.h"
#include "db/table.h"
#include "db/wal.h"
#include "sim/simulator.h"
#include "switchsim/control_plane.h"
#include "switchsim/packet.h"
#include "switchsim/pipeline.h"
#include "workload/smallbank.h"
#include "workload/ycsb.h"

namespace p4db::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

uint64_t Fnv1a(const std::string& s, uint64_t h = 1469598103934665603ULL) {
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

/// Quantile of a log-bucketed histogram, interpolated linearly inside the
/// bucket that holds the rank (Histogram::Quantile reports the bucket
/// midpoint, which reads identically for runs whose tails differ slightly).
double InterpQuantile(const Histogram& h, double q) {
  if (h.count() == 0) return 0;
  const double target = q * static_cast<double>(h.count());
  double seen = 0;
  double out = static_cast<double>(h.max());
  bool found = false;
  h.ForEachBucket([&](int, int64_t lower, int64_t upper, uint64_t n) {
    if (found) return;
    const double cnt = static_cast<double>(n);
    if (seen + cnt >= target) {
      const double lo = static_cast<double>(std::max(lower, h.min()));
      const double hi = static_cast<double>(std::min(upper, h.max() + 1));
      out = lo + (hi - lo) * std::clamp((target - seen) / cnt, 0.0, 1.0);
      found = true;
    }
    seen += cnt;
  });
  return out;
}

// ---------------------------------------------------------------------------
// Workloads

struct Spec {
  std::string name;
  core::SystemConfig cfg;
  bool smallbank = false;
  wl::YcsbConfig ycsb;
  wl::SmallBankConfig bank;
  size_t sample_size = 20000;
  size_t max_hot_items = 0;
  SimTime warmup = 2 * kMillisecond;
  SimTime measure = 10 * kMillisecond;

  std::unique_ptr<wl::Workload> MakeWorkload() const {
    if (smallbank) return std::make_unique<wl::SmallBank>(bank);
    return std::make_unique<wl::Ycsb>(ycsb);
  }
};

std::optional<Spec> MakeSpec(const std::string& name, uint64_t seed) {
  Spec s;
  s.name = name;
  s.cfg.mode = core::EngineMode::kP4db;
  s.cfg.num_nodes = 8;
  s.cfg.workers_per_node = 20;
  s.cfg.seed = seed;
  s.ycsb.variant = 'A';
  if (name == "ycsb_mixed_closed") {
    // The figure-11 cluster: YCSB-A, 75% hot, 20% distributed, legacy
    // runtime, 10^9-key lazily materialized table.
    s.max_hot_items = size_t{s.ycsb.hot_keys_per_node} * s.cfg.num_nodes;
  } else if (name == "smallbank_sharded_closed") {
    // The sharded runtime is bit-identical at any thread count. On a shared
    // 4-vCPU host, threads=4 doubled the run-to-run spread of the host
    // metrics (IQR/median 0.32 vs 0.16), so one thread drives the shards.
    s.smallbank = true;
    s.cfg.threads = 1;
    s.max_hot_items =
        2 * size_t{s.bank.hot_accounts_per_node} * s.cfg.num_nodes;
  } else if (name == "ycsb_hot_open") {
    // bench_openloop's 6 M txn/s batch-8 rung: pure-hot YCSB-A, Poisson
    // arrivals, kernel-stack receive cost, shed on overflow.
    s.ycsb.hot_txn_fraction = 1.0;
    s.cfg.open_loop.enabled = true;
    s.cfg.open_loop.offered_load = 6e6;
    s.cfg.open_loop.sessions_per_node = 64;
    s.cfg.batch.size = 8;
    s.cfg.network.rx_service = 2 * kMicrosecond;
    s.max_hot_items = size_t{s.ycsb.hot_keys_per_node} * s.cfg.num_nodes;
  } else {
    return std::nullopt;
  }
  return s;
}

// ---------------------------------------------------------------------------
// Spans recorded by the benchmark around each call into a layer. Kept in
// memory and summarized per name at the end of the run.

class SpanLog {
 public:
  void Add(const char* name, Clock::time_point a, Clock::time_point b) {
    spans_[name].push_back(Seconds(a, b));
  }
  double MedianOf(const std::string& name) const {
    auto it = spans_.find(name);
    return it == spans_.end() ? 0 : Median(it->second);
  }
  const std::map<std::string, std::vector<double>>& spans() const {
    return spans_;
  }

 private:
  std::map<std::string, std::vector<double>> spans_;
};

/// Times `fn` as one span named `name`.
template <typename Fn>
void Timed(SpanLog& log, const char* name, Fn&& fn) {
  const auto a = Clock::now();
  fn();
  log.Add(name, a, Clock::now());
}

// ---------------------------------------------------------------------------
// One repetition of the public lifecycle.

const char* const kCounterNames[] = {
    "engine.aborted_attempts",
    "engine.admission_admitted",
    "engine.admission_shed",
    "engine.committed",
    "engine.txn_gaveup",
    "lock.node.acquisitions",
    "lock.node.no_wait_aborts",
    "lock.node.waits",
    "net.batched_txns",
    "net.batches_sent",
    "net.bytes_sent",
    "net.messages_sent",
    "switch.constrained_write_failures",
    "switch.holder_recircs",
    "switch.lock_blocked_recircs",
    "switch.multi_pass_txns",
    "switch.total_passes",
    "switch.txns_completed",
    "wal.host_commits",
    "wal.logged_writes",
    "wal.switch_intents",
};

struct Rep {
  int sub = 0;  // sub-seed index (mode e2e)
  double setup_s = 0;
  double offload_s = 0;
  double run_s = 0;
  double wall_s = 0;
  core::Metrics metrics;
  uint64_t digest = 0;       // FNV-1a of the registry dump
  uint64_t plan_digest = 0;  // hot items, arrays and cut weight
  uint64_t events = 0;
  std::vector<uint64_t> shard_events;  // sharded runtime only
  uint64_t rows_after_offload = 0;
  uint64_t rows_after_run = 0;
  std::map<std::string, double> counters;
  double recircs_p99 = 0;
  double admission_depth_p99 = 0;
  uint64_t window_allocs = 0;  // traced repetitions only
};

uint64_t MaterializedRows(db::Catalog& catalog) {
  uint64_t rows = 0;
  for (TableId t = 0; t < catalog.num_tables(); ++t) {
    rows += catalog.table(t).materialized_rows();
  }
  return rows;
}

uint64_t PlanDigest(const core::LayoutPlan& plan) {
  std::vector<std::pair<core::HotItem, core::LayoutPlan::ArrayRef>> arrays(
      plan.arrays.begin(), plan.arrays.end());
  std::sort(arrays.begin(), arrays.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::string s = std::to_string(plan.cut_weight) + "/" +
                  std::to_string(plan.total_weight);
  for (const auto& [item, arr] : arrays) {
    s += ";" + std::to_string(item.tuple.table) + "," +
         std::to_string(item.tuple.key) + "," + std::to_string(item.column) +
         ">" + std::to_string(arr.stage) + "," + std::to_string(arr.reg);
  }
  return Fnv1a(s);
}

/// One full lifecycle. With a span log the repetition is traced: every
/// public call is recorded as a span and heap allocations inside the
/// measured window are counted.
Rep RunLifecycle(const Spec& spec, SpanLog* log) {
  Rep r;
  std::unique_ptr<wl::Workload> workload = spec.MakeWorkload();
  const auto t0 = Clock::now();
  auto engine = std::make_unique<core::Engine>(spec.cfg);
  const auto t_ctor = Clock::now();
  engine->SetWorkload(workload.get());
  const auto t_set = Clock::now();
  const core::OffloadReport offload =
      engine->Offload(spec.sample_size, spec.max_hot_items);
  const auto t1 = Clock::now();
  r.rows_after_offload = MaterializedRows(engine->catalog());

  uint64_t allocs_begin = 0;
  uint64_t allocs_end = 0;
  if (log != nullptr) {
    // Both brackets are scheduled before Run, so at their instants they
    // fire ahead of any same-time transaction work (bench_hotpath's window).
    engine->ScheduleGlobalAt(spec.warmup + 1, [&allocs_begin] {
      allocs_begin = AllocCount();
      SetAllocCounting(true);
    });
    engine->ScheduleGlobalAt(spec.warmup + spec.measure, [&allocs_end] {
      SetAllocCounting(false);
      allocs_end = AllocCount();
    });
  }
  const auto t_run = Clock::now();
  r.metrics = engine->Run(spec.warmup, spec.measure);
  const auto t2 = Clock::now();
  SetAllocCounting(false);

  // Output capture sits outside every timed interval.
  const MetricsRegistry& reg = engine->metrics_registry();
  r.digest = Fnv1a(reg.ToJson());
  r.plan_digest = PlanDigest(offload.plan);
  for (const char* name : kCounterNames) {
    const MetricsRegistry::Counter* c = reg.FindCounter(name);
    r.counters[name] = c == nullptr ? 0 : static_cast<double>(c->value());
  }
  if (const Histogram* h = reg.FindHistogram("switch.recircs_per_txn")) {
    r.recircs_p99 = static_cast<double>(h->P99());
  }
  if (const Histogram* h = reg.FindHistogram("engine.admission_depth")) {
    r.admission_depth_p99 = static_cast<double>(h->P99());
  }
  r.events = engine->TotalExecutedEvents();
  if (sim::ShardedSimulator* ssim = engine->sharded_simulator()) {
    for (uint32_t s = 0; s < ssim->num_shards(); ++s) {
      r.shard_events.push_back(ssim->shard(s).executed_events());
    }
  }
  r.rows_after_run = MaterializedRows(engine->catalog());
  r.window_allocs = allocs_end - allocs_begin;

  const auto t3 = Clock::now();
  engine.reset();
  const auto t4 = Clock::now();

  r.setup_s = Seconds(t0, t1);
  r.offload_s = Seconds(t_set, t1);
  r.run_s = Seconds(t_run, t2);
  r.wall_s = Seconds(t0, t2) + Seconds(t3, t4);
  if (log != nullptr) {
    log->Add("lifecycle.ctor", t0, t_ctor);
    log->Add("lifecycle.set_workload", t_ctor, t_set);
    log->Add("lifecycle.offload", t_set, t1);
    log->Add("lifecycle.run", t_run, t2);
    log->Add("lifecycle.teardown", t3, t4);
  }
  return r;
}

// ---------------------------------------------------------------------------
// JSON output.

class Json {
 public:
  void Key(const std::string& k) {
    Sep();
    out_ += "\"" + k + "\": ";
    fresh_ = true;
  }
  void Num(double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    Raw(buf);
  }
  void Str(const std::string& v) { Raw("\"" + v + "\""); }
  void Bool(bool v) { Raw(v ? "true" : "false"); }
  void Open(char c) {
    Sep();
    out_ += c;
    fresh_ = true;
  }
  void Close(char c) {
    out_ += c;
    fresh_ = false;
  }
  const std::string& str() const { return out_; }

 private:
  void Raw(const std::string& s) {
    Sep();
    out_ += s;
    fresh_ = false;
  }
  void Sep() {
    if (!fresh_ && !out_.empty()) out_ += ", ";
    fresh_ = true;
  }
  std::string out_;
  bool fresh_ = true;
};

void WriteNumMap(Json& j, const char* key,
                 const std::map<std::string, double>& m) {
  j.Key(key);
  j.Open('{');
  for (const auto& [k, v] : m) {
    j.Key(k);
    j.Num(v);
  }
  j.Close('}');
}

void WriteReps(Json& j, const char* key, const std::vector<Rep>& reps) {
  j.Key(key);
  j.Open('[');
  for (const Rep& r : reps) {
    j.Open('{');
    j.Key("sub");
    j.Num(r.sub);
    j.Key("setup_s");
    j.Num(r.setup_s);
    j.Key("offload_s");
    j.Num(r.offload_s);
    j.Key("run_s");
    j.Num(r.run_s);
    j.Key("wall_s");
    j.Num(r.wall_s);
    j.Key("committed");
    j.Num(static_cast<double>(r.metrics.committed));
    j.Close('}');
  }
  j.Close(']');
}

// ---------------------------------------------------------------------------
// Shared result bookkeeping for both modes.

struct Outcome {
  std::map<std::string, double> metrics;
  /// Output checks; any false one makes the run incorrect.
  std::map<std::string, bool> checks;
  /// Consistency checks of the measurement itself (reported, not gating).
  std::map<std::string, bool> advisories;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t sim_samples = 0;  // latency samples behind the sim_* metrics
  double warmup_wall_s = 0;  // the discarded first repetition
};

/// Output checks over every repetition of one process: the commit count
/// and the registry dump repeat exactly within a seed, and so does the
/// offload plan. Each repetition that disagrees with the first one of its
/// seed counts its transactions as failed. The first `uncounted`
/// repetitions (warm-up) are checked but not counted as attempted.
void CheckReps(const std::vector<const Rep*>& reps, size_t uncounted,
               Outcome* out) {
  std::map<int, const Rep*> first_of_seed;
  bool same = true;
  bool plan_same = true;
  bool nonzero = true;
  for (size_t i = 0; i < reps.size(); ++i) {
    const Rep* r = reps[i];
    const Rep& ref = *first_of_seed.emplace(r->sub, r).first->second;
    const bool ok = r->metrics.committed == ref.metrics.committed &&
                    r->digest == ref.digest;
    const bool plan_ok = r->plan_digest == ref.plan_digest;
    same = same && ok;
    plan_same = plan_same && plan_ok;
    nonzero = nonzero && r->metrics.committed > 0;
    const uint64_t shed =
        static_cast<uint64_t>(r->counters.at("engine.admission_shed"));
    const uint64_t gaveup =
        static_cast<uint64_t>(r->counters.at("engine.txn_gaveup"));
    if (i < uncounted) continue;
    out->attempted += r->metrics.committed + shed + gaveup;
    out->failed += shed + gaveup + (ok && plan_ok ? 0 : r->metrics.committed);
  }
  out->checks["reps_identical"] = same;
  out->checks["plans_identical"] = plan_same;
  out->checks["committed_nonzero"] = nonzero;
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::vector<const Rep*> Pointers(const std::vector<Rep>& a,
                                 const std::vector<Rep>& b = {}) {
  std::vector<const Rep*> out;
  for (const Rep& r : a) out.push_back(&r);
  for (const Rep& r : b) out.push_back(&r);
  return out;
}

// ---------------------------------------------------------------------------
// Mode e2e.

/// Sub-seeds per benchmark seed. One seed's tail latency hangs on a few
/// arrival bursts, so the simulated metrics pool the measured windows of
/// this many independent runs (sub-seed 0 is the seed itself); host-time
/// repetitions cycle through them.
constexpr size_t kSubSeeds = 12;
/// Setup-only repetitions (ctor + SetWorkload + Offload + teardown) per full
/// repetition: setup is short, so it gets more samples for a steady median.
constexpr int kExtraSetups = 2;

uint64_t SubSeed(uint64_t seed, size_t k) {
  return k == 0 ? seed : ShardSeed(seed, k);
}

/// Setup part of the lifecycle alone; returns its seconds.
double RunSetupOnly(const Spec& spec) {
  std::unique_ptr<wl::Workload> workload = spec.MakeWorkload();
  const auto t0 = Clock::now();
  auto engine = std::make_unique<core::Engine>(spec.cfg);
  engine->SetWorkload(workload.get());
  engine->Offload(spec.sample_size, spec.max_hot_items);
  return Seconds(t0, Clock::now());
}

/// `subs[k]` is the workload under sub-seed k.
Outcome RunEndToEnd(const std::vector<Spec>& subs, double seconds,
                    std::vector<Rep>* reps) {
  const Rep warm = RunLifecycle(subs[0], nullptr);
  // High-water RSS of one complete run; later repetitions reuse the heap
  // and would only add allocator fragmentation.
  const double peak_rss_mb = PeakRssMb();
  std::vector<double> setup, wall, host_tps;
  // Repetitions cycle through the sub-seeds until every sub-seed ran once
  // and the budget is spent.
  const auto begin = Clock::now();
  for (size_t i = 0;
       i < kSubSeeds || Seconds(begin, Clock::now()) < seconds; ++i) {
    const size_t k = i % kSubSeeds;
    reps->push_back(RunLifecycle(subs[k], nullptr));
    Rep& r = reps->back();
    r.sub = static_cast<int>(k);
    setup.push_back(r.setup_s);
    wall.push_back(r.wall_s);
    host_tps.push_back(static_cast<double>(r.metrics.committed) / r.wall_s);
    for (int j = 0; j < kExtraSetups; ++j) {
      setup.push_back(RunSetupOnly(subs[k]));
    }
  }
  Outcome out;
  std::vector<const Rep*> all = Pointers(*reps);
  all.insert(all.begin(), &warm);
  CheckReps(all, /*uncounted=*/1, &out);
  out.warmup_wall_s = warm.wall_s;
  out.metrics["setup_s"] = Median(setup);
  out.metrics["wall_s"] = Median(wall);
  out.metrics["host_txn_per_s"] = Median(host_tps);
  out.metrics["peak_rss_mb"] = peak_rss_mb;

  // Simulated metrics over the pooled measured windows of all sub-seeds.
  Histogram latency;
  uint64_t committed = 0;
  for (size_t k = 0; k < kSubSeeds; ++k) {
    const core::Metrics& m = (*reps)[k].metrics;
    latency.Merge(m.latency_all);
    committed += m.committed;
  }
  const double window_s = static_cast<double>(kSubSeeds) *
                         static_cast<double>(subs[0].measure) / kSecond;
  out.metrics["sim_txn_per_s"] = static_cast<double>(committed) / window_s;
  out.metrics["sim_p50_us"] = InterpQuantile(latency, 0.50) / 1e3;
  out.metrics["sim_p99_us"] = InterpQuantile(latency, 0.99) / 1e3;
  out.metrics["sim_p999_us"] = InterpQuantile(latency, 0.999) / 1e3;
  out.sim_samples = latency.count();
  return out;
}

// ---------------------------------------------------------------------------
// Mode trace: layer replays.

constexpr size_t kStreamTxns = 20000;
constexpr int kReplayPasses = 5;

struct Stream {
  std::vector<db::Transaction> txns;
  std::vector<NodeId> homes;
  /// Switch part of every hot / warm transaction (stream order).
  std::vector<core::PartitionManager::Compiled> compiled;
  std::vector<size_t> compiled_of;  // txn index of each compiled entry
};

/// One replay of the offload phases with Offload's own arguments (seed+7
/// sample, seed+13 layout), one span per phase.
struct OffloadReplay {
  core::LayoutPlan plan;
  std::vector<core::HotItem> hot_order;  // graph vertex = install order
  size_t graph_edges = 0;
};

OffloadReplay ReplayOffload(const Spec& spec, SpanLog& log) {
  OffloadReplay out;
  std::unique_ptr<wl::Workload> w = spec.MakeWorkload();
  db::Catalog catalog(spec.cfg.num_nodes);
  w->Setup(&catalog);
  std::vector<db::Transaction> sample;
  Timed(log, "offload.sample", [&] {
    sample = w->Sample(spec.sample_size, spec.cfg.seed + 7, spec.cfg.num_nodes);
  });
  core::HotSetDetector detector;
  Timed(log, "offload.observe", [&] {
    for (const db::Transaction& txn : sample) detector.Observe(txn);
  });
  std::vector<core::HotItem> hot;
  Timed(log, "offload.topk", [&] {
    const size_t budget = std::min<uint64_t>(
        spec.max_hot_items, spec.cfg.pipeline.CapacityRows());
    hot = detector.TopK(budget, /*min_accesses=*/2, w->OffloadWrittenOnly());
  });
  std::optional<core::AccessGraph> graph;
  Timed(log, "offload.graph", [&] {
    graph.emplace(core::HotSetDetector::BuildGraph(hot, sample));
  });
  const core::LayoutPlanner planner(spec.cfg.pipeline);
  Timed(log, "offload.plan", [&] {
    out.plan = spec.cfg.optimal_layout
                   ? planner.PlanOptimal(*graph, spec.cfg.seed + 13)
                   : planner.PlanRandom(*graph, spec.cfg.seed + 13);
  });
  out.hot_order = graph->items();
  out.graph_edges = graph->Edges().size();
  return out;
}

bool SamePlan(const core::LayoutPlan& a, const core::LayoutPlan& b) {
  if (a.arrays.size() != b.arrays.size() || a.cut_weight != b.cut_weight) {
    return false;
  }
  for (const auto& [item, arr] : a.arrays) {
    auto it = b.arrays.find(item);
    if (it == b.arrays.end() || it->second.stage != arr.stage ||
        it->second.reg != arr.reg) {
      return false;
    }
  }
  return true;
}

struct LayerReplay {
  std::map<std::string, double> ns_per_call;  // keyed by layer
  double host_ops_per_txn = 0;  // stream ops the partition manager keeps
  double predicted_passes_mean = 0;
};

/// Replays each layer's public calls over the workload's generated stream
/// and records one span per pass over the stream.
LayerReplay ReplayLayers(const Spec& spec, core::Engine& scratch,
                         const std::vector<core::HotItem>& hot_order,
                         const core::LayoutPlan& plan, SpanLog& log,
                         Outcome* out) {
  const uint16_t nodes = spec.cfg.num_nodes;
  core::PartitionManager& pm = scratch.partition_manager();
  std::unique_ptr<wl::Workload> w = spec.MakeWorkload();
  db::Catalog gen_catalog(nodes);
  w->Setup(&gen_catalog);
  Stream st;
  LayerReplay result;
  std::map<std::string, double>& ns = result.ns_per_call;
  const auto per_call = [&log](const char* span, double calls) {
    return Ratio(log.MedianOf(span) * 1e9, calls);
  };

  // workload: Workload::Next, homes round-robin like the run's workers.
  for (size_t i = 0; i < kStreamTxns; ++i) {
    st.homes.push_back(static_cast<NodeId>(i % nodes));
  }
  st.txns.reserve(kStreamTxns);
  for (int pass = 0; pass < kReplayPasses; ++pass) {
    st.txns.clear();
    Rng rng(ShardSeed(spec.cfg.seed, 0x5eed));
    Timed(log, "workload.next", [&] {
      for (const NodeId home : st.homes) st.txns.push_back(w->Next(rng, home));
    });
  }
  ns["workload"] = per_call("workload.next", kStreamTxns);

  // partition_manager: Classify, then Compile of every hot / warm txn.
  for (int pass = 0; pass < kReplayPasses; ++pass) {
    Timed(log, "pm.classify", [&] {
      for (size_t i = 0; i < st.txns.size(); ++i) {
        pm.Classify(&st.txns[i], st.homes[i]);
      }
    });
  }
  ns["classify"] = per_call("pm.classify", kStreamTxns);
  uint32_t seq = 0;
  for (int pass = 0; pass < kReplayPasses; ++pass) {
    st.compiled.clear();
    st.compiled_of.clear();
    std::vector<std::optional<Value64>> resolved;
    bool compile_ok = true;
    Timed(log, "pm.compile", [&] {
      for (size_t i = 0; i < st.txns.size(); ++i) {
        const db::Transaction& txn = st.txns[i];
        if (txn.cls == db::TxnClass::kCold) continue;
        // Warm transactions run their cold part first; its results feed
        // the switch part as immediates.
        resolved.assign(txn.ops.size(), Value64{0});
        auto c = pm.Compile(txn, resolved, st.homes[i], ++seq);
        if (!c.ok()) {
          compile_ok = false;
          continue;
        }
        st.compiled.push_back(std::move(*c));
        st.compiled_of.push_back(i);
      }
    });
    out->checks["compile_ok"] = compile_ok;
  }
  double passes_sum = 0;
  for (const auto& c : st.compiled) passes_sum += c.predicted_passes;
  ns["compile"] = per_call("pm.compile", static_cast<double>(
                                              st.compiled.size()));
  result.predicted_passes_mean =
      Ratio(passes_sum, static_cast<double>(st.compiled.size()));

  // Host ops: every op of a txn that is not offloaded.
  double host_ops = 0;
  for (const db::Transaction& txn : st.txns) {
    for (const db::Op& op : txn.ops) {
      if (!pm.IsHot(core::HotItem{op.tuple, op.column})) ++host_ops;
    }
  }
  result.host_ops_per_txn = host_ops / static_cast<double>(st.txns.size());

  // db/table: GetOrCreate on the stream's keys in a fresh Catalog.
  double gets = 0;
  for (int pass = 0; pass < kReplayPasses; ++pass) {
    db::Catalog catalog(nodes);
    std::unique_ptr<wl::Workload> fresh = spec.MakeWorkload();
    fresh->Setup(&catalog);
    gets = 0;
    Timed(log, "table.get_or_create", [&] {
      for (const db::Transaction& txn : st.txns) {
        for (const db::Op& op : txn.ops) {
          catalog.table(op.tuple.table).GetOrCreate(op.tuple.key);
          ++gets;
        }
      }
    });
  }
  ns["table"] = per_call("table.get_or_create", gets);

  // lock_manager: NO_WAIT acquire of every op's tuple, release per txn.
  double acquires = 0;
  for (int pass = 0; pass < kReplayPasses; ++pass) {
    sim::Simulator sim;
    db::LockManager lm(&sim, db::CcScheme::kNoWait);
    acquires = 0;
    uint64_t txn_id = 0;
    Timed(log, "lock.acquire_release", [&] {
      for (const db::Transaction& txn : st.txns) {
        ++txn_id;
        for (const db::Op& op : txn.ops) {
          lm.Acquire(txn_id, txn_id, op.tuple,
                     db::IsWrite(op.type) ? db::LockMode::kExclusive
                                          : db::LockMode::kShared);
          ++acquires;
        }
        lm.ReleaseAll(txn_id);
      }
    });
  }
  ns["lock"] = per_call("lock.acquire_release", acquires);

  // db/wal: host commit record of each txn's host writes, switch intent of
  // each switch part.
  double appends = 0;
  for (int pass = 0; pass < kReplayPasses; ++pass) {
    db::Wal wal;
    wal.Reserve(2 * st.txns.size(), 64 * st.txns.size());
    std::vector<db::HostLogOp> writes;
    appends = 0;
    size_t next_compiled = 0;
    Timed(log, "wal.append", [&] {
      for (size_t i = 0; i < st.txns.size(); ++i) {
        writes.clear();
        for (const db::Op& op : st.txns[i].ops) {
          if (db::IsWrite(op.type) &&
              !pm.IsHot(core::HotItem{op.tuple, op.column})) {
            writes.push_back(db::HostLogOp{op.tuple, op.column, op.operand});
          }
        }
        if (!writes.empty()) {
          wal.AppendHostCommit(writes);
          ++appends;
        }
        if (next_compiled < st.compiled.size() &&
            st.compiled_of[next_compiled] == i) {
          const auto& sw_txn = st.compiled[next_compiled++].txn;
          wal.AppendSwitchIntent(sw_txn.client_seq, sw_txn.instrs);
          ++appends;
        }
      }
    });
  }
  ns["wal"] = per_call("wal.append", appends);

  // net: PacketCodec round trip of every switch packet.
  for (int pass = 0; pass < kReplayPasses; ++pass) {
    std::vector<uint8_t> buf;
    bool codec_ok = true;
    Timed(log, "codec.round_trip", [&] {
      for (const auto& c : st.compiled) {
        sw::PacketCodec::Encode(c.txn, &buf);
        codec_ok = codec_ok && sw::PacketCodec::Decode(buf).ok();
      }
    });
    out->checks["codec_ok"] = codec_ok;
  }
  ns["codec"] = per_call("codec.round_trip",
                         static_cast<double>(st.compiled.size()));

  // switchsim: Pipeline::Submit + Simulator::Run per packet on an isolated
  // pipeline provisioned like Offload does (same slot order => the same
  // register addresses the partition manager compiled against).
  bool addresses_ok = true;
  for (int pass = 0; pass < kReplayPasses; ++pass) {
    sim::Simulator sim;
    sw::Pipeline pipeline(&sim, spec.cfg.pipeline);
    sw::ControlPlane cp(&pipeline);
    const auto& entries = pm.entries();
    addresses_ok = addresses_ok && entries.size() == hot_order.size();
    for (size_t v = 0; v < hot_order.size(); ++v) {
      const core::LayoutPlan::ArrayRef arr = plan.arrays.at(hot_order[v]);
      auto addr = cp.AllocateSlot(arr.stage, arr.reg);
      addresses_ok = addresses_ok && addr.ok() && v < entries.size() &&
                     entries[v].item == hot_order[v] &&
                     *addr == entries[v].addr;
      if (addr.ok()) (void)cp.InstallValue(*addr, entries[v].initial_value);
    }
    Timed(log, "switch.submit_run", [&] {
      for (const auto& c : st.compiled) {
        pipeline.Submit(c.txn);
        sim.Run();
      }
    });
  }
  out->checks["switch_addresses_match"] = addresses_ok;
  ns["switch"] = per_call("switch.submit_run",
                          static_cast<double>(st.compiled.size()));
  return result;
}

Outcome RunTrace(const Spec& spec, double seconds, SpanLog& log,
                 std::vector<Rep>* untraced, std::vector<Rep>* traced) {
  Outcome out;
  const auto begin = Clock::now();

  // Offload replay, checked against the plan Engine::Offload installs.
  const OffloadReplay offload = ReplayOffload(spec, log);
  std::unique_ptr<wl::Workload> scratch_wl = spec.MakeWorkload();
  core::Engine scratch(spec.cfg);
  scratch.SetWorkload(scratch_wl.get());
  const core::OffloadReport report =
      scratch.Offload(spec.sample_size, spec.max_hot_items);
  out.checks["offload_plan_matches"] = SamePlan(offload.plan, report.plan);
  const LayerReplay replay = ReplayLayers(spec, scratch, offload.hot_order,
                                          offload.plan, log, &out);
  const std::map<std::string, double>& ns = replay.ns_per_call;

  // Lifecycles: a warm-up pair, then untraced / traced pairs (alternating
  // which goes first) for the rest of the budget, each with one more
  // offload replay so phases and Offload are timed over the same period.
  out.warmup_wall_s = RunLifecycle(spec, nullptr).wall_s;
  {
    SpanLog discard;
    RunLifecycle(spec, &discard);
  }
  while (untraced->size() < 3 || Seconds(begin, Clock::now()) < seconds) {
    if (untraced->size() % 2 == 0) {
      untraced->push_back(RunLifecycle(spec, nullptr));
      traced->push_back(RunLifecycle(spec, &log));
    } else {
      traced->push_back(RunLifecycle(spec, &log));
      untraced->push_back(RunLifecycle(spec, nullptr));
    }
    out.checks["offload_plan_matches"] =
        out.checks["offload_plan_matches"] &&
        SamePlan(ReplayOffload(spec, log).plan, report.plan);
  }
  CheckReps(Pointers(*untraced, *traced), /*uncounted=*/0, &out);

  const Rep& r = untraced->front();
  const core::Metrics& m = r.metrics;
  const double committed = static_cast<double>(m.committed);
  const auto per_txn = [&](const char* counter) {
    return Ratio(r.counters.at(counter), committed);
  };
  const double sw_txns = r.counters.at("switch.txns_completed");
  const auto per_sw_txn = [&](const char* counter) {
    return Ratio(r.counters.at(counter), sw_txns);
  };
  std::map<std::string, double>& L = out.metrics;

  std::vector<double> run_s, wall_u, wall_t, offload_s;
  for (const Rep& u : *untraced) {
    run_s.push_back(u.run_s);
    wall_u.push_back(u.wall_s);
    offload_s.push_back(u.offload_s);
  }
  for (const Rep& t : *traced) {
    wall_t.push_back(t.wall_s);
    offload_s.push_back(t.offload_s);
  }
  // Base of every est_share: host ns per committed txn inside Engine::Run.
  const double run_ns_per_txn = Ratio(Median(run_s) * 1e9, committed);
  L["harness.run_ns_per_txn"] = run_ns_per_txn;
  L["trace.overhead_s"] = Median(wall_t) - Median(wall_u);

  // offload
  const double phases = log.MedianOf("offload.sample") +
                        log.MedianOf("offload.observe") +
                        log.MedianOf("offload.topk") +
                        log.MedianOf("offload.graph") +
                        log.MedianOf("offload.plan");
  L["offload.sample_s"] = log.MedianOf("offload.sample");
  L["offload.observe_s"] = log.MedianOf("offload.observe");
  L["offload.topk_s"] = log.MedianOf("offload.topk");
  L["offload.graph_s"] = log.MedianOf("offload.graph");
  L["offload.plan_s"] = log.MedianOf("offload.plan");
  L["offload.install_s"] = Median(offload_s) - phases;
  L["offload.hot_items"] = static_cast<double>(report.offloaded_hot_items);
  L["offload.graph_edges"] = static_cast<double>(offload.graph_edges);
  L["offload.cut_quality"] =
      Ratio(static_cast<double>(offload.plan.cut_weight),
            static_cast<double>(offload.plan.total_weight));
  {
    std::vector<double> sorted = offload_s;
    std::sort(sorted.begin(), sorted.end());
    const double spread = sorted.back() - sorted.front();
    out.advisories["offload_replay_within_spread"] =
        phases <= Median(offload_s) + spread;
  }

  // Replay-timed layers: ns per call, calls per committed txn, est_share.
  const auto share = [&](const std::string& layer, double calls_per_txn) {
    L[layer + ".est_share"] =
        Ratio(ns.at(layer) * calls_per_txn, run_ns_per_txn);
  };
  const double sw_per_txn = Ratio(sw_txns, committed);
  L["workload.ns_per_txn"] = ns.at("workload");
  share("workload", 1.0);
  L["classify.ns_per_txn"] = ns.at("classify");
  share("classify", 1.0);
  L["compile.ns_per_txn"] = ns.at("compile");
  L["compile.predicted_passes_mean"] = replay.predicted_passes_mean;
  share("compile", sw_per_txn);

  // db/table
  L["table.ns_per_get"] = ns.at("table");
  share("table", replay.host_ops_per_txn);
  L["table.rows_materialized"] = static_cast<double>(r.rows_after_run);
  L["table.rows_per_txn"] =
      Ratio(static_cast<double>(r.rows_after_run - r.rows_after_offload),
            committed);

  // cc + lock_manager
  L["lock.node.acquisitions_per_txn"] = per_txn("lock.node.acquisitions");
  L["lock.node.waits_per_txn"] = per_txn("lock.node.waits");
  L["lock.node.no_wait_aborts_per_txn"] = per_txn("lock.node.no_wait_aborts");
  L["lock.ns_per_acquire"] = ns.at("lock");
  share("lock", per_txn("lock.node.acquisitions"));

  // db/wal
  L["wal.host_commits_per_txn"] = per_txn("wal.host_commits");
  L["wal.switch_intents_per_txn"] = per_txn("wal.switch_intents");
  L["wal.logged_writes_per_txn"] = per_txn("wal.logged_writes");
  L["wal.ns_per_append"] = ns.at("wal");
  share("wal", per_txn("wal.host_commits") + per_txn("wal.switch_intents"));

  // net + egress_batcher
  L["net.messages_per_txn"] = per_txn("net.messages_sent");
  L["net.bytes_per_txn"] = per_txn("net.bytes_sent");
  L["net.batched_txns_per_batch"] = Ratio(r.counters.at("net.batched_txns"),
                                          r.counters.at("net.batches_sent"));
  L["codec.ns_per_packet"] = ns.at("codec");
  share("codec", sw_per_txn);

  // switchsim
  L["switch.txns_per_txn"] = sw_per_txn;
  L["switch.passes_per_switch_txn"] = per_sw_txn("switch.total_passes");
  L["switch.multi_pass_frac"] = per_sw_txn("switch.multi_pass_txns");
  L["switch.lock_blocked_recircs_per_switch_txn"] =
      per_sw_txn("switch.lock_blocked_recircs");
  L["switch.holder_recircs_per_switch_txn"] =
      per_sw_txn("switch.holder_recircs");
  L["switch.constrained_write_failures"] =
      per_txn("switch.constrained_write_failures");
  L["switch.recircs_p99"] = r.recircs_p99;
  L["switch.ns_per_txn"] = ns.at("switch");
  share("switch", sw_per_txn);

  // sim
  const double events = static_cast<double>(r.events);
  L["sim.events_per_txn"] = Ratio(events, committed);
  L["sim.host_ns_per_event"] = Ratio(Median(run_s) * 1e9, events);
  if (r.shard_events.empty()) {
    // Legacy runtime: one event queue holds every event.
    L["sim.switch_shard_event_share"] = 0;
    L["sim.max_shard_event_share"] = 1;
  } else {
    L["sim.switch_shard_event_share"] =
        Ratio(static_cast<double>(r.shard_events.back()), events);
    L["sim.max_shard_event_share"] = Ratio(
        static_cast<double>(*std::max_element(r.shard_events.begin(),
                                              r.shard_events.end())),
        events);
  }

  // engine
  const double shed = r.counters.at("engine.admission_shed");
  const double gaveup = r.counters.at("engine.txn_gaveup");
  L["engine.attempts_per_txn"] =
      Ratio(committed + static_cast<double>(m.aborted_attempts), committed);
  L["engine.admission_depth_p99"] = r.admission_depth_p99;
  L["engine.admission_shed_frac"] =
      Ratio(shed, shed + r.counters.at("engine.admission_admitted"));
  std::vector<double> allocs;
  for (const Rep& t : *traced) {
    allocs.push_back(
        Ratio(static_cast<double>(t.window_allocs), committed));
  }
  L["engine.allocs_per_txn"] = Median(allocs);
  L["engine.failed_frac"] = Ratio(shed + gaveup, committed + shed + gaveup);
  L["engine.abort_rate"] = m.AbortRate();

  // Simulated attribution (Metrics::breakdown), us per committed txn.
  const core::TxnTimers& b = m.breakdown;
  const auto cp_us = [&](int64_t ns_sum) {
    return Ratio(static_cast<double>(ns_sum) / 1e3, committed);
  };
  L["cp.lock_wait_us"] = cp_us(b.lock_wait);
  L["cp.remote_access_us"] = cp_us(b.remote_access);
  L["cp.switch_access_us"] = cp_us(b.switch_access);
  L["cp.local_work_us"] = cp_us(b.local_work);
  L["cp.commit_us"] = cp_us(b.commit);
  L["cp.backoff_us"] = cp_us(b.backoff);
  const struct {
    const char* name;
    db::TxnClass cls;
  } kClasses[] = {{"hot", db::TxnClass::kHot},
                  {"warm", db::TxnClass::kWarm},
                  {"cold", db::TxnClass::kCold}};
  for (const auto& c : kClasses) {
    const int i = static_cast<int>(c.cls);
    const std::string p = std::string("class.") + c.name;
    const double cls_committed = static_cast<double>(m.committed_by_class[i]);
    const double cls_aborts = static_cast<double>(m.aborts_by_class[i]);
    L[p + ".frac"] = Ratio(cls_committed, committed);
    L[p + ".p99_us"] = InterpQuantile(m.latency_by_class[i], 0.99) / 1e3;
    L[p + ".abort_rate"] = Ratio(cls_aborts, cls_committed + cls_aborts);
  }
  return out;
}

// ---------------------------------------------------------------------------

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--mode e2e|trace\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload;
  std::string mode = "e2e";
  uint64_t seed = 42;
  double seconds = 10;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--mode") {
      mode = value;
    } else {
      return Usage();
    }
  }
  std::vector<Spec> subs;
  for (size_t k = 0; k < kSubSeeds; ++k) {
    std::optional<Spec> spec = MakeSpec(workload, SubSeed(seed, k));
    if (!spec) return Usage();
    subs.push_back(std::move(*spec));
  }
  if (mode != "e2e" && mode != "trace") return Usage();

  SpanLog log;
  std::vector<Rep> reps;
  std::vector<Rep> traced;
  const Outcome out = mode == "e2e"
                          ? RunEndToEnd(subs, seconds, &reps)
                          : RunTrace(subs[0], seconds, log, &reps, &traced);

  Json j;
  j.Open('{');
  j.Key("workload");
  j.Str(workload);
  j.Key("seed");
  j.Num(static_cast<double>(seed));
  j.Key("sub_seeds");
  j.Num(mode == "e2e" ? static_cast<double>(kSubSeeds) : 1.0);
  j.Key("mode");
  j.Str(mode);
  j.Key("committed");
  j.Num(static_cast<double>(reps.front().metrics.committed));
  j.Key("digest");
  char digest[24];
  std::snprintf(digest, sizeof(digest), "%016" PRIx64, reps.front().digest);
  j.Str(digest);
  j.Key("warmup_wall_s");
  j.Num(out.warmup_wall_s);
  j.Key("sim_samples");
  j.Num(static_cast<double>(out.sim_samples));
  j.Key("attempted");
  j.Num(static_cast<double>(out.attempted));
  j.Key("failed");
  j.Num(static_cast<double>(out.failed));
  j.Key("checks");
  j.Open('{');
  for (const auto& [k, v] : out.checks) {
    j.Key(k);
    j.Bool(v);
  }
  j.Close('}');
  j.Key("advisories");
  j.Open('{');
  for (const auto& [k, v] : out.advisories) {
    j.Key(k);
    j.Bool(v);
  }
  j.Close('}');
  WriteNumMap(j, "metrics", out.metrics);
  WriteReps(j, "reps", reps);
  WriteReps(j, "traced_reps", traced);
  j.Key("spans");
  j.Open('{');
  for (const auto& [name, durations] : log.spans()) {
    double total = 0;
    for (const double d : durations) total += d;
    j.Key(name);
    j.Open('{');
    j.Key("count");
    j.Num(static_cast<double>(durations.size()));
    j.Key("total_s");
    j.Num(total);
    j.Key("median_s");
    j.Num(Median(durations));
    j.Close('}');
  }
  j.Close('}');
  j.Close('}');
  std::printf("%s\n", j.str().c_str());
  return 0;
}

}  // namespace
}  // namespace p4db::perfbench

int main(int argc, char** argv) {
  return p4db::perfbench::Main(argc, argv);
}
