#ifndef P4DB_BENCH_BENCH_COMMON_H_
#define P4DB_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <functional>
#include <memory>
#include <string>

#include "core/engine.h"
#include "workload/smallbank.h"
#include "workload/tpcc.h"
#include "workload/ycsb.h"

namespace p4db::bench {

/// Wall-clock budget knobs shared by all figure benches. The defaults give
/// stable numbers; `P4DB_BENCH_QUICK=1` in the environment shrinks the
/// simulated horizon ~4x for smoke runs.
struct BenchTime {
  SimTime warmup = 2 * kMillisecond;
  SimTime measure = 10 * kMillisecond;

  static BenchTime FromEnv();
};

/// Everything one simulated run produces.
struct RunOutput {
  core::Metrics metrics;
  sw::PipelineStats pipeline;
  core::OffloadReport offload;
  double throughput = 0;      // committed txn/s (simulated time)
  double wall_seconds = 0;    // host wall-clock spent inside Engine::Run
  uint64_t sim_events = 0;    // simulator events executed by the run
  uint64_t events_per_sec = 0;  // sim_events / wall_seconds, rounded
  std::string metrics_json;   // engine MetricsRegistry dump for this run
  std::string time_series_json;  // Sampler::ToJson for this run
  std::string critical_path_json;  // Engine::CriticalPathJson (INT runs only)
};

/// Virtual-time sampling window used by every RunWorkload: committed /
/// aborted / switch-txn rates and windowed p99 latency per tick, embedded as
/// "time_series" in each BENCH_<name>.json run entry.
constexpr SimTime kSamplerTick = 100 * kMicrosecond;

/// Parses harness-wide flags out of argv (--trace=PATH, --threads=N,
/// --open-loop[=TXN_PER_S], --offered-load=TXN_PER_S, --batch=N, --int,
/// --int-wire-cost). Benches call this first in main; unrecognized
/// arguments are ignored.
void ParseBenchArgs(int argc, char** argv);

/// Path from --trace=PATH, empty when tracing was not requested. The first
/// kP4db RunWorkload of the process captures a full trace and writes the
/// Chrome trace_event file there (open in Perfetto / chrome://tracing).
const std::string& TracePath();

/// Worker-thread count from --threads=N (0 = legacy single-thread runtime).
/// RunWorkload applies it to every run the parallel sharded runtime
/// supports (2PL, P4DB / No-Switch, thread-safe workload generation) and
/// silently keeps the rest on the legacy runtime, so `--threads=4` is safe
/// on any figure bench.
int BenchThreads();

/// Cluster-wide offered load in txn/s from --open-loop / --offered-load
/// (0 = closed loop). RunWorkload switches every run to the open-loop
/// arrival engine at this rate when set.
double BenchOfferedLoad();

/// Egress batch size from --batch=N (1 = batching off). RunWorkload applies
/// it to every run the batcher supports (P4DB mode, single switch) and
/// silently keeps the rest unbatched, so `--batch=8` is safe on any bench.
uint32_t BenchBatchSize();

/// INT telemetry from --int (postcard mode, zero modeled wire cost) and
/// --int-wire-cost (implies --int; telemetry bytes charged to every
/// request, recirculation and reply). RunWorkload arms INT on the runs that
/// support it (P4DB mode, either CC protocol) and each armed run's BENCH
/// entry gains a "critical_path" section.
bool BenchIntEnabled();
bool BenchIntWireCost();

/// Builds an Engine for `config`, offloads `max_hot_items` detected from
/// `sample_size` sampled transactions, runs the closed loop, and collects
/// results. The workload object must outlive the call.
RunOutput RunWorkload(const core::SystemConfig& config, wl::Workload* workload,
                      size_t sample_size, size_t max_hot_items,
                      const BenchTime& time);

/// Baseline cluster configuration used by all figure benches: the paper's
/// 8-node rack (Section 7.1).
core::SystemConfig PaperCluster(core::EngineMode mode);

/// Hot-item budgets for the standard workload setups.
size_t YcsbHotItems(const wl::YcsbConfig& cfg, uint16_t num_nodes);
size_t SmallBankHotItems(const wl::SmallBankConfig& cfg, uint16_t num_nodes);
constexpr size_t kTpccHotItemBudget = 2000;

/// Formatting helpers: all figure benches print aligned rows so the bench
/// output is diffable run-to-run.
///
/// PrintBanner also names the benchmark for machine-readable output: every
/// subsequent RunWorkload appends its MetricsRegistry dump to an in-memory
/// list that is written to BENCH_<name>.json when the process exits.
void PrintBanner(const char* figure, const char* description);
void PrintSectionHeader(const std::string& text);

/// Appends one raw JSON object to the BENCH_<name>.json runs list — the
/// escape hatch for benches whose unit of output is not a RunWorkload
/// (e.g. bench_failover's per-bucket throughput timeline).
void AppendRunEntry(const std::string& json_entry);

inline double Speedup(double a, double b) { return b == 0 ? 0 : a / b; }

}  // namespace p4db::bench

#endif  // P4DB_BENCH_BENCH_COMMON_H_
