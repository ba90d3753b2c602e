// Transaction hot-path benchmark: wall-clock txns/sec and heap
// allocations per committed transaction, on the single-node (allocation
// discipline) and 8-node figure-11 (end-to-end speed) configurations.
//
// Unlike the figure benches this one measures the HARNESS, not the
// simulated system: simulated throughput is deterministic and identical
// across harness changes, so the interesting outputs are
// wall_txns_per_sec (committed transactions per host second) and
// allocs_per_txn (global operator-new calls inside the measured window per
// committed transaction). Both land in BENCH_hotpath.json for the CI
// perf gate.
//
// The single-node scenarios materialize their bounded working set up front
// and must read exactly zero. The 8-node scenarios keep the lazily
// materialized 10^9-key tables, so their windows still allocate, but only
// in the row store's growth: one chunk per 1,024 new rows of a table and
// one index block per doubling (db/table.h), not per row.

#include <algorithm>
#include <cinttypes>
#include <cstdlib>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "../tests/alloc_counter.h"
#include "bench_common.h"

namespace p4db::bench {
namespace {

struct HotpathRun {
  core::Metrics metrics;
  double wall_seconds = 0;
  double wall_txns_per_sec = 0;  // committed / host wall seconds
  uint64_t window_allocs = 0;    // operator-new calls in measured window
  uint64_t window_frees = 0;
  double allocs_per_txn = 0;
};

/// Steady-state preparation for the strict zero-allocation scenarios: every
/// row of a bounded working set is materialized up front (GetOrCreate in
/// the measured window then only looks up) and the growable bookkeeping —
/// WAL segments, the OCC version table — is pre-sized past the run's
/// high-water mark. 0 = skip (unbounded workloads such as the figure-11
/// cluster keep their lazily-materialized 10^9-key table).
struct SteadyStatePrep {
  uint64_t materialize_keys = 0;
  size_t wal_records_per_node = 0;
  size_t wal_payload_bytes_per_node = 0;
};

void Prepare(core::Engine& engine, const SteadyStatePrep& prep) {
  if (prep.materialize_keys == 0) return;
  db::Catalog& catalog = engine.catalog();
  for (TableId t = 0; t < catalog.num_tables(); ++t) {
    db::Table& table = catalog.table(t);
    for (uint64_t k = 0; k < prep.materialize_keys; ++k) {
      table.GetOrCreate(static_cast<Key>(k));
    }
  }
  engine.ReserveSteadyState(prep.materialize_keys, prep.wal_records_per_node,
                            prep.wal_payload_bytes_per_node);
}

/// Like RunWorkload, but brackets the measured window with allocation
/// snapshots. Both snapshot events are scheduled before Run, so at their
/// timestamps they hold the smallest sequence numbers and fire before any
/// same-instant transaction work: `begin` just after the warmup boundary
/// (Run's own metrics/registry reset allocates and must stay outside the
/// window), `end` exactly at the horizon before teardown.
HotpathRun RunHotpath(const core::SystemConfig& config, wl::Workload* workload,
                      size_t sample_size, size_t max_hot_items,
                      const BenchTime& time,
                      const SteadyStatePrep& prep = {},
                      bool trace_full = false) {
  core::Engine engine(config);
  engine.SetWorkload(workload);
  engine.Offload(sample_size, max_hot_items);
  Prepare(engine, prep);
  // Full-run tracing: the ring is the one allocation, made here, before the
  // measured window. Recording itself must stay allocation-free.
  if (trace_full) engine.EnableFullTrace();

  // P4DB_TRAP_ALLOCS=1 turns the first in-window allocation into a trap so
  // a debugger shows the offending stack (strict scenarios only).
  // ScheduleGlobalAt dispatches to both runtimes; in sharded mode the
  // snapshots run as quiescent coordinator globals, so they observe every
  // shard's allocations at a consistent instant.
  const bool trap =
      prep.materialize_keys != 0 && std::getenv("P4DB_TRAP_ALLOCS") != nullptr;
  testing::AllocSnapshot begin, end;
  engine.ScheduleGlobalAt(time.warmup + 1, [&begin, trap] {
    begin = testing::CaptureAllocs();
    if (trap) testing::SetAllocTrap(true);
  });
  engine.ScheduleGlobalAt(time.warmup + time.measure, [&end] {
    testing::SetAllocTrap(false);
    end = testing::CaptureAllocs();
  });

  HotpathRun out;
  const auto wall_start = std::chrono::steady_clock::now();
  out.metrics = engine.Run(time.warmup, time.measure);
  const auto wall_end = std::chrono::steady_clock::now();
  out.wall_seconds =
      std::chrono::duration<double>(wall_end - wall_start).count();
  out.wall_txns_per_sec =
      out.wall_seconds > 0
          ? static_cast<double>(out.metrics.committed) / out.wall_seconds
          : 0;
  out.window_allocs = end.allocs - begin.allocs;
  out.window_frees = end.frees - begin.frees;
  out.allocs_per_txn =
      out.metrics.committed > 0
          ? static_cast<double>(out.window_allocs) /
                static_cast<double>(out.metrics.committed)
          : 0;
  return out;
}

void Record(const char* scenario, const core::SystemConfig& config,
            const wl::Workload& workload, const HotpathRun& run) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"scenario\": \"%s\", \"mode\": \"%s\", \"cc\": \"%s\", "
      "\"workload\": \"%s\", \"nodes\": %u, \"committed\": %" PRIu64
      ", \"wall_seconds\": %.6f, \"wall_txns_per_sec\": %.0f, "
      "\"window_allocs\": %" PRIu64 ", \"window_frees\": %" PRIu64
      ", \"allocs_per_txn\": %.3f}",
      scenario, core::EngineModeName(config.mode),
      core::CcProtocolName(config.cc_protocol), workload.name().c_str(),
      config.num_nodes, run.metrics.committed, run.wall_seconds,
      run.wall_txns_per_sec, run.window_allocs, run.window_frees,
      run.allocs_per_txn);
  AppendRunEntry(buf);
  std::printf("%-24s %-9s %-4s %-10s %10" PRIu64 " %12.0f %12" PRIu64
              " %10.3f\n",
              scenario, core::EngineModeName(config.mode),
              core::CcProtocolName(config.cc_protocol),
              workload.name().c_str(), run.metrics.committed,
              run.wall_txns_per_sec, run.window_allocs, run.allocs_per_txn);
}

core::SystemConfig SingleNode(core::CcProtocol cc) {
  core::SystemConfig cfg;
  cfg.mode = core::EngineMode::kNoSwitch;
  cfg.num_nodes = 1;
  cfg.workers_per_node = 20;
  cfg.cc_protocol = cc;
  cfg.seed = 42;
  return cfg;
}

void RunAll(const BenchTime& time) {
  std::printf("%-24s %-9s %-4s %-10s %10s %12s %12s %10s\n", "scenario",
              "mode", "cc", "workload", "committed", "wall-txn/s", "allocs",
              "allocs/txn");

  // Allocation discipline: single-node, everything host-local, bounded
  // working set materialized up front. Steady state must then be EXACTLY
  // zero heap allocations per committed transaction — any regression here
  // is a new per-txn allocation on the hot path.
  SteadyStatePrep prep;
  prep.materialize_keys = 100000;
  // Checkpoints recycle WAL segments: reserve the few checkpoint intervals
  // a node retains, not the run.
  prep.wal_records_per_node = 4096;
  prep.wal_payload_bytes_per_node = 2 << 20;
  {
    wl::YcsbConfig wcfg;
    wcfg.variant = 'A';
    wcfg.table_size = prep.materialize_keys;
    const core::SystemConfig cfg = SingleNode(core::CcProtocol::k2pl);
    wl::Ycsb workload(wcfg);
    Record("alloc_ycsb_2pl_1node", cfg, workload,
           RunHotpath(cfg, &workload, 20000, YcsbHotItems(wcfg, 1), time,
                      prep));
  }
  {
    wl::YcsbConfig wcfg;
    wcfg.variant = 'A';
    wcfg.table_size = prep.materialize_keys;
    const core::SystemConfig cfg = SingleNode(core::CcProtocol::kOcc);
    wl::Ycsb workload(wcfg);
    Record("alloc_ycsb_occ_1node", cfg, workload,
           RunHotpath(cfg, &workload, 20000, YcsbHotItems(wcfg, 1), time,
                      prep));
  }
  {
    wl::SmallBankConfig wcfg;
    wcfg.num_accounts = prep.materialize_keys;
    const core::SystemConfig cfg = SingleNode(core::CcProtocol::k2pl);
    wl::SmallBank workload(wcfg);
    Record("alloc_smallbank_2pl_1node", cfg, workload,
           RunHotpath(cfg, &workload, 20000, SmallBankHotItems(wcfg, 1),
                      time, prep));
  }

  // End-to-end speed: the figure-11 cluster (8 nodes, 20 workers/node,
  // YCSB-A, 20% distributed) under P4DB and No-Switch, plus SmallBank.
  HotpathRun fig11_p4db;
  {
    wl::YcsbConfig wcfg;
    wcfg.variant = 'A';
    const core::SystemConfig cfg = PaperCluster(core::EngineMode::kP4db);
    wl::Ycsb workload(wcfg);
    fig11_p4db = RunHotpath(cfg, &workload, 20000,
                            YcsbHotItems(wcfg, cfg.num_nodes), time);
    Record("fig11_ycsb_p4db_8node", cfg, workload, fig11_p4db);
  }
  {
    wl::YcsbConfig wcfg;
    wcfg.variant = 'A';
    const core::SystemConfig cfg = PaperCluster(core::EngineMode::kNoSwitch);
    wl::Ycsb workload(wcfg);
    Record("fig11_ycsb_noswitch_8node", cfg, workload,
           RunHotpath(cfg, &workload, 20000,
                      YcsbHotItems(wcfg, cfg.num_nodes), time));
  }
  {
    wl::SmallBankConfig wcfg;
    const core::SystemConfig cfg = PaperCluster(core::EngineMode::kP4db);
    wl::SmallBank workload(wcfg);
    Record("smallbank_p4db_8node", cfg, workload,
           RunHotpath(cfg, &workload, 20000,
                      SmallBankHotItems(wcfg, cfg.num_nodes), time));
  }

  // Overhead of a passive observer (full-run tracing, INT postcards): the
  // figure-11 P4DB run plain and armed, in kOverheadPairs interleaved
  // pairs so host-speed drift hits both sides of each pair alike. The
  // reported ratio is the median of the per-pair plain/armed wall ratios,
  // gated in CI at <10%. Observers are passive, so every armed run must
  // commit exactly what the plain run commits.
  constexpr int kOverheadPairs = 5;
  const auto overhead = [&](const char* armed_scenario,
                            const char* ratio_scenario,
                            const char* plain_field, const char* armed_field,
                            const char* label, bool int_telemetry,
                            bool trace_full) {
    wl::YcsbConfig wcfg;
    wcfg.variant = 'A';
    core::SystemConfig plain_cfg = PaperCluster(core::EngineMode::kP4db);
    core::SystemConfig armed_cfg = plain_cfg;
    armed_cfg.int_telemetry.enabled = int_telemetry;
    std::vector<double> ratios;
    // The armed runs' commit count, or the first one that differs from the
    // plain run's (which the CI gate then flags).
    uint64_t armed_committed = fig11_p4db.metrics.committed;
    for (int pair = 0; pair < kOverheadPairs; ++pair) {
      wl::Ycsb plain_workload(wcfg);
      const HotpathRun plain =
          RunHotpath(plain_cfg, &plain_workload, 20000,
                     YcsbHotItems(wcfg, plain_cfg.num_nodes), time);
      wl::Ycsb armed_workload(wcfg);
      const HotpathRun armed = RunHotpath(
          armed_cfg, &armed_workload, 20000,
          YcsbHotItems(wcfg, armed_cfg.num_nodes), time, {}, trace_full);
      if (pair == 0) Record(armed_scenario, armed_cfg, armed_workload, armed);
      for (const HotpathRun* r : {&plain, &armed}) {
        if (armed_committed == fig11_p4db.metrics.committed &&
            r->metrics.committed != fig11_p4db.metrics.committed) {
          armed_committed = r->metrics.committed;
        }
      }
      if (armed.wall_txns_per_sec > 0) {
        ratios.push_back(plain.wall_txns_per_sec / armed.wall_txns_per_sec);
      }
    }
    const bool passive = armed_committed == fig11_p4db.metrics.committed;
    if (!passive) {
      std::printf("WARNING: %s committed differs from the plain run — the "
                  "observer is not passive!\n",
                  armed_scenario);
    }
    std::sort(ratios.begin(), ratios.end());
    const double overhead_ratio =
        ratios.empty() ? 0 : ratios[ratios.size() / 2];
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"scenario\": \"%s\", "
                  "\"overhead_ratio\": %.4f, \"%s\": %" PRIu64
                  ", \"%s\": %" PRIu64 "}",
                  ratio_scenario, overhead_ratio, plain_field,
                  fig11_p4db.metrics.committed, armed_field,
                  armed_committed);
    AppendRunEntry(buf);
    std::printf("%-24s %s on/off wall ratio %.3fx, median of %d pairs "
                "(committed %s)\n",
                ratio_scenario, label, overhead_ratio, kOverheadPairs,
                passive ? "identical" : "DIFFER");
  };
  overhead("fig11_ycsb_p4db_traced", "tracing_overhead", "untraced_committed",
           "traced_committed", "tracing", /*int_telemetry=*/false,
           /*trace_full=*/true);
  overhead("fig11_ycsb_p4db_int", "int_overhead", "plain_committed",
           "int_committed", "INT", /*int_telemetry=*/true,
           /*trace_full=*/false);

  // Parallel scaling: the figure-11 YCSB cluster on the sharded runtime at
  // 1, 2, 4 and 8 worker threads. Two outputs with very different gating:
  // wall_txns_per_sec is machine-dependent (a 1-core CI runner shows no
  // speedup; an 8-core box should approach linear) and is only reported,
  // while parallel_committed_parity is machine-INDEPENDENT — every thread
  // count must commit exactly what threads=1 commits, because event
  // delivery order is a function of the seed, never of thread scheduling.
  {
    const int kThreadCounts[] = {1, 2, 4, 8};
    uint64_t committed_t1 = 0;
    double wall_t1 = 0;
    double wall_t8 = 0;
    bool parity = true;
    for (const int threads : kThreadCounts) {
      wl::YcsbConfig wcfg;
      wcfg.variant = 'A';
      core::SystemConfig cfg = PaperCluster(core::EngineMode::kP4db);
      cfg.threads = threads;
      wl::Ycsb workload(wcfg);
      const HotpathRun run = RunHotpath(
          cfg, &workload, 20000, YcsbHotItems(wcfg, cfg.num_nodes), time);
      if (threads == 1) {
        committed_t1 = run.metrics.committed;
        wall_t1 = run.wall_txns_per_sec;
      }
      if (threads == 8) wall_t8 = run.wall_txns_per_sec;
      const bool same = run.metrics.committed == committed_t1;
      parity = parity && same;
      char buf[384];
      std::snprintf(
          buf, sizeof(buf),
          "{\"scenario\": \"scaling_ycsb_p4db_t%d\", \"mode\": \"%s\", "
          "\"cc\": \"%s\", \"workload\": \"%s\", \"nodes\": %u, "
          "\"threads\": %d, \"committed\": %" PRIu64
          ", \"wall_seconds\": %.6f, \"wall_txns_per_sec\": %.0f, "
          "\"parallel_committed_parity\": %s}",
          threads, core::EngineModeName(cfg.mode),
          core::CcProtocolName(cfg.cc_protocol), workload.name().c_str(),
          cfg.num_nodes, threads, run.metrics.committed, run.wall_seconds,
          run.wall_txns_per_sec, same ? "true" : "false");
      AppendRunEntry(buf);
      std::printf("scaling_ycsb_p4db_t%-5d P4DB      2PL  YCSB-A     "
                  "%10" PRIu64 " %12.0f   parity=%s\n",
                  threads, run.metrics.committed, run.wall_txns_per_sec,
                  same ? "yes" : "NO");
    }
    const double speedup_t8 = wall_t1 > 0 ? wall_t8 / wall_t1 : 0;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"scenario\": \"scaling_summary\", "
                  "\"parallel_committed_parity\": %s, "
                  "\"committed_t1\": %" PRIu64 ", \"speedup_t8\": %.3f}",
                  parity ? "true" : "false", committed_t1, speedup_t8);
    AppendRunEntry(buf);
    std::printf("%-24s threads=8 vs threads=1 wall speedup %.2fx "
                "(committed %s across thread counts)\n",
                "scaling_summary", speedup_t8,
                parity ? "identical" : "DIFFER");
  }
}

}  // namespace
}  // namespace p4db::bench

int main() {
  using namespace p4db::bench;
  const BenchTime time = BenchTime::FromEnv();
  PrintBanner("hotpath",
              "transaction hot path: wall-clock txns/sec + allocations/txn");
  RunAll(time);
  return 0;
}
