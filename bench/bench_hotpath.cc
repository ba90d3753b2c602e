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

#include <cinttypes>
#include <cstdlib>
#include <chrono>
#include <cstdio>
#include <string>

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
/// WAL record index + payload arena, the OCC version table — is pre-sized
/// past the run's high-water mark. 0 = skip (unbounded workloads such as
/// the figure-11 cluster keep their lazily-materialized 10^9-key table).
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
  prep.wal_records_per_node = 1 << 18;
  prep.wal_payload_bytes_per_node = 16 << 20;
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

  // Tracing overhead: the figure-11 P4DB run again with a full-run tracer
  // armed. Tracing is passive, so the simulated results must be identical
  // to the untraced run; the wall-clock ratio is the recording cost, gated
  // in CI at <10%.
  {
    wl::YcsbConfig wcfg;
    wcfg.variant = 'A';
    const core::SystemConfig cfg = PaperCluster(core::EngineMode::kP4db);
    wl::Ycsb workload(wcfg);
    const HotpathRun traced =
        RunHotpath(cfg, &workload, 20000, YcsbHotItems(wcfg, cfg.num_nodes),
                   time, {}, /*trace_full=*/true);
    Record("fig11_ycsb_p4db_traced", cfg, workload, traced);
    if (traced.metrics.committed != fig11_p4db.metrics.committed) {
      std::printf("WARNING: traced committed %" PRIu64
                  " != untraced %" PRIu64 " — tracing is not passive!\n",
                  traced.metrics.committed, fig11_p4db.metrics.committed);
    }
    const double overhead_ratio =
        traced.wall_txns_per_sec > 0
            ? fig11_p4db.wall_txns_per_sec / traced.wall_txns_per_sec
            : 0;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"scenario\": \"tracing_overhead\", "
                  "\"overhead_ratio\": %.4f, \"untraced_committed\": %" PRIu64
                  ", \"traced_committed\": %" PRIu64 "}",
                  overhead_ratio, fig11_p4db.metrics.committed,
                  traced.metrics.committed);
    AppendRunEntry(buf);
    std::printf("%-24s tracing on/off wall ratio %.3fx (committed %s)\n",
                "tracing_overhead", overhead_ratio,
                traced.metrics.committed == fig11_p4db.metrics.committed
                    ? "identical"
                    : "DIFFER");
  }

  // INT overhead: the figure-11 P4DB run again with postcard telemetry
  // armed. Stamping and folding are passive — the simulated event schedule
  // (and so the commit count) must be identical to the INT-off run; the
  // wall-clock ratio is the pure recording cost, gated in CI like tracing.
  {
    wl::YcsbConfig wcfg;
    wcfg.variant = 'A';
    core::SystemConfig cfg = PaperCluster(core::EngineMode::kP4db);
    cfg.int_telemetry.enabled = true;
    wl::Ycsb workload(wcfg);
    const HotpathRun armed = RunHotpath(
        cfg, &workload, 20000, YcsbHotItems(wcfg, cfg.num_nodes), time);
    Record("fig11_ycsb_p4db_int", cfg, workload, armed);
    if (armed.metrics.committed != fig11_p4db.metrics.committed) {
      std::printf("WARNING: INT committed %" PRIu64 " != plain %" PRIu64
                  " — postcard stamping is not passive!\n",
                  armed.metrics.committed, fig11_p4db.metrics.committed);
    }
    const double overhead_ratio =
        armed.wall_txns_per_sec > 0
            ? fig11_p4db.wall_txns_per_sec / armed.wall_txns_per_sec
            : 0;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"scenario\": \"int_overhead\", "
                  "\"overhead_ratio\": %.4f, \"plain_committed\": %" PRIu64
                  ", \"int_committed\": %" PRIu64 "}",
                  overhead_ratio, fig11_p4db.metrics.committed,
                  armed.metrics.committed);
    AppendRunEntry(buf);
    std::printf("%-24s INT on/off wall ratio %.3fx (committed %s)\n",
                "int_overhead", overhead_ratio,
                armed.metrics.committed == fig11_p4db.metrics.committed
                    ? "identical"
                    : "DIFFER");
  }

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
