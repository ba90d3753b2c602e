#include "bench_common.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <initializer_list>
#include <string_view>
#include <utility>
#include <vector>

#include "common/json_util.h"

namespace p4db::bench {

namespace {

// Machine-readable output: PrintBanner names the benchmark, every
// RunWorkload appends one entry, and an atexit hook flushes the collected
// runs to BENCH_<name>.json next to the binary's working directory.
std::string g_bench_name;                // sanitized, e.g. "fig11_ycsb"
std::vector<std::string> g_run_entries;  // one JSON object per run

std::string SanitizeBenchName(const char* figure) {
  std::string out;
  bool last_was_sep = true;  // swallow leading separators
  for (const char* p = figure; *p != '\0'; ++p) {
    const unsigned char c = static_cast<unsigned char>(*p);
    if (std::isalnum(c)) {
      out.push_back(static_cast<char>(std::tolower(c)));
      last_was_sep = false;
    } else if (!last_was_sep) {
      out.push_back('_');
      last_was_sep = true;
    }
  }
  while (!out.empty() && out.back() == '_') out.pop_back();
  return out.empty() ? std::string("bench") : out;
}

// --trace=PATH state: the first kP4db run of the process records a full
// trace and exports it there.
std::string g_trace_path;
bool g_trace_consumed = false;

// --threads=N state (0 = legacy runtime).
int g_threads = 0;

// --open-loop / --offered-load state (0 = closed loop) and --batch=N
// (1 = batching off).
double g_offered_load = 0.0;
uint32_t g_batch_size = 1;

// --int / --int-wire-cost state (both off = historical byte-identical runs).
bool g_int_enabled = false;
bool g_int_wire_cost = false;

// Default cluster-wide rate for a bare `--open-loop`: near the 8-node
// PaperCluster knee, so the flag alone produces an interesting run.
constexpr double kDefaultOfferedLoad = 4e6;

// Writes `content` via a temp file + rename so a reader (perf gate, another
// bench run tailing the file) never observes a half-written JSON document.
bool WriteFileAtomic(const std::string& path, const std::string& content) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) return false;
  const size_t written = std::fwrite(content.data(), 1, content.size(), f);
  const bool ok = std::fclose(f) == 0 && written == content.size();
  if (!ok) {
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

void FlushBenchJson() {
  if (g_bench_name.empty()) return;
  const std::string path = "BENCH_" + g_bench_name + ".json";
  std::string doc = "{\"bench\": \"" + JsonEscape(g_bench_name) +
                    "\", \"runs\": [";
  for (size_t i = 0; i < g_run_entries.size(); ++i) {
    doc += i == 0 ? "\n  " : ",\n  ";
    doc += g_run_entries[i];
  }
  doc += "\n]}\n";
  WriteFileAtomic(path, doc);
}

void RecordRun(const core::SystemConfig& config, const wl::Workload& workload,
               const RunOutput& out) {
  std::string entry = "{";
  entry += "\"mode\": \"";
  entry += JsonEscape(core::EngineModeName(config.mode));
  entry += "\", \"cc\": \"";
  entry += JsonEscape(core::CcProtocolName(config.cc_protocol));
  entry += "\", \"workload\": \"";
  entry += JsonEscape(workload.name());
  entry += "\"";
  char buf[64];
  if (config.threads > 0) {
    // Key present only for parallel-runtime runs so legacy entries (and
    // their committed baselines) keep the historical shape.
    std::snprintf(buf, sizeof(buf), ", \"threads\": %d", config.threads);
    entry += buf;
  }
  if (config.open_loop.enabled) {
    // Same rule as "threads": mode-specific keys only when the mode is on.
    std::snprintf(buf, sizeof(buf), ", \"offered_load\": %.0f",
                  config.open_loop.offered_load);
    entry += buf;
  }
  if (config.batch.size > 1) {
    std::snprintf(buf, sizeof(buf), ", \"batch\": %u", config.batch.size);
    entry += buf;
  }
  if (config.int_telemetry.enabled) {
    entry += config.int_telemetry.wire_cost ? ", \"int\": \"wire_cost\""
                                            : ", \"int\": \"postcard\"";
  }
  entry += ", \"throughput\": ";
  std::snprintf(buf, sizeof(buf), "%.1f", out.throughput);
  entry += buf;
  entry += ", \"committed\": ";
  std::snprintf(buf, sizeof(buf), "%llu",
                static_cast<unsigned long long>(out.metrics.committed));
  entry += buf;
  entry += ", \"abort_rate\": ";
  std::snprintf(buf, sizeof(buf), "%.4f", out.metrics.AbortRate());
  entry += buf;
  entry += ", \"wall_seconds\": ";
  std::snprintf(buf, sizeof(buf), "%.6f", out.wall_seconds);
  entry += buf;
  entry += ", \"events_per_sec\": ";
  std::snprintf(buf, sizeof(buf), "%llu",
                static_cast<unsigned long long>(out.events_per_sec));
  entry += buf;
  entry += ", \"registry\": ";
  entry += out.metrics_json;
  if (!out.time_series_json.empty()) {
    entry += ", \"time_series\": ";
    entry += out.time_series_json;
  }
  if (!out.critical_path_json.empty()) {
    entry += ", \"critical_path\": ";
    entry += out.critical_path_json;
  }
  entry += "}";
  g_run_entries.push_back(std::move(entry));
}

}  // namespace

BenchTime BenchTime::FromEnv() {
  BenchTime t;
  const char* quick = std::getenv("P4DB_BENCH_QUICK");
  if (quick != nullptr && quick[0] == '1') {
    t.warmup = 1 * kMillisecond;
    t.measure = 3 * kMillisecond;
  }
  return t;
}

void ParseBenchArgs(int argc, char** argv) {
  constexpr std::string_view kTrace = "--trace=";
  constexpr std::string_view kThreads = "--threads=";
  constexpr std::string_view kOpenLoop = "--open-loop=";
  constexpr std::string_view kOfferedLoad = "--offered-load=";
  constexpr std::string_view kBatch = "--batch=";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg.substr(0, kTrace.size()) == kTrace) {
      g_trace_path = std::string(arg.substr(kTrace.size()));
    } else if (arg.substr(0, kThreads.size()) == kThreads) {
      g_threads = std::atoi(std::string(arg.substr(kThreads.size())).c_str());
      if (g_threads < 0) g_threads = 0;
    } else if (arg == "--open-loop") {
      if (g_offered_load <= 0) g_offered_load = kDefaultOfferedLoad;
    } else if (arg.substr(0, kOpenLoop.size()) == kOpenLoop) {
      g_offered_load = std::atof(
          std::string(arg.substr(kOpenLoop.size())).c_str());
      if (g_offered_load < 0) g_offered_load = 0;
    } else if (arg.substr(0, kOfferedLoad.size()) == kOfferedLoad) {
      g_offered_load = std::atof(
          std::string(arg.substr(kOfferedLoad.size())).c_str());
      if (g_offered_load < 0) g_offered_load = 0;
    } else if (arg == "--int") {
      g_int_enabled = true;
    } else if (arg == "--int-wire-cost") {
      g_int_enabled = true;
      g_int_wire_cost = true;
    } else if (arg.substr(0, kBatch.size()) == kBatch) {
      const int v = std::atoi(std::string(arg.substr(kBatch.size())).c_str());
      g_batch_size = v < 1 ? 1
                           : std::min<uint32_t>(
                                 static_cast<uint32_t>(v),
                                 core::BatchConfig::kMaxBatchSize);
    }
  }
}

const std::string& TracePath() { return g_trace_path; }

int BenchThreads() { return g_threads; }

double BenchOfferedLoad() { return g_offered_load; }

uint32_t BenchBatchSize() { return g_batch_size; }

bool BenchIntEnabled() { return g_int_enabled; }

bool BenchIntWireCost() { return g_int_wire_cost; }

RunOutput RunWorkload(const core::SystemConfig& config, wl::Workload* workload,
                      size_t sample_size, size_t max_hot_items,
                      const BenchTime& time) {
  core::SystemConfig cfg = config;
  // Each flag applies only where ValidateConfig accepts the result; other
  // runs keep their configuration (an explicit field is honored as-is).
  const auto apply_if_valid = [&cfg](auto&& set) {
    core::SystemConfig candidate = cfg;
    set(candidate);
    if (core::ValidateConfig(candidate).ok()) cfg = candidate;
  };
  // --threads=N opts every compatible run into the parallel sharded
  // runtime; the rest stay on the legacy runtime. A thread-safe generator
  // is a workload property, so it is checked here.
  if (cfg.threads == 0 && g_threads > 0 &&
      workload->ThreadSafeGeneration()) {
    apply_if_valid([](core::SystemConfig& c) { c.threads = g_threads; });
  }
  // --open-loop / --offered-load switches any run to open-loop arrivals;
  // --batch=N arms the egress batcher on the runs that support it.
  if (!cfg.open_loop.enabled && g_offered_load > 0) {
    cfg.open_loop.enabled = true;
    cfg.open_loop.offered_load = g_offered_load;
  }
  if (cfg.batch.size == 1 && g_batch_size > 1) {
    apply_if_valid(
        [](core::SystemConfig& c) { c.batch.size = g_batch_size; });
  }
  // --int arms telemetry on the runs that support it; baselines and other
  // modes run byte-identical to an INT-free binary.
  if (!cfg.int_telemetry.enabled && g_int_enabled) {
    apply_if_valid([](core::SystemConfig& c) {
      c.int_telemetry.enabled = true;
      c.int_telemetry.wire_cost = g_int_wire_cost;
    });
  }
  core::Engine engine(cfg);
  engine.SetWorkload(workload);
  trace::Sampler& sampler = engine.EnableTimeSeries(kSamplerTick);
  const bool capture_trace = !g_trace_path.empty() && !g_trace_consumed &&
                             cfg.mode == core::EngineMode::kP4db;
  if (capture_trace) engine.EnableFullTrace();
  RunOutput out;
  const auto offload_start = std::chrono::steady_clock::now();
  out.offload = engine.Offload(sample_size, max_hot_items);
  const auto wall_start = std::chrono::steady_clock::now();
  out.metrics = engine.Run(time.warmup, time.measure);
  const auto wall_end = std::chrono::steady_clock::now();
  out.pipeline = engine.pipeline().stats();
  out.throughput = out.metrics.Throughput(time.measure);
  out.wall_seconds =
      std::chrono::duration<double>(wall_end - wall_start).count();
  out.sim_events = engine.TotalExecutedEvents();
  // One integer, written to both the run entry and the registry.
  out.events_per_sec =
      out.wall_seconds > 0
          ? static_cast<uint64_t>(std::llround(
                static_cast<double>(out.sim_events) / out.wall_seconds))
          : 0;
  // Published into the registry AFTER Run so the harness speed rides along
  // in every BENCH_<name>.json registry dump (Run resets the registry at
  // the start of the measured window).
  engine.metrics_registry()
      .counter("harness.events_per_sec")
      .Set(out.events_per_sec);
  engine.metrics_registry()
      .counter("harness.wall_us")
      .Set(static_cast<uint64_t>(out.wall_seconds * 1e6));
  // harness.wall_us covers Run only; the offload before it and the sum of
  // both are published beside it (wall clock, reported but never gated).
  const auto us = [](auto d) {
    return static_cast<uint64_t>(
        std::chrono::duration<double, std::micro>(d).count());
  };
  engine.metrics_registry()
      .counter("harness.offload_wall_us")
      .Set(us(wall_start - offload_start));
  engine.metrics_registry()
      .counter("harness.total_wall_us")
      .Set(us(wall_end - offload_start));
  // The offload's own split of harness.offload_wall_us (same caveat).
  const core::OffloadReport::PhaseNs& phase = out.offload.host_ns;
  for (const auto& [name, ns] :
       {std::pair{"harness.offload.sample_us", phase.sample},
        std::pair{"harness.offload.observe_us", phase.observe},
        std::pair{"harness.offload.topk_us", phase.topk},
        std::pair{"harness.offload.graph_us", phase.graph},
        std::pair{"harness.offload.plan_us", phase.plan},
        std::pair{"harness.offload.install_us", phase.install}}) {
    engine.metrics_registry().counter(name).Set(ns / 1000);
  }
  out.metrics_json = engine.metrics_registry().ToJson();
  out.time_series_json = sampler.ToJson();
  out.critical_path_json = engine.CriticalPathJson();
  if (capture_trace) {
    g_trace_consumed = true;
    if (WriteFileAtomic(g_trace_path, engine.TraceJson())) {
      std::printf("[trace] wrote %s — open in Perfetto or "
                  "chrome://tracing\n",
                  g_trace_path.c_str());
    } else {
      std::fprintf(stderr, "[trace] FAILED to write %s\n",
                   g_trace_path.c_str());
    }
  }
  RecordRun(cfg, *workload, out);
  return out;
}

core::SystemConfig PaperCluster(core::EngineMode mode) {
  core::SystemConfig cfg;
  cfg.mode = mode;
  cfg.num_nodes = 8;
  cfg.workers_per_node = 20;
  cfg.seed = 42;
  return cfg;
}

size_t YcsbHotItems(const wl::YcsbConfig& cfg, uint16_t num_nodes) {
  return static_cast<size_t>(cfg.hot_keys_per_node) * num_nodes;
}

size_t SmallBankHotItems(const wl::SmallBankConfig& cfg, uint16_t num_nodes) {
  // savings + checking per hot account.
  return 2ull * cfg.hot_accounts_per_node * num_nodes;
}

void PrintBanner(const char* figure, const char* description) {
  if (g_bench_name.empty()) {
    g_bench_name = SanitizeBenchName(figure);
    std::atexit(FlushBenchJson);
  }
  std::printf("================================================================"
              "================\n");
  std::printf("%s — %s\n", figure, description);
  std::printf("Setup: 8 nodes, ToR switch simulator; throughput = committed "
              "txn/s over the\nmeasured window. Absolute values are "
              "simulator-calibrated; compare SHAPES with\nthe paper (see "
              "EXPERIMENTS.md).\n");
  std::printf("================================================================"
              "================\n");
}

void PrintSectionHeader(const std::string& text) {
  std::printf("\n--- %s ---\n", text.c_str());
}

void AppendRunEntry(const std::string& json_entry) {
  g_run_entries.push_back(json_entry);
}

}  // namespace p4db::bench
