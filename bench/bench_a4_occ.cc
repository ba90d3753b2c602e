// Appendix A.4: P4DB's switch offloading composes with other
// concurrency-control classes. The same contended YCSB-A workload under
// 2PL and OCC, with and without the switch: the switch's gain is largely
// independent of the host protocol, because the hot set never reaches the
// host CC at all.

#include "bench_common.h"

namespace p4db::bench {
namespace {

RunOutput Run(core::EngineMode mode, core::CcProtocol protocol,
              const BenchTime& time) {
  core::SystemConfig cfg = PaperCluster(mode);
  cfg.cc_protocol = protocol;
  wl::YcsbConfig wcfg;
  wcfg.variant = 'A';
  wl::Ycsb workload(wcfg);
  return RunWorkload(cfg, &workload, 20000,
                     YcsbHotItems(wcfg, cfg.num_nodes), time);
}

}  // namespace
}  // namespace p4db::bench

int main(int argc, char** argv) {
  using namespace p4db::bench;
  using p4db::core::CcProtocol;
  using p4db::core::EngineMode;
  // --batch=N and --int arm the batcher and INT on both P4DB rows.
  ParseBenchArgs(argc, argv);
  const BenchTime time = BenchTime::FromEnv();
  PrintBanner("Appendix A.4",
              "host concurrency-control classes with and without the switch "
              "(YCSB-A)");
  std::printf("%-22s %14s %12s %10s\n", "configuration", "tput(tx/s)",
              "abort-rate", "speedup");
  struct Row {
    const char* name;
    EngineMode mode;
    CcProtocol protocol;
  };
  const Row rows[] = {
      {"No-Switch + 2PL", EngineMode::kNoSwitch, CcProtocol::k2pl},
      {"No-Switch + OCC", EngineMode::kNoSwitch, CcProtocol::kOcc},
      {"P4DB + 2PL", EngineMode::kP4db, CcProtocol::k2pl},
      {"P4DB + OCC", EngineMode::kP4db, CcProtocol::kOcc},
  };
  double base = 0;
  for (const Row& row : rows) {
    const RunOutput r = Run(row.mode, row.protocol, time);
    if (base == 0) base = r.throughput;
    std::printf("%-22s %14.0f %11.1f%% %9.2fx\n", row.name, r.throughput,
                r.metrics.AbortRate() * 100, Speedup(r.throughput, base));
  }
  return 0;
}
