// Multi-tenant switch partitioning (Appendix A.5): one P4DB switch hosts
// several tenants' hot sets under quotas, with register-level isolation and
// the appendix's two sharing policies compared by how many multi-pass
// transactions each one causes.
//
// Build & run:   cmake --build build && ./build/examples/multi_tenant

#include <cstdio>
#include <vector>

#include "common/rng.h"
#include "core/tenant.h"
#include "sim/simulator.h"
#include "switchsim/pipeline.h"

using namespace p4db;  // NOLINT: example brevity

namespace {

double MultiPassShare(core::TenantManager::Policy policy) {
  sim::Simulator sim;
  sw::PipelineConfig cfg;
  cfg.num_stages = 8;
  cfg.regs_per_stage = 2;
  cfg.sram_bytes_per_stage = 64 * 8 * 2;  // 64 slots per array
  sw::Pipeline pipe(&sim, cfg);
  sw::ControlPlane cp(&pipe);
  core::TenantManager tm(&cp, policy);

  // Three tenants, 32 hot items each.
  std::vector<std::vector<sw::RegisterAddress>> items(3);
  for (int t = 0; t < 3; ++t) {
    auto id = tm.CreateTenant("tenant" + std::to_string(t), 32);
    if (!id.ok()) return -1;
    for (int i = 0; i < 32; ++i) {
      auto addr = tm.AllocateFor(*id);
      if (!addr.ok()) return -1;
      items[t].push_back(*addr);
    }
  }

  // Each tenant's transactions touch 4 of its own items; count how many
  // need more than one pipeline pass under this placement.
  Rng rng(11);
  int multi = 0;
  constexpr int kTxns = 3000;
  for (int i = 0; i < kTxns; ++i) {
    const int t = static_cast<int>(rng.NextRange(3));
    std::vector<sw::Instruction> instrs;
    for (int k = 0; k < 4; ++k) {
      sw::Instruction in;
      in.op = sw::OpCode::kAdd;
      in.addr = items[t][rng.NextRange(items[t].size())];
      in.operand = 1;
      instrs.push_back(in);
    }
    multi += sw::SummarizePasses(cfg, instrs).passes > 1;
  }
  return 100.0 * multi / kTxns;
}

}  // namespace

int main() {
  std::printf("Multi-tenant switch partitioning (3 tenants x 32 hot items, "
              "8 stages x 2 arrays)\n\n");
  const double isolated =
      MultiPassShare(core::TenantManager::Policy::kIsolatedArrays);
  const double spread =
      MultiPassShare(core::TenantManager::Policy::kSpreadAcrossArrays);
  std::printf("multi-pass transactions with ISOLATED arrays per tenant: "
              "%.1f%%\n",
              isolated);
  std::printf("multi-pass transactions with tenants SPREAD across arrays: "
              "%.1f%%\n",
              spread);
  std::printf("\nAppendix A.5's point: spreading each tenant over as many "
              "register arrays as\npossible reduces same-array conflicts — "
              "isolation is enforced per register\nslot either way "
              "(TenantManager::ValidateAccess).\n");
  return 0;
}
