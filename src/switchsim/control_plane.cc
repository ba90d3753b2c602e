#include "switchsim/control_plane.h"

#include <algorithm>

namespace p4db::sw {

ControlPlane::ControlPlane(Pipeline* pipeline)
    : pipeline_(pipeline),
      next_free_(static_cast<size_t>(pipeline->config().num_stages) *
                     pipeline->config().regs_per_stage,
                 0) {}

StatusOr<RegisterAddress> ControlPlane::AllocateSlot(uint8_t stage,
                                                     uint8_t reg) {
  const PipelineConfig& cfg = pipeline_->config();
  if (stage >= cfg.num_stages || reg >= cfg.regs_per_stage) {
    return Status::InvalidArgument("no such register array");
  }
  uint32_t& next = next_free_[RegSlot(stage, reg)];
  if (next >= cfg.SlotsPerRegister()) {
    return Status::CapacityExceeded("register array full");
  }
  RegisterAddress addr{stage, reg, next};
  ++next;
  ++allocated_total_;
  return addr;
}

Status ControlPlane::InstallValue(const RegisterAddress& addr, Value64 value) {
  if (!pipeline_->registers().ValidAddress(addr)) {
    return Status::InvalidArgument("invalid register address");
  }
  if (addr.index >= next_free_[RegSlot(addr.stage, addr.reg)]) {
    return Status::InvalidArgument("slot not allocated");
  }
  pipeline_->registers().Write(addr, value);
  return Status::Ok();
}

StatusOr<Value64> ControlPlane::ReadValue(const RegisterAddress& addr) const {
  if (!pipeline_->registers().ValidAddress(addr)) {
    return Status::InvalidArgument("invalid register address");
  }
  return pipeline_->registers().Read(addr);
}

std::vector<std::pair<RegisterAddress, Value64>> ControlPlane::DumpState()
    const {
  std::vector<std::pair<RegisterAddress, Value64>> out;
  out.reserve(allocated_total_);
  const PipelineConfig& cfg = pipeline_->config();
  for (uint8_t s = 0; s < cfg.num_stages; ++s) {
    for (uint8_t r = 0; r < cfg.regs_per_stage; ++r) {
      const uint32_t used = next_free_[RegSlot(s, r)];
      for (uint32_t i = 0; i < used; ++i) {
        RegisterAddress addr{s, r, i};
        out.emplace_back(addr, pipeline_->registers().Read(addr));
      }
    }
  }
  return out;
}

void ControlPlane::Reset() {
  const PipelineConfig& cfg = pipeline_->config();
  for (uint8_t s = 0; s < cfg.num_stages; ++s) {
    for (uint8_t r = 0; r < cfg.regs_per_stage; ++r) {
      const uint32_t used = next_free_[RegSlot(s, r)];
      for (uint32_t i = 0; i < used; ++i) {
        pipeline_->registers().Write(RegisterAddress{s, r, i}, 0);
      }
      next_free_[RegSlot(s, r)] = 0;
    }
  }
  allocated_total_ = 0;
  pipeline_->set_next_gid(1);
}

}  // namespace p4db::sw
