#ifndef P4DB_SWITCHSIM_CONTROL_PLANE_H_
#define P4DB_SWITCHSIM_CONTROL_PLANE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "switchsim/pipeline.h"

namespace p4db::sw {

/// Control-plane interface of the switch (the part of P4DB that, on real
/// hardware, runs against the Tofino driver API): slot allocation during
/// the offline offload step (Section 3.1), register initialization, state
/// dump/restore for recovery (Section 6.1), and capacity accounting
/// (Figure 17).
class ControlPlane {
 public:
  explicit ControlPlane(Pipeline* pipeline);

  ControlPlane(const ControlPlane&) = delete;
  ControlPlane& operator=(const ControlPlane&) = delete;

  /// Allocates the next free slot in (stage, reg). Fails with
  /// kCapacityExceeded when the register array is full.
  StatusOr<RegisterAddress> AllocateSlot(uint8_t stage, uint8_t reg);

  /// Writes an initial value (offload step) or a recovered value into an
  /// allocated slot.
  Status InstallValue(const RegisterAddress& addr, Value64 value);

  /// Control-plane register read (out-of-band, used by recovery and tests;
  /// the data plane never uses this path).
  StatusOr<Value64> ReadValue(const RegisterAddress& addr) const;

  /// Snapshot of all allocated slots and their current values.
  std::vector<std::pair<RegisterAddress, Value64>> DumpState() const;

  /// Zeroes the data plane and forgets all allocations (switch power cycle;
  /// recovery reinstalls state from the node logs afterwards).
  void Reset();

  uint64_t allocated_slots() const { return allocated_total_; }
  uint64_t FreeSlots() const {
    return pipeline_->config().CapacityRows() - allocated_total_;
  }

  Pipeline* pipeline() { return pipeline_; }

 private:
  size_t RegSlot(uint8_t stage, uint8_t reg) const {
    return static_cast<size_t>(stage) * pipeline_->config().regs_per_stage +
           reg;
  }

  Pipeline* pipeline_;
  std::vector<uint32_t> next_free_;  // per (stage, reg)
  uint64_t allocated_total_ = 0;
};

}  // namespace p4db::sw

#endif  // P4DB_SWITCHSIM_CONTROL_PLANE_H_
