#ifndef P4DB_SWITCHSIM_PIPELINE_H_
#define P4DB_SWITCHSIM_PIPELINE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/small_vector.h"

#include "common/histogram.h"
#include "common/metrics_registry.h"
#include "common/status.h"
#include "common/trace.h"
#include "common/types.h"
#include "sim/future.h"
#include "sim/simulator.h"
#include "switchsim/inflight_pool.h"
#include "switchsim/instruction.h"
#include "switchsim/packet.h"
#include "switchsim/register_file.h"

namespace p4db::sw {

/// Per-instruction pass assignment (1-based; 0 = not yet planned). Inline
/// capacity covers every packet the compiler emits (<= 255 instructions,
/// virtually always <= 64); planning never allocates on the hot path.
using PassPlan = SmallVector<uint32_t, 64>;

/// One pass plan boiled down to the packet header the node-side compiler
/// stamps (Section 5.4).
struct PassSummary {
  /// Pipeline passes the sequence needs (> 1 means multi-pass).
  uint32_t passes = 1;
  /// Regions (kLockLeft/kLockRight) with instructions still PENDING after
  /// the first pass — the locks a multi-pass transaction must acquire.
  /// Zero for single-pass sequences.
  uint8_t lock_mask = 0;
  /// Regions touched by ANY instruction: these must be free of other
  /// transactions' locks at admission.
  uint8_t touch_mask = 0;
};

/// Plans the sequence once (Pipeline::PlanPasses) and derives both lock
/// masks from that plan. A free function so the node-side compiler can
/// compute headers without a Pipeline instance, and provably agree with
/// the switch.
PassSummary SummarizePasses(const PipelineConfig& config,
                            std::span<const Instruction> instrs);

/// Snapshot of the pipeline's "switch.*" registry series (Pipeline::stats).
struct PipelineStats {
  uint64_t txns_completed = 0;
  uint64_t single_pass_txns = 0;
  uint64_t multi_pass_txns = 0;
  uint64_t total_passes = 0;
  uint64_t lock_blocked_recircs = 0;   // admission denied by pipeline-lock
  uint64_t holder_recircs = 0;         // lock holder cycling between passes
  uint64_t lock_acquisitions = 0;
  uint64_t constrained_write_failures = 0;
  Histogram recircs_per_txn;
};

/// Event-driven model of one Tofino pipeline running the P4DB transaction
/// engine (Sections 4 and 5).
///
/// Faithfulness notes:
///  * One packet == one transaction; admission order == serial order. All
///    register effects of a pass apply atomically at the pass's admission
///    event, and events are totally ordered, so the execution is exactly the
///    serializable schedule the paper's pipeline produces (Section 5.1).
///  * Per pass, each MAU stage executes at most ONE instruction per
///    register array (one RegisterAction per stateful ALU per packet) as
///    the packet flows through: the first not-yet-executed instruction
///    targeting the array, provided its PHV operands were produced in a
///    strictly earlier stage (or a previous pass). Whatever remains
///    recirculates — multi-pass transactions arise from same-array
///    co-location and from access-order (dependency) violations, the two
///    phenomena the declustered layout minimizes (Sections 2.3, 4.1).
///  * The pipeline lock lives in stage 0 and follows Listing 1: a 2-bit
///    lock tested and acquired with one stateful operation. In coarse mode
///    a single bit covers the whole pipeline. Acquired bits cover the
///    regions with registers pending across passes; admission requires the
///    whole touched region set to be free.
///  * Blocked packets recirculate through waiting loopback ports (filled
///    round-robin); lock holders use a dedicated fast port when the
///    fast-recirculate optimization is on (Section 5.3).
class Pipeline {
 public:
  /// The pipeline counts into "switch.*" series of `metrics`, or of a
  /// registry it owns when `metrics` is null. `switch_id` keys the series
  /// per physical switch: switch 0 keeps the historical bare "switch."
  /// prefix (the K = 1 key set is unchanged), switch k >= 1 registers under
  /// "switch<k>." so replicated benches can tell primary load from backup
  /// load.
  Pipeline(sim::Simulator* sim, const PipelineConfig& config,
           MetricsRegistry* metrics = nullptr, uint16_t switch_id = 0);
  ~Pipeline();

  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  /// Submits a transaction that just arrived at the switch ingress. The
  /// future resolves when the transaction's last pass leaves the pipeline
  /// (egress timestamp). Network travel to/from the switch is the caller's
  /// business.
  sim::Future<SwitchResult> Submit(SwitchTxn txn);

  /// Validates that a transaction only touches installed resources and
  /// marked multipass iff it cannot run in a single pass. Used by tests and
  /// by the control plane when a program is deployed.
  Status Validate(const SwitchTxn& txn) const;

  /// Full pass plan under the PISA access rules (the same per-stage sweep
  /// the data plane performs): fills exec_pass[i] with the 1-based pass in
  /// which instruction i executes; returns the number of passes.
  static uint32_t PlanPasses(std::span<const Instruction> instrs,
                             PassPlan* exec_pass);

  RegisterFile& registers() { return registers_; }
  const RegisterFile& registers() const { return registers_; }
  /// The simulator this pipeline's events run on.
  sim::Simulator& simulator() const { return *sim_; }
  const PipelineConfig& config() const { return config_; }
  /// The pipeline's series as read from its registry (zeroed with it).
  PipelineStats stats() const;

  /// Next GID that would be assigned (monotonically increasing from 1).
  Gid next_gid() const { return next_gid_; }
  /// Control-plane override after recovery (Section 6.1): restart the GID
  /// counter above everything recovered from the logs.
  void set_next_gid(Gid gid) { next_gid_ = gid; }
  uint8_t held_locks() const { return lock_register_; }

  /// Current control-plane epoch. Packets stamped with any other epoch are
  /// dropped at ingress (stale_epoch_drops) instead of executing: after a
  /// reboot wipes the registers, pre-crash packets still in flight must not
  /// touch the re-provisioned state.
  uint8_t epoch() const { return epoch_; }
  /// False between Reboot() and PowerOn(): the data plane is mid power
  /// cycle and drops every arriving packet.
  bool is_up() const { return !down_; }
  /// Power-cycle the data plane: the switch goes dark (every packet
  /// arriving before PowerOn is dropped and counted as fenced) and the lock
  /// register clears (its state is SRAM too). Register contents and
  /// allocations are wiped by the companion ControlPlane::Reset().
  void Reboot() {
    down_ = true;
    lock_register_ = 0;
  }
  /// Control plane finished re-provisioning: reopen ingress under
  /// `new_epoch`. Packets stamped with the pre-reboot epoch — built before
  /// the re-provisioned state existed — get fenced at ingress from now on.
  void PowerOn(uint8_t new_epoch) {
    epoch_ = new_epoch;
    down_ = false;
  }
  /// Attaches the engine's tracer: every pass, recirculation, and stale
  /// drop lands on the switch track, keyed by GID.
  void set_tracer(trace::Tracer* tracer) {
    tracer_ = tracer != nullptr ? tracer : &trace::Tracer::Disabled();
  }
  /// Trace track (process id) this pipeline's spans land on. Defaults to
  /// the classic single-switch track; multi-switch engines assign each
  /// pipeline its own Endpoint::Switch(k).index.
  void set_trace_track(uint16_t track) { track_ = track; }

  /// Installs the replication stream consumer. While a sink is attached the
  /// pipeline collects every register write and hands the sink one record
  /// per transaction at final-pass time, *before* the response departs —
  /// the in-band primary/backup ordering. Null (the default) disables
  /// collection entirely; single-switch runs stay on that path.
  void set_replication_sink(ReplicationSink* sink) { rep_sink_ = sink; }

  /// Replication view stamped into emitted records; bumped by the engine at
  /// every promotion so records from a deposed primary get fenced.
  uint32_t view() const { return view_; }
  void set_view(uint32_t view) { view_ = view; }

  /// Total order over this pipeline's register writes (replication only).
  /// A promoted backup adopts the stream's high-water mark so its own
  /// writes extend the order instead of colliding with it.
  uint64_t apply_seq() const { return apply_seq_; }
  void set_apply_seq(uint64_t seq) { apply_seq_ = seq; }

  /// Which physical switch this pipeline models (metric prefix + the
  /// IntMeta::switch_id stamped into postcards).
  uint16_t switch_id() const { return switch_id_; }

  /// Whether this pipeline currently serves clients as a primary. Only a
  /// serving pipeline stamps INT postcards — a backup applying the
  /// replication stream sees the same writes but none of the client
  /// traffic, so its "telemetry" would be fiction. The engine flips this at
  /// promotion/failback. K = 1 pipelines are always serving.
  bool serving() const { return serving_; }
  void set_serving(bool serving) { serving_ = serving; }

 private:
  /// Handles one arrival at the pipeline ingress (fresh or recirculated).
  void Arrive(InflightRef fl);
  /// Executes one pass worth of instructions; returns true if finished.
  bool ExecutePass(Inflight& fl);
  /// Schedules a recirculation through a waiting port (blocked packet).
  void RecirculateBlocked(InflightRef fl);
  /// Schedules a recirculation for a lock holder between passes.
  void RecirculateHolder(InflightRef fl);
  SimTime ReserveRecircPort(SimTime* busy_until, size_t bytes);

  /// The registry series the pipeline bumps, bound once at construction.
  struct Series {
    MetricsRegistry::Counter* txns_completed;
    MetricsRegistry::Counter* single_pass_txns;
    MetricsRegistry::Counter* multi_pass_txns;
    MetricsRegistry::Counter* total_passes;
    MetricsRegistry::Counter* lock_blocked_recircs;
    MetricsRegistry::Counter* holder_recircs;
    MetricsRegistry::Counter* lock_acquisitions;
    MetricsRegistry::Counter* constrained_write_failures;
    MetricsRegistry::Counter* stale_epoch_drops;
    Histogram* recircs_per_txn;
  };

  sim::Simulator* sim_;
  PipelineConfig config_;
  RegisterFile registers_;
  std::unique_ptr<MetricsRegistry> owned_metrics_;  // when none was given
  Series series_;
  trace::Tracer* tracer_ = &trace::Tracer::Disabled();  // unowned, never null
  uint16_t track_ = trace::kSwitchTrack;
  ReplicationSink* rep_sink_ = nullptr;  // unowned; null = no replication
  uint32_t view_ = 0;
  uint64_t apply_seq_ = 0;
  uint16_t switch_id_ = 0;
  bool serving_ = true;

  /// Heap-allocated and orphan-aware (see InflightPool): queued simulator
  /// events may still hold frame references after this pipeline dies.
  InflightPool* pool_;

  uint8_t lock_register_ = 0;  // Listing 1 state: bit0 left, bit1 right
  uint8_t epoch_ = 0;
  bool down_ = false;
  Gid next_gid_ = 1;
  SimTime next_admission_ = 0;

  SimTime fast_port_busy_ = 0;
  std::vector<SimTime> waiting_port_busy_;
  size_t waiting_port_rr_ = 0;
};

}  // namespace p4db::sw

#endif  // P4DB_SWITCHSIM_PIPELINE_H_
