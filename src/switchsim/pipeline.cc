#include "switchsim/pipeline.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace p4db::sw {

namespace {

/// True if instruction `i` can execute in pass `cur_pass` at its stage,
/// given where each earlier instruction ran. A PHV operand must have been
/// produced in a previous pass, or in this pass at a strictly earlier stage.
bool DepsSatisfied(std::span<const Instruction> instrs, size_t i,
                   std::span<const uint32_t> exec_pass, uint32_t cur_pass) {
  const Instruction& in = instrs[i];
  const auto ok = [&](uint8_t src) {
    if (exec_pass[src] == 0) return false;
    if (exec_pass[src] == cur_pass &&
        instrs[src].addr.stage >= in.addr.stage) {
      return false;
    }
    return true;
  };
  if (in.has_src() && !ok(in.operand_src)) return false;
  if (in.has_src2() && !ok(in.operand_src2)) return false;
  return true;
}

/// One pipeline pass: the packet flows through the stages in order; each
/// register array executes the FIRST not-yet-executed instruction that
/// targets it (one RegisterAction per array per pass), if its dependencies
/// allow. Marks every executed instruction with `cur_pass` in `exec_pass`
/// as it goes and returns their indices in stage order. Deterministic and
/// shared verbatim between the live data plane and the node-side planner.
SmallVector<uint32_t, 16> SweepOnePass(std::span<const Instruction> instrs,
                                       std::span<uint32_t> exec_pass,
                                       uint32_t cur_pass) {
  // The head (first pending instruction, in index order) of every array
  // with remaining work, kept sorted by pipeline position stage<<8 | reg.
  // A pass only executes heads, and executing one array's head never
  // changes another array's, so the heads can be fixed up front.
  struct Head {
    uint16_t key;
    uint32_t instr;
  };
  SmallVector<Head, 16> heads;
  for (size_t i = 0; i < instrs.size(); ++i) {
    if (exec_pass[i] != 0) continue;
    const uint16_t key =
        static_cast<uint16_t>(instrs[i].addr.stage << 8 | instrs[i].addr.reg);
    const auto pos = std::lower_bound(
        heads.begin(), heads.end(), key,
        [](const Head& h, uint16_t k) { return h.key < k; });
    if (pos != heads.end() && pos->key == key) continue;  // not the head
    heads.insert(pos, Head{key, static_cast<uint32_t>(i)});
  }

  SmallVector<uint32_t, 16> executed;
  for (const Head& h : heads) {
    // Checked against the live plan: a producer executed earlier in this
    // sweep counts only if its stage is strictly earlier.
    if (DepsSatisfied(instrs, h.instr, exec_pass, cur_pass)) {
      exec_pass[h.instr] = cur_pass;
      executed.push_back(h.instr);
    }
  }
  return executed;
}

uint8_t RegionOf(const PipelineConfig& config, uint8_t stage) {
  if (!config.fine_grained_locks) return kLockLeft;
  return stage < config.RightRegionFirstStage() ? kLockLeft : kLockRight;
}

}  // namespace

uint32_t Pipeline::PlanPasses(std::span<const Instruction> instrs,
                              PassPlan* exec_pass) {
  exec_pass->assign(instrs.size(), 0);
  if (instrs.empty()) return 1;
  const std::span<uint32_t> plan(exec_pass->data(), exec_pass->size());
  size_t remaining = instrs.size();
  uint32_t pass = 0;
  while (remaining > 0) {
    ++pass;
    const size_t done = SweepOnePass(instrs, plan, pass).size();
    assert(done != 0 && "pass made no progress");
    remaining -= done;
  }
  return pass;
}

PassSummary SummarizePasses(const PipelineConfig& config,
                            std::span<const Instruction> instrs) {
  PassPlan exec_pass;
  PassSummary summary;
  summary.passes = Pipeline::PlanPasses(instrs, &exec_pass);
  for (size_t i = 0; i < instrs.size(); ++i) {
    const uint8_t region = RegionOf(config, instrs[i].addr.stage);
    summary.touch_mask |= region;
    if (exec_pass[i] > 1) summary.lock_mask |= region;
  }
  return summary;
}

Pipeline::Pipeline(sim::Simulator* sim, const PipelineConfig& config,
                   MetricsRegistry* metrics, uint16_t switch_id)
    : sim_(sim),
      config_(config),
      registers_(config),
      switch_id_(switch_id),
      pool_(new InflightPool()),
      waiting_port_busy_(config.num_waiting_ports, 0) {
  MetricsRegistry& reg =
      MetricsRegistry::GivenOrOwned(metrics, &owned_metrics_);
  // Switch 0 keeps the historical bare prefix (K = 1 dumps unchanged);
  // replicas register under "switch<k>." so a replicated bench can tell
  // primary load from backup load.
  const std::string prefix =
      switch_id == 0 ? "switch." : "switch" + std::to_string(switch_id) + ".";
  series_.txns_completed = &reg.counter(prefix, "txns_completed");
  series_.single_pass_txns = &reg.counter(prefix, "single_pass_txns");
  series_.multi_pass_txns = &reg.counter(prefix, "multi_pass_txns");
  series_.total_passes = &reg.counter(prefix, "total_passes");
  series_.lock_blocked_recircs = &reg.counter(prefix, "lock_blocked_recircs");
  series_.holder_recircs = &reg.counter(prefix, "holder_recircs");
  series_.lock_acquisitions = &reg.counter(prefix, "lock_acquisitions");
  series_.constrained_write_failures =
      &reg.counter(prefix, "constrained_write_failures");
  // One cluster-wide series: every switch counts its fenced packets under
  // the bare name.
  series_.stale_epoch_drops = &reg.counter("switch.stale_epoch_drops");
  series_.recircs_per_txn = &reg.histogram(prefix, "recircs_per_txn");
}

Pipeline::~Pipeline() {
  // Frames captured by still-queued simulator events outlive us; the pool
  // absorbs their releases and frees itself with the last one.
  pool_->Orphan();
}

PipelineStats Pipeline::stats() const {
  PipelineStats s;
  s.txns_completed = series_.txns_completed->value();
  s.single_pass_txns = series_.single_pass_txns->value();
  s.multi_pass_txns = series_.multi_pass_txns->value();
  s.total_passes = series_.total_passes->value();
  s.lock_blocked_recircs = series_.lock_blocked_recircs->value();
  s.holder_recircs = series_.holder_recircs->value();
  s.lock_acquisitions = series_.lock_acquisitions->value();
  s.constrained_write_failures = series_.constrained_write_failures->value();
  s.recircs_per_txn = *series_.recircs_per_txn;
  return s;
}

Status Pipeline::Validate(const SwitchTxn& txn) const {
  if (txn.instrs.empty()) {
    return Status::InvalidArgument("switch txn has no instructions");
  }
  if (txn.instrs.size() > PacketCodec::kMaxInstructions) {
    return Status::CapacityExceeded("too many instructions for one packet");
  }
  for (size_t i = 0; i < txn.instrs.size(); ++i) {
    const Instruction& in = txn.instrs[i];
    if (!registers_.ValidAddress(in.addr)) {
      return Status::InvalidArgument("instruction targets invalid register: " +
                                     ToString(in));
    }
    if ((in.has_src() && in.operand_src >= i) ||
        (in.has_src2() && in.operand_src2 >= i)) {
      return Status::InvalidArgument(
          "operand_src must reference an earlier instruction");
    }
  }
  const PassSummary need = SummarizePasses(config_, txn.instrs);
  if (txn.is_multipass != (need.passes > 1)) {
    return Status::InvalidArgument("is_multipass flag does not match access "
                                   "pattern (passes=" +
                                   std::to_string(need.passes) + ")");
  }
  if ((txn.lock_mask & need.lock_mask) != need.lock_mask) {
    return Status::InvalidArgument("lock_mask does not cover pending stages");
  }
  if ((txn.touch_mask & need.touch_mask) != need.touch_mask) {
    return Status::InvalidArgument("touch_mask does not cover touched "
                                   "stages");
  }
  return Status::Ok();
}

sim::Future<SwitchResult> Pipeline::Submit(SwitchTxn txn) {
  sim::Promise<SwitchResult> reply(sim_);
  auto future = reply.future();
  InflightRef fl(pool_->Acquire(std::move(txn), std::move(reply)));
  fl->result.origin_node = fl->txn.origin_node;
  fl->result.client_seq = fl->txn.client_seq;
  fl->result.values.assign(fl->txn.instrs.size(), 0);
  fl->result.constraint_ok.assign(fl->txn.instrs.size(), true);
  sim_->Schedule(0, [this, fl]() mutable { Arrive(std::move(fl)); });
  return future;
}

void Pipeline::Arrive(InflightRef fl) {
  // INT ingress stamp (first contact only — recirculations and admission
  // retries re-enter here with kArrived already set). Purely passive: the
  // telemetry block is written in place on the inflight frame, no event is
  // scheduled and no decision below reads it, so an INT-armed run executes
  // the exact event schedule of an unarmed one. Only a serving primary
  // stamps; a backup's pipeline sees no client traffic worth describing.
  if (fl->txn.int_enabled() && serving_ &&
      (fl->result.telemetry.flags & IntMeta::kArrived) == 0) {
    IntMeta& m = fl->result.telemetry;
    m.flags |= IntMeta::kArrived;
    m.arrival_ns = sim_->now();
    m.switch_id = static_cast<uint8_t>(std::min<uint16_t>(switch_id_, 255));
    m.view = view_;
    if (next_admission_ > sim_->now()) {
      // Ingress backlog in units of the admission gap: how many packets
      // logically sit ahead of this one in the serialization queue.
      const SimTime wait = next_admission_ - sim_->now();
      const SimTime gap = std::max<SimTime>(config_.admission_gap, 1);
      m.queue_depth = static_cast<uint16_t>(
          std::min<SimTime>((wait + gap - 1) / gap, 0xFFFF));
    }
  }

  if (next_admission_ > sim_->now()) {
    // Another packet occupies this ingress slot; retry at the next one.
    sim_->ScheduleAt(next_admission_,
                     [this, fl]() mutable { Arrive(std::move(fl)); });
    return;
  }
  next_admission_ = sim_->now() + config_.admission_gap;

  // Epoch fence (stage 0, before any register effect): while the switch is
  // mid power cycle everything is dropped, and afterwards a packet stamped
  // with a different control-plane epoch predates the last reboot — its
  // registers were wiped and possibly re-provisioned, so executing it now
  // would corrupt recovered state. Drop it; the issuing node's timeout
  // handles the missing response and the WAL guarantees the logged intent
  // is applied exactly once by recovery. Never touches lock_register_:
  // reboot already cleared the packet's pre-crash lock bits, and the bits
  // may since have been acquired by new-epoch packets.
  if (down_ || fl->txn.epoch != epoch_) {
    series_.stale_epoch_drops->Increment();
    tracer_->Instant(trace::Category::kSwitchDrop, fl->result.gid, track_,
                     fl->txn.origin_node, trace::Tracer::kGidKeyFlag);
    return;
  }

  if (!fl->holds_locks) {
    // Admission check in stage 0 (Listing 1 semantics: test the touched
    // regions and, for multi-pass packets, set the pending regions — one
    // stateful register operation).
    if ((lock_register_ & fl->txn.touch_mask) != 0) {
      series_.lock_blocked_recircs->Increment();
      RecirculateBlocked(std::move(fl));
      return;
    }
    if (fl->txn.is_multipass) {
      lock_register_ |= fl->txn.lock_mask;
      fl->holds_locks = true;
      series_.lock_acquisitions->Increment();
    }
  }

  if (fl->result.passes == 0) {
    // Serial position == first admission: pass-1 effects in non-pending
    // regions are immediately visible to later transactions, so the GID
    // (the serial execution order, Section 6.1) is assigned here.
    fl->result.gid = next_gid_++;
  }
  if ((fl->result.telemetry.flags &
       (IntMeta::kArrived | IntMeta::kAdmitted)) == IntMeta::kArrived) {
    // First time past the admission gap, epoch fence and pipeline-lock
    // check: arrival-to-here is the switch-queue term of the critical path.
    fl->result.telemetry.flags |= IntMeta::kAdmitted;
    fl->result.telemetry.admit_ns = sim_->now();
  }
  ++fl->result.passes;
  tracer_->CompleteSpan(
      sim_->now(), sim_->now() + config_.PassLatency(),
      trace::Category::kSwitchPass, fl->result.gid, track_, 0,
      static_cast<uint8_t>(std::min<uint32_t>(fl->result.passes, 255)),
      fl->txn.origin_node, trace::Tracer::kGidKeyFlag);
  const bool done = ExecutePass(*fl);
  if (!done) {
    if (fl->holds_locks) {
      RecirculateHolder(std::move(fl));
    } else {
      // A packet labeled single-pass that cannot finish in one pass: the
      // data plane keeps recirculating it without any lock — this is the
      // isolation-unsafe case the paper warns about (Section 5.2). The
      // node-side compiler never produces such packets; Validate() rejects
      // them in tests.
      RecirculateBlocked(std::move(fl));
    }
    return;
  }

  if (fl->holds_locks) {
    lock_register_ &= static_cast<uint8_t>(~fl->txn.lock_mask);
    fl->holds_locks = false;
  }

  // Final pass: emit the response at egress.
  fl->result.recirculations = fl->txn.nb_recircs;
  series_.txns_completed->Increment();
  series_.total_passes->Increment(fl->result.passes);
  if (fl->txn.is_multipass) {
    series_.multi_pass_txns->Increment();
  } else {
    series_.single_pass_txns->Increment();
  }
  series_.recircs_per_txn->Record(fl->txn.nb_recircs);
  if (rep_sink_ != nullptr) {
    // In-band replication (primary/backup ordering): the record leaves for
    // the chain successor before the response is released. Emitted even
    // when the transaction wrote nothing, so the backup's seen-set stays
    // complete and promotion never re-applies a read-only intent.
    ReplicationRecord rec;
    rec.view = view_;
    rec.origin_node = fl->txn.origin_node;
    rec.client_seq = fl->txn.client_seq;
    rec.gid = fl->result.gid;
    rec.writes = fl->rep_writes;
    rep_sink_->OnRecord(switch_id_, rec);
  }
  if ((fl->result.telemetry.flags & IntMeta::kAdmitted) != 0) {
    IntMeta& m = fl->result.telemetry;
    m.passes = static_cast<uint8_t>(std::min<uint32_t>(fl->result.passes, 255));
    m.depart_ns = sim_->now() + config_.PassLatency();
    m.flags |= IntMeta::kValid;
    // Residency span on the switch track: full arrival-to-departure dwell,
    // with the ingress/recirc story packed into aux for trace tooling.
    tracer_->CompleteSpan(
        m.arrival_ns, m.depart_ns, trace::Category::kSwitchResidency,
        fl->result.gid, track_, 0, m.passes,
        static_cast<uint32_t>(m.queue_depth) |
            (static_cast<uint32_t>(m.recircs_blocked) << 16) |
            (static_cast<uint32_t>(m.recircs_holder) << 24),
        trace::Tracer::kGidKeyFlag);
  }
  fl->reply.SetAfter(config_.PassLatency(), std::move(fl->result));
}

bool Pipeline::ExecutePass(Inflight& fl) {
  const uint32_t cur_pass = fl.result.passes;
  const auto executable = SweepOnePass(
      fl.txn.instrs, {fl.exec_pass.data(), fl.exec_pass.size()}, cur_pass);
  for (uint32_t i : executable) {
    const Instruction& in = fl.txn.instrs[i];
    assert(registers_.ValidAddress(in.addr));
    const OpOutcome out = ApplyOp(
        in.op, registers_.Read(in.addr),
        ResolveOperand(in, [&](uint8_t src) { return fl.result.values[src]; }));
    if (out.wrote) registers_.Write(in.addr, out.stored);
    fl.result.values[i] = out.result;
    // A write op that did not write failed its constraint.
    const bool constraint_ok = out.wrote || !IsWriteOp(in.op);
    fl.result.constraint_ok[i] = constraint_ok;
    if (!constraint_ok) {
      series_.constrained_write_failures->Increment();
    }
    if (rep_sink_ != nullptr && out.wrote) {
      // Record the absolute post-apply slot value (not the delta): the
      // backup installs it verbatim, ordered by apply_seq.
      fl.rep_writes.push_back(SlotWrite{in.addr, out.stored, ++apply_seq_});
    }
  }
  if ((fl.result.telemetry.flags & IntMeta::kAdmitted) != 0 &&
      !executable.empty()) {
    IntMeta& m = fl.result.telemetry;
    m.reg_accesses = static_cast<uint16_t>(std::min<size_t>(
        static_cast<size_t>(m.reg_accesses) + executable.size(), 0xFFFF));
    m.max_stage_occupancy = std::max(
        m.max_stage_occupancy,
        static_cast<uint8_t>(std::min<size_t>(executable.size(), 255)));
    for (uint32_t i : executable) {
      const RegisterAddress& a = fl.txn.instrs[i].addr;
      m.stage_mask |= 1u << std::min<uint32_t>(a.stage, 31);
      if (m.slots.size() < 8) {
        // Flat register-file slot index — the per-tuple access tag the
        // node-side hotness counters key on. Capped at the inline capacity
        // so stamping never allocates.
        m.slots.push_back(static_cast<uint32_t>(
            (static_cast<uint64_t>(a.stage) * config_.regs_per_stage +
             a.reg) *
                config_.SlotsPerRegister() +
            a.index));
      }
    }
  }
  fl.remaining -= executable.size();
  return fl.remaining == 0;
}

SimTime Pipeline::ReserveRecircPort(SimTime* busy_until, size_t bytes) {
  // The packet exits the pipeline (one no-op/partial traversal) and enters
  // the loopback port queue; ports serialize packets one after another.
  const SimTime at_port = sim_->now() + config_.PassLatency();
  const SimTime ser = static_cast<SimTime>(
      std::llround(static_cast<double>(bytes) * config_.recirc_ns_per_byte));
  const SimTime depart = std::max(at_port, *busy_until) + ser;
  *busy_until = depart;
  return depart + config_.recirc_loop_latency;
}

void Pipeline::RecirculateBlocked(InflightRef fl) {
  if (fl->txn.nb_recircs < 255) ++fl->txn.nb_recircs;
  const size_t bytes = PacketCodec::WireSize(fl->txn);
  SimTime* port = &waiting_port_busy_[waiting_port_rr_];
  waiting_port_rr_ = (waiting_port_rr_ + 1) % waiting_port_busy_.size();
  const SimTime back_at = ReserveRecircPort(port, bytes);
  if ((fl->result.telemetry.flags & IntMeta::kArrived) != 0) {
    IntMeta& m = fl->result.telemetry;
    if (m.recircs_blocked < 255) ++m.recircs_blocked;
    // Lock-blocked loop: everything until the packet is back at ingress is
    // time spent waiting on another holder's pipeline lock.
    m.lock_wait_ns += static_cast<uint32_t>(
        std::min<SimTime>(back_at - sim_->now(), 0xFFFFFFFF));
  }
  // The recirc span starts when the packet exits the pipeline and covers
  // port queueing + the loopback wire; aux 0 = blocked, 1 = lock holder.
  tracer_->CompleteSpan(sim_->now() + config_.PassLatency(), back_at,
                        trace::Category::kSwitchRecirc, fl->result.gid,
                        track_, 0, fl->txn.nb_recircs,
                        /*aux=*/0, trace::Tracer::kGidKeyFlag);
  sim_->ScheduleAt(back_at, [this, fl]() mutable { Arrive(std::move(fl)); });
}

void Pipeline::RecirculateHolder(InflightRef fl) {
  series_.holder_recircs->Increment();
  if (fl->txn.nb_recircs < 255) ++fl->txn.nb_recircs;
  const size_t bytes = PacketCodec::WireSize(fl->txn);
  SimTime* port = &fast_port_busy_;
  if (!config_.fast_recirc_enabled) {
    // Without the optimization, holders share the waiting ports and queue
    // behind blocked packets — the lock is held for longer (Section 5.3).
    port = &waiting_port_busy_[waiting_port_rr_];
    waiting_port_rr_ = (waiting_port_rr_ + 1) % waiting_port_busy_.size();
  }
  const SimTime back_at = ReserveRecircPort(port, bytes);
  if ((fl->result.telemetry.flags & IntMeta::kArrived) != 0) {
    IntMeta& m = fl->result.telemetry;
    if (m.recircs_holder < 255) ++m.recircs_holder;
    // Holder-cycling loop: the transaction's own multi-pass structure, not
    // contention — attributed to the recirc term, not lock wait.
    m.recirc_ns += static_cast<uint32_t>(
        std::min<SimTime>(back_at - sim_->now(), 0xFFFFFFFF));
  }
  tracer_->CompleteSpan(sim_->now() + config_.PassLatency(), back_at,
                        trace::Category::kSwitchRecirc, fl->result.gid,
                        track_, 0, fl->txn.nb_recircs,
                        /*aux=*/1, trace::Tracer::kGidKeyFlag);
  sim_->ScheduleAt(back_at, [this, fl]() mutable { Arrive(std::move(fl)); });
}

}  // namespace p4db::sw
