#include "core/recovery.h"

#include <algorithm>
#include <ranges>
#include <cassert>
#include <unordered_map>

namespace p4db::core {

std::vector<Value64> ReplayInstructions(
    std::span<const sw::Instruction> instrs,
    std::unordered_map<uint64_t, Value64>* state) {
  std::vector<Value64> values;
  values.reserve(instrs.size());
  for (const sw::Instruction& in : instrs) {
    const Value64 operand = sw::ResolveOperand(in, [&](uint8_t src) {
      assert(src < values.size());
      return values[src];
    });
    Value64& cell = (*state)[PackAddr(in.addr)];
    const sw::OpOutcome out = sw::ApplyOp(in.op, cell, operand);
    cell = out.stored;
    values.push_back(out.result);
  }
  return values;
}

namespace {

/// Replays `order` from the initial state and counts the records whose
/// recorded results are NOT reproduced (0 == fully consistent).
size_t CountViolations(const std::vector<const db::LogRecord*>& order,
                       const std::unordered_map<uint64_t, Value64>& initial) {
  std::unordered_map<uint64_t, Value64> state = initial;
  size_t violations = 0;
  for (const db::LogRecord* rec : order) {
    const std::vector<Value64> values = ReplayInstructions(rec->instrs,
                                                           &state);
    if (rec->has_result && !std::ranges::equal(values, rec->results)) {
      ++violations;
    }
  }
  return violations;
}

}  // namespace

StatusOr<WalReplayResult> ReplayWalSwitchState(
    std::unordered_map<uint64_t, Value64> initial,
    const std::vector<const db::Wal*>& logs,
    const WalReplayOptions& options) {
  // Step 2: gather intents; split committed (gid known) from in-flight.
  // In-flight records remember their source log plus their last committed
  // lsn-predecessor on it: the anchor for the windowed placement below.
  struct Pending {
    const db::LogRecord* rec = nullptr;
    const db::LogRecord* anchor = nullptr;  // last committed before it
    size_t anchor_pos = 0;  // serial slot just after the anchor
  };
  std::vector<const db::LogRecord*> committed;
  std::vector<Pending> inflight;
  for (size_t i = 0; i < logs.size(); ++i) {
    const db::Lsn first =
        i < options.first_lsn.size() ? options.first_lsn[i] : 0;
    assert(first >= logs[i]->begin_lsn() || options.first_lsn.empty());
    const db::LogRecord* last_committed = nullptr;
    for (const db::LogRecord& r : logs[i]->Scan(first)) {
      const db::LogRecord* rec = &r;
      if (rec->kind != db::LogKind::kSwitchIntent) continue;
      if (rec->has_result && rec->gid < options.gid_floor) continue;
      if (rec->has_result) {
        committed.push_back(rec);
        last_committed = rec;
      } else {
        inflight.push_back(Pending{rec, last_committed});
      }
    }
  }
  std::sort(committed.begin(), committed.end(),
            [](const db::LogRecord* a, const db::LogRecord* b) {
              return a->gid < b->gid;
            });

  // Step 3: place each in-flight transaction at the position that best
  // reproduces the recorded results (dependency inference). A single
  // placement may not yet repair every violated record when several
  // in-flight transactions cooperate (e.g. two increments both read by one
  // committed reader), so placements greedily minimize the violation count
  // — earliest position on ties — and full consistency is demanded only at
  // the end.
  std::vector<const db::LogRecord*> order = committed;
  // Positions of committed records in the replay order. Later insertions
  // shift true positions right by at most inflight.size(); the window's
  // pre-anchor slack absorbs that, so the map is not maintained.
  std::unordered_map<const db::LogRecord*, size_t> pos_in_order;
  pos_in_order.reserve(order.size());
  for (size_t i = 0; i < order.size(); ++i) pos_in_order[order[i]] = i;
  for (Pending& pending : inflight) {
    if (pending.anchor != nullptr) {
      const auto it = pos_in_order.find(pending.anchor);
      assert(it != pos_in_order.end());
      pending.anchor_pos = it->second + 1;
    }
  }
  // Place in approximate serial-time order (ascending anchor). A crashed
  // node's in-flight records can sit thousands of serial slots before the
  // horizon tail of the surviving nodes; placing a tail record while those
  // mid-order effects are still missing evaluates it against a corrupted
  // baseline and freezes it at a position no later placement can repair.
  // With anchors ascending, every placement sees a complete prefix.
  std::stable_sort(inflight.begin(), inflight.end(),
                   [](const Pending& a, const Pending& b) {
                     return a.anchor_pos < b.anchor_pos;
                   });
  // Pre-anchor slack: an in-flight record normally serializes after its
  // anchor (same-log FIFO into the switch), but injected delay spikes can
  // reorder them by a few dozen serial slots.
  constexpr size_t kAnchorSlack = 128;
  for (const Pending& pending : inflight) {
    const db::LogRecord* rec = pending.rec;
    // Candidate positions: a window anchored where the record's own log
    // places it (see WalReplayOptions::search_window). The records before
    // the window are common to every candidate, so their state and
    // violation count are replayed exactly once; the records far after it
    // cannot distinguish candidates that differ only inside the window, so
    // evaluation is truncated one extra window past the candidates (the
    // final strict check below still covers the full order).
    size_t lo = 0;
    size_t hi = order.size();
    size_t eval_end = order.size();
    if (options.search_window != 0) {
      lo = pending.anchor_pos > kAnchorSlack ? pending.anchor_pos - kAnchorSlack
                                             : 0;
      hi = std::min(order.size(), pending.anchor_pos + options.search_window);
      eval_end = std::min(order.size(), hi + options.search_window);
    }
    std::unordered_map<uint64_t, Value64> prefix_state = initial;
    size_t prefix_violations = 0;
    for (size_t i = 0; i < lo; ++i) {
      const std::vector<Value64> values =
          ReplayInstructions(order[i]->instrs, &prefix_state);
      if (order[i]->has_result &&
          !std::ranges::equal(values, order[i]->results)) {
        ++prefix_violations;
      }
    }
    const std::vector<const db::LogRecord*> tail(
        order.begin() + static_cast<ptrdiff_t>(lo),
        order.begin() + static_cast<ptrdiff_t>(eval_end));
    size_t best_pos = lo;
    size_t best_violations = SIZE_MAX;
    for (size_t pos = lo; pos <= hi; ++pos) {
      std::vector<const db::LogRecord*> candidate = tail;
      candidate.insert(candidate.begin() + static_cast<ptrdiff_t>(pos - lo),
                       rec);
      const size_t violations =
          prefix_violations + CountViolations(candidate, prefix_state);
      if (violations < best_violations) {
        best_violations = violations;
        best_pos = pos;
        if (violations == 0) break;
      }
    }
    order.insert(order.begin() + static_cast<ptrdiff_t>(best_pos), rec);
  }
  if (!options.best_effort && CountViolations(order, initial) != 0) {
    return Status::Internal(
        "no insertion order reproduces the logged results");
  }

  WalReplayResult result;
  result.state = std::move(initial);
  result.num_inflight = inflight.size();
  for (const db::LogRecord* rec : order) {
    ReplayInstructions(rec->instrs, &result.state);
    result.max_gid = std::max(result.max_gid, rec->gid);
  }
  return result;
}

Status ProvisionLayout(std::span<const PartitionManager::HotEntry> entries,
                       const std::unordered_map<uint64_t, Value64>& state,
                       sw::ControlPlane* cp) {
  if (cp->allocated_slots() == 0) {
    for (const PartitionManager::HotEntry& e : entries) {
      StatusOr<sw::RegisterAddress> addr =
          cp->AllocateSlot(e.addr.stage, e.addr.reg);
      if (!addr.ok()) return addr.status();
      if (!(*addr == e.addr)) {
        return Status::Internal("layout reinstall diverged from original");
      }
    }
  }
  for (const PartitionManager::HotEntry& e : entries) {
    Status st = cp->InstallValue(e.addr, state.at(PackAddr(e.addr)));
    if (!st.ok()) return st;
  }
  return Status::Ok();
}

Status RecoverSwitchState(const PartitionManager& pm,
                          const std::vector<const db::Wal*>& logs,
                          sw::ControlPlane* control_plane) {
  // Step 1: the layout's values at offload time (or at the last failback).
  std::unordered_map<uint64_t, Value64> initial;
  for (const PartitionManager::HotEntry& e : pm.entries()) {
    initial[PackAddr(e.addr)] = e.initial_value;
  }

  // Steps 2-3: replay committed intents and place in-flight ones.
  WalReplayOptions options;
  options.first_lsn = pm.recovery_watermarks();
  options.gid_floor = pm.recovery_gid_floor();
  StatusOr<WalReplayResult> replay =
      ReplayWalSwitchState(std::move(initial), logs, options);
  if (!replay.ok()) return replay.status();

  // Step 4: reinstall the layout and materialize the final state.
  Status st = ProvisionLayout(pm.entries(), replay->state, control_plane);
  if (!st.ok()) return st;
  // Restart the GID counter above everything recovered; never move it
  // backwards (an online failback may already have advanced it past the
  // post-watermark records replayed here).
  sw::Pipeline* pipeline = control_plane->pipeline();
  pipeline->set_next_gid(
      std::max(pipeline->next_gid(),
               replay->max_gid + static_cast<Gid>(replay->num_inflight) + 1));
  return Status::Ok();
}

}  // namespace p4db::core
