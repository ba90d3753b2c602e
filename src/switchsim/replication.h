#ifndef P4DB_SWITCHSIM_REPLICATION_H_
#define P4DB_SWITCHSIM_REPLICATION_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/small_vector.h"
#include "common/types.h"
#include "switchsim/instruction.h"

namespace p4db::sw {

/// One register-slot mutation a primary pipeline pass produced. `value` is
/// the absolute post-apply contents of the slot (not the delta), so applying
/// a record is idempotent per slot, and `apply_seq` totally orders writes to
/// the whole register file — a backup applies a write only if it advances
/// the slot's high-water mark.
struct SlotWrite {
  RegisterAddress addr;
  Value64 value = 0;
  uint64_t apply_seq = 0;
};

/// The in-band replication record a primary forwards to its chain successor
/// before releasing the transaction's response. `(origin_node, client_seq)`
/// identifies the transaction (the same key the WAL intent carries, which is
/// what lets a promotion reconcile the replicated stream against the logs);
/// `view` fences records from a deposed primary.
struct ReplicationRecord {
  uint32_t view = 0;
  uint16_t origin_node = 0;
  uint32_t client_seq = 0;
  Gid gid = kInvalidGid;
  SmallVector<SlotWrite, 8> writes;
};

/// Wire size of one record on the inter-switch link: a fixed header (view,
/// origin, client_seq, gid) plus 24 bytes per slot write (addr packs into 8,
/// value 8, apply_seq 8), under the same frame overhead as data packets.
inline uint32_t ReplicationWireSize(const ReplicationRecord& rec) {
  return 18 + static_cast<uint32_t>(rec.writes.size()) * 24 + 42;
}

/// Consumer of pipelines' replication streams (the switch controller). A
/// pipeline calls it synchronously at final-pass time with its own switch
/// id; the sink models the inter-switch link delay.
class ReplicationSink {
 public:
  virtual ~ReplicationSink() = default;
  virtual void OnRecord(uint16_t from_switch, const ReplicationRecord& rec) = 0;
};

/// Exactly-once filter over one node's client_seq stream: a contiguous
/// watermark plus a sorted set of out-of-order arrivals above it.
/// client_seq values start at 1, so a fresh tracker has seen nothing.
class SeqTracker {
 public:
  /// Marks `seq` seen. Returns true iff it was not seen before.
  bool Mark(uint32_t seq) {
    if (seq <= watermark_) return false;
    if (seq == watermark_ + 1) {
      ++watermark_;
      while (!pending_.empty() && pending_.front() == watermark_ + 1) {
        ++watermark_;
        pending_.erase(pending_.begin());
      }
      return true;
    }
    auto it = std::lower_bound(pending_.begin(), pending_.end(), seq);
    if (it != pending_.end() && *it == seq) return false;
    pending_.insert(it, seq);
    return true;
  }

  bool Seen(uint32_t seq) const {
    return seq <= watermark_ ||
           std::binary_search(pending_.begin(), pending_.end(), seq);
  }

  uint32_t watermark() const { return watermark_; }

 private:
  uint32_t watermark_ = 0;         // every seq <= watermark_ was seen
  std::vector<uint32_t> pending_;  // sorted, each > watermark_ + 1
};

/// Everything a switch knows about the replication stream it has absorbed.
/// Invariant the view-change machinery maintains: a switch's register file
/// equals the offload/failback baseline plus exactly the transactions in
/// this seen-set. The primary tracks its own emissions here too, so a
/// snapshot (registers + ReplicaState) hands a backup a consistent pair,
/// and promotion re-applies a WAL intent only if its key is absent here.
class ReplicaState {
 public:
  void Reset(uint16_t num_nodes) {
    nodes_.assign(num_nodes, SeqTracker());
    slot_seq_.clear();
    max_gid_ = kInvalidGid;
    max_apply_seq_ = 0;
  }

  /// Returns true iff `(node, client_seq)` was not seen before.
  bool MarkSeen(uint16_t node, uint32_t client_seq) {
    return nodes_[node].Mark(client_seq);
  }
  bool Seen(uint16_t node, uint32_t client_seq) const {
    return nodes_[node].Seen(client_seq);
  }

  /// Returns true iff `seq` advances the slot's high-water mark (the write
  /// must be applied to the registers); false means a stale duplicate.
  bool AdvanceSlot(const RegisterAddress& addr, uint64_t seq) {
    max_apply_seq_ = std::max(max_apply_seq_, seq);
    uint64_t& cur = slot_seq_[PackSlot(addr)];
    if (seq <= cur) return false;
    cur = seq;
    return true;
  }

  void NoteGid(Gid gid) { max_gid_ = std::max(max_gid_, gid); }

  Gid max_gid() const { return max_gid_; }
  uint64_t max_apply_seq() const { return max_apply_seq_; }

  static uint64_t PackSlot(const RegisterAddress& a) {
    return (static_cast<uint64_t>(a.stage) << 40) |
           (static_cast<uint64_t>(a.reg) << 32) | a.index;
  }

 private:
  std::vector<SeqTracker> nodes_;
  std::unordered_map<uint64_t, uint64_t> slot_seq_;
  Gid max_gid_ = kInvalidGid;
  uint64_t max_apply_seq_ = 0;
};

/// Sequence validator for the postcard stream one collector absorbs from one
/// switch. Two concerns, deliberately separate:
///   - Admit(view): a postcard stamped under a view older than the
///     collector's current one came from a deposed primary — it must never
///     fold (its queue/lock terms describe a pipeline that no longer
///     serves). A newer view fast-forwards the collector.
///   - AdvanceGid(gid): tracks the per-view GID high-water mark. GIDs are
///     assigned at admission but postcards fold at completion, so a
///     multi-pass transaction legitimately folds after later-admitted
///     single-pass ones — out-of-order is normal and still folded; the
///     return value only feeds the out-of-order counter.
/// View changes (promotion restarts the GID counter above the replicated
/// high-water mark; failback resets it) call Reset() to start a new run.
class PostcardSeq {
 public:
  /// Returns false iff the postcard was stamped under a deposed view.
  bool Admit(uint32_t view) {
    if (view < view_) return false;
    if (view > view_) {
      view_ = view;
      max_gid_ = kInvalidGid;
    }
    return true;
  }

  /// Returns true iff `gid` advanced this view's high-water mark.
  bool AdvanceGid(Gid gid) {
    if (max_gid_ != kInvalidGid && gid <= max_gid_) return false;
    max_gid_ = gid;
    return true;
  }

  /// View-change fence: promotion/failback restarts the expected run.
  void Reset(uint32_t view) {
    view_ = view;
    max_gid_ = kInvalidGid;
  }

  uint32_t view() const { return view_; }
  Gid max_gid() const { return max_gid_; }

 private:
  uint32_t view_ = 0;
  Gid max_gid_ = kInvalidGid;
};

}  // namespace p4db::sw

#endif  // P4DB_SWITCHSIM_REPLICATION_H_
