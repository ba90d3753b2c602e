#ifndef P4DB_DB_WAL_H_
#define P4DB_DB_WAL_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <ranges>
#include <span>
#include <type_traits>
#include <vector>

#include "common/arena.h"
#include "common/metrics_registry.h"
#include "common/types.h"
#include "switchsim/instruction.h"

namespace p4db::db {

/// Absolute log sequence number: the record's index in the log's whole
/// history. Truncation never renumbers.
using Lsn = uint64_t;

/// One logged host-side write (cold tuples).
struct HostLogOp {
  TupleId tuple;
  uint16_t column = 0;
  Value64 new_value = 0;
};

/// Kinds of log records (Section 6.1 "Durability and Recovery").
enum class LogKind : uint8_t {
  /// Commit of the cold part of a transaction.
  kHostCommit,
  /// Intent record for a switch (sub-)transaction. Written BEFORE the
  /// packet is sent: "a switch transaction and its intended read-/write-
  /// operations are appended to the log before the switch transaction is
  /// sent" — switch transactions count as committed at send time because
  /// they can no longer abort.
  kSwitchIntent,
};

/// A log record's payload lives in its segment (appended data is
/// immutable, exactly like bytes on disk); the record itself only carries
/// spans. Logging a commit is one bump append and costs zero allocations
/// in steady state.
struct LogRecord {
  Lsn lsn = 0;

  // kHostCommit payload.
  std::span<const HostLogOp> host_writes;

  // kSwitchIntent payload: the exact instructions sent to the switch.
  std::span<const sw::Instruction> instrs;
  /// Result values of the read/write operations, recorded with the gid.
  /// One slot per instruction is reserved at append time; the values are
  /// meaningful only once has_result is set.
  std::span<const Value64> results;
  /// Filled in when the switch response arrives. A record with
  /// gid == kInvalidGid after a crash is an in-flight switch transaction:
  /// executed-but-unacknowledged (or never admitted) — recovery must place
  /// it using read/write-set dependencies (Appendix A.3, Scenario 1).
  Gid gid = kInvalidGid;
  uint32_t client_seq = 0;
  LogKind kind = LogKind::kHostCommit;
  bool has_result = false;
};

/// Per-node write-ahead log. In-memory but modeled as durable: a simulated
/// node crash loses no appended record, only the chance to ever fill in
/// gids of in-flight switch transactions.
///
/// Records live in fixed-size segments of kSegmentRecords records, each
/// with its own payload region and overflow arena. The log retains the LSN
/// range [begin_lsn(), end_lsn()); TruncateBefore drops whole segments
/// below a recovery watermark onto a free list that later appends reuse,
/// so memory follows the checkpoint interval rather than the run length.
class Wal {
 public:
  static constexpr size_t kSegmentRecords = 128;

  /// Appends count into the "wal.host_commits" / "wal.switch_intents" /
  /// "wal.logged_writes" series of `metrics`, or of a registry the log owns
  /// when `metrics` is null. All node WALs of a cluster share the series.
  /// They count every append, truncated or not.
  explicit Wal(MetricsRegistry* metrics = nullptr) {
    MetricsRegistry& reg =
        MetricsRegistry::GivenOrOwned(metrics, &owned_metrics_);
    host_commits_ = &reg.counter("wal.host_commits");
    switch_intents_ = &reg.counter("wal.switch_intents");
    logged_writes_ = &reg.counter("wal.logged_writes");
  }
  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Pre-allocates free segments for `records` retained records carrying
  /// `payload_bytes` of payload in total, so a bounded retention window
  /// appends without touching the allocator.
  void Reserve(size_t records, size_t payload_bytes);

  Lsn AppendHostCommit(std::span<const HostLogOp> writes);
  Lsn AppendHostCommit(std::initializer_list<HostLogOp> writes) {
    return AppendHostCommit(std::span<const HostLogOp>(writes.begin(),
                                                       writes.size()));
  }
  Lsn AppendSwitchIntent(uint32_t client_seq,
                         std::span<const sw::Instruction> instrs);
  Lsn AppendSwitchIntent(uint32_t client_seq,
                         std::initializer_list<sw::Instruction> instrs) {
    return AppendSwitchIntent(
        client_seq,
        std::span<const sw::Instruction>(instrs.begin(), instrs.size()));
  }
  /// Records the switch response (gid + read/write results) for the intent
  /// at `lsn`, into the slots reserved at append time. A response for an
  /// already-truncated intent is dropped: a recovery baseline covers it.
  void FillSwitchResult(Lsn lsn, Gid gid, std::span<const Value64> results);
  void FillSwitchResult(Lsn lsn, Gid gid,
                        std::initializer_list<Value64> results) {
    FillSwitchResult(lsn, gid,
                     std::span<const Value64>(results.begin(),
                                              results.size()));
  }

  /// Drops every whole segment below `lsn` (clamped to end_lsn()). The
  /// segment holding `lsn` stays, so begin_lsn() may remain below it.
  void TruncateBefore(Lsn lsn);

  /// LSN range of the retained records: [begin_lsn(), end_lsn()).
  Lsn begin_lsn() const { return first_segment_ * kSegmentRecords; }
  Lsn end_lsn() const { return end_; }
  /// The retained record at `lsn` (begin_lsn() <= lsn < end_lsn()).
  const LogRecord& at(Lsn lsn) const {
    return live_[lsn / kSegmentRecords - first_segment_]
        ->records[lsn % kSegmentRecords];
  }

  /// The retained records from `from` (clamped to begin_lsn()) to the end,
  /// as a range of `const LogRecord&`.
  auto Scan(Lsn from = 0) const {
    return std::views::iota(std::max(from, begin_lsn()), end_) |
           std::views::transform(
               [this](Lsn lsn) -> const LogRecord& { return at(lsn); });
  }

  /// Segments currently holding retained records, and all segments ever
  /// allocated (retained + free list).
  size_t retained_segments() const { return live_.size(); }
  size_t allocated_segments() const { return slabs_.size() * kSlabSegments; }

  /// Segments are allocated kSlabSegments at a time. A node's log recycles
  /// only a few in steady state, so one slab usually serves a whole run in
  /// a single allocation, and a segment never written costs no resident
  /// memory.
  static constexpr size_t kSlabSegments = 16;

 private:
  /// A segment's inline payload region fits a typical segment's payload
  /// (a YCSB host commit or intent carries ~300 bytes), so opening a fresh
  /// segment is one allocation; larger payloads overflow into the arena.
  static constexpr size_t kSegmentPayloadBytes = 48 * 1024;
  static constexpr size_t kOverflowChunkBytes = 16 * 1024;
  struct Segment {
    // User-provided so a new slab leaves `inline_payload` untouched: its
    // pages become resident only as appends fill them.
    Segment() {}
    /// Bump-allocates from the inline region, then from the arena.
    void* Allocate(size_t bytes, size_t align) {
      const size_t p = (used + align - 1) & ~(align - 1);
      if (p + bytes > kSegmentPayloadBytes) {
        return overflow.Allocate(bytes, align);
      }
      used = p + bytes;
      return inline_payload + p;
    }
    void Reset() {
      used = 0;
      overflow.Reset();
    }

    std::array<LogRecord, kSegmentRecords> records;
    size_t used = 0;
    alignas(std::max_align_t) unsigned char
        inline_payload[kSegmentPayloadBytes];
    /// Payload past the inline region; its chunks are kept across reuse.
    Arena overflow{kOverflowChunkBytes};
  };
  template <typename T>
  static T* AllocateArray(Segment& seg, size_t n) {
    static_assert(std::is_trivially_destructible_v<T>);
    return static_cast<T*>(seg.Allocate(n * sizeof(T), alignof(T)));
  }

  /// The record slot for the next append (opens a segment when needed).
  LogRecord& NextSlot();
  /// Adds a slab of fresh segments to the free list.
  void AddSlab();

  /// Copies a payload into the open segment and returns a view of the
  /// stable copy.
  template <typename T>
  std::span<const T> Persist(std::span<const T> src) {
    if (src.empty()) return {};
    T* dst = AllocateArray<T>(*live_.back(), src.size());
    std::copy(src.begin(), src.end(), dst);
    return {dst, src.size()};
  }

  std::vector<std::unique_ptr<Segment[]>> slabs_;
  /// Retained segments in LSN order: live_[i] holds segment number
  /// first_segment_ + i, i.e. LSNs from (first_segment_ + i) * S.
  std::vector<Segment*> live_;
  std::vector<Segment*> free_;
  Lsn first_segment_ = 0;
  Lsn end_ = 0;
  std::unique_ptr<MetricsRegistry> owned_metrics_;  // when none was given
  MetricsRegistry::Counter* host_commits_;
  MetricsRegistry::Counter* switch_intents_;
  MetricsRegistry::Counter* logged_writes_;
};

}  // namespace p4db::db

#endif  // P4DB_DB_WAL_H_
