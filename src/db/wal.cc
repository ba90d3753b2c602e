#include "db/wal.h"

#include <cassert>
#include <utility>

namespace p4db::db {

void Wal::AddSlab() {
  // Segment's user-provided constructor leaves the payload untouched.
  auto slab = std::make_unique<Segment[]>(kSlabSegments);
  Segment* first = slab.get();
  slabs_.push_back(std::move(slab));
  // Both lists hold at most every segment: sized here, they never grow.
  live_.reserve(allocated_segments());
  free_.reserve(allocated_segments());
  // Reversed onto the LIFO free list, so appends take the slab in order.
  for (size_t i = kSlabSegments; i-- > 0;) free_.push_back(first + i);
}

void Wal::Reserve(size_t records, size_t payload_bytes) {
  const size_t segments =
      std::max<size_t>(1, (records + kSegmentRecords - 1) / kSegmentRecords);
  while (free_.size() < segments) AddSlab();
  const size_t per_segment = payload_bytes / segments;
  if (per_segment <= kSegmentPayloadBytes) return;
  for (Segment* seg : free_) {
    seg->overflow.Reserve(per_segment - kSegmentPayloadBytes);
  }
}

LogRecord& Wal::NextSlot() {
  if (end_ == (first_segment_ + live_.size()) * kSegmentRecords) {
    if (free_.empty()) AddSlab();
    live_.push_back(free_.back());
    free_.pop_back();
    live_.back()->Reset();
  }
  LogRecord& rec = live_.back()->records[end_ % kSegmentRecords];
  rec = LogRecord();
  rec.lsn = end_++;
  return rec;
}

Lsn Wal::AppendHostCommit(std::span<const HostLogOp> writes) {
  LogRecord& rec = NextSlot();
  rec.kind = LogKind::kHostCommit;
  rec.host_writes = Persist(writes);
  host_commits_->Increment();
  logged_writes_->Increment(rec.host_writes.size());
  return rec.lsn;
}

Lsn Wal::AppendSwitchIntent(uint32_t client_seq,
                            std::span<const sw::Instruction> instrs) {
  LogRecord& rec = NextSlot();
  rec.kind = LogKind::kSwitchIntent;
  rec.client_seq = client_seq;
  rec.instrs = Persist(instrs);
  // The result slots are reserved now, so the response fills them in place
  // without allocating.
  if (!instrs.empty()) {
    rec.results = {AllocateArray<Value64>(*live_.back(), instrs.size()),
                   instrs.size()};
  }
  switch_intents_->Increment();
  return rec.lsn;
}

void Wal::FillSwitchResult(Lsn lsn, Gid gid,
                           std::span<const Value64> results) {
  assert(lsn < end_);
  if (lsn < begin_lsn()) return;
  LogRecord& rec = live_[lsn / kSegmentRecords - first_segment_]
                       ->records[lsn % kSegmentRecords];
  assert(rec.kind == LogKind::kSwitchIntent);
  assert(!rec.has_result);
  assert(results.size() <= rec.results.size());
  // The slots are this log's own arena memory; only the view is const.
  Value64* slots = const_cast<Value64*>(rec.results.data());
  std::copy(results.begin(), results.end(), slots);
  rec.results = {slots, results.size()};
  rec.gid = gid;
  rec.has_result = true;
}

void Wal::TruncateBefore(Lsn lsn) {
  lsn = std::min(lsn, end_);
  if (lsn / kSegmentRecords <= first_segment_) return;
  const size_t drop = lsn / kSegmentRecords - first_segment_;
  free_.insert(free_.end(), live_.begin(), live_.begin() + drop);
  live_.erase(live_.begin(), live_.begin() + drop);
  first_segment_ += drop;
}

}  // namespace p4db::db
