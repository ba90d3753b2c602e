#ifndef P4DB_SIM_EVENT_QUEUE_H_
#define P4DB_SIM_EVENT_QUEUE_H_

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.h"
#include "sim/inline_event.h"

namespace p4db::sim {

/// Two-level timing wheel plus an overflow heap; DESIGN.md §4c. Pops in
/// exactly ascending (time, seq) order, seq being insertion order.
///
/// Every event is one pooled 64-byte Node that never moves: Push links a
/// node and returns its empty payload for the caller to build in place;
/// PopMin unlinks a node, the caller runs its payload where it sits and
/// hands it back with Release. Lists are intrusive, through 32-bit handles.
///  * Fine level: one slot per ns over [base_, base_ + kFineSlots), each a
///    circular FIFO list (the slot stores its tail), found by a bitmap.
///  * Coarse level: kStacks stacks of 512 ns each, newest on top, ~8.4 ms.
///  * Overflow: a (time, seq) min-heap beyond that.
/// A block reaches a level (cascade, migration) when base_ first brings it
/// into that level's range, before any direct insert can reach it; its
/// fine slots are empty then, so prepending each node as its stack pops
/// keeps every slot in seq order. base_ moves only in PopMin, since the
/// popped event becomes now(); MinTime only peeks, because a caller may
/// stop its clock short of the earliest event and push below it.
class EventQueue {
 public:
  struct alignas(64) Node {
    InlineEvent fn;
    SimTime time = 0;
    uint32_t next = 0;  // slot, stack or free-list link; 4 spare bytes
  };
  static_assert(sizeof(Node) == 64, "a queue node is one cache line");

  static constexpr int kBlockBits = 12;  // base_ moves in 4096 ns blocks
  static constexpr size_t kFineSlots = size_t{1} << 14;
  static constexpr int kStackBits = 9;
  static constexpr size_t kStacks = size_t{1} << 14;
  /// First delay past base_ that lies beyond the coarse level.
  static constexpr SimTime kCoarseHorizon =
      static_cast<SimTime>(kFineSlots + (kStacks << kStackBits));

  EventQueue()
      : fine_tail_(std::make_unique_for_overwrite<uint32_t[]>(kFineSlots)),
        stack_top_(std::make_unique_for_overwrite<uint32_t[]>(kStacks)) {}
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }

  /// Queues an event at `time` (never below the last popped time) and
  /// returns its empty payload, which the caller fills in place before the
  /// next queue call.
  InlineEvent& Push(SimTime time) {
    assert(time >= base_);
    uint32_t h = free_;
    if (h != kNil) {
      free_ = node(h).next;
    } else {
      if (used_ == chunks_.size() * kChunkNodes) AddChunk();
      h = used_++;
    }
    Node& n = node(h);
    n.time = time;
    ++size_;
    Place(h, n);
    return n.fn;
  }

  /// Smallest (time, seq) event's timestamp. Queue must be non-empty.
  SimTime MinTime() {
    assert(size_ > 0);
    if (fine_count_ > 0) {
      FindFine();
      return scan_;
    }
    if (coarse_count_ == 0) return overflow_.front().time;
    SimTime t = INT64_MAX;  // a stack is in seq order, not time order
    for (uint32_t h = stack_top_[FirstStack() & (kStacks - 1)]; h != kNil;
         h = node(h).next) {
      t = std::min(t, node(h).time);
    }
    return t;
  }

  /// Unlinks the smallest (time, seq) event and returns its handle. The
  /// node stays where it is, with its payload, until Release(handle).
  uint32_t PopMin() {
    assert(size_ > 0);
    if (fine_count_ == 0) {  // move base_ to the first occupied block
      Rebase(coarse_count_ > 0
                 ? FirstStack() / kBlockStacks
                 : static_cast<uint64_t>(overflow_.front().time) >> kBlockBits);
    }
    const size_t s = FindFine();
    // Keep base_ within a block of the cursor, so direct inserts reach at
    // least one block short of kFineSlots ns ahead.
    if ((scan_ - base_) >> kBlockBits != 0) {
      Rebase(static_cast<uint64_t>(scan_) >> kBlockBits);
    }
    --size_;
    --fine_count_;
    Node& tail = node(fine_tail_[s]);
    const uint32_t head = tail.next;
    if (head != fine_tail_[s]) {
      tail.next = node(head).next;
      return head;
    }
    uint64_t& word = fine_bits_[s >> 6];
    word &= ~(uint64_t{1} << (s & 63));
    if (word == 0) fine_summary_[s >> 12] &= ~(uint64_t{1} << (s >> 6 & 63));
    // The slot is drained: fetch the next occupied slot's node while this
    // event runs. With many events in flight it has usually left the cache.
    const size_t after = FineNext((s + 1) & kFineMask);
    if (after < kFineSlots) __builtin_prefetch(&node(fine_tail_[after]));
    return head;
  }

  Node& node(uint32_t h) {
    return chunks_[h >> kChunkBits][h & (kChunkNodes - 1)];
  }

  /// Destroys a popped node's payload and recycles the node.
  void Release(uint32_t h) {
    Node& n = node(h);
    n.fn.Reset();
    n.next = free_;
    free_ = h;
  }

  /// Pre-allocates nodes (and the overflow heap) for `pending_events`
  /// simultaneously queued events, so steady-state scheduling never touches
  /// the allocator.
  void Reserve(size_t pending_events) {
    while (chunks_.size() * kChunkNodes < pending_events) AddChunk();
    overflow_.reserve(pending_events);
  }

  /// Destroys every queued payload unrun and recycles its node. A node that
  /// is popped but not yet released (the running event) is untouched.
  void Clear() {
    ForEachSet(fine_bits_, [this](size_t s) {
      Node& tail = node(fine_tail_[s]);
      const uint32_t head = tail.next;
      tail.next = kNil;  // open the circle into a chain
      ReleaseChain(head);
    });
    fine_summary_ = {};
    ForEachSet(stack_bits_, [this](size_t k) { ReleaseChain(stack_top_[k]); });
    for (const Far& f : overflow_) Release(f.node);
    overflow_.clear();
    fine_count_ = coarse_count_ = size_ = 0;
  }

 private:
  static constexpr uint32_t kNil = UINT32_MAX;
  static constexpr int kChunkBits = 10;  // 1024 nodes = 64 KiB per chunk
  static constexpr size_t kChunkNodes = size_t{1} << kChunkBits;
  static constexpr size_t kFineMask = kFineSlots - 1;
  static constexpr uint64_t kFineBlocks = kFineSlots >> kBlockBits;
  static constexpr size_t kBlockStacks = size_t{1} << (kBlockBits - kStackBits);
  static constexpr uint64_t kCoarseBlocks = kStacks / kBlockStacks;
  static_assert(kFineBlocks >= 2 && kBlockStacks <= 64);

  struct Far {
    SimTime time;
    uint64_t seq;
    uint32_t node;
  };
  struct LaterFirst {  // max-heap comparator -> std::*_heap act as min-heap
    bool operator()(const Far& a, const Far& b) const {
      return a.time != b.time ? a.time > b.time : a.seq > b.seq;
    }
  };

  uint64_t BaseBlock() const {
    return static_cast<uint64_t>(base_) >> kBlockBits;
  }

  void AddChunk() {
    assert(chunks_.size() < (size_t{kNil} >> kChunkBits) &&
           "node handle space exhausted");
    chunks_.push_back(std::make_unique<Node[]>(kChunkNodes));
  }

  /// Links node h into the level its block belongs to.
  void Place(uint32_t h, Node& n) {
    const uint64_t ahead =
        static_cast<uint64_t>(n.time - base_) >> kBlockBits;
    if (ahead < kFineBlocks) {
      LinkFine(h, n, /*at_head=*/false);
    } else if (ahead < kFineBlocks + kCoarseBlocks) {
      const size_t k =
          static_cast<size_t>(n.time >> kStackBits) & (kStacks - 1);
      uint64_t& word = stack_bits_[k >> 6];
      const uint64_t bit = uint64_t{1} << (k & 63);
      n.next = (word & bit) != 0 ? stack_top_[k] : kNil;
      stack_top_[k] = h;
      word |= bit;
      ++coarse_count_;
    } else {
      overflow_.push_back(Far{n.time, far_seq_++, h});
      std::push_heap(overflow_.begin(), overflow_.end(), LaterFirst{});
    }
  }

  /// Links node h into its fine slot's circular list: at the tail, or at
  /// the head for a cascade (which delivers newest first).
  void LinkFine(uint32_t h, Node& n, bool at_head) {
    const size_t s = static_cast<size_t>(n.time) & kFineMask;
    uint64_t& word = fine_bits_[s >> 6];
    const uint64_t bit = uint64_t{1} << (s & 63);
    uint32_t& tail = fine_tail_[s];
    if ((word & bit) != 0) {
      Node& t = node(tail);
      n.next = t.next;
      t.next = h;
      if (!at_head) tail = h;
    } else {
      n.next = h;
      tail = h;
      if (word == 0) fine_summary_[s >> 12] |= uint64_t{1} << (s >> 6 & 63);
      word |= bit;
    }
    ++fine_count_;
    if (n.time < scan_) scan_ = n.time;
  }

  /// First occupied fine slot at or after `from`, or kFineSlots.
  size_t FineNext(size_t from) const {
    size_t w = from >> 6;
    const uint64_t bits = fine_bits_[w] & (~uint64_t{0} << (from & 63));
    if (bits != 0) return (w << 6) | std::countr_zero(bits);
    for (++w; w < fine_bits_.size(); w = (w | 63) + 1) {
      const uint64_t sum = fine_summary_[w >> 6] & (~uint64_t{0} << (w & 63));
      if (sum != 0) {
        w = (w & ~size_t{63}) | std::countr_zero(sum);
        return (w << 6) | std::countr_zero(fine_bits_[w]);
      }
    }
    return kFineSlots;
  }

  /// Finds the earliest fine slot, moves scan_ to its time and returns it.
  /// The window maps onto the slots cyclically from scan_'s slot, and no
  /// fine event lies below scan_. Precondition: fine_count_ > 0.
  size_t FindFine() {
    const size_t from = static_cast<size_t>(scan_) & kFineMask;
    size_t s = FineNext(from);
    if (s == kFineSlots) s = FineNext(0);
    scan_ += static_cast<SimTime>((s - from) & kFineMask);
    return s;
  }

  /// Absolute number of the first occupied stack. Precondition:
  /// coarse_count_ > 0.
  uint64_t FirstStack() const {
    const uint64_t first = (BaseBlock() + kFineBlocks) * kBlockStacks;
    const size_t start = static_cast<size_t>(first) & (kStacks - 1);
    for (size_t i = 0; i <= stack_bits_.size(); ++i) {
      const size_t w = ((start >> 6) + i) % stack_bits_.size();
      uint64_t bits = stack_bits_[w];
      if (i == 0) bits &= ~uint64_t{0} << (start & 63);
      if (bits != 0) {
        const size_t k = (w << 6) | std::countr_zero(bits);
        return first + ((k - start) & (kStacks - 1));
      }
    }
    assert(false && "coarse level is empty");
    return first;
  }

  /// Moves base_ to `block`. Precondition: no pending event lies below it.
  /// Cascades the coarse blocks entering the fine window, then migrates the
  /// overflow blocks entering the coarse range.
  void Rebase(uint64_t block) {
    const uint64_t old = BaseBlock();
    const uint64_t end = std::min(block, old + kCoarseBlocks) + kFineBlocks;
    base_ = static_cast<SimTime>(block << kBlockBits);
    scan_ = std::max(scan_, base_);
    for (uint64_t b = std::max(block, old + kFineBlocks); b < end; ++b) {
      Cascade(b);
    }
    const uint64_t coarse_end = block + kFineBlocks + kCoarseBlocks;
    while (!overflow_.empty() &&
           static_cast<uint64_t>(overflow_.front().time) >> kBlockBits <
               coarse_end) {
      std::pop_heap(overflow_.begin(), overflow_.end(), LaterFirst{});
      const uint32_t h = overflow_.back().node;
      overflow_.pop_back();
      Place(h, node(h));
    }
  }

  /// Moves a block's stacks into the fine level, round-robin so that their
  /// cache misses overlap. The block's fine slots are empty (nothing could
  /// reach them before), so prepending each node as its stack pops, newest
  /// first, keeps every slot in insertion order.
  void Cascade(uint64_t block) {
    const size_t k0 = static_cast<size_t>(block * kBlockStacks) & (kStacks - 1);
    uint64_t& word = stack_bits_[k0 >> 6];
    const uint64_t set =
        word >> (k0 & 63) & ((uint64_t{1} << kBlockStacks) - 1);
    if (set == 0) return;
    word &= ~(set << (k0 & 63));
    uint32_t heads[kBlockStacks];
    for (size_t j = 0; j < kBlockStacks; ++j) {
      heads[j] = (set >> j & 1) != 0 ? stack_top_[k0 + j] : kNil;
    }
    for (bool more = true; more;) {
      more = false;
      for (uint32_t& h : heads) {
        if (h == kNil) continue;
        const uint32_t popped = h;
        Node& n = node(popped);
        h = n.next;
        --coarse_count_;
        LinkFine(popped, n, /*at_head=*/true);
        more = true;
      }
    }
  }

  /// Destroys and recycles every node of a kNil-terminated chain.
  void ReleaseChain(uint32_t h) {
    while (h != kNil) {
      const uint32_t next = node(h).next;
      Release(h);
      h = next;
    }
  }

  /// Calls f(i) for every set bit i, clearing the bits.
  template <size_t N, typename F>
  static void ForEachSet(std::array<uint64_t, N>& words, F&& f) {
    for (size_t w = 0; w < N; ++w) {
      for (; words[w] != 0; words[w] &= words[w] - 1) {
        f((w << 6) | std::countr_zero(words[w]));
      }
    }
  }

  std::vector<std::unique_ptr<Node[]>> chunks_;  // node storage, never moves
  uint32_t used_ = 0;     // nodes ever handed out
  uint32_t free_ = kNil;  // recycled nodes (LIFO, through `next`)

  // A fine tail or stack top is read only while its bit is set, so the
  // arrays need no initialization.
  std::unique_ptr<uint32_t[]> fine_tail_;
  std::array<uint64_t, kFineSlots / 64> fine_bits_{};
  std::array<uint64_t, kFineSlots / 4096> fine_summary_{};  // non-zero words
  std::unique_ptr<uint32_t[]> stack_top_;
  std::array<uint64_t, kStacks / 64> stack_bits_{};
  std::vector<Far> overflow_;  // min-heap on (time, seq)
  uint64_t far_seq_ = 0;       // insertion order among overflow events

  SimTime base_ = 0;  // fine window start, a multiple of kBlock
  SimTime scan_ = 0;  // no fine event lies below; base_ <= scan_
  size_t fine_count_ = 0;
  size_t coarse_count_ = 0;
  size_t size_ = 0;
};

}  // namespace p4db::sim

#endif  // P4DB_SIM_EVENT_QUEUE_H_
