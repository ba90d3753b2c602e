#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include "common/arena.h"
#include "common/object_pool.h"

// Exactly one TU per binary may include this (it replaces operator new).
#include "alloc_counter.h"

namespace p4db {
namespace {

// ----------------------------------------------------------------- Arena --

TEST(ArenaTest, AllocationsAreAlignedAndDisjoint) {
  Arena arena;
  void* a = arena.Allocate(24, 8);
  void* b = arena.Allocate(1, 1);
  void* c = arena.Allocate(64, 64);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(a) % 8, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(c) % 64, 0u);
  std::memset(a, 0xAA, 24);
  std::memset(b, 0xBB, 1);
  std::memset(c, 0xCC, 64);
  EXPECT_EQ(*static_cast<unsigned char*>(a), 0xAA);
  EXPECT_EQ(*static_cast<unsigned char*>(b), 0xBB);
  EXPECT_EQ(*static_cast<unsigned char*>(c), 0xCC);
}

TEST(ArenaTest, HandedOutPointersStayStableAcrossChunkRetirement) {
  // The WAL holds spans into its arena for the process lifetime, so a chunk
  // must never move once addresses have been handed out.
  Arena arena(/*chunk_bytes=*/256);
  std::vector<uint64_t*> ptrs;
  for (uint64_t i = 0; i < 1000; ++i) {
    uint64_t* p = arena.AllocateArray<uint64_t>(1);
    *p = i;
    ptrs.push_back(p);
  }
  for (uint64_t i = 0; i < 1000; ++i) {
    EXPECT_EQ(*ptrs[i], i);
  }
}

TEST(ArenaTest, OversizedAllocationGetsDedicatedChunk) {
  Arena arena(/*chunk_bytes=*/128);
  void* small = arena.Allocate(8);
  void* big = arena.Allocate(4096);
  std::memset(big, 0x5A, 4096);
  EXPECT_NE(small, nullptr);
  EXPECT_NE(big, nullptr);
  EXPECT_GE(arena.bytes_capacity(), 4096u + 128u);
}

TEST(ArenaTest, ResetReusesChunksWithoutGrowing) {
  Arena arena(/*chunk_bytes=*/512);
  for (int i = 0; i < 100; ++i) arena.Allocate(64);
  const size_t warmed_capacity = arena.bytes_capacity();

  const testing::AllocSnapshot before = testing::CaptureAllocs();
  for (int round = 0; round < 50; ++round) {
    arena.Reset();
    for (int i = 0; i < 100; ++i) arena.Allocate(64);
  }
  const testing::AllocSnapshot after = testing::CaptureAllocs();

  EXPECT_EQ(after.allocs - before.allocs, 0u)
      << "warmed Reset/refill cycles must not touch the heap";
  EXPECT_EQ(arena.bytes_capacity(), warmed_capacity);
}

TEST(ArenaTest, ReserveMakesNextAllocateChunkFree) {
  Arena arena(/*chunk_bytes=*/256);
  arena.Reserve(10000);
  const testing::AllocSnapshot before = testing::CaptureAllocs();
  void* p = arena.Allocate(10000);
  const testing::AllocSnapshot after = testing::CaptureAllocs();
  EXPECT_NE(p, nullptr);
  EXPECT_EQ(after.allocs - before.allocs, 0u);
}

TEST(ArenaTest, BytesUsedTracksRequests) {
  Arena arena;
  EXPECT_EQ(arena.bytes_used(), 0u);
  arena.Allocate(100);
  arena.Allocate(28);
  EXPECT_EQ(arena.bytes_used(), 128u);
  arena.Reset();
  EXPECT_EQ(arena.bytes_used(), 0u);
}

// -------------------------------------------------------------- FreePool --

TEST(FreePoolTest, RecyclesBlocksOfTheSameClass)
{
  void* a = FreePool::Allocate(100);
  FreePool::Free(a);
  void* b = FreePool::Allocate(100);  // same 64-byte class -> same block
  EXPECT_EQ(a, b);
  FreePool::Free(b);
}

TEST(FreePoolTest, SteadyStateCycleIsAllocationFree) {
  // Warm one block per class we use, then cycle: no operator-new calls.
  for (size_t bytes : {32u, 200u, 1000u}) {
    FreePool::Free(FreePool::Allocate(bytes));
  }
  const testing::AllocSnapshot before = testing::CaptureAllocs();
  for (int i = 0; i < 1000; ++i) {
    for (size_t bytes : {32u, 200u, 1000u}) {
      FreePool::Free(FreePool::Allocate(bytes));
    }
  }
  const testing::AllocSnapshot after = testing::CaptureAllocs();
  EXPECT_EQ(after.allocs - before.allocs, 0u);
}

TEST(FreePoolTest, PayloadIsMaxAligned) {
  void* p = FreePool::Allocate(48);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % alignof(std::max_align_t), 0u);
  FreePool::Free(p);
}

TEST(FreePoolTest, OversizedFallsThroughToPlainNew) {
  // > 4 KiB payloads are class 0: every call allocates, every free frees.
  const testing::AllocSnapshot before = testing::CaptureAllocs();
  void* p = FreePool::Allocate(8192);
  FreePool::Free(p);
  const testing::AllocSnapshot after = testing::CaptureAllocs();
  EXPECT_EQ(after.allocs - before.allocs, 1u);
  EXPECT_EQ(after.frees - before.frees, 1u);
}

TEST(FreePoolTest, DistinctLiveBlocksDoNotAlias) {
  void* a = FreePool::Allocate(64);
  void* b = FreePool::Allocate(64);
  EXPECT_NE(a, b);
  std::memset(a, 0x11, 64);
  std::memset(b, 0x22, 64);
  EXPECT_EQ(*static_cast<unsigned char*>(a), 0x11);
  EXPECT_EQ(*static_cast<unsigned char*>(b), 0x22);
  FreePool::Free(a);
  FreePool::Free(b);
}

TEST(FreePoolTest, ReleaseThreadCacheReturnsEveryBlockFreedOnAThread) {
  // A thread's free lists die with it: a pool thread must release them
  // before it returns, or every block it freed is lost. The counters are
  // process-wide and the main thread sits in join(), so the deltas below
  // are exactly this thread's pool traffic.
  testing::AllocSnapshot before, after;
  std::thread worker([&before, &after] {
    std::vector<void*> live;
    live.reserve(1200);
    before = testing::CaptureAllocs();
    for (int i = 0; i < 300; ++i) {
      for (size_t bytes : {32u, 200u, 1000u, 4000u}) {
        live.push_back(FreePool::Allocate(bytes));
      }
    }
    for (void* p : live) FreePool::Free(p);
    FreePool::ReleaseThreadCache();
    after = testing::CaptureAllocs();
  });
  worker.join();
  EXPECT_GT(after.allocs - before.allocs, 0u);
  EXPECT_EQ(after.frees - before.frees, after.allocs - before.allocs);
}

TEST(FreePoolTest, MissesGrowAClassGeometrically) {
  // On a fresh thread (empty lists): holding n live blocks of one class
  // costs at most 2n blocks in about log2(n) growth steps, and a class
  // serves any later peak up to its size without operator new.
  std::thread worker([] {
    std::vector<void*> live;
    live.reserve(128);
    const testing::AllocSnapshot a0 = testing::CaptureAllocs();
    for (int i = 0; i < 100; ++i) live.push_back(FreePool::Allocate(200));
    const testing::AllocSnapshot a1 = testing::CaptureAllocs();
    EXPECT_EQ(a1.allocs - a0.allocs, 128u);  // 1 + 1 + 2 + ... + 64
    for (int i = 0; i < 28; ++i) live.push_back(FreePool::Allocate(200));
    for (void* p : live) FreePool::Free(p);
    live.clear();
    for (int i = 0; i < 128; ++i) live.push_back(FreePool::Allocate(200));
    EXPECT_EQ(testing::CaptureAllocs().allocs - a1.allocs, 0u);
    for (void* p : live) FreePool::Free(p);
    FreePool::ReleaseThreadCache();
  });
  worker.join();
}

}  // namespace
}  // namespace p4db
