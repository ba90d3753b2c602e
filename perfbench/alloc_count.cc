// Replacement of the global operator new / delete family that counts calls
// into operator new while armed: the definition of tests/alloc_counter.h,
// which bench_hotpath's allocs_per_txn reports. The aligned forms keep the
// library's own pair and are not counted (the engine does not use them).

#include "alloc_count.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace p4db::perfbench {
namespace {

std::atomic<bool> g_armed{false};
std::atomic<uint64_t> g_allocs{0};

void* CountedAlloc(std::size_t n) noexcept {
  if (g_armed.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(n == 0 ? 1 : n);
}

}  // namespace

void SetAllocCounting(bool on) { g_armed.store(on); }

uint64_t AllocCount() { return g_allocs.load(); }

}  // namespace p4db::perfbench

using p4db::perfbench::CountedAlloc;

void* operator new(std::size_t n) {
  if (void* p = CountedAlloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return CountedAlloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return CountedAlloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
