#ifndef P4DB_COMMON_OBJECT_POOL_H_
#define P4DB_COMMON_OBJECT_POOL_H_

#include <cstddef>
#include <new>

namespace p4db {

/// Size-classed free-list allocator for the simulator's per-transaction
/// short-lived blocks: coroutine frames (Task / CoTask promises) and
/// Future/Promise shared states. Blocks recycle through 64-byte-granular
/// classes up to 4 KiB; the first transaction of each shape pays the
/// operator-new, every later one reuses a block. Oversized requests fall
/// through to plain new/delete (class 0).
///
/// A 16-byte header in front of the payload records the class, keeping the
/// payload max_align_t-aligned. An empty class grows geometrically: a miss
/// allocates as many blocks as the class has grown so far (at least one),
/// so growth events are logarithmic in a class's high-water mark and
/// cluster at the start of a run. A concurrency peak first reached late
/// (an arrival burst) then usually finds a spare block instead of calling
/// operator new inside an allocation-free steady state.
///
/// The free lists are thread-local: each simulation thread recycles through
/// its own lists with zero synchronization, exactly as fast as the old
/// single-threaded globals. A block allocated on one thread and freed on
/// another (a coroutine frame that migrated shards and died elsewhere)
/// simply joins the freeing thread's list — safe, because every cross-shard
/// handoff in the parallel runtime is separated by a window barrier, which
/// orders the owning thread's writes before any reuse.
///
/// Freed blocks stay on the freeing thread's lists until that thread calls
/// ReleaseThreadCache(). The lists have no destructor, so a thread that
/// exits without releasing loses its blocks for good (leak checkers report
/// them); every short-lived thread that runs simulation work must release
/// before it returns. The main thread's lists stay reachable until exit.
class FreePool {
 public:
  static void* Allocate(size_t bytes) {
    const size_t total = bytes + kHeaderBytes;
    const size_t cls = (total + kGranularity - 1) / kGranularity;
    void* raw;
    if (cls >= kNumClasses) {
      raw = ::operator new(total);
      *static_cast<size_t*>(raw) = 0;
    } else {
      void*& head = free_lists_[cls];
      if (head == nullptr) Grow(cls);
      raw = head;
      head = *static_cast<void**>(raw);
      *static_cast<size_t*>(raw) = cls;
    }
    return static_cast<unsigned char*>(raw) + kHeaderBytes;
  }

  static void Free(void* p) noexcept {
    if (p == nullptr) return;
    void* raw = static_cast<unsigned char*>(p) - kHeaderBytes;
    const size_t cls = *static_cast<size_t*>(raw);
    if (cls == 0) {
      ::operator delete(raw);
      return;
    }
    *static_cast<void**>(raw) = free_lists_[cls];
    free_lists_[cls] = raw;
  }

  /// Returns every block on the calling thread's free lists to the heap and
  /// resets its growth state. Blocks still in use are unaffected.
  static void ReleaseThreadCache() noexcept {
    for (size_t cls = 1; cls < kNumClasses; ++cls) {
      void* p = free_lists_[cls];
      while (p != nullptr) {
        void* next = *static_cast<void**>(p);
        ::operator delete(p);
        p = next;
      }
      free_lists_[cls] = nullptr;
      grown_[cls] = 0;
    }
  }

  static constexpr size_t kHeaderBytes = 16;
  static constexpr size_t kGranularity = 64;
  static constexpr size_t kNumClasses = 65;  // classes 1..64 => up to 4 KiB

 private:
  /// Pushes max(1, blocks grown so far) fresh blocks onto class `cls`.
  static void Grow(size_t cls) {
    const size_t n = grown_[cls] == 0 ? 1 : grown_[cls];
    for (size_t i = 0; i < n; ++i) {
      void* raw = ::operator new(cls * kGranularity);
      *static_cast<void**>(raw) = free_lists_[cls];
      free_lists_[cls] = raw;
    }
    grown_[cls] += n;
  }

  static inline thread_local void* free_lists_[kNumClasses] = {};
  static inline thread_local size_t grown_[kNumClasses] = {};
};

/// Minimal std-compatible allocator over FreePool, for
/// std::allocate_shared of promise shared states (object + control block
/// land in one pooled allocation).
template <typename T>
struct PoolAllocator {
  using value_type = T;

  PoolAllocator() noexcept = default;
  template <typename U>
  PoolAllocator(const PoolAllocator<U>&) noexcept {}

  T* allocate(size_t n) {
    return static_cast<T*>(FreePool::Allocate(n * sizeof(T)));
  }
  void deallocate(T* p, size_t) noexcept { FreePool::Free(p); }

  friend bool operator==(const PoolAllocator&, const PoolAllocator&) {
    return true;
  }
};

}  // namespace p4db

#endif  // P4DB_COMMON_OBJECT_POOL_H_
