#ifndef P4DB_SIM_INLINE_EVENT_H_
#define P4DB_SIM_INLINE_EVENT_H_

#include <coroutine>
#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

#include "common/object_pool.h"

namespace p4db::sim {

/// Type-erased, move-only nullary callback with a small-buffer optimization.
///
/// The simulator fires tens of millions of these per benchmark run; the old
/// `std::function<void()>` heap-allocated every capture beyond libstdc++'s
/// 16-byte SBO (two pointers already exceed it once a `this` and a pooled
/// frame ride along). InlineEvent stores captures up to kInlineCapacity
/// bytes directly in the event object, so the common schedule patterns —
/// `[this, fl]`, `[this, node, txn_id]`, a coroutine handle — never touch
/// the allocator. Larger captures fall back to a single pooled block.
///
/// A queued event never moves: the event queue builds the payload in place
/// inside its pooled node (Emplace / SetResume), invokes it where it sits
/// and Resets it when it has run. Moves exist only for the sharded
/// runtime's mailbox records, which travel by value until they are merged
/// into a shard's queue.
///
/// kInlineCapacity is a size contract: 40 bytes + the vtable pointer is a
/// 48-byte, 16-aligned object that, with the node's time and link, fills
/// one 64-byte queue node. Growing it spills the node past a cache line;
/// shrinking it silently demotes hot-path lambdas to the pool. Keep
/// hot-path captures at or under 40 bytes; see DESIGN.md "Simulator core".
class InlineEvent {
 public:
  static constexpr size_t kInlineCapacity = 40;

  InlineEvent() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineEvent>>>
  InlineEvent(F&& fn) {  // NOLINT(google-explicit-constructor)
    Emplace(std::forward<F>(fn));
  }

  InlineEvent(InlineEvent&& other) noexcept : vt_(other.vt_) {
    if (vt_ != nullptr) {
      Relocate(other);
      other.vt_ = nullptr;
    }
  }

  InlineEvent& operator=(InlineEvent&& other) noexcept {
    if (this != &other) {
      Reset();
      vt_ = other.vt_;
      if (vt_ != nullptr) {
        Relocate(other);
        other.vt_ = nullptr;
      }
    }
    return *this;
  }

  InlineEvent(const InlineEvent&) = delete;
  InlineEvent& operator=(const InlineEvent&) = delete;

  ~InlineEvent() { Reset(); }

  /// Builds `fn` in place. Precondition: empty. An InlineEvent argument is
  /// moved in (a mailbox record entering a queue node).
  template <typename F>
  void Emplace(F&& fn) {
    using Fn = std::decay_t<F>;
    if constexpr (std::is_same_v<Fn, InlineEvent>) {
      *this = std::forward<F>(fn);
    } else if constexpr (sizeof(Fn) <= kInlineCapacity &&
                         alignof(Fn) <= kStorageAlign &&
                         std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
      vt_ = &kInlineVt<Fn>;
    } else {
      // Oversized captures (e.g. a switch reply carrying a SwitchResult)
      // recycle through the FreePool instead of hitting the allocator.
      void* block = FreePool::Allocate(sizeof(Fn));
      *reinterpret_cast<Fn**>(storage_) =
          ::new (block) Fn(std::forward<F>(fn));
      vt_ = &kHeapVt<Fn>;
    }
  }

  /// Coroutine-wakeup fast path: stores only the frame address; no functor
  /// is constructed and invoke is a direct handle.resume(). Precondition:
  /// empty.
  void SetResume(std::coroutine_handle<> h) noexcept {
    *reinterpret_cast<void**>(storage_) = h.address();
    vt_ = &kResumeVt;
  }

  /// Destroys the payload, leaving the event empty.
  void Reset() noexcept {
    if (vt_ != nullptr) {
      if (vt_->destroy != nullptr) vt_->destroy(storage_);
      vt_ = nullptr;
    }
  }

  void operator()() { vt_->invoke(storage_); }

  explicit operator bool() const noexcept { return vt_ != nullptr; }

 private:
  static constexpr size_t kStorageAlign = alignof(std::max_align_t);

  /// relocate = move-construct into dst from src, then destroy src; only
  /// mailbox records (vectors that grow) relocate. `trivial` marks captures
  /// relocatable by plain memcpy (trivially copyable functors, pool
  /// pointers, coroutine handles). `destroy` is null when there is nothing
  /// to destroy, so releasing a run event costs no indirect call.
  struct VTable {
    void (*invoke)(void* self);
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* self) noexcept;
    bool trivial;
  };

  template <typename Fn>
  static constexpr VTable kInlineVt = {
      [](void* self) { (*static_cast<Fn*>(self))(); },
      [](void* dst, void* src) noexcept {
        ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
        static_cast<Fn*>(src)->~Fn();
      },
      std::is_trivially_destructible_v<Fn>
          ? nullptr
          : +[](void* self) noexcept { static_cast<Fn*>(self)->~Fn(); },
      std::is_trivially_copyable_v<Fn>,
  };

  template <typename Fn>
  static constexpr VTable kHeapVt = {
      [](void* self) { (**static_cast<Fn**>(self))(); },
      [](void* dst, void* src) noexcept {
        std::memcpy(dst, src, sizeof(Fn*));
      },
      [](void* self) noexcept {
        Fn* fn = *static_cast<Fn**>(self);
        fn->~Fn();
        FreePool::Free(fn);
      },
      true,
  };

  static constexpr VTable kResumeVt = {
      [](void* self) {
        std::coroutine_handle<>::from_address(*static_cast<void**>(self))
            .resume();
      },
      [](void* dst, void* src) noexcept {
        std::memcpy(dst, src, sizeof(void*));
      },
      nullptr,
      true,
  };

  void Relocate(InlineEvent& other) noexcept {
    if (vt_->trivial) {
      // The whole buffer is copied; bytes past the functor are
      // indeterminate but unsigned char, so this is well-defined and lets
      // the compiler emit straight-line vector moves.
      std::memcpy(storage_, other.storage_, kInlineCapacity);
    } else {
      vt_->relocate(storage_, other.storage_);
    }
  }

  alignas(kStorageAlign) unsigned char storage_[kInlineCapacity];
  const VTable* vt_ = nullptr;
};

static_assert(sizeof(InlineEvent) == 48 && alignof(InlineEvent) == 16,
              "InlineEvent must fill exactly 48 bytes of a 64-byte node");

}  // namespace p4db::sim

#endif  // P4DB_SIM_INLINE_EVENT_H_
