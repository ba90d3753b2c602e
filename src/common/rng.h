#ifndef P4DB_COMMON_RNG_H_
#define P4DB_COMMON_RNG_H_

#include <cassert>
#include <cstdint>

namespace p4db {

/// Thread-local "who is executing" token for RNG ownership checks. The
/// parallel runtime installs the owning shard's token while that shard's
/// events execute; an Rng bound to a shard asserts (debug builds) that it
/// is only ever drawn from under that token. Legacy single-thread runs
/// leave the token null and every check passes — zero behavior change.
class RngOwnership {
 public:
  static const void*& Current() {
    static thread_local const void* current = nullptr;
    return current;
  }
};

/// Derives the seed for a shard-owned stream from the master seed: every
/// shard gets a statistically independent stream that is a pure function of
/// (seed, shard_id), so parallel runs stay reproducible.
inline uint64_t ShardSeed(uint64_t seed, uint64_t shard_id) {
  uint64_t x = seed ^ (0x9e3779b97f4a7c15ULL * (shard_id + 1));
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

/// Deterministic xoshiro256** PRNG. Every simulated entity owns its own
/// stream (seeded from a master seed + entity id) so that experiments are
/// bit-reproducible regardless of event interleaving. In the parallel
/// runtime streams are additionally bound to their owning shard
/// (BindOwner) and drawing from another shard's stream trips an assert.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL) { Seed(seed); }

  void Seed(uint64_t seed);

  /// Tags this stream as owned by `owner` (the shard token installed via
  /// RngOwnership while that shard executes). Passing nullptr unbinds.
  void BindOwner(const void* owner) { owner_ = owner; }

  /// Uniform 64-bit value. The draws below are defined here so workload
  /// generation (a few dozen draws per transaction) inlines them.
  uint64_t Next() {
    // Ownership check: a stream bound to a shard may only be drawn while
    // that shard's token is installed. Unbound streams (legacy mode,
    // offline sampling) and unattributed threads (token null) always pass.
    assert(owner_ == nullptr || RngOwnership::Current() == nullptr ||
           RngOwnership::Current() == owner_);
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// Uniform in [0, n). n must be > 0.
  uint64_t NextRange(uint64_t n) {
    assert(n > 0);
    // Lemire's nearly-divisionless bounded rejection sampling.
    __uint128_t m = static_cast<__uint128_t>(Next()) * n;
    if (static_cast<uint64_t>(m) < n) {
      const uint64_t t = -n % n;
      while (static_cast<uint64_t>(m) < t) {
        m = static_cast<__uint128_t>(Next()) * n;
      }
    }
    return static_cast<uint64_t>(m >> 64);
  }

  /// Uniform in [lo, hi] inclusive.
  int64_t NextInt(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  /// True with probability p.
  bool NextBool(double p) { return NextDouble() < p; }

 private:
  static uint64_t SplitMix64(uint64_t* state);
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t s_[4];
  const void* owner_ = nullptr;  // null = unowned (legacy / private streams)
};

}  // namespace p4db

#endif  // P4DB_COMMON_RNG_H_
