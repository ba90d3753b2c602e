#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/types.h"

namespace p4db {
namespace {

// ---------------------------------------------------------------- Status --

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), Code::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::Aborted("lock denied");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Code::kAborted);
  EXPECT_EQ(s.message(), "lock denied");
  EXPECT_EQ(s.ToString(), "ABORTED: lock denied");
}

TEST(StatusTest, EqualityComparesCodeOnly) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound() == Status::Aborted());
}

TEST(StatusTest, AllCodesHaveNames) {
  for (Code c : {Code::kOk, Code::kAborted, Code::kNotFound,
                 Code::kInvalidArgument, Code::kCapacityExceeded,
                 Code::kConstraintViolation, Code::kUnsupported,
                 Code::kInternal}) {
    EXPECT_STRNE(CodeName(c), "UNKNOWN");
  }
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  EXPECT_EQ(v.value_or(0), 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = Status::NotFound("x");
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), Code::kNotFound);
  EXPECT_EQ(v.value_or(-1), -1);
}

// ------------------------------------------------------------------- Rng --

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 3);
}

TEST(RngTest, NextRangeStaysInBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextRange(17), 17u);
  }
}

TEST(RngTest, NextRangeCoversAllValues) {
  Rng rng(9);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.NextRange(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, NextRangeIsRoughlyUniform) {
  Rng rng(11);
  constexpr int kBuckets = 10;
  constexpr int kSamples = 100000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kSamples; ++i) ++counts[rng.NextRange(kBuckets)];
  for (int c : counts) {
    EXPECT_NEAR(c, kSamples / kBuckets, kSamples / kBuckets * 0.1);
  }
}

TEST(RngTest, NextIntInclusiveBounds) {
  Rng rng(13);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const int64_t v = rng.NextInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(17);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, NextBoolMatchesProbability) {
  Rng rng(19);
  int yes = 0;
  for (int i = 0; i < 100000; ++i) yes += rng.NextBool(0.25);
  EXPECT_NEAR(yes / 100000.0, 0.25, 0.01);
}

// Golden first draws per seed: every seeded result (samples, plans, runs)
// depends on this exact stream. The bound 2^63 + 1 rejects about half of
// its draws, so the pin also covers Lemire's rejection loop: the four
// bounded draws consume more than four raw values.
TEST(RngTest, StreamIsPinned) {
  struct Golden {
    uint64_t seed;
    uint64_t next[3];
    uint64_t range10;
    uint64_t range_prime;
    uint64_t range_huge[4];
    uint64_t huge_draws;
    double doubles[2];
    bool bools[8];
    uint64_t last;
  };
  const Golden kGolden[] = {
      {42,
       {0x15780b2e0c2ec716ULL, 0x6104d9866d113a7eULL, 0xae17533239e499a1ULL},
       9,
       991803921,
       {0x6286d29880bca91cULL, 0x5c10aa42ad32eed9ULL, 0x6174b739374bb23fULL,
        0x2534edcc39d7c4b2ULL},
       7,
       {0.80102429752880777, 0.32141163331535028},
       {false, false, false, false, false, false, true, true},
       0x6faa904a94c529bdULL},
      {1234,
       {0x0bab45d9a0e3ae53ULL, 0xd7c640660c19433eULL, 0xb0dedaa0d09a6691ULL},
       8,
       101145191,
       {0x39b930890edfcb73ULL, 0x4a1cd4ca5ae0d717ULL, 0x531e2737412a1c58ULL,
        0x406ff2de2c00f0baULL},
       6,
       {0.22784908222460387, 0.14726706301745462},
       {false, true, false, false, false, false, false, false},
       0x406794df6c6bb2b2ULL},
  };
  constexpr uint64_t kHuge = (uint64_t{1} << 63) + 1;
  for (const Golden& g : kGolden) {
    SCOPED_TRACE(g.seed);
    Rng rng(g.seed);
    for (const uint64_t v : g.next) EXPECT_EQ(rng.Next(), v);
    EXPECT_EQ(rng.NextRange(10), g.range10);
    EXPECT_EQ(rng.NextRange(1000000007), g.range_prime);
    Rng probe = rng;
    for (const uint64_t v : g.range_huge) EXPECT_EQ(rng.NextRange(kHuge), v);
    // Count the raw draws the bounded ones consumed.
    const uint64_t after = Rng(rng).Next();
    uint64_t draws = 0;
    while (probe.Next() != after && draws < 64) ++draws;
    EXPECT_EQ(draws, g.huge_draws);
    EXPECT_GT(draws, 4u);
    for (const double d : g.doubles) EXPECT_EQ(rng.NextDouble(), d);
    for (const bool b : g.bools) EXPECT_EQ(rng.NextBool(0.5), b);
    EXPECT_EQ(rng.Next(), g.last);
  }
}

// ------------------------------------------------------------- Histogram --

TEST(HistogramTest, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Mean(), 0.0);
  EXPECT_EQ(h.Quantile(0.5), 0);
}

TEST(HistogramTest, SingleValue) {
  Histogram h;
  h.Record(1000);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 1000);
  EXPECT_EQ(h.max(), 1000);
  EXPECT_EQ(h.Mean(), 1000.0);
  EXPECT_EQ(h.Quantile(0.5), 1000);
}

TEST(HistogramTest, QuantilesApproximateWithinBucketError) {
  Histogram h;
  for (int i = 1; i <= 10000; ++i) h.Record(i);
  // Log-bucketed: ~5% relative error budget, give 10% slack.
  EXPECT_NEAR(h.Quantile(0.5), 5000, 500);
  EXPECT_NEAR(h.Quantile(0.99), 9900, 990);
  EXPECT_EQ(h.Quantile(1.0), 10000);
}

TEST(HistogramTest, MeanIsExact) {
  Histogram h;
  h.Record(100);
  h.Record(200);
  h.Record(300);
  EXPECT_DOUBLE_EQ(h.Mean(), 200.0);
}

TEST(HistogramTest, MergeCombines) {
  Histogram a, b;
  a.Record(10);
  b.Record(1000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 10);
  EXPECT_EQ(a.max(), 1000);
}

TEST(HistogramTest, ResetClears) {
  Histogram h;
  h.Record(5);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0);
}

TEST(HistogramTest, WideningKeptSub65536BucketMappingIdentical) {
  // The 1024-bucket layout extends the retired 256-bucket one (PR 9): any
  // value the old layout resolved maps to the same bucket index with the
  // same [lower, upper) bounds, so every sub-ceiling committed-baseline
  // quantile is bit-identical across the widening — only the tail that
  // used to clamp into the old terminal bucket at 2^16 ns gained
  // resolution. This pins that contract against the old formula.
  Histogram h;
  for (int64_t v = 1; v < 65536; ++v) h.Record(v);
  int max_bucket = 0;
  h.ForEachBucket([&](int bucket, int64_t lower, int64_t upper,
                      uint64_t count) {
    max_bucket = bucket;
    // Old formula: 16 sub-buckets per power of two, bucket = 16*log2 + sub
    // (sub only above the 16-slot granularity floor). Bucket 0's lower
    // bound is int64 min (it absorbs v <= 0), so index the formula by the
    // smallest positive value the bucket holds.
    const int64_t rep = std::max<int64_t>(lower, 1);
    const int log2 = 63 - std::countl_zero(static_cast<uint64_t>(rep));
    const int sub = log2 > 4 ? static_cast<int>((rep >> (log2 - 4)) & 15) : 0;
    EXPECT_EQ(bucket, log2 * 16 + sub);
    // Bounds are what the old layout used, and the count is exactly the
    // integers the range holds (no neighbor leakage).
    EXPECT_EQ(count, static_cast<uint64_t>(upper - rep));
    EXPECT_LT(bucket, 256);
  });
  EXPECT_EQ(max_bucket, 255);
  // The previously-clamped tail now resolves: a 1 ms sample lands in its
  // own log-linear bucket far past the old terminal index, bounded within
  // the layout's ~6% relative error.
  Histogram tail;
  tail.Record(1000000);
  tail.ForEachBucket([](int bucket, int64_t lower, int64_t upper, uint64_t) {
    EXPECT_GT(bucket, 255);
    EXPECT_LE(lower, 1000000);
    EXPECT_GT(upper, 1000000);
    EXPECT_LT(static_cast<double>(upper - lower) / 1000000.0, 0.07);
  });
}

TEST(HistogramTest, HandlesNonPositiveValues) {
  Histogram h;
  h.Record(0);
  h.Record(-5);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.min(), -5);
}

TEST(HistogramTest, QuantileEdgeCases) {
  Histogram h;
  // Empty: every quantile is 0, including the extremes.
  EXPECT_EQ(h.Quantile(0.0), 0);
  EXPECT_EQ(h.Quantile(1.0), 0);
  // Single sample: every quantile is that sample.
  h.Record(1000);
  EXPECT_EQ(h.Quantile(0.0), 1000);
  EXPECT_EQ(h.Quantile(0.5), 1000);
  EXPECT_EQ(h.Quantile(1.0), 1000);
  // Out-of-range q clamps instead of reading out of bounds.
  EXPECT_EQ(h.Quantile(-0.5), 1000);
  EXPECT_EQ(h.Quantile(2.0), 1000);
}

TEST(HistogramTest, NamedTailAccessorsCoverTheDeepTail) {
  Histogram h;
  // Empty histogram: every named quantile is 0.
  EXPECT_EQ(h.P50(), 0);
  EXPECT_EQ(h.P99(), 0);
  EXPECT_EQ(h.P999(), 0);
  // Single sample: every named quantile is that sample.
  h.Record(1000);
  EXPECT_EQ(h.P50(), 1000);
  EXPECT_EQ(h.P99(), 1000);
  EXPECT_EQ(h.P999(), 1000);
  // 2-in-1000 deep-tail outliers: invisible at p99 (rank 990), visible at
  // p999 (rank 999) — the whole reason the accessor exists. The outlier
  // stays inside the log-bucket range (values past ~2^16 share the last
  // bucket and lose resolution).
  for (int i = 0; i < 997; ++i) h.Record(1000);
  h.Record(50000);
  h.Record(50000);
  EXPECT_LT(h.P99(), 10000);
  EXPECT_GT(h.P999(), 30000);
  EXPECT_LE(h.P50(), h.P99());
  EXPECT_LE(h.P99(), h.P999());
  EXPECT_LE(h.P999(), h.max());
}

TEST(HistogramTest, QuantileZeroAndOneBracketTheData) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.Record(i);
  EXPECT_GE(h.Quantile(0.0), h.min());
  EXPECT_LE(h.Quantile(0.0), h.max());
  EXPECT_EQ(h.Quantile(1.0), h.max());
}

TEST(HistogramTest, QuantileClampsToRangeForNegativeValues) {
  Histogram h;
  h.Record(-5);
  h.Record(-3);
  // Non-positive values share bucket 0 (midpoint 1); the clamp keeps the
  // answer inside the recorded range instead of inventing a positive value.
  const int64_t q50 = h.Quantile(0.5);
  EXPECT_GE(q50, -5);
  EXPECT_LE(q50, -3);
}

TEST(HistogramTest, ForEachBucketVisitsAscendingDisjointNonEmptyBuckets) {
  Histogram h;
  h.Record(-1);
  h.Record(1);
  h.Record(100);
  h.Record(1 << 20);
  uint64_t total = 0;
  int prev_bucket = -1;
  int64_t prev_upper = std::numeric_limits<int64_t>::min();
  h.ForEachBucket(
      [&](int bucket, int64_t lower, int64_t upper, uint64_t count) {
        EXPECT_GT(count, 0u);
        EXPECT_GT(bucket, prev_bucket);
        EXPECT_LT(lower, upper);
        EXPECT_GE(lower, prev_upper);
        prev_bucket = bucket;
        prev_upper = upper;
        total += count;
      });
  EXPECT_EQ(total, h.count());
}

TEST(HistogramTest, AppendBucketsJsonIsExact) {
  Histogram h;
  h.Record(1);
  h.Record(1);
  std::string out;
  h.AppendBucketsJson(&out);
  // Bucket 0 absorbs everything <= 1; its lower bound is int64 min and its
  // exclusive upper bound is 2.
  EXPECT_EQ(out, "[[-9223372036854775808, 2, 2]]");
  Histogram empty;
  out.clear();
  empty.AppendBucketsJson(&out);
  EXPECT_EQ(out, "[]");
}

// ----------------------------------------------------------------- Types --

TEST(TupleIdTest, HashAndEquality) {
  TupleId a{1, 42}, b{1, 42}, c{2, 42}, d{1, 43};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(a, d);
  TupleIdHash h;
  EXPECT_EQ(h(a), h(b));
  EXPECT_NE(h(a), h(c));  // not guaranteed in general, but holds here
}

}  // namespace
}  // namespace p4db
