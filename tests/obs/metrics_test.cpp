#include "vpmem/obs/metrics.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace vpmem::obs {
namespace {

TEST(Counter, IncAndValue) {
  Counter c;
  EXPECT_EQ(c.value(), 0);
  c.inc();
  c.inc(5);
  EXPECT_EQ(c.value(), 6);
  EXPECT_EQ(c.to_json().as_int(), 6);
}

TEST(Histogram, BucketOfEdgeCases) {
  // Bucket 0 = {0}; bucket b >= 1 covers [2^(b-1), 2^b - 1].
  EXPECT_EQ(Histogram::bucket_of(0), 0u);
  EXPECT_EQ(Histogram::bucket_of(1), 1u);
  EXPECT_EQ(Histogram::bucket_of(2), 2u);
  EXPECT_EQ(Histogram::bucket_of(3), 2u);
  EXPECT_EQ(Histogram::bucket_of(4), 3u);
  EXPECT_EQ(Histogram::bucket_of(7), 3u);
  EXPECT_EQ(Histogram::bucket_of(8), 4u);
  EXPECT_EQ(Histogram::bucket_of((i64{1} << 40) - 1), 40u);
  EXPECT_EQ(Histogram::bucket_of(i64{1} << 40), 41u);
  // Negative samples clamp into bucket 0.
  EXPECT_EQ(Histogram::bucket_of(-3), 0u);
}

TEST(Histogram, BucketBoundsAreConsistent) {
  for (std::size_t b = 0; b < 20; ++b) {
    const i64 lo = Histogram::bucket_floor(b);
    const i64 hi = Histogram::bucket_ceil(b);
    EXPECT_LE(lo, hi) << "bucket " << b;
    EXPECT_EQ(Histogram::bucket_of(lo), b) << "floor of bucket " << b;
    EXPECT_EQ(Histogram::bucket_of(hi), b) << "ceil of bucket " << b;
    if (b > 0) {
      EXPECT_EQ(Histogram::bucket_of(lo - 1), b - 1);
    }
  }
}

TEST(Histogram, EmptyStats) {
  const Histogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.sum(), 0);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_TRUE(h.buckets().empty());
}

TEST(Histogram, RecordAndAggregates) {
  Histogram h;
  h.record(0);
  h.record(1);
  h.record(3);
  h.record(3);
  h.record(9);
  EXPECT_EQ(h.count(), 5);
  EXPECT_EQ(h.sum(), 16);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 9);
  EXPECT_DOUBLE_EQ(h.mean(), 16.0 / 5.0);
  // buckets: [0]=1 (value 0), [1]=1 (value 1), [2]=2 (the 3s), [3]=0,
  // [4]=1 (value 9, range 8..15)
  ASSERT_EQ(h.buckets().size(), 5u);
  EXPECT_EQ(h.buckets()[0], 1);
  EXPECT_EQ(h.buckets()[1], 1);
  EXPECT_EQ(h.buckets()[2], 2);
  EXPECT_EQ(h.buckets()[3], 0);
  EXPECT_EQ(h.buckets()[4], 1);
}

TEST(Histogram, NegativeSamplesClampToZero) {
  Histogram h;
  h.record(-5);
  EXPECT_EQ(h.count(), 1);
  EXPECT_EQ(h.sum(), 0);
  EXPECT_EQ(h.max(), 0);
  ASSERT_EQ(h.buckets().size(), 1u);
  EXPECT_EQ(h.buckets()[0], 1);
}

TEST(Histogram, ToJsonOmitsEmptyBuckets) {
  Histogram h;
  h.record(1);
  h.record(9);  // leaves buckets 2 and 3 empty between the samples
  const Json j = h.to_json();
  EXPECT_EQ(j.at("count").as_int(), 2);
  EXPECT_EQ(j.at("sum").as_int(), 10);
  const auto& buckets = j.at("buckets").as_array();
  ASSERT_EQ(buckets.size(), 2u);
  EXPECT_EQ(buckets[0].at("le").as_int(), Histogram::bucket_ceil(1));
  EXPECT_EQ(buckets[0].at("count").as_int(), 1);
  EXPECT_EQ(buckets[1].at("le").as_int(), Histogram::bucket_ceil(4));
  EXPECT_EQ(buckets[1].at("count").as_int(), 1);
}

TEST(MetricsRegistry, GetOrCreateReturnsSameInstance) {
  MetricsRegistry reg;
  Counter& a = reg.counter("grants");
  a.inc(3);
  Counter& b = reg.counter("grants");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.value(), 3);
  EXPECT_EQ(reg.size(), 1u);
  EXPECT_TRUE(reg.contains("grants"));
  EXPECT_FALSE(reg.contains("gauges"));
}

TEST(MetricsRegistry, ReferencesSurviveLaterRegistrations) {
  MetricsRegistry reg;
  Counter& c = reg.counter("first");
  for (int i = 0; i < 100; ++i) reg.counter("extra." + std::to_string(i));
  c.inc();
  EXPECT_EQ(reg.counter("first").value(), 1);
}

TEST(MetricsRegistry, KindMismatchThrows) {
  MetricsRegistry reg;
  reg.counter("x");
  EXPECT_THROW(reg.histogram("x"), std::invalid_argument);
  reg.histogram("h");
  EXPECT_THROW(reg.counter("h"), std::invalid_argument);
}

TEST(MetricsRegistry, ToJsonPreservesRegistrationOrder) {
  MetricsRegistry reg;
  reg.counter("z").inc(1);
  reg.counter("a").inc(2);
  reg.histogram("m").record(4);
  const Json j = reg.to_json();
  const auto& members = j.as_object();
  ASSERT_EQ(members.size(), 3u);
  EXPECT_EQ(members[0].first, "z");
  EXPECT_EQ(members[1].first, "a");
  EXPECT_EQ(members[2].first, "m");
  EXPECT_EQ(members[0].second.as_int(), 1);
  EXPECT_EQ(members[1].second.as_int(), 2);
  EXPECT_EQ(members[2].second.at("count").as_int(), 1);
}

}  // namespace
}  // namespace vpmem::obs
