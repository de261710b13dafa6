#include "stats.h"

#include <gtest/gtest.h>

namespace perfbench {
namespace {

TEST(Median, OddEvenAndEmpty) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0);
}

// Reference values from Python: statistics.quantiles(values, n=4).
TEST(Quartiles, MatchPythonExclusiveMethod) {
  const Quartiles a = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  EXPECT_DOUBLE_EQ(a.q1, 2.75);
  EXPECT_DOUBLE_EQ(a.q2, 5.5);
  EXPECT_DOUBLE_EQ(a.q3, 8.25);
  const Quartiles b = quartiles({10, 1, 7, 3});  // unsorted input
  EXPECT_DOUBLE_EQ(b.q1, 1.5);
  EXPECT_DOUBLE_EQ(b.q2, 5.0);
  EXPECT_DOUBLE_EQ(b.q3, 9.25);
  const Quartiles c = quartiles({2, 4});  // extrapolates past the ends
  EXPECT_DOUBLE_EQ(c.q1, 1.5);
  EXPECT_DOUBLE_EQ(c.q2, 3.0);
  EXPECT_DOUBLE_EQ(c.q3, 4.5);
  EXPECT_THROW((void)quartiles({1}), std::invalid_argument);
}

std::vector<double> iota(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
  return v;
}

TEST(Tail, HighestPercentileWithTenSamplesBeyond) {
  // n = 40: p75 is rank 30 with exactly 10 beyond; p90 (rank 36) has 4.
  Tail t = tail(iota(40));
  EXPECT_DOUBLE_EQ(t.percentile, 75);
  EXPECT_DOUBLE_EQ(t.value, 30);
  EXPECT_EQ(t.n, 40u);
  // n = 39: p75 is rank 30 with only 9 beyond, so the median is the tail.
  t = tail(iota(39));
  EXPECT_DOUBLE_EQ(t.percentile, 50);
  EXPECT_DOUBLE_EQ(t.value, 20);
  // n = 1000: p99 is rank 990 with 10 beyond; p99.9 would leave 1.
  t = tail(iota(1000));
  EXPECT_DOUBLE_EQ(t.percentile, 99);
  EXPECT_DOUBLE_EQ(t.value, 990);
  // n = 10000 reaches p99.9.
  t = tail(iota(10000));
  EXPECT_DOUBLE_EQ(t.percentile, 99.9);
  EXPECT_DOUBLE_EQ(t.value, 9990);
  // Too few samples for any rule: fall back to the median.
  t = tail(iota(5));
  EXPECT_DOUBLE_EQ(t.percentile, 50);
  EXPECT_DOUBLE_EQ(t.value, 3);
  EXPECT_EQ(tail({}).n, 0u);
}

TEST(Percentile, NearestRank) {
  EXPECT_DOUBLE_EQ(percentile(iota(100), 99), 99);
  EXPECT_DOUBLE_EQ(percentile(iota(100), 100), 100);
  EXPECT_DOUBLE_EQ(percentile(iota(3), 1), 1);
  EXPECT_DOUBLE_EQ(percentile({}, 50), 0);
}

TEST(Ladder, HighestRateBeforeTheFirstMiss) {
  const std::vector<Rung> ladder = {
      {10000, 400, 0}, {20000, 500, 0}, {25000, 700, 0}, {35000, 1700, 0}};
  EXPECT_DOUBLE_EQ(max_sustained_qps(ladder, 1000), 25000);
  EXPECT_DOUBLE_EQ(max_sustained_qps(ladder, 2000), 35000);
  EXPECT_DOUBLE_EQ(max_sustained_qps(ladder, 300), 0);
  // A limit met exactly counts as met.
  EXPECT_DOUBLE_EQ(max_sustained_qps(ladder, 500), 20000);
}

TEST(Ladder, SheddingOrALaterPassDoesNotCount) {
  // A shed request fails the rung even under the latency limit.
  EXPECT_DOUBLE_EQ(max_sustained_qps({{10000, 400, 0}, {20000, 500, 3}}, 1000), 10000);
  // A rung that passes above a miss is noise, not capacity.
  EXPECT_DOUBLE_EQ(
      max_sustained_qps({{10000, 400, 0}, {20000, 1500, 0}, {30000, 900, 0}}, 1000), 10000);
  EXPECT_DOUBLE_EQ(max_sustained_qps({}, 1000), 0);
}

}  // namespace
}  // namespace perfbench
