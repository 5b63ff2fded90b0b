#include "stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace perfbench {
namespace {

std::vector<double> Iota(size_t n) {
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
  return v;
}

TEST(PercentileTest, NearestRankReturnsAMeasuredSample) {
  const std::vector<double> v = {3.0, 7.0, 7.5, 11.0, 40.0};
  EXPECT_EQ(Percentile(v, 0.5), 7.5);
  EXPECT_EQ(Percentile(v, 0.2), 3.0);
  EXPECT_EQ(Percentile(v, 0.21), 7.0);
  EXPECT_EQ(Percentile(v, 1.0), 40.0);
  EXPECT_EQ(Percentile({}, 0.5), 0.0);
  for (double q : {0.01, 0.33, 0.5, 0.9, 0.99}) {
    EXPECT_NE(std::find(v.begin(), v.end(), Percentile(v, q)), v.end()) << q;
  }
}

TEST(PercentileTest, ExactRanksOnRoundSampleCounts) {
  // 0.99 · 1000 is 990 exactly; binary rounding must not push it to 991.
  const std::vector<double> v = Iota(1000);
  EXPECT_EQ(NearestRank(1000, 0.99), 990u);
  EXPECT_EQ(Percentile(v, 0.99), 990.0);
  EXPECT_EQ(Percentile(v, 0.999), 999.0);
  EXPECT_EQ(Percentile(v, 0.5), 500.0);
}

TEST(HighestSupportedPercentileTest, NeedsTenSamplesBeyond) {
  // 1000 samples: p99 has exactly 10 beyond it, p99.9 only 1.
  auto p = HighestSupportedPercentile(Iota(1000));
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->label, "p99");
  EXPECT_EQ(p->value, 990.0);
  EXPECT_EQ(p->beyond, 10u);

  // One sample short of that, p99 loses its tenth and p90 wins.
  p = HighestSupportedPercentile(Iota(999));
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->label, "p90");
  EXPECT_GE(p->beyond, 10u);

  p = HighestSupportedPercentile(Iota(100000));
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->label, "p99.99");
  EXPECT_EQ(p->beyond, 10u);

  // Too few samples for even a median with ten beyond it.
  EXPECT_FALSE(HighestSupportedPercentile(Iota(19)).has_value());
  ASSERT_TRUE(HighestSupportedPercentile(Iota(20)).has_value());
  EXPECT_EQ(HighestSupportedPercentile(Iota(20))->label, "p50");
}

TEST(MedianTest, OddAndEven) {
  EXPECT_EQ(Median({5.0, 1.0, 3.0}), 3.0);
  EXPECT_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(Median({}), 0.0);
  EXPECT_EQ(Mean({1.0, 2.0, 6.0}), 3.0);
}

TEST(ZipfSamplerTest, SameSeedSameStream) {
  const ZipfSampler zipf(3000, 0.8);
  pa::util::Rng a(17), b(17), c(18);
  std::vector<int> sa, sb, sc;
  for (int i = 0; i < 5000; ++i) {
    sa.push_back(zipf.Sample(a));
    sb.push_back(zipf.Sample(b));
    sc.push_back(zipf.Sample(c));
  }
  EXPECT_EQ(sa, sb);
  EXPECT_NE(sa, sc);
  for (int r : sa) {
    EXPECT_GE(r, 0);
    EXPECT_LT(r, 3000);
  }
}

TEST(ZipfSamplerTest, SkewFollowsTheExponent) {
  const ZipfSampler zipf(100, 1.0);
  pa::util::Rng rng(3);
  std::vector<int> counts(100, 0);
  const int draws = 200000;
  for (int i = 0; i < draws; ++i) ++counts[zipf.Sample(rng)];
  // Rank 0 is twice as likely as rank 1 and ten times rank 9 under s = 1.
  EXPECT_NEAR(static_cast<double>(counts[0]) / counts[1], 2.0, 0.1);
  EXPECT_NEAR(static_cast<double>(counts[0]) / counts[9], 10.0, 1.0);
  // Exponent 0 is uniform.
  const ZipfSampler flat(4, 0.0);
  std::vector<int> flat_counts(4, 0);
  for (int i = 0; i < 40000; ++i) ++flat_counts[flat.Sample(rng)];
  for (int c : flat_counts) EXPECT_NEAR(c, 10000, 500);
}

TEST(SelfTimeTest, NeverNegative) {
  EXPECT_EQ(SelfTime(12.5, 10.0), 2.5);
  EXPECT_EQ(SelfTime(10.0, 10.0), 0.0);
  // Noise can make the inner replay read slower than the outer one.
  EXPECT_EQ(SelfTime(9.0, 10.0), 0.0);
  pa::util::Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(SelfTime(rng.Uniform(0, 100), rng.Uniform(0, 100)), 0.0);
  }
}

}  // namespace
}  // namespace perfbench
