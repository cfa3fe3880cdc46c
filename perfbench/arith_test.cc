// The benchmark's own arithmetic on fixed inputs: percentile selection, recall,
// idle share and slowdown.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "perfbench/stats.h"

namespace perfbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(PercentileTest, NearestRankPicksTheSmallestCoveringSample) {
  EXPECT_EQ(NearestRank(100, 50), 50u);
  EXPECT_EQ(NearestRank(100, 95), 95u);
  EXPECT_EQ(NearestRank(256, 95), 244u);  // ceil(243.2)
  EXPECT_EQ(NearestRank(1, 99), 1u);
  EXPECT_EQ(NearestRank(10, 0), 1u);
}

TEST(PercentileTest, ValueIsOrderIndependent) {
  std::vector<double> v = OneTo(200);
  std::reverse(v.begin(), v.end());
  const PercentileResult p = Percentile(v, 95);
  EXPECT_EQ(p.value, 190.0);
  EXPECT_EQ(p.samples, 200u);
  EXPECT_EQ(p.beyond, 10u);
}

TEST(PercentileTest, TailNeedsTenSamplesBeyond) {
  // 200 runs: p95 has exactly 10 samples beyond it, p99 only 2.
  EXPECT_TRUE(Percentile(OneTo(200), 95, 10).ok);
  EXPECT_FALSE(Percentile(OneTo(200), 99, 10).ok);
  // 199 runs are one short for p95.
  EXPECT_EQ(SamplesBeyond(199, 95), 9u);
  EXPECT_FALSE(Percentile(OneTo(199), 95, 10).ok);
  // 1000 batches carry p99 with 10 beyond.
  EXPECT_TRUE(Percentile(OneTo(1000), 99, 10).ok);
  EXPECT_FALSE(Percentile({}, 50).ok);
}

TEST(MedianTest, AveragesTheMiddlePairForEvenCounts) {
  EXPECT_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(Median({}), 0.0);
}

TEST(RecallTest, CountsBuggyModulesWithATrueObservation) {
  const std::vector<bool> buggy = {true, false, true, true, false};
  // Module 1 is found but not buggy: it must not count.
  const std::vector<bool> found = {true, true, false, true, false};
  EXPECT_DOUBLE_EQ(Recall(buggy, found), 2.0 / 3.0);
  EXPECT_EQ(Recall({false, false}, {true, true}), 0.0);
  EXPECT_EQ(Recall(buggy, {}), 0.0);
}

TEST(IdleShareTest, IsTheUnbusyShareOfWorkerCapacity) {
  // 4 workers for 1000 us offer 4000 us; 3000 us of runs leaves a quarter idle.
  EXPECT_DOUBLE_EQ(IdleShare(3000, 4, 1000), 0.25);
  EXPECT_DOUBLE_EQ(IdleShare(4000, 4, 1000), 0.0);
  EXPECT_EQ(IdleShare(100, 0, 1000), 0.0);
}

TEST(SlowdownTest, IsTheMedianPerRunRatioToTheSameModulesBaseline) {
  const std::vector<double> baseline = {100, 200, 0};
  const std::vector<std::pair<int, double>> runs = {
      {0, 120}, {0, 150}, {1, 220}, {1, 400}, {2, 999}, {7, 1}};
  size_t used = 0;
  // Ratios 1.2, 1.5, 1.1, 2.0; module 2 has no baseline and 7 is unknown.
  EXPECT_DOUBLE_EQ(Slowdown(runs, baseline, &used), (1.2 + 1.5) / 2);
  EXPECT_EQ(used, 4u);
}

}  // namespace
}  // namespace perfbench
