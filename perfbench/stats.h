// The benchmark's own arithmetic: percentiles, recall, idle share, slowdown.
//
// Kept free of any tsvd type so arith_test.cc can check every formula on fixed
// inputs without running a workload.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <utility>
#include <vector>

namespace perfbench {

// Nearest-rank percentile: the smallest sample with at least p% of the samples at
// or below it. rank = ceil(p/100 * n), 1-based.
inline size_t NearestRank(size_t n, double p) {
  if (n == 0) {
    return 0;
  }
  const double exact = p / 100.0 * static_cast<double>(n);
  size_t rank = static_cast<size_t>(std::ceil(exact - 1e-9));
  return std::clamp<size_t>(rank, 1, n);
}

// Samples strictly above the nearest-rank p-th percentile.
inline size_t SamplesBeyond(size_t n, double p) { return n - NearestRank(n, p); }

struct PercentileResult {
  double value = 0;
  size_t samples = 0;  // n
  size_t beyond = 0;   // samples above the selected rank
  bool ok = false;     // at least `min_beyond` samples lie beyond it
};

// The p-th percentile of `samples`, refusing (ok = false) when fewer than
// `min_beyond` samples lie beyond it: a tail percentile is only reported when
// enough samples sit above it to make it more than the maximum in disguise.
inline PercentileResult Percentile(std::vector<double> samples, double p,
                                   size_t min_beyond = 0) {
  PercentileResult r;
  r.samples = samples.size();
  if (samples.empty()) {
    return r;
  }
  const size_t rank = NearestRank(samples.size(), p);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1), samples.end());
  r.value = samples[rank - 1];
  r.beyond = samples.size() - rank;
  r.ok = r.beyond >= min_beyond;
  return r;
}

// Median as the mean of the two middle samples for even n (0 for no samples).
inline double Median(std::vector<double> samples) {
  if (samples.empty()) {
    return 0;
  }
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
}

// Share of planted buggy modules with at least one true (non-false-positive)
// observation. `found` marks modules with such an observation; both vectors are
// indexed by module. Returns 0 when nothing is buggy.
inline double Recall(const std::vector<bool>& buggy, const std::vector<bool>& found) {
  size_t planted = 0;
  size_t hit = 0;
  for (size_t m = 0; m < buggy.size(); ++m) {
    if (buggy[m]) {
      ++planted;
      if (m < found.size() && found[m]) {
        ++hit;
      }
    }
  }
  return planted == 0 ? 0.0 : static_cast<double>(hit) / static_cast<double>(planted);
}

// Share of worker capacity not spent executing runs: 1 - busy / (workers * wall).
// Busy is the summed wall time of every run; the rest is round-barrier and
// dispatch wait.
inline double IdleShare(double busy_us, int workers, double wall_us) {
  if (workers <= 0 || wall_us <= 0) {
    return 0;
  }
  return 1.0 - busy_us / (static_cast<double>(workers) * wall_us);
}

// Median over runs of the run's instrumented wall divided by the uninstrumented
// baseline wall of the same module (the paper's Section 5.5 overhead). Runs are
// (module index, wall); modules without a positive baseline are skipped.
inline double Slowdown(const std::vector<std::pair<int, double>>& runs,
                       const std::vector<double>& baseline, size_t* used = nullptr) {
  std::vector<double> ratios;
  for (const auto& [module, wall] : runs) {
    if (module >= 0 && static_cast<size_t>(module) < baseline.size() &&
        baseline[module] > 0) {
      ratios.push_back(wall / baseline[module]);
    }
  }
  if (used != nullptr) {
    *used = ratios.size();
  }
  return Median(std::move(ratios));
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
