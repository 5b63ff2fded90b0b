#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/rng.h"

namespace perfbench {

/// Nearest-rank percentile of an ascending sample: the smallest sample with
/// at least `q`·n samples at or below it, so the result is always one of
/// the measured values (never an interpolation or a histogram bucket edge).
/// `q` in (0, 1]; 0 for an empty sample.
double Percentile(const std::vector<double>& sorted, double q);

/// 1-based nearest rank of quantile `q` in a sample of `n`.
size_t NearestRank(size_t n, double q);

/// A tail percentile with the evidence behind it.
struct TailPercentile {
  std::string label;  // "p99", "p99.9", ...
  double q = 0.0;
  double value = 0.0;
  size_t beyond = 0;  // Samples strictly ranked above the percentile.
};

/// The highest of p50, p90, p99, p99.9, ... that still has at least
/// `min_beyond` samples beyond it; nothing when even p50 lacks them.
std::optional<TailPercentile> HighestSupportedPercentile(
    const std::vector<double>& sorted, size_t min_beyond = 10);

double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// part / whole, or 0 when whole is 0.
double Ratio(uint64_t part, uint64_t whole);

/// Zipf(s) over ranks [0, n): P(rank r) ∝ 1 / (r + 1)^s, drawn by inverse
/// CDF from the repository's seeded RNG, so one seed always yields one
/// request stream.
class ZipfSampler {
 public:
  ZipfSampler(int n, double exponent);
  int Sample(pa::util::Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// Self time of a layer: the replay at its public entry minus the replay
/// one layer down. Measurement noise can make the inner replay read slower
/// than the outer one; the layer then did no measurable work of its own,
/// and its self time is 0 rather than negative.
double SelfTime(double outer_us, double inner_us);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
