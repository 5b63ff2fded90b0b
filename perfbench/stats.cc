#include "stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace perfbench {

size_t NearestRank(size_t n, double q) {
  if (n == 0) return 0;
  // The epsilon keeps q·n on an exact integer (0.99 · 1000) from rounding
  // up a rank through binary representation error.
  const double rank = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(std::max(rank, 1.0)), 1, n);
}

double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  return sorted[NearestRank(sorted.size(), q) - 1];
}

std::optional<TailPercentile> HighestSupportedPercentile(
    const std::vector<double>& sorted, size_t min_beyond) {
  std::optional<TailPercentile> best;
  const size_t n = sorted.size();
  // p50, then 1 - 10^-k: p90, p99, p99.9, ...
  for (int k = 0; k < 9; ++k) {
    const double q = k == 0 ? 0.5 : 1.0 - std::pow(10.0, -k);
    const size_t rank = NearestRank(n, q);
    if (n == 0 || n - rank < min_beyond) break;
    TailPercentile p;
    // k=0 → "p50", k=1 → "p90", k=2 → "p99", k=3 → "p99.9", ...
    p.label = k == 0   ? "p50"
              : k == 1 ? "p90"
                       : "p99" + (k > 2 ? "." + std::string(k - 2, '9') : "");
    p.q = q;
    p.value = sorted[rank - 1];
    p.beyond = n - rank;
    best = p;
  }
  return best;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double Ratio(uint64_t part, uint64_t whole) {
  return whole ? static_cast<double>(part) / static_cast<double>(whole) : 0.0;
}

ZipfSampler::ZipfSampler(int n, double exponent) {
  cdf_.resize(static_cast<size_t>(std::max(1, n)));
  double total = 0.0;
  for (size_t r = 0; r < cdf_.size(); ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), exponent);
    cdf_[r] = total;
  }
  for (double& c : cdf_) c /= total;
}

int ZipfSampler::Sample(pa::util::Rng& rng) const {
  const double u = rng.Uniform();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  // u < 1 always lands inside; the clamp guards the last cell against
  // rounding in the normalised CDF.
  return static_cast<int>(std::min(it - cdf_.begin(),
                                   static_cast<ptrdiff_t>(cdf_.size()) - 1));
}

double SelfTime(double outer_us, double inner_us) {
  return std::max(0.0, outer_us - inner_us);
}

}  // namespace perfbench
