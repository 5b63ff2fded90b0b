#include "rec/ranking.h"

#include <algorithm>
#include <cmath>

namespace pa::rec {

std::vector<int32_t> SelectTopK(const float* scores, int n, int k) {
  const int kk = std::clamp(k, 0, std::max(n, 0));
  std::vector<int32_t> best;
  if (kk == 0) return best;
  best.reserve(static_cast<size_t>(kk));

  // Whether entry a ranks ahead of entry b under the contract.
  auto ahead = [scores](int32_t a, int32_t b) {
    const float sa = scores[a], sb = scores[b];
    if (sa > sb) return true;
    if (sa < sb) return false;
    const bool a_nan = std::isnan(sa), b_nan = std::isnan(sb);
    if (a_nan != b_nan) return b_nan;
    return a < b;
  };
  // Moves the entry in the last slot up to its place in the buffer.
  auto sift_up = [&best, &ahead] {
    size_t j = best.size() - 1;
    const int32_t id = best[j];
    for (; j > 0 && ahead(id, best[j - 1]); --j) best[j] = best[j - 1];
    best[j] = id;
  };

  int32_t i = 0;
  for (; i < kk; ++i) {
    best.push_back(i);
    sift_up();
  }
  // The scan visits ids in ascending order, so an entry that only ties the
  // current k-th score ranks after it: only a strictly better score (or a
  // number against a NaN) can enter the full buffer.
  float threshold = scores[best.back()];
  for (; i < n; ++i) {
    if (scores[i] <= threshold || !ahead(i, best.back())) continue;
    best.back() = i;
    sift_up();
    threshold = scores[best.back()];
  }
  return best;
}

}  // namespace pa::rec
