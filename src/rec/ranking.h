#ifndef PA_REC_RANKING_H_
#define PA_REC_RANKING_H_

#include <cstdint>
#include <vector>

namespace pa::rec {

/// The ranking contract every recommender's TopK shares: the indices of the
/// `k` best entries of `scores[0, n)`, best first, ordered by score
/// descending, equal scores (+0 and -0 included) by index ascending, and
/// NaN scores after every number. Returns min(max(k, 0), n) indices.
///
/// One scan keeps the running best in a k-sized buffer, so the cost is
/// O(n) compares plus O(k) per entry that beats the current k-th score —
/// no catalogue-sized index array, sort or scratch allocation.
std::vector<int32_t> SelectTopK(const float* scores, int n, int k);

}  // namespace pa::rec

#endif  // PA_REC_RANKING_H_
