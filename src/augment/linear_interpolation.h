#ifndef PA_AUGMENT_LINEAR_INTERPOLATION_H_
#define PA_AUGMENT_LINEAR_INTERPOLATION_H_

#include "augment/augmenter.h"
#include "poi/poi_table.h"

namespace pa::augment {

/// The paper's two linear-interpolation baselines (§IV-C).
///
/// Both assume the user travelled along the shortest (great-circle) path
/// between the two observed check-ins bracketing a missing slot, place a
/// point p at the time-proportional fraction along that path, and then pick
/// a POI near p:
///
///  * `kNearestNeighbor` — the POI nearest to p (an R-tree 1-NN query);
///  * `kMostPopular`     — the most popular POI within `pop_radius_km` of p
///    (an R-tree range query; falls back to 1-NN when empty).
///
/// The failure mode (paper Fig. 2): real trajectories are curves shaped by
/// preference and geography, so POIs chosen on the straight path can be far
/// from the truly visited one.
class LinearInterpolationAugmenter : public Augmenter {
 public:
  enum class Mode { kNearestNeighbor, kMostPopular };

  /// `pois` must outlive the augmenter; its popularity counters drive the
  /// POP mode, so call `Dataset::RecountPopularity()` (on training data
  /// only) before use.
  LinearInterpolationAugmenter(const poi::PoiTable& pois, Mode mode,
                               double pop_radius_km = 2.0);

  std::string name() const override;
  /// Throws std::out_of_range for an observed POI outside the table.
  std::vector<int32_t> Impute(const MaskedSequence& masked) const override;

 private:
  const poi::PoiTable& pois_;
  Mode mode_;
  double pop_radius_km_;
};

}  // namespace pa::augment

#endif  // PA_AUGMENT_LINEAR_INTERPOLATION_H_
