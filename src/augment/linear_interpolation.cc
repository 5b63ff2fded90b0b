#include "augment/linear_interpolation.h"

#include "geo/latlng.h"

namespace pa::augment {

LinearInterpolationAugmenter::LinearInterpolationAugmenter(
    const poi::PoiTable& pois, Mode mode, double pop_radius_km)
    : pois_(pois), mode_(mode), pop_radius_km_(pop_radius_km) {}

std::string LinearInterpolationAugmenter::name() const {
  return mode_ == Mode::kNearestNeighbor ? "LinearInterpolation(NN)"
                                         : "LinearInterpolation(POP)";
}

std::vector<int32_t> LinearInterpolationAugmenter::Impute(
    const MaskedSequence& masked) const {
  CheckPoisInTable(masked.observed, pois_, "LinearInterpolationAugmenter");
  std::vector<int32_t> out;
  const auto& timeline = masked.timeline;
  const auto& observed = masked.observed;

  // Index of the previous observed slot for each position; next observed
  // found by scanning forward.
  int prev_obs = -1;
  for (size_t s = 0; s < timeline.size(); ++s) {
    if (!timeline[s].missing()) {
      prev_obs = static_cast<int>(s);
      continue;
    }
    int next_obs = -1;
    for (size_t j = s + 1; j < timeline.size(); ++j) {
      if (!timeline[j].missing()) {
        next_obs = static_cast<int>(j);
        break;
      }
    }
    // A well-formed timeline starts and ends with observed slots, so both
    // brackets exist; be defensive anyway.
    if (prev_obs < 0 || next_obs < 0) {
      out.push_back(observed.empty() ? 0 : observed.front().poi);
      continue;
    }

    const poi::Checkin& a =
        observed[static_cast<size_t>(timeline[prev_obs].observed_index)];
    const poi::Checkin& b =
        observed[static_cast<size_t>(timeline[next_obs].observed_index)];
    const int64_t t0 = timeline[prev_obs].timestamp;
    const int64_t t1 = timeline[next_obs].timestamp;
    const double f =
        t1 > t0 ? static_cast<double>(timeline[s].timestamp - t0) /
                      static_cast<double>(t1 - t0)
                : 0.5;
    const geo::LatLng p = geo::InterpolateGreatCircle(
        pois_.coord(a.poi), pois_.coord(b.poi), f);

    int32_t poi = mode_ == Mode::kNearestNeighbor
                      ? pois_.NearestPoi(p)
                      : pois_.MostPopularWithin(p, pop_radius_km_);
    if (poi < 0) poi = a.poi;
    out.push_back(poi);
  }
  return out;
}

}  // namespace pa::augment
