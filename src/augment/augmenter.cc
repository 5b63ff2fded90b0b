#include "augment/augmenter.h"

#include <stdexcept>
#include <string>

namespace pa::augment {

void CheckPoisInTable(const poi::CheckinSequence& checkins,
                      const poi::PoiTable& pois, const char* who) {
  for (const poi::Checkin& c : checkins) {
    if (c.poi < 0 || c.poi >= pois.size()) {
      throw std::out_of_range(std::string(who) + ": POI " +
                              std::to_string(c.poi) + " outside the table of " +
                              std::to_string(pois.size()) + " POIs");
    }
  }
}

MaskedSequence MakeMaskedSequence(const poi::CheckinSequence& observed,
                                  int64_t interval_seconds,
                                  int max_missing_per_gap) {
  MaskedSequence masked;
  masked.user = observed.empty() ? 0 : observed[0].user;
  masked.observed = observed;
  masked.timeline =
      poi::BuildSlotTimeline(observed, interval_seconds, max_missing_per_gap);
  return masked;
}

poi::CheckinSequence AugmentSequence(const Augmenter& augmenter,
                                     const poi::CheckinSequence& observed,
                                     int32_t user, int64_t interval_seconds,
                                     int max_missing_per_gap) {
  MaskedSequence masked =
      MakeMaskedSequence(observed, interval_seconds, max_missing_per_gap);
  if (poi::CountMissing(masked.timeline) == 0) return observed;

  const std::vector<int32_t> imputed = augmenter.Impute(masked);
  poi::CheckinSequence out;
  out.reserve(masked.timeline.size());
  size_t next_imputed = 0;
  for (const poi::Slot& slot : masked.timeline) {
    if (slot.missing()) {
      poi::Checkin c;
      c.user = user;
      c.poi = imputed[next_imputed++];
      c.timestamp = slot.timestamp;
      c.imputed = true;
      out.push_back(c);
    } else {
      out.push_back(observed[static_cast<size_t>(slot.observed_index)]);
    }
  }
  return out;
}

std::vector<poi::CheckinSequence> AugmentSequences(
    const Augmenter& augmenter,
    const std::vector<poi::CheckinSequence>& train, int64_t interval_seconds,
    int max_missing_per_gap) {
  std::vector<poi::CheckinSequence> out;
  out.reserve(train.size());
  for (size_t u = 0; u < train.size(); ++u) {
    out.push_back(AugmentSequence(augmenter, train[u],
                                  static_cast<int32_t>(u), interval_seconds,
                                  max_missing_per_gap));
  }
  return out;
}

}  // namespace pa::augment
