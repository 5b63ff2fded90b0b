#ifndef PA_AUGMENT_AUGMENTER_H_
#define PA_AUGMENT_AUGMENTER_H_

#include <string>
#include <vector>

#include "poi/dataset.h"
#include "poi/slot_grid.h"

namespace pa::augment {

/// An imputation problem: one user's observed check-ins plus the
/// evenly-spaced timeline marking which slots are missing (paper Fig. 1).
struct MaskedSequence {
  int32_t user = 0;
  poi::CheckinSequence observed;
  std::vector<poi::Slot> timeline;
};

/// Builds the masked sequence for an observed check-in sequence using the
/// even-spacing interval (3 hours in the paper's illustration).
MaskedSequence MakeMaskedSequence(const poi::CheckinSequence& observed,
                                  int64_t interval_seconds,
                                  int max_missing_per_gap = 0);

/// Interface for check-in data augmentation methods.
///
/// Implementations: `LinearInterpolationAugmenter` (the paper's NN / POP
/// baselines, §IV-C) and `PaSeq2Seq` (the contribution). Learned methods
/// are trained with `Fit` before use; the interpolation baselines ignore it.
class Augmenter {
 public:
  virtual ~Augmenter() = default;

  virtual std::string name() const = 0;

  /// Trains the augmenter on the observed training sequences.
  virtual void Fit(const std::vector<poi::CheckinSequence>& train) {}

  /// Predicts a POI id for every missing slot of `masked.timeline`, in
  /// timeline order. The returned vector has exactly
  /// `CountMissing(masked.timeline)` entries.
  virtual std::vector<int32_t> Impute(const MaskedSequence& masked) const = 0;
};

/// Throws std::out_of_range, naming `who`, unless every check-in's POI lies
/// in [0, pois.size()). Augmenters call it on their input before they look
/// up any POI's coordinates.
void CheckPoisInTable(const poi::CheckinSequence& checkins,
                      const poi::PoiTable& pois, const char* who);

/// Applies `augmenter` to one observed sequence: returns the sequence with
/// every missing slot filled by an imputed check-in (`imputed = true`).
poi::CheckinSequence AugmentSequence(const Augmenter& augmenter,
                                     const poi::CheckinSequence& observed,
                                     int32_t user, int64_t interval_seconds,
                                     int max_missing_per_gap = 0);

/// Applies `augmenter` to every training sequence — the operation that
/// produces the "augmented training set" columns of Tables I and II.
std::vector<poi::CheckinSequence> AugmentSequences(
    const Augmenter& augmenter,
    const std::vector<poi::CheckinSequence>& train, int64_t interval_seconds,
    int max_missing_per_gap = 0);

}  // namespace pa::augment

#endif  // PA_AUGMENT_AUGMENTER_H_
