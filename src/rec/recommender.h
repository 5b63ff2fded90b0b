#ifndef PA_REC_RECOMMENDER_H_
#define PA_REC_RECOMMENDER_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "poi/dataset.h"

namespace pa::rec {

/// A stateful scoring session for one user.
///
/// Next-POI evaluation walks a user's timeline: the session observes
/// check-ins one by one and, before each test check-in, ranks candidates
/// for what comes next. `next_timestamp` is the (known) time of the
/// check-in being predicted — time-aware models (ST-CLSTM) use the interval
/// it implies; others ignore it.
class RecSession {
 public:
  virtual ~RecSession() = default;

  /// Advances the session state past an observed check-in.
  virtual void Observe(const poi::Checkin& checkin) = 0;

  /// Top-k POI ids for the next check-in, best first.
  virtual std::vector<int32_t> TopK(int k, int64_t next_timestamp) const = 0;
};

/// Interface all five next-POI recommenders implement (paper §IV-D):
/// FPMC-LR, PRME-G, RNN, LSTM and ST-CLSTM.
class Recommender {
 public:
  virtual ~Recommender() = default;

  virtual std::string name() const = 0;

  /// Trains on per-user training sequences (possibly augmented). `pois`
  /// must outlive the recommender.
  virtual void Fit(const std::vector<poi::CheckinSequence>& train,
                   const poi::PoiTable& pois) = 0;

  /// Opens a fresh scoring session for `user`.
  virtual std::unique_ptr<RecSession> NewSession(int32_t user) const = 0;

  /// Serializes the *fitted* model to a versioned binary stream so it can
  /// be published to a `serve::ModelStore` and reloaded in another process.
  /// The payload does not include the POI table; `Load` takes the same
  /// table the model was fitted on. The round trip is bit-exact: a loaded
  /// model produces identical `TopK` lists to the one saved.
  ///
  /// Default: unsupported (returns false). All five standard methods plus
  /// the GRU / ST-RNN extensions override both hooks.
  virtual bool Save(std::ostream& os, std::string* error = nullptr) const {
    (void)os;
    if (error) *error = name() + " does not support Save()";
    return false;
  }

  /// Restores a model previously written by `Save`. `pois` must be the POI
  /// universe the model was fitted on (same size and ids) and must outlive
  /// the recommender. On failure the model is unusable.
  virtual bool Load(std::istream& is, const poi::PoiTable& pois,
                    std::string* error = nullptr) {
    (void)is;
    (void)pois;
    if (error) *error = name() + " does not support Load()";
    return false;
  }
};

}  // namespace pa::rec

#endif  // PA_REC_RECOMMENDER_H_
