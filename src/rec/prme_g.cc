#include "rec/prme_g.h"

#include <cmath>

#include "nn/serialize.h"
#include "rec/model_io.h"
#include "rec/ranking.h"
#include "tensor/tensor.h"

namespace pa::rec {

namespace {

constexpr uint32_t kPrmeGPayloadVersion = 1;

float SquaredL2Diff(const float* a, const float* b, int dim) {
  float s = 0.0f;
  for (int i = 0; i < dim; ++i) {
    const float d = a[i] - b[i];
    s += d * d;
  }
  return s;
}

}  // namespace

PrmeG::PrmeG(PrmeGConfig config) : config_(config), rng_(config.seed) {}

float PrmeG::Distance(int32_t user, int32_t prev, int32_t poi,
                      bool use_sequential) const {
  // Users outside the training range have no learned preference point;
  // rank them by the sequential term alone instead of reading past user_.
  const bool known_user = user >= 0 && user < num_users_;
  const float dp =
      known_user ? SquaredL2Diff(Row(user_, user), Row(poi_p_, poi),
                                 config_.dim)
                 : 0.0f;
  if (!use_sequential) return dp;
  const float ds =
      SquaredL2Diff(Row(poi_s_, prev), Row(poi_s_, poi), config_.dim);
  const float w = 1.0f + static_cast<float>(pois_->DistanceKm(prev, poi) /
                                            config_.geo_gamma_km);
  if (!known_user) return w * ds;
  return w * (config_.alpha * dp + (1.0f - config_.alpha) * ds);
}

void PrmeG::Fit(const std::vector<poi::CheckinSequence>& train,
                const poi::PoiTable& pois) {
  pois_ = &pois;
  num_users_ = static_cast<int>(train.size());
  num_pois_ = pois.size();

  auto init = [&](std::vector<float>& m, int rows) {
    m.resize(static_cast<size_t>(rows) * config_.dim);
    for (float& v : m) v = static_cast<float>(rng_.Normal(0.0, 0.05));
  };
  init(user_, num_users_);
  init(poi_p_, num_pois_);
  init(poi_s_, num_pois_);

  struct Transition {
    int32_t user, prev, next;
    bool sequential;  // False when the time gap exceeded τ.
  };
  std::vector<Transition> transitions;
  for (size_t u = 0; u < train.size(); ++u) {
    for (size_t i = 1; i < train[u].size(); ++i) {
      const double gap_hours =
          static_cast<double>(train[u][i].timestamp -
                              train[u][i - 1].timestamp) /
          3600.0;
      transitions.push_back({static_cast<int32_t>(u), train[u][i - 1].poi,
                             train[u][i].poi,
                             gap_hours <= config_.tau_hours});
    }
  }

  const float lr = config_.learning_rate;
  const float reg = config_.reg;
  const int d = config_.dim;
  const float alpha = config_.alpha;
  epoch_objectives_.clear();

  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    rng_.Shuffle(transitions);
    double objective = 0.0;
    int64_t updates = 0;
    for (const Transition& tr : transitions) {
      for (int s = 0; s < config_.negatives_per_step; ++s) {
        const int32_t neg = static_cast<int32_t>(rng_.RandInt(0, num_pois_ - 1));
        if (neg == tr.next) continue;

        // BPR on z = D(neg) - D(pos): ascend ln(sigmoid(z)).
        const float d_pos = Distance(tr.user, tr.prev, tr.next, tr.sequential);
        const float d_neg = Distance(tr.user, tr.prev, neg, tr.sequential);
        const float z = d_neg - d_pos;
        const float sig = 1.0f / (1.0f + std::exp(z));  // 1 - sigmoid(z)
        objective += std::log(1.0f / (1.0f + std::exp(-z)));
        ++updates;

        const float w_pos =
            tr.sequential
                ? 1.0f + static_cast<float>(
                             pois_->DistanceKm(tr.prev, tr.next) /
                             config_.geo_gamma_km)
                : 1.0f;
        const float w_neg =
            tr.sequential
                ? 1.0f + static_cast<float>(pois_->DistanceKm(tr.prev, neg) /
                                            config_.geo_gamma_km)
                : 1.0f;
        const float ap = tr.sequential ? alpha : 1.0f;

        float* uu = Row(user_, tr.user);
        float* pp = Row(poi_p_, tr.next);
        float* pn = Row(poi_p_, neg);
        float* sp = Row(poi_s_, tr.next);
        float* sn = Row(poi_s_, neg);
        float* sprev = Row(poi_s_, tr.prev);
        for (int i = 0; i < d; ++i) {
          // dz/dθ = dD(neg)/dθ - dD(pos)/dθ.
          const float du = w_neg * ap * 2.0f * (uu[i] - pn[i]) -
                           w_pos * ap * 2.0f * (uu[i] - pp[i]);
          const float dpp = w_pos * ap * 2.0f * (uu[i] - pp[i]);
          const float dpn = -w_neg * ap * 2.0f * (uu[i] - pn[i]);
          uu[i] += lr * (sig * du - reg * uu[i]);
          pp[i] += lr * (sig * dpp - reg * pp[i]);
          pn[i] += lr * (sig * dpn - reg * pn[i]);
          if (tr.sequential) {
            const float beta = 1.0f - alpha;
            const float dsp = w_pos * beta * 2.0f * (sprev[i] - sp[i]);
            const float dsn = -w_neg * beta * 2.0f * (sprev[i] - sn[i]);
            const float dsprev = w_neg * beta * 2.0f * (sprev[i] - sn[i]) -
                                 w_pos * beta * 2.0f * (sprev[i] - sp[i]);
            sp[i] += lr * (sig * dsp - reg * sp[i]);
            sn[i] += lr * (sig * dsn - reg * sn[i]);
            sprev[i] += lr * (sig * dsprev - reg * sprev[i]);
          }
        }
      }
    }
    epoch_objectives_.push_back(
        updates ? static_cast<float>(objective / updates) : 0.0f);
  }
}

/// Session: remembers the user, the last POI and its time.
class PrmeGSession : public RecSession {
 public:
  PrmeGSession(const PrmeG* rec, int32_t user) : rec_(rec), user_(user) {}

  void Observe(const poi::Checkin& c) override {
    last_ = c;
    has_last_ = true;
  }

  std::vector<int32_t> TopK(int k, int64_t next_timestamp) const override {
    // Scoring is raw float arithmetic (no tensor ops), but the scope keeps
    // the contract uniform: every recommender's TopK runs in inference mode.
    const tensor::InferenceModeScope inference;
    const bool sequential =
        has_last_ &&
        static_cast<double>(next_timestamp - last_.timestamp) / 3600.0 <=
            rec_->config_.tau_hours;
    const int32_t prev = has_last_ ? last_.poi : 0;

    // Score each POI once; negating the distance is exact, so nearest
    // first is the helper's highest-score-first order.
    std::vector<float> scores(static_cast<size_t>(rec_->num_pois_));
    for (int32_t poi = 0; poi < rec_->num_pois_; ++poi) {
      scores[static_cast<size_t>(poi)] =
          -rec_->Distance(user_, prev, poi, sequential);
    }
    return SelectTopK(scores.data(), rec_->num_pois_, k);
  }

 private:
  const PrmeG* rec_;
  int32_t user_;
  poi::Checkin last_;
  bool has_last_ = false;
};

std::unique_ptr<RecSession> PrmeG::NewSession(int32_t user) const {
  return std::make_unique<PrmeGSession>(this, user);
}

bool PrmeG::Save(std::ostream& os, std::string* error) const {
  if (pois_ == nullptr || user_.empty()) {
    io::SetError(error, "PRME-G: Save() called before Fit()");
    return false;
  }
  io::WritePod(os, kPrmeGPayloadVersion);
  io::WritePod(os, static_cast<int32_t>(config_.dim));
  io::WritePod(os, config_.alpha);
  io::WritePod(os, config_.learning_rate);
  io::WritePod(os, config_.reg);
  io::WritePod(os, static_cast<int32_t>(config_.epochs));
  io::WritePod(os, static_cast<int32_t>(config_.negatives_per_step));
  io::WritePod(os, config_.geo_gamma_km);
  io::WritePod(os, config_.tau_hours);
  io::WritePod(os, config_.seed);
  io::WritePod(os, static_cast<int32_t>(num_users_));
  io::WritePod(os, static_cast<int32_t>(num_pois_));
  const std::vector<tensor::Tensor> factors = {
      io::WrapMatrix(user_, num_users_, config_.dim),
      io::WrapMatrix(poi_p_, num_pois_, config_.dim),
      io::WrapMatrix(poi_s_, num_pois_, config_.dim)};
  if (!nn::SaveParameters(os, factors, error)) return false;
  if (!os) {
    io::SetError(error, "PRME-G: I/O error writing model");
    return false;
  }
  return true;
}

bool PrmeG::Load(std::istream& is, const poi::PoiTable& pois,
                 std::string* error) {
  uint32_t version = 0;
  if (!io::ReadPod(is, &version) || version != kPrmeGPayloadVersion) {
    io::SetError(error, "PRME-G: unsupported model payload version");
    return false;
  }
  int32_t dim = 0, epochs = 0, negatives = 0, num_users = 0, num_pois = 0;
  if (!io::ReadPod(is, &dim) || !io::ReadPod(is, &config_.alpha) ||
      !io::ReadPod(is, &config_.learning_rate) ||
      !io::ReadPod(is, &config_.reg) || !io::ReadPod(is, &epochs) ||
      !io::ReadPod(is, &negatives) || !io::ReadPod(is, &config_.geo_gamma_km) ||
      !io::ReadPod(is, &config_.tau_hours) || !io::ReadPod(is, &config_.seed) ||
      !io::ReadPod(is, &num_users) || !io::ReadPod(is, &num_pois) || dim <= 0 ||
      num_users < 0 || num_pois < 0) {
    io::SetError(error, "PRME-G: truncated or corrupt model header");
    return false;
  }
  if (num_pois != pois.size()) {
    io::SetError(error, "PRME-G: POI table size mismatch (model has " +
                            std::to_string(num_pois) + " POIs, table has " +
                            std::to_string(pois.size()) + ")");
    return false;
  }
  config_.dim = dim;
  config_.epochs = epochs;
  config_.negatives_per_step = negatives;
  num_users_ = num_users;
  num_pois_ = num_pois;

  std::vector<tensor::Tensor> factors = {tensor::Tensor::Zeros({num_users_, dim}),
                                         tensor::Tensor::Zeros({num_pois_, dim}),
                                         tensor::Tensor::Zeros({num_pois_, dim})};
  if (!nn::LoadParameters(is, factors, error)) return false;
  io::UnwrapMatrix(factors[0], &user_);
  io::UnwrapMatrix(factors[1], &poi_p_);
  io::UnwrapMatrix(factors[2], &poi_s_);

  pois_ = &pois;
  rng_ = util::Rng(config_.seed);
  epoch_objectives_.clear();
  return true;
}

}  // namespace pa::rec
