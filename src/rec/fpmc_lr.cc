#include "rec/fpmc_lr.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "nn/serialize.h"
#include "rec/model_io.h"
#include "rec/ranking.h"
#include "tensor/tensor.h"

namespace pa::rec {

namespace {

constexpr uint32_t kFpmcLrPayloadVersion = 1;

float Dot(const float* a, const float* b, int dim) {
  float s = 0.0f;
  for (int i = 0; i < dim; ++i) s += a[i] * b[i];
  return s;
}

}  // namespace

FpmcLr::FpmcLr(FpmcLrConfig config) : config_(config), rng_(config.seed) {}

float FpmcLr::Score(int32_t user, int32_t prev, int32_t poi) const {
  // Users outside the training range have no learned factor; score them
  // from the sequential (FMC) term alone instead of reading past v_ul_.
  const float seq = Dot(Row(v_li_, poi), Row(v_il_, prev), config_.dim);
  if (user < 0 || user >= num_users_) return seq;
  return Dot(Row(v_ul_, user), Row(v_lu_, poi), config_.dim) + seq;
}

const std::vector<int32_t>& FpmcLr::Region(int32_t prev) const {
  {
    std::lock_guard<std::mutex> lock(region_mu_);
    auto it = region_cache_.find(prev);
    if (it != region_cache_.end()) return it->second;
  }
  // Compute outside the lock — the spatial query is the expensive part and
  // is itself safe for concurrent readers. A racing thread may compute the
  // same region; emplace keeps whichever landed first.
  std::vector<int32_t> region =
      pois_->PoisWithin(prev, config_.region_radius_km);
  std::lock_guard<std::mutex> lock(region_mu_);
  return region_cache_.emplace(prev, std::move(region)).first->second;
}

void FpmcLr::Fit(const std::vector<poi::CheckinSequence>& train,
                 const poi::PoiTable& pois) {
  pois_ = &pois;
  num_users_ = static_cast<int>(train.size());
  num_pois_ = pois.size();
  region_cache_.clear();

  auto init = [&](std::vector<float>& m, int rows) {
    m.resize(static_cast<size_t>(rows) * config_.dim);
    for (float& v : m) v = static_cast<float>(rng_.Normal(0.0, 0.05));
  };
  init(v_ul_, num_users_);
  init(v_lu_, num_pois_);
  init(v_li_, num_pois_);
  init(v_il_, num_pois_);

  // Popularity ranking for candidate fallback.
  popular_.resize(static_cast<size_t>(num_pois_));
  std::iota(popular_.begin(), popular_.end(), 0);
  std::sort(popular_.begin(), popular_.end(), [&](int32_t a, int32_t b) {
    return pois.popularity(a) > pois.popularity(b);
  });

  // Transition list.
  struct Transition {
    int32_t user, prev, next;
  };
  std::vector<Transition> transitions;
  for (size_t u = 0; u < train.size(); ++u) {
    for (size_t i = 1; i < train[u].size(); ++i) {
      transitions.push_back({static_cast<int32_t>(u), train[u][i - 1].poi,
                             train[u][i].poi});
    }
  }

  const float lr = config_.learning_rate;
  const float reg = config_.reg;
  const int d = config_.dim;
  epoch_objectives_.clear();

  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    rng_.Shuffle(transitions);
    double objective = 0.0;
    int64_t updates = 0;
    for (const Transition& tr : transitions) {
      const std::vector<int32_t>& region = Region(tr.prev);
      for (int s = 0; s < config_.negatives_per_step; ++s) {
        // Negative: a POI from the localized region (or anywhere as a
        // fallback) that is not the positive.
        int32_t neg;
        if (!region.empty() && rng_.Bernoulli(0.8)) {
          neg = region[static_cast<size_t>(
              rng_.RandInt(0, static_cast<int>(region.size()) - 1))];
        } else {
          neg = static_cast<int32_t>(rng_.RandInt(0, num_pois_ - 1));
        }
        if (neg == tr.next) continue;

        const float x = Score(tr.user, tr.prev, tr.next) -
                        Score(tr.user, tr.prev, neg);
        const float sig = 1.0f / (1.0f + std::exp(x));  // d/dx -ln(sigmoid(x))
        objective += std::log(1.0f / (1.0f + std::exp(-x)));
        ++updates;

        float* ul = Row(v_ul_, tr.user);
        float* lu_p = Row(v_lu_, tr.next);
        float* lu_n = Row(v_lu_, neg);
        float* li_p = Row(v_li_, tr.next);
        float* li_n = Row(v_li_, neg);
        float* il = Row(v_il_, tr.prev);
        for (int i = 0; i < d; ++i) {
          const float g_ul = sig * (lu_p[i] - lu_n[i]);
          const float g_lup = sig * ul[i];
          const float g_lun = -sig * ul[i];
          const float g_lip = sig * il[i];
          const float g_lin = -sig * il[i];
          const float g_il = sig * (li_p[i] - li_n[i]);
          ul[i] += lr * (g_ul - reg * ul[i]);
          lu_p[i] += lr * (g_lup - reg * lu_p[i]);
          lu_n[i] += lr * (g_lun - reg * lu_n[i]);
          li_p[i] += lr * (g_lip - reg * li_p[i]);
          li_n[i] += lr * (g_lin - reg * li_n[i]);
          il[i] += lr * (g_il - reg * il[i]);
        }
      }
    }
    epoch_objectives_.push_back(
        updates ? static_cast<float>(objective / updates) : 0.0f);
  }
}

/// Session: remembers the user and the last observed POI.
class FpmcLrSession : public RecSession {
 public:
  FpmcLrSession(const FpmcLr* rec, int32_t user) : rec_(rec), user_(user) {}

  void Observe(const poi::Checkin& c) override {
    last_poi_ = c.poi;
    has_last_ = true;
  }

  std::vector<int32_t> TopK(int k, int64_t) const override {
    // Scoring is raw float arithmetic (no tensor ops), but the scope keeps
    // the contract uniform: every recommender's TopK runs in inference mode.
    const tensor::InferenceModeScope inference;
    std::vector<int32_t> candidates;
    if (has_last_) {
      candidates = rec_->Region(last_poi_);
      candidates.push_back(last_poi_);
    }
    // Fall back to (or pad with) globally popular POIs.
    const int64_t wanted = std::max<int64_t>(4 * int64_t{k}, 50);
    for (int32_t p : rec_->popular_) {
      if (static_cast<int64_t>(candidates.size()) >= wanted) break;
      candidates.push_back(p);
    }
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());

    // Score each candidate once, then rank; candidates are sorted, so the
    // helper's index tie-break is the POI-id tie-break.
    const int32_t prev = has_last_ ? last_poi_ : candidates.front();
    std::vector<float> scores(candidates.size());
    for (size_t i = 0; i < candidates.size(); ++i) {
      scores[i] = rec_->Score(user_, prev, candidates[i]);
    }
    std::vector<int32_t> top = SelectTopK(
        scores.data(), static_cast<int>(scores.size()), k);
    for (int32_t& idx : top) idx = candidates[static_cast<size_t>(idx)];
    return top;
  }

 private:
  const FpmcLr* rec_;
  int32_t user_;
  int32_t last_poi_ = 0;
  bool has_last_ = false;
};

std::unique_ptr<RecSession> FpmcLr::NewSession(int32_t user) const {
  return std::make_unique<FpmcLrSession>(this, user);
}

bool FpmcLr::Save(std::ostream& os, std::string* error) const {
  if (pois_ == nullptr || v_ul_.empty()) {
    io::SetError(error, "FPMC-LR: Save() called before Fit()");
    return false;
  }
  io::WritePod(os, kFpmcLrPayloadVersion);
  io::WritePod(os, static_cast<int32_t>(config_.dim));
  io::WritePod(os, config_.learning_rate);
  io::WritePod(os, config_.reg);
  io::WritePod(os, static_cast<int32_t>(config_.epochs));
  io::WritePod(os, static_cast<int32_t>(config_.negatives_per_step));
  io::WritePod(os, config_.region_radius_km);
  io::WritePod(os, config_.seed);
  io::WritePod(os, static_cast<int32_t>(num_users_));
  io::WritePod(os, static_cast<int32_t>(num_pois_));
  const std::vector<tensor::Tensor> factors = {
      io::WrapMatrix(v_ul_, num_users_, config_.dim),
      io::WrapMatrix(v_lu_, num_pois_, config_.dim),
      io::WrapMatrix(v_li_, num_pois_, config_.dim),
      io::WrapMatrix(v_il_, num_pois_, config_.dim)};
  if (!nn::SaveParameters(os, factors, error)) return false;
  io::WriteI32Vec(os, popular_);
  if (!os) {
    io::SetError(error, "FPMC-LR: I/O error writing model");
    return false;
  }
  return true;
}

bool FpmcLr::Load(std::istream& is, const poi::PoiTable& pois,
                  std::string* error) {
  uint32_t version = 0;
  if (!io::ReadPod(is, &version) || version != kFpmcLrPayloadVersion) {
    io::SetError(error, "FPMC-LR: unsupported model payload version");
    return false;
  }
  int32_t dim = 0, epochs = 0, negatives = 0, num_users = 0, num_pois = 0;
  if (!io::ReadPod(is, &dim) || !io::ReadPod(is, &config_.learning_rate) ||
      !io::ReadPod(is, &config_.reg) || !io::ReadPod(is, &epochs) ||
      !io::ReadPod(is, &negatives) ||
      !io::ReadPod(is, &config_.region_radius_km) ||
      !io::ReadPod(is, &config_.seed) || !io::ReadPod(is, &num_users) ||
      !io::ReadPod(is, &num_pois) || dim <= 0 || num_users < 0 ||
      num_pois < 0) {
    io::SetError(error, "FPMC-LR: truncated or corrupt model header");
    return false;
  }
  if (num_pois != pois.size()) {
    io::SetError(error, "FPMC-LR: POI table size mismatch (model has " +
                            std::to_string(num_pois) + " POIs, table has " +
                            std::to_string(pois.size()) + ")");
    return false;
  }
  config_.dim = dim;
  config_.epochs = epochs;
  config_.negatives_per_step = negatives;
  num_users_ = num_users;
  num_pois_ = num_pois;

  std::vector<tensor::Tensor> factors = {
      tensor::Tensor::Zeros({num_users_, dim}),
      tensor::Tensor::Zeros({num_pois_, dim}),
      tensor::Tensor::Zeros({num_pois_, dim}),
      tensor::Tensor::Zeros({num_pois_, dim})};
  if (!nn::LoadParameters(is, factors, error)) return false;
  io::UnwrapMatrix(factors[0], &v_ul_);
  io::UnwrapMatrix(factors[1], &v_lu_);
  io::UnwrapMatrix(factors[2], &v_li_);
  io::UnwrapMatrix(factors[3], &v_il_);

  if (!io::ReadI32Vec(is, &popular_) ||
      popular_.size() != static_cast<size_t>(num_pois_)) {
    io::SetError(error, "FPMC-LR: truncated popularity ranking");
    return false;
  }
  pois_ = &pois;
  rng_ = util::Rng(config_.seed);
  {
    std::lock_guard<std::mutex> lock(region_mu_);
    region_cache_.clear();
  }
  epoch_objectives_.clear();
  return true;
}

}  // namespace pa::rec
