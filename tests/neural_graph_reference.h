// A graph-path reference for the neural recommenders' sessions that never
// goes through a session. It rebuilds the embedding, the recurrent cell and
// the output layer from the model's `Save` payload, then steps the cell's
// graph `Forward` (the training path, detached after every step) and ranks
// the graph `Linear::Forward`'s logits. A session steps flat rows through
// the cell's `ForwardRows` instead; the two must rank bit for bit alike.
//
// The intervals follow the session's definition: Δt in hours over the
// feature scale and Δd in km over it, each capped at 10, read by ST-RNN and
// ST-CLSTM only; ST-CLSTM's `TopK` takes a phantom step over the last POI
// with the (non-negative) interval to the predicted check-in and Δd = 0.

#ifndef PA_TESTS_NEURAL_GRAPH_REFERENCE_H_
#define PA_TESTS_NEURAL_GRAPH_REFERENCE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "nn/gru_cell.h"
#include "nn/layers.h"
#include "nn/lstm.h"
#include "nn/rnn_cell.h"
#include "nn/serialize.h"
#include "nn/st_clstm.h"
#include "nn/st_rnn_cell.h"
#include "poi/features.h"
#include "poi/poi_table.h"
#include "rec/model_io.h"
#include "rec/neural_recommender.h"
#include "rec/ranking.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace pa::testref {

class NeuralGraphReference {
 public:
  using Cell = rec::NeuralRecConfig::Cell;

  /// Restores the modules from `model.Save`. `ok()` is false (and `error()`
  /// says why) when the payload does not parse.
  NeuralGraphReference(const rec::NeuralRecommender& model,
                       const poi::PoiTable& pois)
      : pois_(&pois) {
    std::stringstream payload;
    if (!model.Save(payload, &error_)) return;
    uint32_t version = 0;
    uint8_t cell = 0;
    int32_t embedding_dim = 0, hidden_dim = 0, epochs = 0, max_seq_len = 0,
            min_seq_len = 0, num_pois = 0;
    float learning_rate = 0.0f, grad_clip = 0.0f;
    uint64_t seed = 0;
    if (!rec::io::ReadPod(payload, &version) ||
        !rec::io::ReadPod(payload, &cell) ||
        !rec::io::ReadPod(payload, &embedding_dim) ||
        !rec::io::ReadPod(payload, &hidden_dim) ||
        !rec::io::ReadPod(payload, &learning_rate) ||
        !rec::io::ReadPod(payload, &epochs) ||
        !rec::io::ReadPod(payload, &grad_clip) ||
        !rec::io::ReadPod(payload, &max_seq_len) ||
        !rec::io::ReadPod(payload, &min_seq_len) ||
        !rec::io::ReadPod(payload, &seed) ||
        !rec::io::ReadPod(payload, &scale_.hours_scale) ||
        !rec::io::ReadPod(payload, &scale_.km_scale) ||
        !rec::io::ReadPod(payload, &num_pois) || version != 1 ||
        cell > static_cast<uint8_t>(Cell::kStClstm)) {
      error_ = "truncated or unknown neural recommender payload";
      return;
    }
    cell_ = static_cast<Cell>(cell);
    util::Rng rng(1);  // Every parameter is overwritten below.
    embedding_ = std::make_unique<nn::Embedding>(num_pois, embedding_dim, rng);
    std::vector<tensor::Tensor> params = embedding_->Parameters();
    auto append = [&params](const std::vector<tensor::Tensor>& more) {
      params.insert(params.end(), more.begin(), more.end());
    };
    switch (cell_) {
      case Cell::kRnn:
        rnn_ = std::make_unique<nn::RnnCell>(embedding_dim, hidden_dim, rng);
        append(rnn_->Parameters());
        break;
      case Cell::kGru:
        gru_ = std::make_unique<nn::GruCell>(embedding_dim, hidden_dim, rng);
        append(gru_->Parameters());
        break;
      case Cell::kStRnn:
        st_rnn_ =
            std::make_unique<nn::StRnnCell>(embedding_dim, hidden_dim, rng);
        append(st_rnn_->Parameters());
        break;
      case Cell::kLstm:
        lstm_ = std::make_unique<nn::LstmCell>(embedding_dim, hidden_dim, rng);
        append(lstm_->Parameters());
        break;
      case Cell::kStClstm:
        st_clstm_ =
            std::make_unique<nn::StClstmCell>(embedding_dim, hidden_dim, rng);
        append(st_clstm_->Parameters());
        break;
    }
    output_ = std::make_unique<nn::Linear>(hidden_dim, num_pois, rng);
    append(output_->Parameters());
    if (!nn::LoadParameters(payload, params, &error_)) return;
    hidden_dim_ = hidden_dim;
    ok_ = true;
  }

  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }

  /// One user's timeline replayed through the graph path.
  class Session {
   public:
    explicit Session(const NeuralGraphReference* ref)
        : ref_(ref),
          h_(tensor::Tensor::Zeros({1, ref->hidden_dim_})),
          c_(tensor::Tensor::Zeros({1, ref->hidden_dim_})) {}

    void Observe(const poi::Checkin& c) {
      float dt = 0.0f, dd = 0.0f;
      if (has_last_ &&
          (ref_->cell_ == Cell::kStRnn || ref_->cell_ == Cell::kStClstm)) {
        const double hours =
            static_cast<double>(c.timestamp - last_.timestamp) / 3600.0;
        dt = static_cast<float>(
            std::min(hours / ref_->scale_.hours_scale, 10.0));
        const double km = ref_->pois_->DistanceKm(last_.poi, c.poi);
        dd = static_cast<float>(std::min(km / ref_->scale_.km_scale, 10.0));
      }
      const nn::LstmState next = ref_->Step(c.poi, {h_, c_}, dt, dd);
      h_ = next.h.Detach();
      c_ = next.c.Detach();
      last_ = c;
      has_last_ = true;
    }

    std::vector<int32_t> TopK(int k, int64_t next_timestamp) const {
      tensor::Tensor hidden = h_;
      if (ref_->cell_ == Cell::kStClstm && has_last_) {
        const double hours =
            static_cast<double>(next_timestamp - last_.timestamp) / 3600.0;
        const float dt = static_cast<float>(std::min(
            std::max(hours, 0.0) / ref_->scale_.hours_scale, 10.0));
        hidden = ref_->Step(last_.poi, {h_, c_}, dt, 0.0f).h;
      }
      const tensor::Tensor logits = ref_->output_->Forward(hidden);
      return rec::SelectTopK(logits.data(), logits.cols(), k);
    }

   private:
    const NeuralGraphReference* ref_;
    tensor::Tensor h_;
    tensor::Tensor c_;
    poi::Checkin last_;
    bool has_last_ = false;
  };

  Session NewSession() const { return Session(this); }

 private:
  // One graph step of the cell; the RNN family carries c through unchanged.
  nn::LstmState Step(int poi, const nn::LstmState& prev, float dt,
                     float dd) const {
    const tensor::Tensor x = embedding_->Forward({poi});
    switch (cell_) {
      case Cell::kRnn:
        return {rnn_->Forward(x, prev.h), prev.c};
      case Cell::kGru:
        return {gru_->Forward(x, prev.h), prev.c};
      case Cell::kStRnn:
        return {st_rnn_->Forward(x, prev.h, dt, dd), prev.c};
      case Cell::kLstm:
        return lstm_->Forward(x, prev);
      case Cell::kStClstm:
        return st_clstm_->Forward(x, prev, dt, dd);
    }
    return prev;
  }

  const poi::PoiTable* pois_;
  bool ok_ = false;
  std::string error_;
  Cell cell_ = Cell::kLstm;
  int hidden_dim_ = 0;
  poi::FeatureScale scale_;
  std::unique_ptr<nn::Embedding> embedding_;
  std::unique_ptr<nn::RnnCell> rnn_;
  std::unique_ptr<nn::GruCell> gru_;
  std::unique_ptr<nn::StRnnCell> st_rnn_;
  std::unique_ptr<nn::LstmCell> lstm_;
  std::unique_ptr<nn::StClstmCell> st_clstm_;
  std::unique_ptr<nn::Linear> output_;
};

}  // namespace pa::testref

#endif  // PA_TESTS_NEURAL_GRAPH_REFERENCE_H_
