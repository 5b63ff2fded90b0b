#include "rec/neural_recommender.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "nn/serialize.h"
#include "rec/model_io.h"
#include "rec/ranking.h"
#include "tensor/ops.h"
#include "tensor/optimizer.h"

namespace pa::rec {

namespace {

constexpr uint32_t kNeuralPayloadVersion = 1;

using tensor::Tensor;

}  // namespace

NeuralRecommender::NeuralRecommender(NeuralRecConfig config)
    : config_(config), rng_(config.seed) {}

NeuralRecommender::~NeuralRecommender() = default;

std::string NeuralRecommender::name() const {
  switch (config_.cell) {
    case NeuralRecConfig::Cell::kRnn:
      return "RNN";
    case NeuralRecConfig::Cell::kLstm:
      return "LSTM";
    case NeuralRecConfig::Cell::kGru:
      return "GRU";
    case NeuralRecConfig::Cell::kStRnn:
      return "ST-RNN";
    case NeuralRecConfig::Cell::kStClstm:
      return "ST-CLSTM";
  }
  return "?";
}

nn::LstmState NeuralRecommender::InitialState() const {
  switch (config_.cell) {
    case NeuralRecConfig::Cell::kRnn:
      return {rnn_->InitialState(1), Tensor::Zeros({1, 1})};
    case NeuralRecConfig::Cell::kGru:
      return {gru_->InitialState(1), Tensor::Zeros({1, 1})};
    case NeuralRecConfig::Cell::kStRnn:
      return {st_rnn_->InitialState(1), Tensor::Zeros({1, 1})};
    case NeuralRecConfig::Cell::kLstm:
      return lstm_->InitialState(1);
    case NeuralRecConfig::Cell::kStClstm:
      return st_clstm_->InitialState(1);
  }
  return {};
}

nn::LstmState NeuralRecommender::Step(const nn::LstmState& state, int poi,
                                      float delta_t, float delta_d) const {
  Tensor x = embedding_->Forward({poi});
  switch (config_.cell) {
    case NeuralRecConfig::Cell::kRnn:
      return {rnn_->Forward(x, state.h), state.c};
    case NeuralRecConfig::Cell::kGru:
      return {gru_->Forward(x, state.h), state.c};
    case NeuralRecConfig::Cell::kStRnn:
      return {st_rnn_->Forward(x, state.h, delta_t, delta_d), state.c};
    case NeuralRecConfig::Cell::kLstm:
      return lstm_->Forward(x, state);
    case NeuralRecConfig::Cell::kStClstm:
      return st_clstm_->Forward(x, state, delta_t, delta_d);
  }
  return state;
}

void NeuralRecommender::BuildModules(int num_pois) {
  embedding_.reset();
  rnn_.reset();
  gru_.reset();
  st_rnn_.reset();
  lstm_.reset();
  st_clstm_.reset();
  output_.reset();
  embedding_ =
      std::make_unique<nn::Embedding>(num_pois, config_.embedding_dim, rng_);
  output_ = std::make_unique<nn::Linear>(config_.hidden_dim, num_pois, rng_);
  switch (config_.cell) {
    case NeuralRecConfig::Cell::kRnn:
      rnn_ = std::make_unique<nn::RnnCell>(config_.embedding_dim,
                                           config_.hidden_dim, rng_);
      break;
    case NeuralRecConfig::Cell::kGru:
      gru_ = std::make_unique<nn::GruCell>(config_.embedding_dim,
                                           config_.hidden_dim, rng_);
      break;
    case NeuralRecConfig::Cell::kStRnn:
      st_rnn_ = std::make_unique<nn::StRnnCell>(config_.embedding_dim,
                                                config_.hidden_dim, rng_);
      break;
    case NeuralRecConfig::Cell::kLstm:
      lstm_ = std::make_unique<nn::LstmCell>(config_.embedding_dim,
                                             config_.hidden_dim, rng_);
      break;
    case NeuralRecConfig::Cell::kStClstm:
      st_clstm_ = std::make_unique<nn::StClstmCell>(config_.embedding_dim,
                                                    config_.hidden_dim, rng_);
      break;
  }
}

std::vector<Tensor> NeuralRecommender::CollectParameters() const {
  std::vector<Tensor> params = embedding_->Parameters();
  auto append = [&params](const std::vector<Tensor>& more) {
    params.insert(params.end(), more.begin(), more.end());
  };
  if (rnn_) append(rnn_->Parameters());
  if (gru_) append(gru_->Parameters());
  if (st_rnn_) append(st_rnn_->Parameters());
  if (lstm_) append(lstm_->Parameters());
  if (st_clstm_) append(st_clstm_->Parameters());
  append(output_->Parameters());
  return params;
}

void NeuralRecommender::Fit(const std::vector<poi::CheckinSequence>& train,
                            const poi::PoiTable& pois) {
  pois_ = &pois;
  BuildModules(pois.size());
  tensor::Adam optimizer(CollectParameters(), config_.learning_rate);

  // Training chunks: (sequence span, features) with truncated BPTT.
  struct Chunk {
    const poi::CheckinSequence* seq;
    int begin;
    int len;
  };
  std::vector<Chunk> chunks;
  for (const auto& seq : train) {
    const int n = static_cast<int>(seq.size());
    for (int begin = 0; begin < n; begin += config_.max_seq_len) {
      const int len = std::min(config_.max_seq_len, n - begin);
      if (len < config_.min_seq_len) break;
      chunks.push_back({&seq, begin, len});
    }
  }

  epoch_losses_.clear();
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    rng_.Shuffle(chunks);
    double total = 0.0;
    int count = 0;
    for (const Chunk& chunk : chunks) {
      nn::LstmState state = InitialState();
      std::vector<Tensor> logit_rows;
      std::vector<int> targets;
      for (int i = 0; i < chunk.len - 1; ++i) {
        const poi::Checkin& cur = (*chunk.seq)[chunk.begin + i];
        const poi::StepFeatures f = poi::ComputeStepFeatures(
            *chunk.seq, static_cast<size_t>(chunk.begin + i), *pois_,
            config_.feature_scale);
        state = Step(state, cur.poi, f.delta_t, f.delta_d);
        logit_rows.push_back(output_->Forward(state.h));
        targets.push_back((*chunk.seq)[chunk.begin + i + 1].poi);
      }
      if (logit_rows.empty()) continue;
      Tensor loss = tensor::CrossEntropyLoss(tensor::ConcatRows(logit_rows),
                                             targets);
      optimizer.ZeroGrad();
      loss.Backward();
      optimizer.ClipGradNorm(config_.grad_clip);
      optimizer.Step();
      total += loss.item();
      ++count;
    }
    epoch_losses_.push_back(count ? static_cast<float>(total / count) : 0.0f);
  }
}

void NeuralRecommender::StepRows(int poi, float delta_t, float delta_d,
                                 const float* h_prev, const float* c_prev,
                                 float* h_out, float* c_out) const {
  const float* x = embedding_->table().data() +
                   static_cast<int64_t>(poi) * embedding_->dim();
  switch (config_.cell) {
    case NeuralRecConfig::Cell::kRnn:
      rnn_->ForwardRows(x, h_prev, h_out, 1);
      break;
    case NeuralRecConfig::Cell::kGru:
      gru_->ForwardRows(x, h_prev, h_out, 1);
      break;
    case NeuralRecConfig::Cell::kStRnn:
      st_rnn_->ForwardRows(x, h_prev, delta_t, delta_d, h_out, 1);
      break;
    case NeuralRecConfig::Cell::kLstm:
      lstm_->ForwardRows(x, h_prev, c_prev, h_out, c_out, 1);
      break;
    case NeuralRecConfig::Cell::kStClstm:
      st_clstm_->ForwardRows(x, h_prev, c_prev, delta_t, delta_d, h_out,
                             c_out, 1);
      break;
  }
}

/// Session: owns its recurrent state as flat h and c rows (c stays zero for
/// the RNN family) and steps them in place through the cell's explicit
/// forward, reading the embedding row by pointer. No tensor, no graph and
/// nothing allocated per check-in; the rows are bit for bit what the cell's
/// graph `Forward` would give (tensor_fusion_test).
class NeuralRecSession : public RecSession {
 public:
  explicit NeuralRecSession(const NeuralRecommender* rec)
      : rec_(rec),
        h_(static_cast<size_t>(rec->config_.hidden_dim), 0.0f),
        c_(h_.size(), 0.0f) {}

  void Observe(const poi::Checkin& c) override {
    // Refuse an id outside the table before anything reads a row or a
    // coordinate, so the state stays as it was.
    const int num_pois = rec_->embedding_->vocab_size();
    if (c.poi < 0 || c.poi >= num_pois) {
      throw std::out_of_range(rec_->name() + ": POI " +
                              std::to_string(c.poi) + " outside the table (" +
                              std::to_string(num_pois) + " POIs)");
    }
    // Only the spatio-temporal cells read the intervals.
    const NeuralRecConfig::Cell cell = rec_->config_.cell;
    float dt = 0.0f, dd = 0.0f;
    if (has_last_ && (cell == NeuralRecConfig::Cell::kStRnn ||
                      cell == NeuralRecConfig::Cell::kStClstm)) {
      const double hours =
          static_cast<double>(c.timestamp - last_.timestamp) / 3600.0;
      dt = static_cast<float>(
          std::min(hours / rec_->config_.feature_scale.hours_scale, 10.0));
      const double km = rec_->pois_->DistanceKm(last_.poi, c.poi);
      dd = static_cast<float>(
          std::min(km / rec_->config_.feature_scale.km_scale, 10.0));
    }
    rec_->StepRows(c.poi, dt, dd, h_.data(), c_.data(), h_.data(), c_.data());
    last_ = c;
    has_last_ = true;
  }

  std::vector<int32_t> TopK(int k, int64_t next_timestamp) const override {
    const float* hidden = h_.data();
    // Time-aware ranking: ST-CLSTM advances a phantom step whose time gate
    // sees the interval to the check-in being predicted. It writes into a
    // per-thread scratch [h ; c]; the session's own state does not move.
    if (rec_->config_.cell == NeuralRecConfig::Cell::kStClstm && has_last_) {
      const double hours =
          static_cast<double>(next_timestamp - last_.timestamp) / 3600.0;
      const float dt = static_cast<float>(std::min(
          std::max(hours, 0.0) / rec_->config_.feature_scale.hours_scale,
          10.0));
      static thread_local std::vector<float> phantom;
      phantom.resize(2 * h_.size());
      rec_->StepRows(last_.poi, dt, 0.0f, h_.data(), c_.data(),
                     phantom.data(), phantom.data() + h_.size());
      hidden = phantom.data();
    }
    // Score into one reused per-thread row with the float projection
    // (bitwise Linear::Forward), then rank it in one scan.
    const nn::Linear& output = *rec_->output_;
    static thread_local std::vector<float> logits_row;
    logits_row.resize(static_cast<size_t>(output.out_dim()));
    output.ForwardRow(hidden, logits_row.data());
    return SelectTopK(logits_row.data(), output.out_dim(), k);
  }

 private:
  const NeuralRecommender* rec_;
  std::vector<float> h_;
  std::vector<float> c_;
  poi::Checkin last_;
  bool has_last_ = false;
};

std::unique_ptr<RecSession> NeuralRecommender::NewSession(int32_t) const {
  return std::make_unique<NeuralRecSession>(this);
}

bool NeuralRecommender::Save(std::ostream& os, std::string* error) const {
  if (pois_ == nullptr || !output_) {
    io::SetError(error, name() + ": Save() called before Fit()");
    return false;
  }
  io::WritePod(os, kNeuralPayloadVersion);
  io::WritePod(os, static_cast<uint8_t>(config_.cell));
  io::WritePod(os, static_cast<int32_t>(config_.embedding_dim));
  io::WritePod(os, static_cast<int32_t>(config_.hidden_dim));
  io::WritePod(os, config_.learning_rate);
  io::WritePod(os, static_cast<int32_t>(config_.epochs));
  io::WritePod(os, config_.grad_clip);
  io::WritePod(os, static_cast<int32_t>(config_.max_seq_len));
  io::WritePod(os, static_cast<int32_t>(config_.min_seq_len));
  io::WritePod(os, config_.seed);
  io::WritePod(os, config_.feature_scale.hours_scale);
  io::WritePod(os, config_.feature_scale.km_scale);
  io::WritePod(os, static_cast<int32_t>(embedding_->vocab_size()));
  if (!nn::SaveParameters(os, CollectParameters(), error)) return false;
  if (!os) {
    io::SetError(error, name() + ": I/O error writing model");
    return false;
  }
  return true;
}

bool NeuralRecommender::Load(std::istream& is, const poi::PoiTable& pois,
                             std::string* error) {
  uint32_t version = 0;
  if (!io::ReadPod(is, &version) || version != kNeuralPayloadVersion) {
    io::SetError(error, name() + ": unsupported model payload version");
    return false;
  }
  uint8_t cell = 0;
  int32_t embedding_dim = 0, hidden_dim = 0, epochs = 0;
  int32_t max_seq_len = 0, min_seq_len = 0, num_pois = 0;
  if (!io::ReadPod(is, &cell) ||
      cell > static_cast<uint8_t>(NeuralRecConfig::Cell::kStClstm) ||
      !io::ReadPod(is, &embedding_dim) || !io::ReadPod(is, &hidden_dim) ||
      !io::ReadPod(is, &config_.learning_rate) || !io::ReadPod(is, &epochs) ||
      !io::ReadPod(is, &config_.grad_clip) || !io::ReadPod(is, &max_seq_len) ||
      !io::ReadPod(is, &min_seq_len) || !io::ReadPod(is, &config_.seed) ||
      !io::ReadPod(is, &config_.feature_scale.hours_scale) ||
      !io::ReadPod(is, &config_.feature_scale.km_scale) ||
      !io::ReadPod(is, &num_pois) || embedding_dim <= 0 || hidden_dim <= 0) {
    io::SetError(error, name() + ": truncated or corrupt model header");
    return false;
  }
  if (num_pois != pois.size()) {
    io::SetError(error, name() + ": POI table size mismatch (model has " +
                            std::to_string(num_pois) + " POIs, table has " +
                            std::to_string(pois.size()) + ")");
    return false;
  }
  config_.cell = static_cast<NeuralRecConfig::Cell>(cell);
  config_.embedding_dim = embedding_dim;
  config_.hidden_dim = hidden_dim;
  config_.epochs = epochs;
  config_.max_seq_len = max_seq_len;
  config_.min_seq_len = min_seq_len;

  // Rebuild the module structure (random init), then overwrite every
  // parameter from the checkpoint.
  rng_ = util::Rng(config_.seed);
  BuildModules(num_pois);
  std::vector<Tensor> params = CollectParameters();
  if (!nn::LoadParameters(is, params, error)) return false;
  pois_ = &pois;
  epoch_losses_.clear();
  return true;
}

}  // namespace pa::rec
