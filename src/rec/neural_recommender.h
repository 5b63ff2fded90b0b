#ifndef PA_REC_NEURAL_RECOMMENDER_H_
#define PA_REC_NEURAL_RECOMMENDER_H_

#include <memory>
#include <vector>

#include "nn/layers.h"
#include "nn/lstm.h"
#include "nn/gru_cell.h"
#include "nn/rnn_cell.h"
#include "nn/st_rnn_cell.h"
#include "nn/st_clstm.h"
#include "poi/features.h"
#include "rec/recommender.h"
#include "util/rng.h"

namespace pa::rec {

/// Configuration shared by the three recurrent recommenders of §IV-D.
struct NeuralRecConfig {
  enum class Cell {
    kRnn,      // Vanilla recurrent baseline [37].
    kLstm,     // Standard LSTM [12].
    kGru,      // GRU (library extension; the paper's related-work family).
    kStRnn,    // ST-RNN [4]: time/distance-specific transition matrices.
    kStClstm   // Coupled spatio-temporal LSTM [5], the state of the art.
  };
  Cell cell = Cell::kLstm;

  int embedding_dim = 16;
  int hidden_dim = 24;
  float learning_rate = 0.01f;
  int epochs = 8;
  float grad_clip = 5.0f;
  int max_seq_len = 100;  // Training chunk length (truncated BPTT).
  int min_seq_len = 3;
  uint64_t seed = 7;
  poi::FeatureScale feature_scale;
};

/// Next-POI recommender built from a recurrent cell, a POI embedding table
/// and a softmax output layer, trained with next-check-in cross-entropy.
///
/// The vanilla RNN and LSTM variants consume POI embeddings only (the paper
/// treats them as pure sequence baselines); the ST-CLSTM variant
/// additionally consumes the Δt / Δd intervals through its time and
/// distance gates, and its ranking step advances a phantom cell step using
/// the known time of the check-in being predicted, so the prediction is
/// genuinely time-aware.
class NeuralRecommender : public Recommender {
 public:
  explicit NeuralRecommender(NeuralRecConfig config);
  ~NeuralRecommender() override;

  std::string name() const override;
  void Fit(const std::vector<poi::CheckinSequence>& train,
           const poi::PoiTable& pois) override;
  std::unique_ptr<RecSession> NewSession(int32_t user) const override;
  bool Save(std::ostream& os, std::string* error = nullptr) const override;
  bool Load(std::istream& is, const poi::PoiTable& pois,
            std::string* error = nullptr) override;

  /// Mean training loss per epoch (tests assert it decreases).
  const std::vector<float>& epoch_losses() const { return epoch_losses_; }

 private:
  friend class NeuralRecSession;

  /// Advances the recurrent state by one observed check-in.
  nn::LstmState Step(const nn::LstmState& state, int poi, float delta_t,
                     float delta_d) const;
  nn::LstmState InitialState() const;

  /// (Re)creates the embedding, cell and output modules for a POI universe
  /// of the given size — the structure both `Fit` and `Load` need.
  void BuildModules(int num_pois);
  /// Every trainable tensor, in the fixed order Save/Load and Fit use.
  std::vector<tensor::Tensor> CollectParameters() const;

  NeuralRecConfig config_;
  mutable util::Rng rng_;
  const poi::PoiTable* pois_ = nullptr;

  // Built by Fit (needs the POI count).
  std::unique_ptr<nn::Embedding> embedding_;
  std::unique_ptr<nn::RnnCell> rnn_;
  std::unique_ptr<nn::GruCell> gru_;
  std::unique_ptr<nn::StRnnCell> st_rnn_;
  std::unique_ptr<nn::LstmCell> lstm_;
  std::unique_ptr<nn::StClstmCell> st_clstm_;
  std::unique_ptr<nn::Linear> output_;

  std::vector<float> epoch_losses_;
};

}  // namespace pa::rec

#endif  // PA_REC_NEURAL_RECOMMENDER_H_
