#ifndef PA_AUGMENT_PA_SEQ2SEQ_H_
#define PA_AUGMENT_PA_SEQ2SEQ_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "augment/augmenter.h"
#include "augment/train_watchdog.h"
#include "nn/attention.h"
#include "nn/layers.h"
#include "nn/lstm.h"
#include "poi/features.h"
#include "poi/poi_table.h"
#include "tensor/optimizer.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace pa::augment {

/// Hyper-parameters of PA-Seq2Seq. Defaults follow the paper where it
/// specifies values (16-d POI embeddings, Adam at lr 0.008, attention
/// half-window D = 10, mask ratio ramping 10% → 50%) and use small
/// CPU-friendly sizes elsewhere.
struct PaSeq2SeqConfig {
  int embedding_dim = 16;      // Paper §IV-B.
  int hidden_dim = 24;         // Per direction in the BiLSTM.
  int attention_window = 10;   // Paper §III-D: D = 10.
  float zoneout_prob = 0.1f;   // §III-E zoneout on hidden and cell states.
  float learning_rate = 0.008f;  // Paper §IV-B (Adam).
  float grad_clip = 5.0f;

  // Three-stage training protocol (§IV-B).
  int stage1_epochs = 2;  // LSTM / BiLSTM MLE pretraining.
  int stage2_epochs = 2;  // Full seq2seq MLE pretraining.
  int stage3_epochs = 30;  // Mask training.
  float mask_start = 0.10f;  // Mask ratio at the first stage-3 epoch...
  float mask_end = 0.50f;    // ...ramping linearly to this at the last.

  /// Inference-time localized-region restriction: greedy decoding ranks
  /// only POIs within this radius of the observed check-ins bracketing the
  /// missing slot (0 disables). The paper's full-scale model ranks all
  /// POIs; at this build's CPU scale the softmax geography is undertrained,
  /// and an unrestricted argmax occasionally lands in the wrong city, so
  /// the same localized-region assumption FPMC-LR makes (users move within
  /// a bounded region between consecutive check-ins) is applied to keep
  /// imputations plausible. See DESIGN.md "Substitutions".
  double candidate_radius_km = 15.0;

  // Practicalities.
  int max_seq_len = 100;     // Training/inference chunk length.
  int min_seq_len = 4;       // Chunks shorter than this are skipped.
  /// Training mini-batch size. 1 (the default) is the paper's per-item SGD
  /// and is bit-identical to the historical sequential trainer. Larger
  /// values run the items of each batch forward+backward in parallel on the
  /// global thread pool — per-item gradients accumulate in private buffers
  /// (see tensor::GradRedirectScope) and are merged in item order, then
  /// averaged for one optimizer step, so the result depends on `batch_size`
  /// but NOT on the thread count.
  int batch_size = 1;
  uint64_t seed = 42;
  poi::FeatureScale feature_scale;

  // Ablation switches (bench_ablation_*): the paper's design choices.
  bool use_residual = true;   // Eq. 3 vs Eq. 2 stacking.
  bool use_attention = true;  // Local attention vs plain decoder output.
  bool ramp_mask = true;      // Ramped vs fixed (mask_end) mask ratio.

  /// Training-health watchdog (NaN/Inf guards, loss-divergence detector).
  /// On by default: a poisoned step or a diverging run aborts Fit with a
  /// diagnostic and flips /healthz to FAILED instead of silently training
  /// on garbage. Set `watchdog.enabled = false` for experiments that
  /// deliberately explore divergence.
  TrainWatchdogConfig watchdog;

  bool verbose = false;
};

/// The POI-Augmentation Sequence-to-Sequence model (paper §III).
///
/// Architecture (Figs. 3–5):
///  * a shared POI embedding table over `num_pois + 1` tokens — the extra
///    token is the *missing check-in* `mc`, indexed at `num_pois` exactly as
///    the paper places it at the end of the one-hot table;
///  * encoder: BiLSTM stacked with a uni-directional LSTM through a residual
///    connection (Eq. 1–3), reading `[embedding ; Δt ; Δd]` per slot;
///  * decoder: two-layer residual LSTM with zoneout whose step t input is
///    the previous check-in (observed, or the model's own prediction when
///    the previous slot was missing), producing predictions through local
///    attention (Eq. 4) and a softmax over POIs.
///
/// Training follows the paper's three stages: MLE pretraining of the LSTM
/// paths, MLE pretraining of the full seq2seq, then mask training in which
/// a ramped fraction of observed check-ins is replaced by `mc` in the
/// encoder input and must be recovered.
class PaSeq2Seq : public Augmenter {
 public:
  /// `pois` must outlive the model.
  explicit PaSeq2Seq(const poi::PoiTable& pois, PaSeq2SeqConfig config = {});

  std::string name() const override { return "PA-Seq2Seq"; }

  /// Runs the three-stage training protocol on the observed sequences.
  void Fit(const std::vector<poi::CheckinSequence>& train) override;

  /// Predicts a POI for every missing slot of the timeline (greedy
  /// decoding; predictions feed back as the next decoder input, and their
  /// coordinates supply the Δd features of later steps). Throws
  /// std::out_of_range for an observed POI outside the table.
  std::vector<int32_t> Impute(const MaskedSequence& masked) const override;

  /// The id of the missing-check-in token.
  int missing_token() const { return pois_.size(); }

  /// Uses the trained model *directly* as a next-POI ranker — the paper's
  /// §VI observation that PA-Seq2Seq "has learned the visiting
  /// distribution" and can serve recommendation itself. Encodes (the tail
  /// of) the observed history plus one trailing missing slot at
  /// `next_timestamp` and returns the top-k POIs predicted for that slot.
  /// Candidate restriction follows `candidate_radius_km` around the last
  /// observed POI, padded from the unrestricted ranking when short. Throws
  /// std::out_of_range for a history POI outside the table.
  std::vector<int32_t> RankNext(const poi::CheckinSequence& history,
                                int64_t next_timestamp, int k) const;

  /// Trip imputation (paper §VI future work): given only a departure and a
  /// destination check-in and the slot interval, generates the whole
  /// trajectory between them — the number of imputed check-ins follows
  /// from the time budget. Returns the full sequence including both
  /// endpoints.
  poi::CheckinSequence ImputeTrip(const poi::Checkin& start,
                                  const poi::Checkin& end,
                                  int64_t interval_seconds,
                                  int max_missing_per_gap = 0) const;

  /// Checkpointing: persists / restores all trainable parameters (the
  /// architecture in `config` must match at load time).
  bool SaveToFile(const std::string& path) const;
  bool LoadFromFile(const std::string& path);

  /// Mean training loss per epoch for each stage; tests assert descent.
  struct TrainStats {
    std::vector<float> stage1;
    std::vector<float> stage2;
    std::vector<float> stage3;
  };
  const TrainStats& train_stats() const { return stats_; }

  std::vector<tensor::Tensor> Parameters() const;
  int64_t NumParameters() const;

 private:
  /// One training problem over a fixed-length chunk.
  struct WorkItem {
    /// Encoder-side tokens: POI ids, with `mc` at masked positions.
    std::vector<int> enc_tokens;
    /// Ground truth per position (equals enc_tokens at observed positions).
    std::vector<int> truth;
    std::vector<poi::StepFeatures> feats;
    /// Positions whose prediction participates in the loss.
    std::vector<int> target_positions;
  };

  /// Runs encoder + decoder over an item and returns the cross-entropy loss
  /// at the target positions, with teacher-forced decoder inputs from
  /// `truth` (undefined for an item shorter than two slots).
  ///
  /// `rng` supplies the zoneout draws; nullptr uses the model's `rng_`.
  /// Data-parallel training passes a per-item stream so concurrent items
  /// never touch the shared rng (which also keeps the draws independent of
  /// the thread count).
  tensor::Tensor Decode(const WorkItem& item, util::Rng* rng = nullptr) const;

  /// Greedy inference decoding of one chunk of `n` slots through the
  /// explicit row forwards, with no tensor node: the encoder's
  /// `ForwardRows`, both decoder cells' `ForwardRows` with the expected
  /// zoneout blend, and attention's `ForwardRow`. `tokens` are POI ids, or
  /// `mc` at missing slots; `is_target` marks the slots to predict. At each
  /// target t (from slot 1; decoding stops after the last one),
  /// `pick(t, hidden)` receives the decoder's output row `[2 * hidden_dim]`
  /// and returns the POI decoded there, which a missing slot t feeds back
  /// as the next step's input. Bitwise the graph decode within one kernel
  /// table. Throws std::out_of_range for a token outside the embedding
  /// table.
  using PickFn = std::function<int32_t(int t, const float* hidden)>;
  void DecodeRows(const int* tokens, const poi::StepFeatures* feats,
                  const char* is_target, int n, const PickFn& pick) const;

  /// What Impute decodes from, built once per call; defined in the .cc
  /// file.
  struct ImputeInputs;
  ImputeInputs PrepareImpute(const MaskedSequence& masked) const;

  /// Decoder-only language-model loss (stage 1a). `rng` as in Decode.
  tensor::Tensor DecoderLmLoss(const WorkItem& item,
                               util::Rng* rng = nullptr) const;
  /// Encoder next-token loss (stage 1b); deterministic (no zoneout).
  tensor::Tensor EncoderLmLoss(const WorkItem& item) const;

  /// Splits training sequences into chunk WorkItems.
  std::vector<WorkItem> MakeTrainingItems(
      const std::vector<poi::CheckinSequence>& train) const;

  /// Runs one epoch over `items`; returns the mean loss. `loss_fn` receives
  /// the item plus the rng all of the item's stochastic draws (masking,
  /// zoneout) must come from.
  ///
  /// With `config_.batch_size == 1` this is plain sequential per-item SGD
  /// driven by `rng_` (the historical behavior, bit for bit). With larger
  /// batches, each batch's items run forward+backward concurrently on the
  /// global pool under a GradRedirectScope, each with a private rng stream
  /// derived from one `rng_` draw per batch; gradients merge in item order
  /// and are averaged for a single optimizer step per batch.
  /// `stage` (1-based) labels the grad-norm gauge and watchdog state;
  /// `watchdog` (may be null) vetoes poisoned optimizer steps — on veto the
  /// epoch stops early and the mean over the completed items is returned.
  float RunEpoch(
      std::vector<WorkItem>& items,
      const std::function<tensor::Tensor(const WorkItem&, util::Rng&)>&
          loss_fn,
      tensor::Adam& optimizer, int stage, TrainWatchdog* watchdog);

  /// Applies the stage-3 mask (ratio `ratio`) to a pristine item, drawing
  /// from `rng` (nullptr uses the model's `rng_`).
  WorkItem MaskItem(const WorkItem& item, float ratio,
                    util::Rng* rng = nullptr) const;

  const poi::PoiTable& pois_;
  PaSeq2SeqConfig config_;
  mutable util::Rng rng_;

  nn::Embedding embedding_;
  nn::ResidualBiLstmStack encoder_;
  nn::LstmCell dec_bottom_;
  nn::LstmCell dec_top_;
  nn::Linear dec_input_projection_;  // Residual skip around dec_bottom_.
  nn::LocalAttention attention_;
  nn::Linear output_;

  TrainStats stats_;
};

}  // namespace pa::augment

#endif  // PA_AUGMENT_PA_SEQ2SEQ_H_
