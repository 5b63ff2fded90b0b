#include "augment/pa_seq2seq.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <map>
#include <numeric>
#include <stdexcept>
#include <string>
#include <cmath>
#include <cstdio>

#include "nn/serialize.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/kernels/kernels.h"
#include "tensor/ops.h"
#include "util/thread_pool.h"

namespace pa::augment {

namespace {

using tensor::Tensor;

// Training instruments, resolved once per process against the immortal
// registry. Loss gauges carry the latest epoch's mean loss per stage, so a
// snapshot taken mid-Fit (or embedded in a bench JSON) shows where the
// curves currently sit.
struct TrainInstruments {
  obs::Counter& epochs;
  obs::Histogram& epoch_ms;
  obs::Gauge& stage1_loss;
  obs::Gauge& stage2_loss;
  obs::Gauge& stage3_loss;
  obs::Gauge& stage1_grad_norm;
  obs::Gauge& stage2_grad_norm;
  obs::Gauge& stage3_grad_norm;

  static TrainInstruments& Get() {
    auto& registry = obs::MetricRegistry::Global();
    static TrainInstruments instruments{
        registry.GetCounter("train.epochs"),
        registry.GetHistogram("train.epoch_ms"),
        registry.GetGauge("train.stage1.loss"),
        registry.GetGauge("train.stage2.loss"),
        registry.GetGauge("train.stage3.loss"),
        registry.GetGauge("train.stage1.grad_norm"),
        registry.GetGauge("train.stage2.grad_norm"),
        registry.GetGauge("train.stage3.grad_norm")};
    return instruments;
  }

  /// Latest pre-clip gradient norm for `stage` (1-based).
  obs::Gauge& GradNormGauge(int stage) {
    switch (stage) {
      case 1:
        return stage1_grad_norm;
      case 2:
        return stage2_grad_norm;
      default:
        return stage3_grad_norm;
    }
  }
};

// Greedy decoding's argmax, offered candidates in ascending id order: the
// first seeds the best, and a later one replaces it only when its logit
// compares strictly greater. Ties keep the earlier candidate; a NaN logit
// never replaces the best, and a NaN first candidate is never replaced.
struct Argmax {
  int32_t id = -1;
  float logit = 0.0f;
  void Offer(int32_t candidate, float v) {
    if (id < 0 || v > logit) {
      id = candidate;
      logit = v;
    }
  }
};

// Calls `f(id)` for every id set in the bitmap `bits` of `words` 64-bit
// words (bit i % 64 of word i / 64 is id i), in ascending id order.
template <typename F>
void ForEachId(const uint64_t* bits, int words, const F& f) {
  for (int k = 0; k < words; ++k) {
    for (uint64_t b = bits[k]; b != 0; b &= b - 1) {
      f(static_cast<int32_t>(k * 64 + std::countr_zero(b)));
    }
  }
}

// Top-k over a logits row of `n` POIs, optionally restricted to
// `candidates`; pads from the unrestricted ranking when the candidate set is
// short.
std::vector<int32_t> TopKRow(const float* logits, int n,
                             const std::vector<int32_t>& candidates, int k) {
  std::vector<int32_t> pool = candidates;
  if (pool.empty()) {
    pool.resize(static_cast<size_t>(n));
    std::iota(pool.begin(), pool.end(), 0);
  }
  auto by_logit = [&](int32_t a, int32_t b) { return logits[a] > logits[b]; };
  const int kk = std::min<int>(k, static_cast<int>(pool.size()));
  std::partial_sort(pool.begin(), pool.begin() + kk, pool.end(), by_logit);
  pool.resize(static_cast<size_t>(kk));
  if (static_cast<int>(pool.size()) < k && !candidates.empty()) {
    // Pad with the best unrestricted POIs not already present.
    std::vector<int32_t> rest(static_cast<size_t>(n));
    std::iota(rest.begin(), rest.end(), 0);
    std::sort(rest.begin(), rest.end(), by_logit);
    for (int32_t id : rest) {
      if (static_cast<int>(pool.size()) >= k) break;
      if (std::find(pool.begin(), pool.end(), id) == pool.end()) {
        pool.push_back(id);
      }
    }
  }
  return pool;
}

}  // namespace

PaSeq2Seq::PaSeq2Seq(const poi::PoiTable& pois, PaSeq2SeqConfig config)
    : pois_(pois),
      config_(config),
      rng_(config.seed),
      embedding_(pois.size() + 1, config.embedding_dim, rng_),
      encoder_(config.embedding_dim + 2, config.hidden_dim,
               config.use_residual, rng_),
      dec_bottom_(config.embedding_dim + 2, 2 * config.hidden_dim, rng_),
      dec_top_(2 * config.hidden_dim, 2 * config.hidden_dim, rng_),
      dec_input_projection_(config.embedding_dim + 2, 2 * config.hidden_dim,
                            rng_),
      attention_(2 * config.hidden_dim, 2 * config.hidden_dim,
                 config.attention_window, rng_),
      output_(2 * config.hidden_dim, pois.size(), rng_) {}

std::vector<tensor::Tensor> PaSeq2Seq::Parameters() const {
  std::vector<Tensor> params = nn::ConcatParameters(
      {&embedding_, &encoder_, &dec_bottom_, &dec_top_,
       &dec_input_projection_, &attention_, &output_});
  return params;
}

int64_t PaSeq2Seq::NumParameters() const {
  int64_t n = 0;
  for (const Tensor& p : Parameters()) n += p.numel();
  return n;
}

tensor::Tensor PaSeq2Seq::Decode(const WorkItem& item, util::Rng* rng) const {
  util::Rng& zrng = rng != nullptr ? *rng : rng_;
  const int n = static_cast<int>(item.enc_tokens.size());
  if (n < 2) return {};

  std::vector<char> is_target(n, 0);
  for (int t : item.target_positions) is_target[t] = 1;

  // --- Encoder ---
  std::vector<Tensor> xs(n);
  for (int t = 0; t < n; ++t) {
    Tensor emb = embedding_.Forward({item.enc_tokens[t]});
    Tensor feat = Tensor::FromData(
        {1, 2}, {item.feats[t].delta_t, item.feats[t].delta_d});
    xs[t] = tensor::ConcatCols({emb, feat});
  }
  nn::LstmState enc_final;
  std::vector<Tensor> enc_states = encoder_.Forward(xs, &enc_final);

  // --- Decoder ---
  const nn::ZoneoutConfig zoneout{config_.zoneout_prob, config_.zoneout_prob};
  nn::LstmState s1{enc_final.h, enc_final.c};
  nn::LstmState s2{enc_final.h, enc_final.c};

  std::vector<Tensor> loss_rows;
  std::vector<int> loss_targets;
  for (int t = 1; t < n; ++t) {
    // The previous check-in, teacher-forced from the truth.
    Tensor emb = embedding_.Forward({item.truth[t - 1]});
    Tensor feat = Tensor::FromData(
        {1, 2}, {item.feats[t].delta_t, item.feats[t].delta_d});
    Tensor x = tensor::ConcatCols({emb, feat});

    s1 = dec_bottom_.ForwardZoneout(x, s1, zoneout, zrng);
    Tensor top_in = s1.h;
    if (config_.use_residual) {
      top_in = tensor::Add(top_in, dec_input_projection_.Forward(x));
    }
    s2 = dec_top_.ForwardZoneout(top_in, s2, zoneout, zrng);

    if (!is_target[t]) continue;

    Tensor hidden = s2.h;
    if (config_.use_attention) {
      hidden = attention_.Forward(s2.h, enc_states, /*center=*/t)
                   .attentional_hidden;
    }
    loss_rows.push_back(output_.Forward(hidden));
    loss_targets.push_back(item.truth[t]);
  }
  if (loss_rows.empty()) return {};
  return tensor::CrossEntropyLoss(tensor::ConcatRows(loss_rows), loss_targets);
}

void PaSeq2Seq::DecodeRows(const int* tokens, const poi::StepFeatures* feats,
                           const char* is_target, int n,
                           const PickFn& pick) const {
  int last = n - 1;
  while (last >= 1 && !is_target[last]) --last;
  if (last < 1) return;  // Decoding starts at slot 1.

  const tensor::kernels::KernelTable& kt = tensor::kernels::Active();
  const int e = config_.embedding_dim;
  const int in = e + 2;
  const int w = 2 * config_.hidden_dim;
  // [e ; Δt ; Δd] for slot t: the embedding row of `token`, then t's features.
  auto input_row = [&](int token, int t, float* x) {
    if (token < 0 || token >= embedding_.vocab_size()) {
      throw std::out_of_range("PaSeq2Seq: token " + std::to_string(token) +
                              " outside the embedding table");
    }
    const float* emb =
        embedding_.table().data() + static_cast<int64_t>(token) * e;
    std::copy(emb, emb + e, x);
    x[e] = feats[t].delta_t;
    x[e + 1] = feats[t].delta_d;
  };

  // Encoder inputs [n, in] and states [n, w], then the decoder's two states,
  // a fresh state, its input, the residual skip, the top input and the
  // attentional hidden row.
  std::vector<float> buf(static_cast<size_t>(n) * (in + w) + 9 * w + in);
  float* xs = buf.data();
  float* enc = xs + static_cast<int64_t>(n) * in;
  float* h1 = enc + static_cast<int64_t>(n) * w;
  float* c1 = h1 + w;
  float* h2 = c1 + w;
  float* c2 = h2 + w;
  float* h_new = c2 + w;
  float* c_new = h_new + w;
  float* skip = c_new + w;
  float* top_in = skip + w;
  float* hidden = top_in + w;
  float* x = hidden + w;

  for (int t = 0; t < n; ++t) input_row(tokens[t], t, xs + int64_t{t} * in);
  encoder_.ForwardRows(xs, n, enc, h1, c1);
  std::copy(h1, h1 + w, h2);
  std::copy(c1, c1 + w, c2);

  // Evaluation zoneout keeps the expected blend prev*p + next*(1 - p) of
  // both states.
  const float keep = config_.zoneout_prob;
  auto step = [&](const nn::LstmCell& cell, const float* input, float* h,
                  float* c) {
    if (keep > 0.0f) {
      cell.ForwardRows(input, h, c, h_new, c_new, 1);
      kt.axpby(h, keep, h_new, 1.0f - keep, h, w);
      kt.axpby(c, keep, c_new, 1.0f - keep, c, w);
    } else {
      cell.ForwardRows(input, h, c, h, c, 1);
    }
  };

  std::vector<int32_t> decoded(static_cast<size_t>(n), -1);
  for (int t = 1; t <= last; ++t) {
    // The previous check-in: observed, or the model's own prediction (paper
    // Fig. 5's red feedback arrow).
    int prev = tokens[t - 1];
    if (prev == missing_token() && decoded[t - 1] >= 0) prev = decoded[t - 1];
    input_row(prev, t, x);

    step(dec_bottom_, x, h1, c1);
    const float* top = h1;
    if (config_.use_residual) {
      dec_input_projection_.ForwardRow(x, skip);
      kt.add(h1, skip, top_in, w);
      top = top_in;
    }
    step(dec_top_, top, h2, c2);

    if (!is_target[t]) continue;
    const float* out = h2;
    if (config_.use_attention) {
      attention_.ForwardRow(h2, enc, n, /*center=*/t, hidden);
      out = hidden;
    }
    decoded[t] = pick(t, out);
  }
}

tensor::Tensor PaSeq2Seq::DecoderLmLoss(const WorkItem& item,
                                        util::Rng* rng) const {
  util::Rng& zrng = rng != nullptr ? *rng : rng_;
  const int n = static_cast<int>(item.enc_tokens.size());
  if (n < 2) return {};
  const nn::ZoneoutConfig zoneout{config_.zoneout_prob, config_.zoneout_prob};
  nn::LstmState s1 = dec_bottom_.InitialState(1);
  nn::LstmState s2 = dec_top_.InitialState(1);

  std::vector<Tensor> loss_rows;
  std::vector<int> loss_targets;
  for (int t = 1; t < n; ++t) {
    Tensor emb = embedding_.Forward({item.truth[t - 1]});
    Tensor feat = Tensor::FromData(
        {1, 2}, {item.feats[t].delta_t, item.feats[t].delta_d});
    Tensor x = tensor::ConcatCols({emb, feat});
    s1 = dec_bottom_.ForwardZoneout(x, s1, zoneout, zrng);
    Tensor top_in = s1.h;
    if (config_.use_residual) {
      top_in = tensor::Add(top_in, dec_input_projection_.Forward(x));
    }
    s2 = dec_top_.ForwardZoneout(top_in, s2, zoneout, zrng);
    loss_rows.push_back(output_.Forward(s2.h));
    loss_targets.push_back(item.truth[t]);
  }
  return tensor::CrossEntropyLoss(tensor::ConcatRows(loss_rows), loss_targets);
}

tensor::Tensor PaSeq2Seq::EncoderLmLoss(const WorkItem& item) const {
  const int n = static_cast<int>(item.enc_tokens.size());
  if (n < 2) return {};
  std::vector<Tensor> xs(n);
  for (int t = 0; t < n; ++t) {
    Tensor emb = embedding_.Forward({item.enc_tokens[t]});
    Tensor feat = Tensor::FromData(
        {1, 2}, {item.feats[t].delta_t, item.feats[t].delta_d});
    xs[t] = tensor::ConcatCols({emb, feat});
  }
  std::vector<Tensor> enc_states = encoder_.Forward(xs);
  std::vector<Tensor> loss_rows;
  std::vector<int> loss_targets;
  for (int t = 0; t + 1 < n; ++t) {
    loss_rows.push_back(output_.Forward(enc_states[t]));
    loss_targets.push_back(item.truth[t + 1]);
  }
  return tensor::CrossEntropyLoss(tensor::ConcatRows(loss_rows), loss_targets);
}

std::vector<PaSeq2Seq::WorkItem> PaSeq2Seq::MakeTrainingItems(
    const std::vector<poi::CheckinSequence>& train) const {
  std::vector<WorkItem> items;
  for (const auto& seq : train) {
    const int n = static_cast<int>(seq.size());
    for (int begin = 0; begin < n; begin += config_.max_seq_len) {
      const int len = std::min(config_.max_seq_len, n - begin);
      if (len < config_.min_seq_len) break;
      poi::CheckinSequence chunk(seq.begin() + begin,
                                 seq.begin() + begin + len);
      WorkItem item;
      item.enc_tokens.reserve(static_cast<size_t>(len));
      for (const poi::Checkin& c : chunk) item.enc_tokens.push_back(c.poi);
      item.truth = item.enc_tokens;
      item.feats = poi::ComputeSequenceFeatures(chunk, pois_,
                                                config_.feature_scale);
      for (int t = 1; t < len; ++t) item.target_positions.push_back(t);
      items.push_back(std::move(item));
    }
  }
  return items;
}

PaSeq2Seq::WorkItem PaSeq2Seq::MaskItem(const WorkItem& item, float ratio,
                                        util::Rng* rng) const {
  util::Rng& mrng = rng != nullptr ? *rng : rng_;
  WorkItem masked = item;
  masked.target_positions.clear();
  const int n = static_cast<int>(item.enc_tokens.size());
  for (int t = 1; t < n; ++t) {
    if (mrng.Uniform() < ratio) {
      masked.enc_tokens[t] = missing_token();
      masked.target_positions.push_back(t);
      // Distances touching an unobserved check-in are unknowable at
      // inference; mirror that during training.
      masked.feats[t].delta_d = 0.0f;
      if (t + 1 < n) masked.feats[t + 1].delta_d = 0.0f;
    }
  }
  if (masked.target_positions.empty()) {
    const int t = mrng.RandInt(1, n - 1);
    masked.enc_tokens[t] = missing_token();
    masked.target_positions.push_back(t);
    masked.feats[t].delta_d = 0.0f;
    if (t + 1 < n) masked.feats[t + 1].delta_d = 0.0f;
  }
  return masked;
}

float PaSeq2Seq::RunEpoch(
    std::vector<WorkItem>& items,
    const std::function<tensor::Tensor(const WorkItem&, util::Rng&)>& loss_fn,
    tensor::Adam& optimizer, int stage, TrainWatchdog* watchdog) {
  PA_TRACE_SPAN("train.epoch");
  auto& instruments = TrainInstruments::Get();
  obs::Gauge& grad_norm_gauge = instruments.GradNormGauge(stage);
  const auto epoch_start = std::chrono::steady_clock::now();
  rng_.Shuffle(items);
  double total = 0.0;
  int count = 0;

  const int batch = std::max(1, config_.batch_size);
  if (batch == 1) {
    // Per-item SGD, every draw from rng_ — the historical training loop.
    for (const WorkItem& item : items) {
      PA_TRACE_SPAN("train.item");
      Tensor loss = loss_fn(item, rng_);
      if (!loss.defined()) continue;
      const float loss_value = loss.item();
      optimizer.ZeroGrad();
      loss.Backward();
      const float grad_norm = optimizer.ClipGradNorm(config_.grad_clip);
      grad_norm_gauge.Set(grad_norm);
      // Veto BEFORE Step: a non-finite loss or gradient must not touch the
      // parameters.
      if (watchdog != nullptr &&
          !watchdog->ObserveStep(stage, loss_value, grad_norm)) {
        break;
      }
      optimizer.Step();
      total += loss_value;
      ++count;
    }
    instruments.epochs.Increment();
    instruments.epoch_ms.Record(std::chrono::duration<double, std::milli>(
                                    std::chrono::steady_clock::now() -
                                    epoch_start)
                                    .count());
    return count > 0 ? static_cast<float>(total / count) : 0.0f;
  }

  // Data-parallel mini-batches. Each item runs forward + backward under a
  // GradRedirectScope on whichever pool thread picks it up, drawing from a
  // private stream; the per-item gradient buffers are merged in item order
  // (a fixed floating-point reduction order), so the result depends on the
  // batch size but not the thread count.
  std::vector<Tensor> params = Parameters();
  struct ItemResult {
    bool defined = false;
    float loss = 0.0f;
    std::vector<std::vector<float>> grads;
  };
  for (size_t start = 0; start < items.size();
       start += static_cast<size_t>(batch)) {
    const size_t end =
        std::min(items.size(), start + static_cast<size_t>(batch));
    // One rng_ draw per batch roots the item streams, keeping rng_'s
    // consumption independent of the batch contents.
    const uint64_t batch_seed = rng_.engine()();
    std::vector<ItemResult> results = util::GlobalPool().ParallelMap(
        static_cast<int64_t>(start), static_cast<int64_t>(end), /*grain=*/1,
        [&](int64_t i) {
          PA_TRACE_SPAN("train.item");
          util::Rng item_rng(util::StreamSeed(
              batch_seed, static_cast<uint64_t>(i - start)));
          tensor::GradRedirectScope scope(params);
          ItemResult r;
          Tensor loss = loss_fn(items[static_cast<size_t>(i)], item_rng);
          if (loss.defined()) {
            loss.Backward();
            r.defined = true;
            r.loss = loss.item();
          }
          r.grads = scope.TakeBuffers();
          return r;
        });

    int contributed = 0;
    for (const ItemResult& r : results) contributed += r.defined ? 1 : 0;
    if (contributed == 0) continue;
    optimizer.ZeroGrad();
    const float scale = 1.0f / static_cast<float>(contributed);
    double batch_total = 0.0;
    for (const ItemResult& r : results) {  // Item order: fixed merge order.
      if (!r.defined) continue;
      for (size_t p = 0; p < params.size(); ++p) {
        float* dst = params[p].grad_data();
        const std::vector<float>& src = r.grads[p];
        for (size_t j = 0; j < src.size(); ++j) dst[j] += src[j] * scale;
      }
      batch_total += r.loss;
      total += r.loss;
      ++count;
    }
    const float grad_norm = optimizer.ClipGradNorm(config_.grad_clip);
    grad_norm_gauge.Set(grad_norm);
    if (watchdog != nullptr &&
        !watchdog->ObserveStep(
            stage, static_cast<float>(batch_total / contributed), grad_norm)) {
      break;
    }
    optimizer.Step();
  }
  instruments.epochs.Increment();
  instruments.epoch_ms.Record(std::chrono::duration<double, std::milli>(
                                  std::chrono::steady_clock::now() -
                                  epoch_start)
                                  .count());
  return count > 0 ? static_cast<float>(total / count) : 0.0f;
}

void PaSeq2Seq::Fit(const std::vector<poi::CheckinSequence>& train) {
  std::vector<WorkItem> items = MakeTrainingItems(train);
  if (items.empty()) return;
  tensor::Adam optimizer(Parameters(), config_.learning_rate);

  auto& instruments = TrainInstruments::Get();
  TrainWatchdog watchdog(config_.watchdog);

  // Stage 1: MLE pretraining of the uni-directional (decoder) and
  // bi-directional (encoder) LSTM paths.
  {
    PA_TRACE_SPAN("train.stage1");
    for (int e = 0; e < config_.stage1_epochs && !watchdog.aborted(); ++e) {
      const float loss = RunEpoch(
          items,
          [this](const WorkItem& item, util::Rng& rng) {
            Tensor dec = DecoderLmLoss(item, &rng);
            Tensor enc = EncoderLmLoss(item);
            if (!dec.defined()) return enc;
            if (!enc.defined()) return dec;
            return tensor::Scale(tensor::Add(dec, enc), 0.5f);
          },
          optimizer, /*stage=*/1, &watchdog);
      stats_.stage1.push_back(loss);
      instruments.stage1_loss.Set(loss);
      if (config_.verbose) {
        std::fprintf(stderr, "[pa-seq2seq] stage1 epoch %d loss %.4f\n", e,
                     loss);
      }
      if (!watchdog.aborted()) watchdog.ObserveEpoch(1, loss);
    }
  }

  // Stage 2: MLE pretraining of the full seq2seq (no masking).
  if (!watchdog.aborted()) {
    PA_TRACE_SPAN("train.stage2");
    for (int e = 0; e < config_.stage2_epochs && !watchdog.aborted(); ++e) {
      const float loss = RunEpoch(
          items,
          [this](const WorkItem& item, util::Rng& rng) {
            return Decode(item, &rng);
          },
          optimizer, /*stage=*/2, &watchdog);
      stats_.stage2.push_back(loss);
      instruments.stage2_loss.Set(loss);
      if (config_.verbose) {
        std::fprintf(stderr, "[pa-seq2seq] stage2 epoch %d loss %.4f\n", e,
                     loss);
      }
      if (!watchdog.aborted()) watchdog.ObserveEpoch(2, loss);
    }
  }

  // Stage 3: mask training with the ratio ramping from mask_start to
  // mask_end across epochs (the paper ramps 10% -> 50%).
  if (!watchdog.aborted()) {
    PA_TRACE_SPAN("train.stage3");
    for (int e = 0; e < config_.stage3_epochs && !watchdog.aborted(); ++e) {
      float ratio = config_.mask_end;
      if (config_.ramp_mask && config_.stage3_epochs > 1) {
        const float f = static_cast<float>(e) /
                        static_cast<float>(config_.stage3_epochs - 1);
        ratio =
            config_.mask_start + f * (config_.mask_end - config_.mask_start);
      }
      const float loss = RunEpoch(
          items,
          [this, ratio](const WorkItem& item, util::Rng& rng) {
            return Decode(MaskItem(item, ratio, &rng), &rng);
          },
          optimizer, /*stage=*/3, &watchdog);
      stats_.stage3.push_back(loss);
      instruments.stage3_loss.Set(loss);
      if (config_.verbose) {
        std::fprintf(stderr,
                     "[pa-seq2seq] stage3 epoch %d mask %.2f loss %.4f\n", e,
                     ratio, loss);
      }
      if (!watchdog.aborted()) watchdog.ObserveEpoch(3, loss);
    }
  }

  if (watchdog.aborted()) {
    std::fprintf(stderr, "[pa-seq2seq] training aborted by watchdog: %s\n",
                 watchdog.diagnostic().c_str());
  }
}

struct PaSeq2Seq::ImputeInputs {
  /// Per slot: the observed POI id, or `mc` at a missing slot.
  std::vector<int> tokens;
  /// Per slot: Δt from slot timestamps; Δd only between two observed slots.
  std::vector<poi::StepFeatures> feats;
  /// Per missing slot: index into the candidate sets; -1 at observed slots.
  std::vector<int> candidate_set;
  /// 64-bit words per candidate set: one bit per POI id.
  int words = 0;
  /// One localized-region candidate set per distinct (previous, next)
  /// observed bracket pair, a bitmap over POI ids: set k is words
  /// [k * words, (k + 1) * words). A set with no bit set means all POIs.
  std::vector<uint64_t> candidate_sets;
  /// The answer for a missing slot decoding never reaches (a missing first
  /// slot), as LinearInterpolationAugmenter falls back.
  int32_t fallback = 0;
};

PaSeq2Seq::ImputeInputs PaSeq2Seq::PrepareImpute(
    const MaskedSequence& masked) const {
  const auto& timeline = masked.timeline;
  const int n = static_cast<int>(timeline.size());
  ImputeInputs in;
  in.tokens.resize(n);
  in.feats.resize(n);
  in.candidate_set.assign(n, -1);
  in.fallback = masked.observed.empty() ? 0 : masked.observed.front().poi;

  for (int t = 0; t < n; ++t) {
    in.tokens[t] = timeline[t].missing()
                       ? missing_token()
                       : masked.observed[static_cast<size_t>(
                                             timeline[t].observed_index)]
                             .poi;
    if (t > 0) {
      const double hours = static_cast<double>(timeline[t].timestamp -
                                                timeline[t - 1].timestamp) /
                           3600.0;
      in.feats[t].delta_t = static_cast<float>(
          std::min(hours / config_.feature_scale.hours_scale, 10.0));
      if (in.tokens[t] != missing_token() &&
          in.tokens[t - 1] != missing_token()) {
        const double km = pois_.DistanceKm(in.tokens[t - 1], in.tokens[t]);
        in.feats[t].delta_d = static_cast<float>(
            std::min(km / config_.feature_scale.km_scale, 10.0));
      }
    }
  }

  // Localized-region candidate sets (see PaSeq2SeqConfig comment): a missing
  // slot ranks the POIs within `candidate_radius_km` of either observed
  // check-in bracketing it. Each distinct bracket POI is queried once (ids
  // only, in tree order) into a bitmap over POI ids, and every slot between
  // the same two brackets shares one set, the OR of their two bitmaps.
  const int num_pois = pois_.size();
  in.words = (num_pois + 63) / 64;
  std::vector<int32_t> next_obs(n, -1);
  for (int t = n - 1, nxt = -1; t >= 0; --t) {
    if (!timeline[t].missing()) nxt = in.tokens[t];
    next_obs[t] = nxt;
  }
  std::vector<uint64_t> radius_bits;  // One bitmap per queried POI.
  std::vector<int> bitmap_of(static_cast<size_t>(num_pois), -1);
  int bitmaps = 0;
  auto radius_bitmap = [&](int32_t poi) {
    if (poi < 0 || config_.candidate_radius_km <= 0.0) return -1;
    if (bitmap_of[poi] < 0) {
      bitmap_of[poi] = bitmaps++;
      radius_bits.resize(radius_bits.size() + in.words, 0);
      uint64_t* bits = radius_bits.data() + radius_bits.size() - in.words;
      for (int32_t id : pois_.SpatialIndex().IdsWithinRadius(
               pois_.coord(poi), config_.candidate_radius_km)) {
        bits[id / 64] |= uint64_t{1} << (id % 64);
      }
    }
    return bitmap_of[poi];
  };
  std::map<std::pair<int32_t, int32_t>, int> set_of_brackets;
  for (int t = 0, prev = -1; t < n; ++t) {
    if (!timeline[t].missing()) {
      prev = in.tokens[t];
      continue;
    }
    const auto [it, fresh] = set_of_brackets.try_emplace(
        {prev, next_obs[t]}, static_cast<int>(set_of_brackets.size()));
    if (fresh) {
      const int brackets[] = {radius_bitmap(prev), radius_bitmap(next_obs[t])};
      in.candidate_sets.resize(in.candidate_sets.size() + in.words, 0);
      uint64_t* set =
          in.candidate_sets.data() + in.candidate_sets.size() - in.words;
      for (int bitmap : brackets) {
        if (bitmap < 0) continue;
        const uint64_t* bits =
            radius_bits.data() + static_cast<int64_t>(bitmap) * in.words;
        for (int k = 0; k < in.words; ++k) set[k] |= bits[k];
      }
    }
    in.candidate_set[t] = it->second;
  }
  return in;
}

std::vector<int32_t> PaSeq2Seq::Impute(const MaskedSequence& masked) const {
  CheckPoisInTable(masked.observed, pois_, "PaSeq2Seq::Impute");
  const auto& timeline = masked.timeline;
  const int n = static_cast<int>(timeline.size());
  const int total_missing = poi::CountMissing(timeline);
  if (total_missing == 0) return {};
  const ImputeInputs in = PrepareImpute(masked);
  const int words = in.words;

  // The output projection scores only candidate POIs. W's columns and b's
  // entries for the union of the call's candidate sets (the OR of their
  // bitmaps, read in ascending id order) are packed once into [2H, |union|];
  // `column` maps a POI id to its packed column (-1 outside). Each packed
  // logit is the full projection's, bit for bit: the same ascending-p
  // matmul_block sum from zero, then the same bias add.
  const tensor::kernels::KernelTable& kt = tensor::kernels::Active();
  const int num_pois = pois_.size();
  const int w = 2 * config_.hidden_dim;
  std::vector<uint64_t> all(static_cast<size_t>(words), 0);
  for (size_t i = 0; i < in.candidate_sets.size(); i += words) {
    for (int k = 0; k < words; ++k) all[k] |= in.candidate_sets[i + k];
  }
  std::vector<int32_t> column(static_cast<size_t>(num_pois), -1);
  std::vector<int32_t> packed_ids;
  ForEachId(all.data(), words, [&](int32_t id) {
    column[id] = static_cast<int32_t>(packed_ids.size());
    packed_ids.push_back(id);
  });
  const int u = static_cast<int>(packed_ids.size());
  std::vector<float> packed_w(static_cast<size_t>(w) * u);
  std::vector<float> packed_b(static_cast<size_t>(u));
  const float* weight = output_.weight().data();
  for (int p = 0; p < w; ++p) {
    const float* src = weight + static_cast<int64_t>(p) * num_pois;
    float* dst = packed_w.data() + static_cast<int64_t>(p) * u;
    for (int j = 0; j < u; ++j) dst[j] = src[packed_ids[j]];
  }
  const float* bias = output_.bias().data();
  for (int j = 0; j < u; ++j) packed_b[j] = bias[packed_ids[j]];
  // An empty set (no bracket, radius <= 0, or a radius no POI meets) scores
  // the whole catalogue.
  std::vector<float> logits(static_cast<size_t>(num_pois));

  // Decode in overlapping chunks; a position's prediction is taken from the
  // chunk where it sits past the leading overlap (except in the first).
  const int chunk = std::max(config_.max_seq_len, 8);
  const int overlap = std::min(2 * config_.attention_window, chunk / 2);
  std::vector<int> predicted(n, -1);

  int begin = 0;
  while (begin < n) {
    const int end = std::min(n, begin + chunk);
    std::vector<int> tokens(in.tokens.begin() + begin, in.tokens.begin() + end);
    std::vector<char> is_target(static_cast<size_t>(end - begin), 0);
    const int fresh_from = begin == 0 ? 0 : begin + overlap;
    for (int t = begin; t < end; ++t) {
      if (!timeline[t].missing()) continue;
      if (predicted[t] >= 0) {
        // Earlier predictions inside the overlap feed back as inputs.
        tokens[t - begin] = predicted[t];
      } else if (t >= fresh_from) {
        is_target[t - begin] = 1;
      }
    }
    DecodeRows(
        tokens.data(), in.feats.data() + begin, is_target.data(), end - begin,
        [&](int t, const float* hidden) {
          const uint64_t* set =
              in.candidate_sets.data() +
              static_cast<int64_t>(in.candidate_set[begin + t]) * words;
          float* row = logits.data();
          Argmax best;
          if (std::none_of(set, set + words,
                           [](uint64_t b) { return b != 0; })) {
            output_.ForwardRow(hidden, row);
            for (int32_t id = 0; id < num_pois; ++id) best.Offer(id, row[id]);
          } else {
            std::fill(row, row + u, 0.0f);
            kt.matmul_block(hidden, packed_w.data(), row, w, u, 0, 1, 0, u);
            kt.add(row, packed_b.data(), row, u);
            ForEachId(set, words, [&](int32_t id) {
              best.Offer(id, row[column[id]]);
            });
          }
          predicted[begin + t] = best.id;
          return best.id;
        });
    if (end == n) break;
    begin = end - overlap;
  }

  std::vector<int32_t> result;
  result.reserve(static_cast<size_t>(total_missing));
  for (int t = 0; t < n; ++t) {
    if (timeline[t].missing()) {
      result.push_back(predicted[t] >= 0 ? predicted[t] : in.fallback);
    }
  }
  return result;
}

std::vector<int32_t> PaSeq2Seq::RankNext(const poi::CheckinSequence& history,
                                         int64_t next_timestamp,
                                         int k) const {
  if (history.empty()) return {};
  CheckPoisInTable(history, pois_, "PaSeq2Seq::RankNext");

  // Tail of the history plus one trailing missing slot.
  const int tail = std::min<int>(static_cast<int>(history.size()),
                                 config_.max_seq_len - 1);
  const poi::CheckinSequence recent(history.end() - tail, history.end());
  const int n = tail + 1;
  std::vector<int> tokens;
  tokens.reserve(static_cast<size_t>(n));
  for (const poi::Checkin& c : recent) tokens.push_back(c.poi);
  tokens.push_back(missing_token());
  std::vector<poi::StepFeatures> feats =
      poi::ComputeSequenceFeatures(recent, pois_, config_.feature_scale);
  poi::StepFeatures last_feat;
  const double hours =
      static_cast<double>(next_timestamp - recent.back().timestamp) / 3600.0;
  last_feat.delta_t = static_cast<float>(std::min(
      std::max(hours, 0.0) / config_.feature_scale.hours_scale, 10.0));
  feats.push_back(last_feat);
  std::vector<char> is_target(static_cast<size_t>(n), 0);
  is_target[n - 1] = 1;

  // Nearest first: partial_sort's order among tied logits follows the
  // candidates' order.
  std::vector<int32_t> cands;
  if (config_.candidate_radius_km > 0.0) {
    for (const auto& nb : pois_.SpatialIndex().WithinRadius(
             pois_.coord(recent.back().poi), config_.candidate_radius_km)) {
      cands.push_back(nb.id);
    }
  }

  // The whole row: the ranking pads short candidate sets from it.
  std::vector<float> logits(static_cast<size_t>(pois_.size()));
  std::vector<int32_t> ranking;
  DecodeRows(tokens.data(), feats.data(), is_target.data(), n,
             [&](int, const float* hidden) {
               output_.ForwardRow(hidden, logits.data());
               ranking = TopKRow(logits.data(), pois_.size(), cands, k);
               return -1;  // The last slot: nothing decodes after it.
             });
  return ranking;
}

poi::CheckinSequence PaSeq2Seq::ImputeTrip(const poi::Checkin& start,
                                           const poi::Checkin& end,
                                           int64_t interval_seconds,
                                           int max_missing_per_gap) const {
  poi::CheckinSequence endpoints = {start, end};
  return AugmentSequence(*this, endpoints, start.user, interval_seconds,
                         max_missing_per_gap);
}

bool PaSeq2Seq::SaveToFile(const std::string& path) const {
  return nn::SaveParametersToFile(path, Parameters());
}

bool PaSeq2Seq::LoadFromFile(const std::string& path) {
  std::vector<Tensor> params = Parameters();
  return nn::LoadParametersFromFile(path, params);
}

}  // namespace pa::augment
