#include "rec/pa_seq2seq_recommender.h"

namespace pa::rec {

PaSeq2SeqRecommender::PaSeq2SeqRecommender(augment::PaSeq2SeqConfig config)
    : config_(config) {}

void PaSeq2SeqRecommender::Fit(const std::vector<poi::CheckinSequence>& train,
                               const poi::PoiTable& pois) {
  model_ = std::make_unique<augment::PaSeq2Seq>(pois, config_);
  model_->Fit(train);
}

namespace {

class Session : public RecSession {
 public:
  explicit Session(const augment::PaSeq2Seq* model) : model_(model) {}

  void Observe(const poi::Checkin& c) override { history_.push_back(c); }

  std::vector<int32_t> TopK(int k, int64_t next_timestamp) const override {
    if (model_ == nullptr || history_.empty()) return {};
    return model_->RankNext(history_, next_timestamp, k);
  }

 private:
  const augment::PaSeq2Seq* model_;
  poi::CheckinSequence history_;
};

}  // namespace

std::unique_ptr<RecSession> PaSeq2SeqRecommender::NewSession(int32_t) const {
  return std::make_unique<Session>(model_.get());
}

}  // namespace pa::rec
