#include "eval/hr_metric.h"

#include <algorithm>
#include <chrono>
#include <sstream>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

namespace pa::eval {

std::string HrResult::ToString() const {
  std::ostringstream os;
  os << "HR@1=" << hr1 << " HR@5=" << hr5 << " HR@10=" << hr10 << " (n="
     << num_cases << ")";
  return os.str();
}

void HrAccumulator::Add(const std::vector<int32_t>& ranked, int32_t truth) {
  ++num_cases_;
  // Rank positions are assigned over *distinct* ids: a recommender that
  // emits [a, a, truth] has truth at effective rank 2, not 3, and a
  // duplicated truth cannot be counted twice.
  int32_t seen[10];
  int num_seen = 0;
  for (int32_t id : ranked) {
    if (std::find(seen, seen + num_seen, id) != seen + num_seen) continue;
    if (id == truth) {
      const int rank = num_seen;  // 0-based rank among distinct ids.
      if (rank < 1) ++hits1_;
      if (rank < 5) ++hits5_;
      ++hits10_;
      reciprocal_sum_ += 1.0 / static_cast<double>(rank + 1);
      return;
    }
    seen[num_seen++] = id;
    if (num_seen >= 10) return;  // Clamp: ignore entries past 10 distinct.
  }
}

void HrAccumulator::Merge(const HrAccumulator& other) {
  num_cases_ += other.num_cases_;
  hits1_ += other.hits1_;
  hits5_ += other.hits5_;
  hits10_ += other.hits10_;
  reciprocal_sum_ += other.reciprocal_sum_;
}

HrResult HrAccumulator::Result() const {
  HrResult r;
  r.num_cases = num_cases_;
  if (num_cases_ > 0) {
    r.hr1 = static_cast<double>(hits1_) / num_cases_;
    r.hr5 = static_cast<double>(hits5_) / num_cases_;
    r.hr10 = static_cast<double>(hits10_) / num_cases_;
    r.mrr10 = reciprocal_sum_ / num_cases_;
  }
  return r;
}

HrResult EvaluateHr(const rec::Recommender& recommender,
                    const std::vector<poi::CheckinSequence>& warmup,
                    const std::vector<poi::CheckinSequence>& test) {
  PA_TRACE_SPAN("eval.hr");
  static obs::Counter& cases =
      obs::MetricRegistry::Global().GetCounter("eval.cases");
  static obs::Histogram& user_us =
      obs::MetricRegistry::Global().GetHistogram("eval.user_us");
  const size_t num_users = std::max(warmup.size(), test.size());
  // Each user evaluates into a private accumulator on the pool;
  // ParallelMap returns them indexed by user, independent of which thread
  // ran which user.
  std::vector<HrAccumulator> per_user = util::GlobalPool().ParallelMap(
      int64_t{0}, static_cast<int64_t>(num_users), /*grain=*/1,
      [&](int64_t u) {
        PA_TRACE_SPAN("eval.user");
        HrAccumulator acc;
        const size_t us = static_cast<size_t>(u);
        const bool has_test = us < test.size() && !test[us].empty();
        if (!has_test) return acc;
        const auto start = std::chrono::steady_clock::now();
        auto session = recommender.NewSession(static_cast<int32_t>(u));
        if (us < warmup.size()) {
          for (const poi::Checkin& c : warmup[us]) session->Observe(c);
        }
        for (const poi::Checkin& c : test[us]) {
          acc.Add(session->TopK(10, c.timestamp), c.poi);
          session->Observe(c);
        }
        // Per-worker throughput: one wall-time sample and one cases bump per
        // evaluated user.
        user_us.Record(std::chrono::duration<double, std::micro>(
                           std::chrono::steady_clock::now() - start)
                           .count());
        cases.Add(static_cast<uint64_t>(test[us].size()));
        return acc;
      });
  // Ascending user order: the mrr10 double sum has a fixed reduction order,
  // so HR@{1,5,10} *and* MRR are bit-identical at any thread count.
  HrAccumulator total;
  for (const HrAccumulator& acc : per_user) total.Merge(acc);
  return total.Result();
}

}  // namespace pa::eval
