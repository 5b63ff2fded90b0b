#include "serve/session_store.h"

#include <algorithm>

#include "obs/trace.h"

namespace pa::serve {

SessionStore::SessionStore(std::shared_ptr<const LoadedModel> model,
                           SessionStoreConfig config)
    : model_(std::move(model)), config_(config) {
  capacity_ = std::max<size_t>(
      1, config_.memory_cap_bytes / std::max<size_t>(1, config_.approx_session_bytes));
}

SessionStore::User& SessionStore::Lookup(int32_t user) {
  User& entry = users_[user];
  if (entry.session) {
    hits_.Increment();
    lru_.splice(lru_.begin(), lru_, entry.lru);
    return entry;
  }
  misses_.Increment();
  lru_.push_front(user);
  entry.lru = lru_.begin();
  while (lru_.size() > capacity_) {
    const auto victim = users_.find(lru_.back());
    victim->second.session.reset();
    // A user who never observed has nothing left to keep.
    if (victim->second.history.empty()) users_.erase(victim);
    lru_.pop_back();
    evictions_.Increment();
  }
  live_sessions_.store(lru_.size(), std::memory_order_relaxed);

  // Rebuilds are the expensive tail of serving (full history replay through
  // the model); count and trace them so eviction pressure shows up in
  // `pa_serve stats` and traces rather than only as a latency mystery.
  PA_TRACE_SPAN("serve.session.rebuild");
  static obs::Counter& rebuilds =
      obs::MetricRegistry::Global().GetCounter("serve.session.rebuilds");
  rebuilds.Increment();
  entry.session = model_->model->NewSession(user);
  for (const poi::Checkin& c : entry.history) entry.session->Observe(c);
  return entry;
}

void SessionStore::Observe(const poi::Checkin& checkin) {
  User& entry = Lookup(checkin.user);
  // The live session and the stored history see the same sequence, so a
  // rebuild after eviction replays exactly what the evicted session saw.
  entry.history.push_back(checkin);
  const size_t max_history = std::max(0, config_.max_history);
  while (entry.history.size() > max_history) entry.history.pop_front();
  entry.session->Observe(checkin);
}

std::vector<int32_t> SessionStore::TopK(int32_t user, int k,
                                        int64_t next_timestamp) {
  return Lookup(user).session->TopK(k, next_timestamp);
}

bool SessionStore::HasHistory(int32_t user) const {
  const auto it = users_.find(user);
  return it != users_.end() && !it->second.history.empty();
}

void SessionStore::Clear(std::shared_ptr<const LoadedModel> model) {
  model_ = std::move(model);
  users_.clear();
  lru_.clear();
  hits_.Reset();
  misses_.Reset();
  evictions_.Reset();
  live_sessions_.store(0, std::memory_order_relaxed);
}

SessionStoreStats SessionStore::Stats() const {
  SessionStoreStats stats;
  stats.hits = hits_.value();
  stats.misses = misses_.value();
  stats.evictions = evictions_.value();
  stats.live_sessions = live_sessions_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace pa::serve
