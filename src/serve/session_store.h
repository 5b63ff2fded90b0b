#ifndef PA_SERVE_SESSION_STORE_H_
#define PA_SERVE_SESSION_STORE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "poi/checkin.h"
#include "serve/artifact.h"

namespace pa::serve {

struct SessionStoreConfig {
  /// Soft cap on resident session memory. Capacity (in sessions) is
  /// memory_cap_bytes / approx_session_bytes, at least 1.
  size_t memory_cap_bytes = size_t{8} << 20;
  /// Budgeted footprint of one live session (model session state + history
  /// deque + map/list overhead). Deliberately a config knob, not a measured
  /// value: `RecSession` state is method-dependent and opaque.
  size_t approx_session_bytes = size_t{32} << 10;
  /// Check-ins of history retained per user; the rebuild source after an
  /// eviction. Sequence models only look this far back anyway (cf.
  /// NeuralRecConfig::max_seq_len).
  int max_history = 64;
};

struct SessionStoreStats {
  uint64_t hits = 0;        // Lookup found a live session.
  uint64_t misses = 0;      // Lookup created (or rebuilt) a session.
  uint64_t evictions = 0;   // Sessions dropped by the LRU cap.
  uint64_t live_sessions = 0;
};

/// Per-user serving sessions with LRU eviction and rebuild-on-miss.
///
/// The store keeps two things per user:
///  * a *history* — the last `max_history` observed check-ins. Histories are
///    small, bounded, and never evicted; they are the source of truth.
///  * a *session* — the model's `RecSession`, rebuilt from the history when
///    a request arrives for a user whose session was evicted. Because the
///    history is capped, a rebuilt session can differ from the evicted one
///    for users whose total history exceeded the cap; sequence models
///    truncate context the same way, so this is by design (documented in
///    DESIGN.md "Serving").
///
/// Single owner, no locks: `Observe`, `TopK`, `HasHistory` and `Clear` run
/// on one thread at a time (a shard worker owns its engine's store). Only
/// `Stats()` may be called from any thread; it reads relaxed atomics, so a
/// reader sees each counter's latest value but not one consistent cut.
class SessionStore {
 public:
  SessionStore(std::shared_ptr<const LoadedModel> model,
               SessionStoreConfig config = {});

  /// Appends to the user's history and advances their session.
  void Observe(const poi::Checkin& checkin);

  /// Top-k POI ids for the user's next check-in, best first.
  std::vector<int32_t> TopK(int32_t user, int k, int64_t next_timestamp);

  /// True iff the user has at least one observed check-in. Does not touch
  /// the LRU or the traffic counters.
  bool HasHistory(int32_t user) const;

  /// Resets the store in place to serve `model` (a model swap: old state is
  /// meaningless against new parameters). Drops every session and every
  /// history, and zeroes the counters, like a freshly built store.
  void Clear(std::shared_ptr<const LoadedModel> model);

  SessionStoreStats Stats() const;

  size_t capacity() const { return capacity_; }

 private:
  struct User {
    std::deque<poi::Checkin> history;  // The last max_history check-ins.
    std::unique_ptr<rec::RecSession> session;  // Null while evicted.
    std::list<int32_t>::iterator lru;  // Valid while `session` is live.
  };

  /// The user's record with a live session: a hit moves it to the front of
  /// the LRU; a miss evicts over capacity and rebuilds from the history.
  User& Lookup(int32_t user);

  std::shared_ptr<const LoadedModel> model_;
  SessionStoreConfig config_;
  size_t capacity_;

  std::unordered_map<int32_t, User> users_;
  std::list<int32_t> lru_;  // Users with a live session, most recent first.

  obs::Counter hits_;
  obs::Counter misses_;
  obs::Counter evictions_;
  std::atomic<uint64_t> live_sessions_{0};
};

}  // namespace pa::serve

#endif  // PA_SERVE_SESSION_STORE_H_
