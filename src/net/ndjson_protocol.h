#ifndef PA_NET_NDJSON_PROTOCOL_H_
#define PA_NET_NDJSON_PROTOCOL_H_

#include <functional>
#include <memory>
#include <string>

#include "net/sharded_engine.h"
#include "serve/model_store.h"

namespace pa::net {

/// The NDJSON request protocol, factored out of the transport so the stdin
/// serve loop and the TCP listener speak byte-identical dialects.
///
/// Requests are flat JSON objects with an `op` field; every response is one
/// flat-parseable envelope:
///
///   success  {"ok":true,"status":"ok",...op fields...}
///   failure  {"ok":false,"code":"<code>","error":"<detail>"}
///
/// where `<code>` is one of the typed per-request error codes
/// (serve::RequestStatusCode): `bad_request`, `overloaded`,
/// `deadline_exceeded`, `unknown_user`. A request carrying an `id` field
/// (string or number) gets it echoed back verbatim in the envelope, so
/// clients that do not rely on the server's per-connection response
/// ordering can correlate explicitly. When request tracing is on (the
/// default) every envelope also carries `"trace":"<hex>"` — the request's
/// trace id, which can be looked up on the exposition server's /slowz
/// endpoint if the request was captured as a tail-latency outlier.
///
/// Ops: observe, topk (optional "strict":true → unknown_user on cold
/// users), stats, activate (model store required), quit. Integer fields
/// (user, poi, k, timestamp, version) must be integral and in range, and an
/// observed poi must exist in the model's table; anything else is a
/// bad_request, never a crash.
class NdjsonDispatcher {
 public:
  struct Options {
    /// Enables {"op":"activate","version":N}: loads the version from the
    /// store and zero-downtime-flips every shard. Null disables the op
    /// (answers bad_request).
    serve::ModelStore* store = nullptr;
    /// Model name `activate` loads when the request has no "model" field.
    std::string default_model;
    /// Invoked after a quit op's response is produced (e.g. to drain the
    /// TCP listener). The stdin loop instead checks the `quit` out-param.
    std::function<void()> on_quit;
    /// Bound port of the metrics/trace HTTP exposition server, surfaced in
    /// the stats op response (0 when exposition is off) — with
    /// `--metrics-port=0` the kernel picks the port, and clients need a way
    /// to find /metrics and /slowz other than scraping stderr.
    uint16_t metrics_port = 0;
  };

  // Two overloads instead of a defaulted Options argument: default member
  // initializers of a nested class are not usable inside the enclosing
  // class definition ([class.mem] complete-class context).
  explicit NdjsonDispatcher(ShardedEngine* engine);
  NdjsonDispatcher(ShardedEngine* engine, Options options);

  /// Dispatches one request line; `done` fires exactly once with the
  /// response line (no trailing newline). It may fire inline on the caller
  /// (parse errors, sheds, stats), on a shard worker (observe/topk), or on
  /// the global thread pool (activate — artifact loading must not block
  /// the transport thread). `done` must be cheap and thread-safe.
  void HandleLineAsync(std::string line, std::function<void(std::string)> done);

  /// Blocking form for the stdin loop: returns the response line and sets
  /// `*quit` when the op was `quit`.
  std::string HandleLine(const std::string& line, bool* quit);

 private:
  ShardedEngine* engine_;
  Options options_;
};

}  // namespace pa::net

#endif  // PA_NET_NDJSON_PROTOCOL_H_
