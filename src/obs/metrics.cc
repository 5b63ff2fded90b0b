#include "obs/metrics.h"

#include <algorithm>
#include <cmath>

#include "obs/json.h"

namespace pa::obs {

namespace {

// log(1.5) — bucket index is floor(log(value) / log(ratio)).
const double kLogRatio = std::log(Histogram::kRatio);

int BucketIndex(double value) {
  if (value <= Histogram::kFirstBucket) return 0;
  const int idx =
      static_cast<int>(std::log(value / Histogram::kFirstBucket) / kLogRatio);
  return std::clamp(idx, 0, Histogram::kBuckets - 1);
}

double BucketLower(int i) {
  return Histogram::kFirstBucket * std::pow(Histogram::kRatio, i);
}

// Percentile over a consistent bucket snapshot whose total is `total`.
// `bucket_out`, when non-null, receives the index of the bucket the
// percentile fell in (the last bucket when the scan runs off the end).
double PercentileOf(const std::array<uint64_t, Histogram::kBuckets>& counts,
                    uint64_t total, double q, int* bucket_out = nullptr) {
  if (bucket_out != nullptr) *bucket_out = Histogram::kBuckets - 1;
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the target sample, 1-based.
  const uint64_t rank =
      std::max<uint64_t>(1, static_cast<uint64_t>(std::ceil(q * total)));
  uint64_t seen = 0;
  for (int i = 0; i < Histogram::kBuckets; ++i) {
    const uint64_t c = counts[i];
    if (seen + c >= rank) {
      // Interpolate inside the bucket by the rank's position in it.
      const double frac =
          c == 0 ? 0.0 : double(rank - seen) / double(c);
      const double lo = BucketLower(i);
      const double hi = lo * Histogram::kRatio;
      if (bucket_out != nullptr) *bucket_out = i;
      return lo + frac * (hi - lo);
    }
    seen += c;
  }
  return BucketLower(Histogram::kBuckets - 1) * Histogram::kRatio;
}

}  // namespace

void Histogram::Record(double value) {
  counts_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
}

void Histogram::RecordWithExemplar(double value, uint64_t span_id) {
  const int i = BucketIndex(value);
  counts_[i].fetch_add(1, std::memory_order_relaxed);
  if (span_id != 0) {
    exemplar_span_[i].store(span_id, std::memory_order_relaxed);
  }
}

std::array<uint64_t, Histogram::kBuckets> Histogram::SnapshotBuckets() const {
  std::array<uint64_t, kBuckets> snap;
  for (int i = 0; i < kBuckets; ++i) {
    snap[i] = counts_[i].load(std::memory_order_relaxed);
  }
  return snap;
}

double Histogram::Percentile(double q) const {
  const auto snap = SnapshotBuckets();
  uint64_t total = 0;
  for (const uint64_t c : snap) total += c;
  return PercentileOf(snap, total, q);
}

uint64_t Histogram::count() const {
  uint64_t total = 0;
  for (const auto& c : counts_) total += c.load(std::memory_order_relaxed);
  return total;
}

HistogramStats Histogram::Stats() const {
  const auto snap = SnapshotBuckets();
  HistogramStats stats;
  double weighted = 0.0;
  for (int i = 0; i < kBuckets; ++i) {
    stats.count += snap[i];
    if (snap[i] > 0) {
      const double lo = BucketLower(i);
      weighted += static_cast<double>(snap[i]) * (lo + lo * kRatio) * 0.5;
    }
  }
  stats.p50 = PercentileOf(snap, stats.count, 0.50);
  stats.p95 = PercentileOf(snap, stats.count, 0.95);
  int p99_bucket = kBuckets - 1;
  stats.p99 = PercentileOf(snap, stats.count, 0.99, &p99_bucket);
  stats.mean = stats.count > 0 ? weighted / double(stats.count) : 0.0;
  if (stats.count > 0) {
    // Exemplar for the tail: the p99 bucket itself, else the nearest bucket
    // above (a more extreme tail sample), else the nearest below.
    for (int i = p99_bucket; i < kBuckets && stats.p99_exemplar_span == 0;
         ++i) {
      stats.p99_exemplar_span =
          exemplar_span_[i].load(std::memory_order_relaxed);
    }
    for (int i = p99_bucket - 1; i >= 0 && stats.p99_exemplar_span == 0;
         --i) {
      stats.p99_exemplar_span =
          exemplar_span_[i].load(std::memory_order_relaxed);
    }
  }
  return stats;
}

Histogram::Export Histogram::ExportBuckets() const {
  Export out;
  for (int i = 0; i < kBuckets; ++i) {
    out.counts[i] = counts_[i].load(std::memory_order_relaxed);
    out.exemplar_span[i] = exemplar_span_[i].load(std::memory_order_relaxed);
  }
  return out;
}

double Histogram::BucketLowerBound(int i) { return BucketLower(i); }

double Histogram::BucketUpperBound(int i) {
  return BucketLower(i) * kRatio;
}

void Histogram::Reset() {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  for (auto& e : exemplar_span_) e.store(0, std::memory_order_relaxed);
}

MetricRegistry& MetricRegistry::Global() {
  // Leaked: instruments must outlive atexit hooks (trace dump, bench
  // snapshots) and worker-thread teardown flushes.
  static MetricRegistry* registry = new MetricRegistry;
  return *registry;
}

Counter& MetricRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = entries_[name];
  if (e.kind != Entry::Kind::kCounter || e.owned_counter == nullptr) {
    e = Entry{};
    e.kind = Entry::Kind::kCounter;
    e.owned_counter = std::make_unique<Counter>();
    e.counter = e.owned_counter.get();
  }
  return *e.owned_counter;
}

Gauge& MetricRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = entries_[name];
  if (e.kind != Entry::Kind::kGauge || e.owned_gauge == nullptr) {
    e = Entry{};
    e.kind = Entry::Kind::kGauge;
    e.owned_gauge = std::make_unique<Gauge>();
    e.gauge = e.owned_gauge.get();
  }
  return *e.owned_gauge;
}

Histogram& MetricRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = entries_[name];
  if (e.kind != Entry::Kind::kHistogram || e.owned_histogram == nullptr) {
    e = Entry{};
    e.kind = Entry::Kind::kHistogram;
    e.owned_histogram = std::make_unique<Histogram>();
    e.histogram = e.owned_histogram.get();
  }
  return *e.owned_histogram;
}

void MetricRegistry::RegisterCounter(const std::string& name,
                                     const Counter* instrument) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry e;
  e.kind = Entry::Kind::kCounter;
  e.counter = instrument;
  e.owner = instrument;
  entries_[name] = std::move(e);
}

void MetricRegistry::RegisterGauge(const std::string& name,
                                   const Gauge* instrument) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry e;
  e.kind = Entry::Kind::kGauge;
  e.gauge = instrument;
  e.owner = instrument;
  entries_[name] = std::move(e);
}

void MetricRegistry::RegisterHistogram(const std::string& name,
                                       const Histogram* instrument) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry e;
  e.kind = Entry::Kind::kHistogram;
  e.histogram = instrument;
  e.owner = instrument;
  entries_[name] = std::move(e);
}

void MetricRegistry::RegisterCallbackGauge(const std::string& name,
                                           const void* owner,
                                           std::function<double()> fn) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry e;
  e.kind = Entry::Kind::kCallbackGauge;
  e.callback = std::move(fn);
  e.owner = owner;
  entries_[name] = std::move(e);
}

void MetricRegistry::Unregister(const std::string& name, const void* owner) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it != entries_.end() && it->second.owner == owner) {
    entries_.erase(it);
  }
}

MetricRegistry::Snapshot MetricRegistry::TakeSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  Snapshot snap;
  for (const auto& [name, e] : entries_) {
    switch (e.kind) {
      case Entry::Kind::kCounter:
        snap.counters[name] = e.counter->value();
        break;
      case Entry::Kind::kGauge:
        snap.gauges[name] = e.gauge->value();
        break;
      case Entry::Kind::kCallbackGauge:
        snap.gauges[name] = e.callback ? e.callback() : 0.0;
        break;
      case Entry::Kind::kHistogram:
        snap.histograms[name] = e.histogram->Stats();
        break;
      case Entry::Kind::kNone:
        break;
    }
  }
  return snap;
}

std::string MetricRegistry::SnapshotJson() const {
  return SnapshotToJson(TakeSnapshot());
}

std::string SnapshotToJson(const MetricRegistry::Snapshot& snap) {
  JsonWriter w;
  w.BeginObject().BeginObject("counters");
  for (const auto& [name, value] : snap.counters) w.Field(name, value);
  w.EndObject().BeginObject("gauges");
  for (const auto& [name, value] : snap.gauges) w.Field(name, value);
  w.EndObject().BeginObject("histograms");
  for (const auto& [name, h] : snap.histograms) {
    w.BeginObject(name)
        .Field("count", h.count)
        .Field("p50", h.p50)
        .Field("p95", h.p95)
        .Field("p99", h.p99)
        .Field("mean", h.mean)
        .Field("p99_exemplar_span", h.p99_exemplar_span)
        .EndObject();
  }
  w.EndObject().EndObject();
  return w.str();
}

std::string SnapshotDeltaJson(const MetricRegistry::Snapshot& before,
                              const MetricRegistry::Snapshot& after) {
  MetricRegistry::Snapshot delta = after;
  for (auto& [name, value] : delta.counters) {
    const auto it = before.counters.find(name);
    if (it != before.counters.end() && it->second <= value) {
      value -= it->second;
    }  // else: new or re-registered counter — report the absolute value.
  }
  for (auto& [name, h] : delta.histograms) {
    const auto it = before.histograms.find(name);
    if (it != before.histograms.end() && it->second.count <= h.count) {
      h.count -= it->second.count;
    }
  }
  return SnapshotToJson(delta);
}

namespace {

// Prometheus metric names allow [a-zA-Z0-9_:] with a non-digit first
// character; everything else (the registry's '.' separators, most notably)
// maps to '_'.
std::string PrometheusName(const std::string& name) {
  std::string out;
  out.reserve(name.size() + 1);
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  if (out.empty() || (out[0] >= '0' && out[0] <= '9')) out.insert(0, "_");
  return out;
}

void AppendPrometheusNumber(double value, std::string* out) {
  if (std::isnan(value)) {
    *out += "NaN";
  } else if (std::isinf(value)) {
    *out += value > 0 ? "+Inf" : "-Inf";
  } else {
    AppendJsonNumber(value, out);
  }
}

}  // namespace

std::string MetricRegistry::PrometheusText() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& [name, e] : entries_) {
    const std::string pname = PrometheusName(name);
    switch (e.kind) {
      case Entry::Kind::kCounter:
        out += "# TYPE " + pname + " counter\n";
        out += pname + ' ' + std::to_string(e.counter->value()) + '\n';
        break;
      case Entry::Kind::kGauge:
      case Entry::Kind::kCallbackGauge: {
        const double v = e.kind == Entry::Kind::kGauge
                             ? e.gauge->value()
                             : (e.callback ? e.callback() : 0.0);
        out += "# TYPE " + pname + " gauge\n";
        out += pname + ' ';
        AppendPrometheusNumber(v, &out);
        out += '\n';
        break;
      }
      case Entry::Kind::kHistogram: {
        const Histogram::Export exp = e.histogram->ExportBuckets();
        out += "# TYPE " + pname + " histogram\n";
        uint64_t cumulative = 0;
        double sum = 0.0;
        for (int i = 0; i < Histogram::kBuckets; ++i) {
          if (exp.counts[i] == 0 && exp.exemplar_span[i] == 0) continue;
          cumulative += exp.counts[i];
          const double lo = Histogram::BucketLowerBound(i);
          const double hi = Histogram::BucketUpperBound(i);
          sum += static_cast<double>(exp.counts[i]) * (lo + hi) * 0.5;
          out += pname + "_bucket{le=\"";
          AppendPrometheusNumber(hi, &out);
          out += "\"} " + std::to_string(cumulative);
          if (exp.exemplar_span[i] != 0) {
            // OpenMetrics exemplar: the most recent trace span that landed
            // in this bucket, valued at the bucket bound.
            out += " # {span_id=\"" +
                   std::to_string(exp.exemplar_span[i]) + "\"} ";
            AppendPrometheusNumber(hi, &out);
          }
          out += '\n';
        }
        out += pname + "_bucket{le=\"+Inf\"} " + std::to_string(cumulative) +
               '\n';
        out += pname + "_sum ";
        AppendPrometheusNumber(sum, &out);
        out += '\n';
        out += pname + "_count " + std::to_string(cumulative) + '\n';
        break;
      }
      case Entry::Kind::kNone:
        break;
    }
  }
  return out;
}

}  // namespace pa::obs
