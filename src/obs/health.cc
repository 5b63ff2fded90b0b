#include "obs/health.h"

#include "obs/json.h"

namespace pa::obs {

const char* HealthStatusName(HealthStatus status) {
  switch (status) {
    case HealthStatus::kOk:
      return "ok";
    case HealthStatus::kDegraded:
      return "degraded";
    case HealthStatus::kFailed:
      return "failed";
  }
  return "unknown";
}

HealthRegistry& HealthRegistry::Global() {
  // Leaked for the same reason as the trace globals: health may be read
  // from atexit paths after static destruction begins.
  static HealthRegistry* registry = new HealthRegistry;
  return *registry;
}

void HealthRegistry::Set(const std::string& component, HealthStatus status,
                         const std::string& detail) {
  std::lock_guard<std::mutex> lock(mu_);
  Component& c = components_[component];
  c.name = component;
  c.status = status;
  c.detail = detail;
}

void HealthRegistry::Remove(const std::string& component) {
  std::lock_guard<std::mutex> lock(mu_);
  components_.erase(component);
}

std::vector<HealthRegistry::Component> HealthRegistry::Components() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Component> out;
  out.reserve(components_.size());
  for (const auto& [name, c] : components_) out.push_back(c);
  return out;
}

HealthStatus HealthRegistry::Overall() const {
  std::lock_guard<std::mutex> lock(mu_);
  HealthStatus worst = HealthStatus::kOk;
  for (const auto& [name, c] : components_) {
    if (static_cast<int>(c.status) > static_cast<int>(worst)) worst = c.status;
  }
  return worst;
}

std::string HealthRegistry::Json() const {
  std::lock_guard<std::mutex> lock(mu_);
  HealthStatus worst = HealthStatus::kOk;
  for (const auto& [name, c] : components_) {
    if (static_cast<int>(c.status) > static_cast<int>(worst)) worst = c.status;
  }
  JsonWriter w;
  w.BeginObject().Field("status", HealthStatusName(worst));
  w.BeginObject("components");
  for (const auto& [name, c] : components_) {
    w.BeginObject(name)
        .Field("status", HealthStatusName(c.status))
        .Field("detail", c.detail)
        .EndObject();
  }
  w.EndObject().EndObject();
  return w.str();
}

void HealthRegistry::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  components_.clear();
}

}  // namespace pa::obs
