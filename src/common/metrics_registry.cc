#include "common/metrics_registry.h"

#include <cinttypes>
#include <cstdio>

#include "common/json_util.h"

namespace p4db {

MetricsRegistry& MetricsRegistry::GivenOrOwned(
    MetricsRegistry* given, std::unique_ptr<MetricsRegistry>* owned) {
  if (given != nullptr) return *given;
  *owned = std::make_unique<MetricsRegistry>();
  return **owned;
}

MetricsRegistry::Counter& MetricsRegistry::counter(std::string_view name) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return *it->second;
}

MetricsRegistry::Counter& MetricsRegistry::counter(std::string_view prefix,
                                                   std::string_view name) {
  std::string full;
  full.reserve(prefix.size() + name.size());
  full.append(prefix).append(name);
  return counter(full);
}

Histogram& MetricsRegistry::histogram(std::string_view prefix,
                                      std::string_view name) {
  std::string full;
  full.reserve(prefix.size() + name.size());
  full.append(prefix).append(name);
  return histogram(full);
}

const MetricsRegistry::Counter* MetricsRegistry::FindCounter(
    std::string_view name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : it->second.get();
}

const Histogram* MetricsRegistry::FindHistogram(std::string_view name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.get();
}

void MetricsRegistry::Reset() {
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
}

void MetricsRegistry::MergeFrom(const MetricsRegistry& other) {
  for (const auto& [name, c] : other.counters_) {
    counter(name).Increment(c->value());
  }
  for (const auto& [name, h] : other.histograms_) {
    histogram(name).Merge(*h);
  }
}

std::string MetricsRegistry::ToJson() const {
  std::string out = "{\n  \"counters\": {";
  char buf[160];
  bool first = true;
  for (const auto& [name, c] : counters_) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    AppendJsonString(&out, name);
    std::snprintf(buf, sizeof(buf), ": %" PRIu64, c->value());
    out += buf;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    AppendJsonString(&out, name);
    std::snprintf(buf, sizeof(buf),
                  ": {\"count\": %" PRIu64
                  ", \"mean\": %.1f, \"p50\": %" PRId64 ", \"p95\": %" PRId64
                  ", \"p99\": %" PRId64 ", \"max\": %" PRId64 "}",
                  h->count(), h->Mean(), h->Quantile(0.5), h->Quantile(0.95),
                  h->Quantile(0.99), h->max());
    out += buf;
  }
  out += first ? "}\n}" : "\n  }\n}";
  return out;
}

}  // namespace p4db
