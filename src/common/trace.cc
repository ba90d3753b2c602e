#include "common/trace.h"

#include <algorithm>
#include <cassert>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <new>
#include <tuple>

#include "common/json_util.h"

namespace p4db::trace {
namespace {

// Dedicated trace_event process for Sampler counter tracks: above every node
// id (and the 0xFFFF switch track) so it can't collide.
constexpr uint32_t kMetricsPid = 0x10000;

// Appends sim-ns as trace_event microseconds ("123.456"): exact decimal,
// no floating point, so exports are byte-deterministic.
void AppendMicros(std::string* out, SimTime ns) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%lld.%03lld",
                static_cast<long long>(ns / 1000),
                static_cast<long long>(ns % 1000));
  *out += buf;
}

}  // namespace

const char* CategoryName(Category c) {
  switch (c) {
    case Category::kTxn: return "txn";
    case Category::kAttempt: return "attempt";
    case Category::kBackoff: return "backoff";
    case Category::kLockWait: return "lock_wait";
    case Category::kValidate: return "validate";
    case Category::kWalAppend: return "wal_append";
    case Category::kSwitchAccess: return "switch_access";
    case Category::kCommit: return "commit";
    case Category::kDegraded: return "degraded_exec";
    case Category::kNetSend: return "net_send";
    case Category::kNetDrop: return "net_drop";
    case Category::kNetDup: return "net_dup";
    case Category::kNetDelaySpike: return "net_delay_spike";
    case Category::kSwitchPass: return "switch_pass";
    case Category::kSwitchRecirc: return "switch_recirc";
    case Category::kSwitchDrop: return "switch_stale_drop";
    case Category::kBatchFlush: return "batch_flush";
    case Category::kAdmission: return "admission_wait";
    case Category::kAdmissionShed: return "admission_shed";
    case Category::kSwitchResidency: return "switch_residency";
    case Category::kIntPostcard: return "int_postcard";
  }
  return "unknown";
}

Tracer::Tracer(const sim::Simulator* sim, size_t flight_capacity)
    : sim_(sim) {
  if (sim_ != nullptr && flight_capacity > 0) {
    Allocate(flight_capacity, flight_capacity);
    mode_ = Mode::kFlightRecorder;
  }
}

Tracer& Tracer::Disabled() {
  static Tracer inert(nullptr, 0);
  return inert;
}

void Tracer::EnableFull(size_t capacity, size_t prefault) {
  assert(sim_ != nullptr && capacity > 0);
  Allocate(capacity, std::min(capacity, prefault));
  head_ = 0;
  size_ = 0;
  dropped_ = 0;
  mode_ = Mode::kFull;
}

void Tracer::Allocate(size_t capacity, size_t prefault) {
  storage_.reset(static_cast<Record*>(std::malloc(capacity * sizeof(Record))));
  if (storage_ == nullptr) throw std::bad_alloc();
  ring_ = {storage_.get(), capacity};
  std::uninitialized_fill_n(ring_.begin(), prefault, Record{});
}

std::vector<Record> Tracer::Snapshot() const {
  std::vector<Record> out;
  out.reserve(size_);
  if (size_ == ring_.size() && size_ > 0) {
    // Wrapped: the oldest record sits at the write head.
    out.insert(out.end(), ring_.begin() + static_cast<ptrdiff_t>(head_),
               ring_.end());
    out.insert(out.end(), ring_.begin(),
               ring_.begin() + static_cast<ptrdiff_t>(head_));
  } else {
    out.insert(out.end(), ring_.begin(),
               ring_.begin() + static_cast<ptrdiff_t>(size_));
  }
  return out;
}

std::string Tracer::ToChromeJson(const Sampler* sampler,
                                 std::string_view fault_schedule_json) const {
  return ChromeJsonFromRecords(Snapshot(), mode_, size_, dropped_, sampler,
                               fault_schedule_json);
}

std::string Tracer::ChromeJsonFromRecords(
    std::vector<Record> recs, Mode mode, size_t recorded, uint64_t dropped,
    const Sampler* sampler, std::string_view fault_schedule_json) {
  // Global begin-time order gives per-(pid,tid) monotonic ts; ties break
  // longest-first so containing spans precede nested ones in the file.
  std::stable_sort(recs.begin(), recs.end(),
                   [](const Record& a, const Record& b) {
                     if (a.begin_ns != b.begin_ns) return a.begin_ns < b.begin_ns;
                     return a.end_ns > b.end_ns;
                   });

  // Greedy interval coloring: per track, pack each transaction (or switch
  // GID) onto the lowest thread lane free at its first record, so concurrent
  // transactions land on distinct lanes and each lane reads as a timeline.
  // Lane 0 is reserved for unattributed records (id 0: multicasts, drops of
  // never-admitted packets).
  using Key = std::tuple<uint16_t, uint8_t, uint64_t>;  // track, keyspace, id
  struct Interval {
    SimTime begin;
    SimTime end;
    size_t first;  // index of first record, for deterministic tie-break
  };
  auto key_of = [](const Record& r) {
    return Key(r.track, (r.flags & kGidKeyFlag) ? 1 : 0, r.txn_id);
  };
  std::map<Key, Interval> intervals;
  for (size_t i = 0; i < recs.size(); ++i) {
    const Key k = key_of(recs[i]);
    auto [it, inserted] =
        intervals.try_emplace(k, Interval{recs[i].begin_ns, recs[i].end_ns, i});
    if (!inserted) {
      it->second.begin = std::min(it->second.begin, recs[i].begin_ns);
      it->second.end = std::max(it->second.end, recs[i].end_ns);
    }
  }
  std::map<uint16_t, std::vector<std::pair<Key, Interval>>> per_track;
  for (const auto& [k, iv] : intervals) per_track[std::get<0>(k)].push_back({k, iv});
  std::map<Key, uint32_t> lane_of;
  for (auto& [track, list] : per_track) {
    std::sort(list.begin(), list.end(),
              [](const auto& a, const auto& b) {
                if (a.second.begin != b.second.begin)
                  return a.second.begin < b.second.begin;
                return a.second.first < b.second.first;
              });
    std::vector<SimTime> free_at;  // free_at[lane]; lane 0 = unattributed
    free_at.push_back(std::numeric_limits<SimTime>::max());
    for (const auto& [k, iv] : list) {
      if (std::get<2>(k) == 0) {
        lane_of[k] = 0;
        continue;
      }
      uint32_t lane = 0;
      for (uint32_t l = 1; l < free_at.size(); ++l) {
        if (free_at[l] <= iv.begin) {
          lane = l;
          break;
        }
      }
      if (lane == 0) {
        free_at.push_back(iv.end);
        lane = static_cast<uint32_t>(free_at.size() - 1);
      } else {
        free_at[lane] = iv.end;
      }
      lane_of[k] = lane;
    }
  }

  std::string out;
  out.reserve(recs.size() * 160 + 4096);
  out += "{\"displayTimeUnit\":\"ns\",\n\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    out += first ? "\n  " : ",\n  ";
    first = false;
  };

  // Process-name metadata, one process per node/switch track.
  for (const auto& [track, list] : per_track) {
    (void)list;
    char buf[128];
    if (track == kSwitchTrack) {
      std::snprintf(buf, sizeof(buf),
                    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%u,"
                    "\"tid\":0,\"args\":{\"name\":\"switch\"}}",
                    track);
    } else if (track >= 0xFF00u) {
      // Replica switches (switch 0 keeps the bare "switch" name above, so
      // single-switch traces are byte-identical to the historical output).
      std::snprintf(buf, sizeof(buf),
                    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%u,"
                    "\"tid\":0,\"args\":{\"name\":\"switch %u\"}}",
                    track, 0xFFFFu - track);
    } else {
      std::snprintf(buf, sizeof(buf),
                    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%u,"
                    "\"tid\":0,\"args\":{\"name\":\"node %u\"}}",
                    track, track);
    }
    sep();
    out += buf;
  }
  if (sampler != nullptr && sampler->begun()) {
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%u,"
                  "\"tid\":0,\"args\":{\"name\":\"metrics\"}}",
                  kMetricsPid);
    sep();
    out += buf;
  }

  char buf[256];
  for (const Record& r : recs) {
    const uint32_t lane = lane_of[key_of(r)];
    sep();
    out += "{\"name\":\"";
    out += CategoryName(r.category);
    out += "\",\"cat\":\"p4db\",\"ph\":\"";
    if (r.flags & kInstantFlag) {
      out += "i\",\"ts\":";
      AppendMicros(&out, r.begin_ns);
      std::snprintf(buf, sizeof(buf),
                    ",\"pid\":%u,\"tid\":%u,\"s\":\"t\",\"args\":{\"txn\":%" PRIu64
                    ",\"aux\":%u}}",
                    r.track, lane, r.txn_id, r.aux);
    } else {
      out += "X\",\"ts\":";
      AppendMicros(&out, r.begin_ns);
      out += ",\"dur\":";
      AppendMicros(&out, r.end_ns - r.begin_ns);
      std::snprintf(buf, sizeof(buf),
                    ",\"pid\":%u,\"tid\":%u,\"args\":{\"txn\":%" PRIu64
                    ",\"attempt\":%u,\"pass\":%u,\"aux\":%u}}",
                    r.track, lane, r.txn_id, r.attempt, r.pass, r.aux);
    }
    out += buf;
  }

  if (sampler != nullptr && sampler->begun()) {
    sampler->AppendChromeCounterEvents(&out, &first);
  }

  out += "\n],\n\"metadata\":{\"mode\":\"";
  out += mode == Mode::kFull          ? "full"
         : mode == Mode::kFlightRecorder ? "flight_recorder"
                                         : "disabled";
  std::snprintf(buf, sizeof(buf),
                "\",\"recorded\":%zu,\"dropped\":%" PRIu64, recorded, dropped);
  out += buf;
  if (!fault_schedule_json.empty()) {
    out += ",\"fault_schedule\":";
    out += fault_schedule_json;
  }
  out += "}}\n";
  return out;
}

bool Tracer::ExportChromeTrace(const std::string& path, const Sampler* sampler,
                               std::string_view fault_schedule_json) const {
  const std::string json = ToChromeJson(sampler, fault_schedule_json);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const bool ok = std::fclose(f) == 0 && written == json.size();
  return ok;
}

uint64_t Sampler::Series::CounterSum() const {
  uint64_t v = 0;
  for (const MetricsRegistry::Counter* c : counters) v += c->value();
  return v;
}

uint64_t Sampler::Series::HistCount() const {
  uint64_t v = 0;
  for (const Histogram* h : hists) v += h->count();
  return v;
}

uint64_t Sampler::Series::HistBucket(int i) const {
  uint64_t v = 0;
  for (const Histogram* h : hists) v += h->bucket_count(i);
  return v;
}

void Sampler::AddCounterRate(std::string name,
                             std::vector<const MetricsRegistry::Counter*> cs) {
  Series s;
  s.name = std::move(name);
  s.kind = Kind::kRate;
  s.counters = std::move(cs);
  series_.push_back(std::move(s));
}

void Sampler::AddHistogramQuantile(std::string name,
                                   std::vector<const Histogram*> hs,
                                   double q) {
  Series s;
  s.name = std::move(name);
  s.kind = Kind::kQuantile;
  s.hists = std::move(hs);
  s.q = std::clamp(q, 0.0, 1.0);
  series_.push_back(std::move(s));
}

void Sampler::BeginCommon(SimTime start, SimTime horizon, SimTime tick) {
  assert(tick > 0);
  start_ = start;
  horizon_ = horizon;
  tick_ = tick;
  begun_ = true;
  const size_t expected =
      static_cast<size_t>((horizon - start) / tick) + 2;
  for (Series& s : series_) {
    s.samples.clear();
    s.samples.reserve(expected);
    switch (s.kind) {
      case Kind::kRate:
        s.last_value = s.CounterSum();
        break;
      case Kind::kQuantile:
        s.prev_buckets.assign(Histogram::kNumBuckets, 0);
        for (int i = 0; i < Histogram::kNumBuckets; ++i) {
          s.prev_buckets[static_cast<size_t>(i)] = s.HistBucket(i);
        }
        s.prev_count = s.HistCount();
        break;
    }
  }
  next_ = start_ + tick_;
}

void Sampler::Begin(SimTime start, SimTime horizon, SimTime tick) {
  external_ = false;
  BeginCommon(start, horizon, tick);
  if (next_ <= horizon_) {
    sim_->ScheduleAt(next_, [this] { Tick(); });
  }
}

void Sampler::BeginExternal(SimTime start, SimTime horizon, SimTime tick) {
  external_ = true;
  BeginCommon(start, horizon, tick);
}

void Sampler::TickExternal() {
  assert(begun_ && external_);
  SampleOnce();
}

void Sampler::SampleOnce() {
  for (Series& s : series_) {
    switch (s.kind) {
      case Kind::kRate: {
        const uint64_t cur = s.CounterSum();
        s.samples.push_back(static_cast<int64_t>(cur - s.last_value));
        s.last_value = cur;
        break;
      }
      case Kind::kQuantile: {
        const uint64_t total = s.HistCount() - s.prev_count;
        int64_t value = 0;
        if (total > 0) {
          uint64_t target = static_cast<uint64_t>(
              std::ceil(s.q * static_cast<double>(total)));
          target = std::clamp<uint64_t>(target, 1, total);
          uint64_t seen = 0;
          for (int i = 0; i < Histogram::kNumBuckets; ++i) {
            const uint64_t w =
                s.HistBucket(i) - s.prev_buckets[static_cast<size_t>(i)];
            seen += w;
            if (w > 0 && seen >= target) {
              value = Histogram::BucketMid(i);
              break;
            }
          }
        }
        for (int i = 0; i < Histogram::kNumBuckets; ++i) {
          s.prev_buckets[static_cast<size_t>(i)] = s.HistBucket(i);
        }
        s.prev_count = s.HistCount();
        s.samples.push_back(value);
        break;
      }
    }
  }
}

void Sampler::Tick() {
  SampleOnce();
  next_ += tick_;
  if (next_ <= horizon_) {
    sim_->ScheduleAt(next_, [this] { Tick(); });
  }
}

size_t Sampler::num_samples() const {
  return series_.empty() ? 0 : series_.front().samples.size();
}

const std::vector<int64_t>* Sampler::Find(std::string_view name) const {
  for (const Series& s : series_) {
    if (s.name == name) return &s.samples;
  }
  return nullptr;
}

std::string Sampler::ToJson() const {
  std::string out;
  char buf[96];
  std::snprintf(buf, sizeof(buf),
                "{\"tick_ns\": %lld, \"start_ns\": %lld, \"samples\": %zu, "
                "\"series\": {",
                static_cast<long long>(tick_), static_cast<long long>(start_),
                num_samples());
  out += buf;
  bool first_series = true;
  for (const Series& s : series_) {
    out += first_series ? "" : ", ";
    first_series = false;
    AppendJsonString(&out, s.name);
    out += ": [";
    for (size_t i = 0; i < s.samples.size(); ++i) {
      if (i > 0) out += ", ";
      std::snprintf(buf, sizeof(buf), "%lld",
                    static_cast<long long>(s.samples[i]));
      out += buf;
    }
    out += "]";
  }
  out += "}}";
  return out;
}

void Sampler::AppendChromeCounterEvents(std::string* out, bool* first) const {
  char buf[128];
  // Tick-major so ts is monotonic within the metrics process.
  for (size_t k = 0; k < num_samples(); ++k) {
    const SimTime ts = start_ + static_cast<SimTime>(k + 1) * tick_;
    for (const Series& s : series_) {
      if (k >= s.samples.size()) continue;
      *out += *first ? "\n  " : ",\n  ";
      *first = false;
      *out += "{\"name\":";
      AppendJsonString(out, s.name);
      *out += ",\"cat\":\"p4db\",\"ph\":\"C\",\"ts\":";
      AppendMicros(out, ts);
      std::snprintf(buf, sizeof(buf),
                    ",\"pid\":%u,\"tid\":0,\"args\":{\"value\":%lld}}",
                    kMetricsPid, static_cast<long long>(s.samples[k]));
      *out += buf;
    }
  }
}

}  // namespace p4db::trace
