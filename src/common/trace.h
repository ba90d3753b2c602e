#ifndef P4DB_COMMON_TRACE_H_
#define P4DB_COMMON_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/histogram.h"
#include "common/metrics_registry.h"
#include "common/types.h"
#include "sim/simulator.h"

namespace p4db::trace {

class Sampler;

/// Where a span or instant event came from. Names are the event names shown
/// in Perfetto / chrome://tracing.
enum class Category : uint8_t {
  kTxn,          // one transaction, dispatch to commit (all attempts)
  kAttempt,      // one CC attempt of a transaction
  kBackoff,      // abort penalty + retry backoff between attempts
  kLockWait,     // lock manager round trip + queueing
  kValidate,     // OCC validation phase
  kWalAppend,    // WAL append (host commit or switch intent)
  kSwitchAccess, // node->switch->node round trip incl. pipeline
  kCommit,       // local commit / 2PC rounds
  kDegraded,     // instant: attempt dispatched to degraded node-local path
  kNetSend,      // one message occupying a link, send to arrival
  kNetDrop,      // instant: fault injector dropped (forced retransmit)
  kNetDup,       // instant: fault injector duplicated the packet
  kNetDelaySpike,// instant: fault injector delay spike
  kSwitchPass,   // one pipeline traversal of a switch transaction
  kSwitchRecirc, // recirculation loop between passes (port + loopback)
  kSwitchDrop,   // instant: stale-epoch packet dropped by dark pipeline
  kBatchFlush,   // one egress batch on the wire, first join to flush
  kAdmission,    // open-loop arrival waiting in the admission queue
  kAdmissionShed,// instant: arrival shed by the full admission queue
  kSwitchResidency, // INT: arrival-to-departure residency of one stamped txn
  kIntPostcard,  // instant: node-side fold of one returned postcard
};

const char* CategoryName(Category c);

/// Track id used for switch-side records (matches net::Endpoint::kSwitchIndex
/// so node tracks can simply use the node id).
inline constexpr uint16_t kSwitchTrack = 0xFFFF;

/// One fixed-size trace record in the ring. Instants have begin == end.
struct Record {
  SimTime begin_ns = 0;
  SimTime end_ns = 0;
  uint64_t txn_id = 0;  // engine txn id, or switch GID when kGidKeyFlag set
  uint32_t aux = 0;     // category-specific (peer endpoint, origin node, ...)
  uint16_t track = 0;   // node id, or kSwitchTrack
  Category category = Category::kTxn;
  uint8_t attempt = 0;
  uint8_t pass = 0;
  uint8_t flags = 0;
};

/// Simulated-time tracer: a preallocated ring of fixed-size Records.
///
/// Three modes. kDisabled is fully inert (the shared Disabled() instance lets
/// standalone Network/Pipeline construction skip null checks). The default
/// kFlightRecorder keeps a small always-on ring of the last N spans so a
/// failing chaos/failover run can dump the moments before death. kFull sizes
/// the ring for a whole seeded run and is what --trace exports.
///
/// Recording is passive: no simulator events, no metric writes, no heap
/// allocations after construction/EnableFull — so an enabled tracer cannot
/// change a seeded run, and disabled-vs-enabled metric dumps stay
/// byte-identical. Export (offline, allocation-unconstrained) writes Chrome
/// trace_event JSON: one process per node/switch, transactions greedily
/// packed onto thread lanes so concurrent transactions don't overlap.
class Tracer {
 public:
  enum class Mode : uint8_t { kDisabled, kFlightRecorder, kFull };

  static constexpr size_t kFlightCapacity = 4096;
  static constexpr size_t kFullCapacity = size_t{1} << 21;

  static constexpr uint8_t kInstantFlag = 1;  // zero-duration event
  static constexpr uint8_t kGidKeyFlag = 2;   // txn_id holds a switch GID

  explicit Tracer(const sim::Simulator* sim,
                  size_t flight_capacity = kFlightCapacity);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Shared inert instance for components constructed without an engine.
  static Tracer& Disabled();

  /// Re-arms the ring at full-run capacity. Call before Engine::Run; the
  /// (single) allocation happens here, never while recording. Only the
  /// first `prefault` records are touched now; the pages past them are
  /// mapped lazily, as records first reach them. A sharded engine arms one
  /// ring per shard and splits one ring's prefault among them, so arming
  /// costs the same memory and time whatever the shard count.
  void EnableFull(size_t capacity = kFullCapacity,
                  size_t prefault = kFullCapacity);

  Mode mode() const { return mode_; }
  bool enabled() const { return mode_ != Mode::kDisabled; }
  size_t size() const { return size_; }
  size_t capacity() const { return ring_.size(); }
  uint64_t dropped() const { return dropped_; }

  SimTime now() const { return sim_ == nullptr ? 0 : sim_->now(); }

  void Emit(SimTime begin, SimTime end, Category category, uint64_t txn_id,
            uint16_t track, uint8_t attempt = 0, uint8_t pass = 0,
            uint32_t aux = 0, uint8_t flags = 0) {
    if (mode_ == Mode::kDisabled) return;
    Record& r = ring_[head_];
    r.begin_ns = begin;
    r.end_ns = end;
    r.txn_id = txn_id;
    r.aux = aux;
    r.track = track;
    r.category = category;
    r.attempt = attempt;
    r.pass = pass;
    r.flags = flags;
    if (++head_ == ring_.size()) head_ = 0;
    if (size_ < ring_.size()) {
      ++size_;
    } else {
      ++dropped_;
    }
  }

  /// Span whose end is already known at the call site (network arrival
  /// times, pipeline pass latencies).
  void CompleteSpan(SimTime begin, SimTime end, Category category,
                    uint64_t txn_id, uint16_t track, uint8_t attempt = 0,
                    uint8_t pass = 0, uint32_t aux = 0, uint8_t flags = 0) {
    Emit(begin, end, category, txn_id, track, attempt, pass, aux, flags);
  }

  void Instant(Category category, uint64_t txn_id, uint16_t track,
               uint32_t aux = 0, uint8_t flags = 0) {
    if (mode_ == Mode::kDisabled) return;
    const SimTime t = now();
    Emit(t, t, category, txn_id, track, 0, 0, aux,
         static_cast<uint8_t>(flags | kInstantFlag));
  }

  /// RAII span guard: captures the begin time at construction, emits the
  /// record when it goes out of scope (or at End()). Safe to hold across
  /// co_awaits — a guard living in a coroutine frame closes at whatever
  /// simulated time the frame is destroyed.
  class Span {
   public:
    Span(Tracer* tracer, Category category, uint64_t txn_id, uint16_t track,
         uint8_t attempt = 0, uint32_t aux = 0)
        : tracer_(tracer),
          begin_(tracer->now()),
          txn_id_(txn_id),
          aux_(aux),
          track_(track),
          category_(category),
          attempt_(attempt) {}
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    ~Span() { End(); }

    void set_attempt(uint8_t attempt) { attempt_ = attempt; }

    void End() {
      if (done_) return;
      done_ = true;
      tracer_->Emit(begin_, tracer_->now(), category_, txn_id_, track_,
                    attempt_, 0, aux_);
    }

   private:
    Tracer* tracer_;
    SimTime begin_;
    uint64_t txn_id_;
    uint32_t aux_;
    uint16_t track_;
    Category category_;
    uint8_t attempt_;
    bool done_ = false;
  };

  /// Ring contents oldest -> newest. Offline use; allocates.
  std::vector<Record> Snapshot() const;

  /// Chrome trace_event JSON for the whole ring. `sampler`, when given,
  /// contributes its series as counter ("C") events. `fault_schedule_json`,
  /// when non-empty, is embedded verbatim under metadata.fault_schedule so a
  /// flight-recorder dump carries the schedule that killed the run.
  std::string ToChromeJson(const Sampler* sampler = nullptr,
                           std::string_view fault_schedule_json = {}) const;

  /// Chrome trace_event JSON for an arbitrary record list. This is the
  /// merged multi-ring export path: the parallel runtime concatenates the
  /// per-shard Snapshot()s in fixed shard order and passes the summed
  /// recorded/dropped totals; records are globally re-sorted inside, so the
  /// output is a pure function of the record set — identical regardless of
  /// how many rings (or threads) produced it. ToChromeJson is this applied
  /// to a single ring.
  static std::string ChromeJsonFromRecords(
      std::vector<Record> recs, Mode mode, size_t recorded, uint64_t dropped,
      const Sampler* sampler = nullptr,
      std::string_view fault_schedule_json = {});

  /// Writes ToChromeJson to `path`. Returns false on I/O failure.
  bool ExportChromeTrace(const std::string& path,
                         const Sampler* sampler = nullptr,
                         std::string_view fault_schedule_json = {}) const;

 private:
  struct FreeDeleter {
    void operator()(Record* p) const { std::free(p); }
  };
  /// Replaces the ring with `capacity` records, the first `prefault` of
  /// them written now. The rest are never read before Emit writes them.
  void Allocate(size_t capacity, size_t prefault);

  const sim::Simulator* sim_;
  /// malloc'd, so the untouched tail of a large ring costs no memory.
  std::unique_ptr<Record[], FreeDeleter> storage_;
  std::span<Record> ring_;  // all of storage_
  size_t head_ = 0;  // next write position
  size_t size_ = 0;  // live records (<= ring_.size())
  uint64_t dropped_ = 0;
  Mode mode_ = Mode::kDisabled;
};

/// Virtual-time sampler: a self-rescheduling read-only tick that snapshots
/// registered sources into windowed series. Ticks only observe (counter
/// reads, histogram bucket diffs) so an armed sampler never changes what a
/// seeded run computes; sample storage is reserved up front at Begin() so
/// steady-state ticks allocate nothing.
class Sampler {
 public:
  explicit Sampler(sim::Simulator* sim) : sim_(sim) {}
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  /// Each series observes the sum over its sources, as if they were one
  /// counter/histogram: the parallel runtime backs one logical series with
  /// the per-shard instances of a metric, the legacy runtime with one.
  ///
  /// Per-tick delta of monotonic counters (e.g. commits per window).
  void AddCounterRate(std::string name,
                      std::vector<const MetricsRegistry::Counter*> cs);
  /// Windowed quantile (bucket-diff between consecutive ticks) of live
  /// histograms; q in [0, 1]. Values are bucket midpoints (~4.6% error).
  void AddHistogramQuantile(std::string name,
                            std::vector<const Histogram*> hs, double q);

  /// Arms the sampler: baselines every source now and schedules ticks at
  /// start + k*tick for k = 1 .. while <= horizon. Call with the simulator
  /// clock at `start` (Engine::Run does, right after the warmup reset).
  void Begin(SimTime start, SimTime horizon, SimTime tick);

  /// Arms the sampler without scheduling anything: the owner drives the
  /// ticks by calling TickExternal() exactly at start + k*tick. The sharded
  /// coordinator uses this (its ticks are quiescent barrier-phase globals,
  /// outside any one shard's event queue); at the same tick times the
  /// sampled values match Begin()-driven runs.
  void BeginExternal(SimTime start, SimTime horizon, SimTime tick);

  /// Takes one sample now. Only call after BeginExternal().
  void TickExternal();

  bool begun() const { return begun_; }
  SimTime start() const { return start_; }
  SimTime tick() const { return tick_; }
  size_t num_samples() const;

  /// Series values by name; null if never registered.
  const std::vector<int64_t>* Find(std::string_view name) const;

  /// {"tick_ns": .., "start_ns": .., "samples": N, "series": {name: [..]}}
  std::string ToJson() const;

  /// Appends Chrome trace_event counter ("C") events for every series.
  /// `*first` tracks comma placement across calls.
  void AppendChromeCounterEvents(std::string* out, bool* first) const;

 private:
  enum class Kind : uint8_t { kRate, kQuantile };

  struct Series {
    std::string name;
    Kind kind;
    std::vector<const MetricsRegistry::Counter*> counters;
    std::vector<const Histogram*> hists;
    double q = 0.0;
    uint64_t last_value = 0;                // kRate baseline
    uint64_t prev_count = 0;                // kQuantile window baseline
    std::vector<uint64_t> prev_buckets;     // kQuantile bucket baseline
    std::vector<int64_t> samples;

    uint64_t CounterSum() const;
    uint64_t HistCount() const;
    uint64_t HistBucket(int i) const;
  };

  void BeginCommon(SimTime start, SimTime horizon, SimTime tick);
  void SampleOnce();
  void Tick();

  sim::Simulator* sim_;
  std::vector<Series> series_;
  SimTime start_ = 0;
  SimTime tick_ = 0;
  SimTime horizon_ = 0;
  SimTime next_ = 0;
  bool begun_ = false;
  bool external_ = false;
};

}  // namespace p4db::trace

#endif  // P4DB_COMMON_TRACE_H_
