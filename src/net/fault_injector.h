#ifndef P4DB_NET_FAULT_INJECTOR_H_
#define P4DB_NET_FAULT_INJECTOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics_registry.h"
#include "common/rng.h"
#include "common/types.h"
#include "net/network.h"

namespace p4db::net {

/// Per-link fault probabilities applied to every message the rack network
/// carries while a schedule is armed. Faults here are *recoverable* link
/// faults: a dropped frame is retransmitted by the transport (and shows up
/// as `retransmit_delay` of extra latency), a duplicated frame occupies the
/// egress link twice, a delay spike models a congested queue. Unrecoverable
/// loss — the case the paper's WAL/GID machinery exists for — is modeled at
/// the failure boundary instead (switch reboot epoch fencing, FaultEvent),
/// where recovery replays the logged intent exactly once.
struct LinkFaults {
  double drop_prob = 0.0;         // frame lost once, transport retransmits
  double dup_prob = 0.0;          // frame serialized twice onto the link
  double delay_spike_prob = 0.0;  // queue-congestion latency spike
  SimTime delay_spike = 20 * kMicrosecond;
  SimTime retransmit_delay = 50 * kMicrosecond;

  bool active() const {
    return drop_prob > 0 || dup_prob > 0 || delay_spike_prob > 0;
  }
};

/// One scripted fault event, fired at an absolute simulated time.
struct FaultEvent {
  enum class Kind : uint8_t {
    /// Power-cycles the switch at `at`: register state and allocations are
    /// lost, the control-plane epoch advances (stale packets get fenced),
    /// and the switch stays dark for `downtime` before the control plane
    /// re-provisions it from the WALs and traffic fails back.
    kSwitchReboot,
    /// Crashes node `node` at `at`: its workers stop issuing, in-flight
    /// switch intents never receive their GIDs.
    kNodeCrash,
    /// Restarts node `node` at `at`: the WAL is scanned and the node's
    /// workers respawn (Engine::RecoverNode).
    kNodeRestart,
  };

  Kind kind = Kind::kSwitchReboot;
  SimTime at = 0;
  NodeId node = 0;        // kNodeCrash / kNodeRestart
  SimTime downtime = 0;   // kSwitchReboot: dark period before failback
  /// kSwitchReboot: which switch power-cycles. Defaults to 0, so schedules
  /// written against the single-switch cluster keep their meaning verbatim
  /// (back-compat: old artifacts simply never mention another switch).
  uint16_t switch_id = 0;

  static FaultEvent SwitchReboot(SimTime at, SimTime downtime,
                                 uint16_t switch_id = 0) {
    FaultEvent ev;
    ev.kind = Kind::kSwitchReboot;
    ev.at = at;
    ev.downtime = downtime;
    ev.switch_id = switch_id;
    return ev;
  }
  static FaultEvent NodeCrash(SimTime at, NodeId node) {
    FaultEvent ev;
    ev.kind = Kind::kNodeCrash;
    ev.at = at;
    ev.node = node;
    return ev;
  }
  static FaultEvent NodeRestart(SimTime at, NodeId node) {
    FaultEvent ev;
    ev.kind = Kind::kNodeRestart;
    ev.at = at;
    ev.node = node;
    return ev;
  }
};

const char* FaultEventKindName(FaultEvent::Kind kind);

/// A complete, replayable chaos scenario: link-fault probabilities plus a
/// script of timed events. Together with the engine seed it fully determines
/// a run — any failure reproduces from `(seed, schedule)`.
struct FaultSchedule {
  LinkFaults links;
  std::vector<FaultEvent> events;

  bool empty() const { return !links.active() && events.empty(); }

  /// Machine-readable form, written next to failing chaos runs so CI can
  /// upload the exact scenario as an artifact.
  std::string ToJson() const;
};

/// Deterministic fault source for one simulated cluster. Consumes its own
/// RNG stream in message-send order (the simulator is single-threaded, so
/// the order — and therefore every injected fault — is a pure function of
/// `(seed, schedule)`). Counts what it injects into "net.injected_drops",
/// "net.injected_dups" and "net.injected_delay_spikes" of the cluster
/// registry, or of a registry it owns when none is given.
class FaultInjector {
 public:
  struct Perturbation {
    SimTime extra_delay = 0;
    bool duplicate = false;
    // What was injected, for trace annotation (extra_delay alone can't
    // distinguish a retransmitted drop from a congestion spike).
    bool dropped = false;
    bool delay_spiked = false;
  };

  FaultInjector(const FaultSchedule& schedule, uint64_t seed,
                MetricsRegistry* metrics);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Binds the injector's RNG stream to a shard ownership token (see
  /// Rng::BindOwner). The sharded runtime gives each shard its own injector
  /// seeded ShardSeed(seed, shard) and binds it here, so a draw from the
  /// wrong shard trips the ownership assert instead of silently perturbing
  /// another shard's fault sequence.
  void BindRngOwner(const void* owner) { rng_.BindOwner(owner); }

  const FaultSchedule& schedule() const { return schedule_; }

  /// Called by the Network once per message send. Draws from the RNG only
  /// when link faults are configured.
  Perturbation OnSend(Endpoint from, Endpoint to);

 private:
  FaultSchedule schedule_;
  Rng rng_;
  std::unique_ptr<MetricsRegistry> owned_metrics_;  // when none was given
  MetricsRegistry::Counter* drops_;
  MetricsRegistry::Counter* dups_;
  MetricsRegistry::Counter* delay_spikes_;
};

}  // namespace p4db::net

#endif  // P4DB_NET_FAULT_INJECTOR_H_
