#include "net/fault_injector.h"

#include <cstdio>

namespace p4db::net {

namespace {

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string FormatTime(SimTime t) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(t));
  return buf;
}

}  // namespace

const char* FaultEventKindName(FaultEvent::Kind kind) {
  switch (kind) {
    case FaultEvent::Kind::kSwitchReboot:
      return "switch_reboot";
    case FaultEvent::Kind::kNodeCrash:
      return "node_crash";
    case FaultEvent::Kind::kNodeRestart:
      return "node_restart";
  }
  return "unknown";
}

std::string FaultSchedule::ToJson() const {
  std::string out = "{\"links\": {";
  out += "\"drop_prob\": " + FormatDouble(links.drop_prob);
  out += ", \"dup_prob\": " + FormatDouble(links.dup_prob);
  out += ", \"delay_spike_prob\": " + FormatDouble(links.delay_spike_prob);
  out += ", \"delay_spike_ns\": " + FormatTime(links.delay_spike);
  out += ", \"retransmit_delay_ns\": " + FormatTime(links.retransmit_delay);
  out += "}, \"events\": [";
  for (size_t i = 0; i < events.size(); ++i) {
    const FaultEvent& ev = events[i];
    if (i != 0) out += ", ";
    out += "{\"kind\": \"";
    out += FaultEventKindName(ev.kind);
    out += "\", \"at_ns\": " + FormatTime(ev.at);
    if (ev.kind == FaultEvent::Kind::kSwitchReboot) {
      out += ", \"downtime_ns\": " + FormatTime(ev.downtime);
      out += ", \"switch\": " + FormatTime(ev.switch_id);
    } else {
      out += ", \"node\": " + FormatTime(ev.node);
    }
    out += "}";
  }
  out += "]}";
  return out;
}

FaultInjector::FaultInjector(const FaultSchedule& schedule, uint64_t seed,
                             MetricsRegistry* metrics)
    : schedule_(schedule),
      // Distinct stream from every engine entity: workers salt the master
      // seed with small multiplied ids, so a fixed large odd constant keeps
      // the injector's draws independent of theirs.
      rng_(seed ^ 0xc2b2ae3d27d4eb4fULL) {
  MetricsRegistry& reg =
      MetricsRegistry::GivenOrOwned(metrics, &owned_metrics_);
  drops_ = &reg.counter("net.injected_drops");
  dups_ = &reg.counter("net.injected_dups");
  delay_spikes_ = &reg.counter("net.injected_delay_spikes");
}

FaultInjector::Perturbation FaultInjector::OnSend(Endpoint from, Endpoint to) {
  Perturbation p;
  const LinkFaults& lf = schedule_.links;
  if (!lf.active() || from == to) return p;
  // Fixed draw order per message keeps the stream aligned no matter which
  // probabilities are zero: NextBool always consumes exactly one draw.
  if (rng_.NextBool(lf.drop_prob)) {
    drops_->Increment();
    p.extra_delay += lf.retransmit_delay;
    p.dropped = true;
  }
  if (rng_.NextBool(lf.dup_prob)) {
    dups_->Increment();
    p.duplicate = true;
  }
  if (rng_.NextBool(lf.delay_spike_prob)) {
    delay_spikes_->Increment();
    p.extra_delay += lf.delay_spike;
    p.delay_spiked = true;
  }
  return p;
}

}  // namespace p4db::net
