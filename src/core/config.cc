#include "core/config.h"

#include <string>

namespace p4db::core {

const char* EngineModeName(EngineMode mode) {
  switch (mode) {
    case EngineMode::kP4db:
      return "P4DB";
    case EngineMode::kNoSwitch:
      return "No-Switch";
    case EngineMode::kLmSwitch:
      return "LM-Switch";
    case EngineMode::kChiller:
      return "Chiller";
  }
  return "?";
}

const char* CcProtocolName(CcProtocol protocol) {
  switch (protocol) {
    case CcProtocol::k2pl:
      return "2PL";
    case CcProtocol::kOcc:
      return "OCC";
  }
  return "?";
}

Status ValidateConfig(const SystemConfig& config) {
  if (config.num_switches == 0) {
    return Status::InvalidArgument(
        "num_switches must be >= 1: the cluster needs a ToR switch even "
        "when the pipeline is unused");
  }
  if (config.num_switches > 8) {
    return Status::InvalidArgument(
        "num_switches > 8 exceeds the modeled rack (one replication chain "
        "of at most 8 programmable switches)");
  }
  if (config.num_nodes == 0) {
    return Status::InvalidArgument("num_nodes must be >= 1");
  }
  if (config.threads < 0) {
    return Status::InvalidArgument("threads must be >= 0 (0 = legacy runtime)");
  }
  if (config.threads > 0 &&
      (config.cc_protocol != CcProtocol::k2pl ||
       (config.mode != EngineMode::kP4db &&
        config.mode != EngineMode::kNoSwitch))) {
    return Status::Unsupported(
        std::string("the sharded runtime (threads >= 1) runs P4DB and "
                    "No-Switch under 2PL only, not ") +
        EngineModeName(config.mode) + " under " +
        CcProtocolName(config.cc_protocol) + "; use threads = 0");
  }
  if (config.num_switches > 1) {
    if (config.mode != EngineMode::kP4db) {
      return Status::Unsupported(
          std::string("replication (num_switches >= 2) requires the P4DB "
                      "mode; ") +
          EngineModeName(config.mode) +
          " has no in-switch hot-tuple state to replicate");
    }
    if (config.timing.view_change_delay <= 0) {
      return Status::InvalidArgument(
          "view_change_delay must be positive when replication is enabled");
    }
  }
  if (config.batch.size == 0) {
    return Status::InvalidArgument(
        "batch.size must be >= 1 (1 disables batching; 0 would mean a "
        "batch that can never flush)");
  }
  if (config.batch.size > BatchConfig::kMaxBatchSize) {
    return Status::InvalidArgument(
        "batch.size exceeds kMaxBatchSize (the egress batcher's inline "
        "member storage)");
  }
  if (config.batch.size > 1) {
    if (config.batch.flush_timeout <= 0) {
      return Status::InvalidArgument(
          "batch.flush_timeout must be positive when batching is enabled: "
          "a partial batch with no doorbell timer would stall forever");
    }
    if (config.mode != EngineMode::kP4db) {
      return Status::Unsupported(
          std::string("egress batching (batch.size >= 2) coalesces "
                      "switch-bound transactions and requires the P4DB "
                      "mode; ") +
          EngineModeName(config.mode) + " sends none");
    }
    if (config.num_switches > 1) {
      return Status::Unsupported(
          "egress batching (batch.size >= 2) is single-switch only; the "
          "batcher is not replication/view-change aware yet");
    }
  }
  if (config.open_loop.enabled) {
    if (config.open_loop.offered_load <= 0.0) {
      return Status::InvalidArgument(
          "open_loop.offered_load must be positive (transactions per "
          "second across the cluster) when open-loop load is enabled");
    }
    if (config.open_loop.admission_queue_bound == 0) {
      return Status::InvalidArgument(
          "open_loop.admission_queue_bound must be >= 1: a zero-capacity "
          "admission queue would shed or stall every arrival");
    }
  }
  if (config.int_telemetry.wire_cost && !config.int_telemetry.enabled) {
    return Status::InvalidArgument(
        "int_telemetry.wire_cost requires int_telemetry.enabled: there is "
        "no telemetry block to charge to the wire");
  }
  if (config.int_telemetry.enabled && config.mode != EngineMode::kP4db) {
    return Status::Unsupported(
        std::string("in-band telemetry stamps switch-bound transactions and "
                    "requires the P4DB mode; ") +
        EngineModeName(config.mode) + " sends none through the pipeline");
  }
  if (config.network.node_to_switch_one_way <= 0 ||
      (config.num_switches > 1 &&
       config.network.switch_to_switch_one_way <= 0)) {
    return Status::InvalidArgument(
        "link propagation delays must be positive (the sharded runtime's "
        "lookahead is the smallest of them)");
  }
  return Status::Ok();
}

}  // namespace p4db::core
