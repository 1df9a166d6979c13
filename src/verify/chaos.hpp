// Deterministic chaos harness: seeded random engine configurations run
// under full invariant auditing plus differential cross-checks.
//
// A ChaosConfig is everything one trial needs — topology spec, workload
// spec, engine options, fault scenario, auditor tampering — and is a pure
// function of a 64-bit seed (make_chaos_config). Seeds enumerate the
// coverage matrix round-robin: seed % 7 picks the topology family,
// (seed / 7) % 11 the workload, (seed / 77) % 3 the recovery policy, so any
// 231 consecutive seeds visit every (family, workload, policy) cell once;
// everything else is sampled from Prng(seed).
//
// run_chaos executes the trial:
//
//   1. a *reference* run on the ReferenceEngine (reference_engine.hpp):
//      from-scratch routing and max-min re-solve every event, sharing none
//      of FlowEngine's incremental solve, caches or dispatch kernel;
//   2. a *variant* run — FlowEngine with the InvariantAuditor attached,
//      so every event is audited — whose SimResult must be bit-identical
//      to the reference on every physical field (physical_difference in
//      reference_engine.hpp: all but the work counters and phase timers,
//      which measure effort rather than physics);
//   3. for static fault scenarios, a third FlowEngine run delivering the
//      same faults as t = 0 timeline events, which must agree bit for bit
//      on every field but fault_events_applied (a pre-applied scenario
//      reports none).
//
// Any violation throws; run_chaos_failure wraps that into a string so the
// fuzzer loop and the shrinker can treat "fails" as a predicate. Configs
// round-trip through a one-line `key=value;...` string (the printed
// reproducer), and shrink_config greedily minimises a failing config while
// the failure persists.
#pragma once

#include <cstdint>
#include <string>

#include "flowsim/engine.hpp"

namespace nestflow::verify {

enum class ChaosFaultMode : std::uint8_t {
  kNone,        // healthy fabric
  kStatic,      // faults applied before the run (plus t0-timeline differential)
  kPoisson,     // generated failure/repair timeline over the run's horizon
};

struct ChaosConfig {
  std::uint64_t seed = 0;

  std::string topo = "torus:4x2x2";
  std::string workload = "flood";
  std::uint32_t tasks = 16;
  std::uint64_t workload_seed = 1;
  bool weighted = false;  // assign random flow weights in {1..4}

  // Engine options shared by both runs.
  double rate_quantum_rel = 0.0;
  double completion_batch_rel = 0.0;
  double hop_latency_seconds = 0.0;
  bool adaptive_routing = false;
  RecoveryPolicy recovery_policy = RecoveryPolicy::kStrand;
  double retry_backoff_seconds = 0.0;
  bool record_flow_times = false;

  ChaosFaultMode fault_mode = ChaosFaultMode::kNone;
  std::uint32_t fault_cables = 0;
  std::uint32_t fault_endpoints = 0;
  std::uint64_t fault_seed = 0;
  bool fault_router = false;  // route through a FaultAwareRouter

  /// Auditor tampering knob (see AuditorOptions::capacity_tamper_factor):
  /// 1 = honest audit; < 1 simulates a capacity-oversubscription engine bug
  /// the harness must catch.
  double capacity_tamper_factor = 1.0;
};

/// Deterministic config for a seed (see file comment for the coverage law).
[[nodiscard]] ChaosConfig make_chaos_config(std::uint64_t seed);

/// One-line `key=value;...` serialisation; round-trips via parse.
[[nodiscard]] std::string to_config_string(const ChaosConfig& config);
/// Inverse of to_config_string. Throws std::invalid_argument on bad input,
/// including the retired keys of engine knobs that no longer exist
/// (incremental, routecache, solvecache, strategy, dispatch, threads).
[[nodiscard]] ChaosConfig parse_config_string(const std::string& text);

/// The single line a failing trial prints: paste it back to reproduce.
[[nodiscard]] std::string reproducer_line(const ChaosConfig& config,
                                          const std::string& failure);

/// Runs the trial (reference + variant + differentials, all audited).
/// Throws AuditError / EngineError / std::runtime_error on any violation.
void run_chaos(const ChaosConfig& config);

/// Predicate form: empty string on success, the failure message otherwise.
[[nodiscard]] std::string run_chaos_failure(const ChaosConfig& config);

/// Greedily simplifies a failing config (smaller machine, fewer knobs)
/// while run_chaos_failure stays non-empty. Returns the minimal config
/// found; returns `config` unchanged if it does not actually fail.
[[nodiscard]] ChaosConfig shrink_config(const ChaosConfig& config);

/// Degenerate-input probes: every entry must raise a clean, message-bearing
/// std::invalid_argument (never an assert, crash, or silent acceptance).
/// Throws std::runtime_error naming the offender otherwise.
void check_degenerate_inputs();

}  // namespace nestflow::verify
