// Full-simulation checkpoint: everything the closed loop needs to resume
// bit-identically from a round boundary — progress counters, result
// accumulators, per-camera device state, controller registrations, liveness
// and retry-queue state, the complete network state (clock, RNG stream,
// event queue), and the durable-runtime extensions (watchdog strikes,
// degradation ladder). The struct mirrors the loop's state with plain data
// so the runtime layer stays independent of core; core fills and applies it.
//
// Serialized through the snapshot container (one section per subsystem) so
// integrity is CRC-checked and old readers skip sections they don't know.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "obs/anomaly.hpp"
#include "obs/ledger.hpp"
#include "runtime/degradation.hpp"
#include "runtime/protocol.hpp"

namespace eecs::runtime {

struct SimulationCheckpoint {
  /// Identity of the run this snapshot belongs to. Resume refuses a snapshot
  /// whose guard does not match the resuming configuration — a checkpoint is
  /// only bit-exact against the exact same run setup.
  struct ConfigGuard {
    std::int32_t dataset = 0;
    std::uint64_t seed = 0;
    std::int32_t mode = 0;
    std::int32_t start_frame = 0;
    std::int32_t end_frame = 0;
    std::int32_t assessment_gt_frames = 0;
    std::int32_t operation_gt_frames = 0;
    std::int32_t gt_frame_step = 0;
    std::int32_t num_cameras = 0;
    double budget_per_frame = 0.0;
    double battery_joules = 0.0;

    [[nodiscard]] bool operator==(const ConfigGuard&) const = default;
  };
  ConfigGuard guard;

  // ---- Progress: the snapshot is taken at the top of a recalibration round.
  std::int32_t frame_index = 0;  ///< Scene frames advanced; resume = skip(n).
  std::int64_t rounds_completed = 0;

  // ---- Result accumulators at the checkpoint instant.
  double cpu_joules = 0.0;
  double radio_joules = 0.0;
  std::int32_t humans_detected = 0;
  std::int32_t humans_present = 0;
  std::int32_t gt_frames_processed = 0;
  /// Sliding-window accounting (context gate); optional "context_gate"
  /// section so older snapshots (zeros) still resume.
  std::uint64_t windows_evaluated = 0;
  std::uint64_t windows_pruned = 0;

  struct RoundLogState {
    std::int32_t start_frame = 0;
    double n_star = 0.0;
    double p_star = 0.0;
    double n_est = 0.0;
    double p_est = 0.0;
    std::int32_t cameras_active = 0;
    std::string summary;
    std::uint8_t midround_recovery = 0;
  };
  std::vector<RoundLogState> rounds;

  /// FaultCounters of the run up to the checkpoint, in the order of
  /// core::kFaultCounterFields (the simulation owns the ordering; the count
  /// prefix lets older snapshots resume into a build with new fields).
  std::vector<std::int64_t> fault_counters;

  // ---- Per-camera device + runtime state.
  struct CameraState {
    double battery_residual = 0.0;
    std::uint8_t has_assignment = 0;
    std::uint8_t active = 0;
    std::int32_t algorithm = 0;
    double threshold = 0.0;
    std::uint32_t applied_sequence = 0;
    std::int32_t deadline_strikes = 0;
    DegradationLadder::CameraState ladder;
  };
  std::vector<CameraState> cameras;

  /// Controller registration state: (camera, matched item, budget) is enough
  /// to rebuild the affordable list deterministically.
  struct Registration {
    std::int32_t camera = 0;
    std::int32_t matched_item = -1;
    double budget = 0.0;
  };
  std::vector<Registration> registrations;

  // ---- Controller-side protocol state.
  LivenessTracker::State liveness;
  std::vector<std::int32_t> controller_active;
  struct PendingEntry {
    std::int32_t camera = 0;
    AssignmentRetryQueue::Entry entry;
  };
  std::vector<PendingEntry> pending;
  std::uint32_t next_sequence = 0;

  // ---- Network substrate.
  net::Network::State network;

  // ---- Observability: energy-audit ledger and anomaly-detector windows, so
  // a resumed run's ledger conserves bit-exactly against the full run and the
  // detector replays identical findings. The flight-recorder ring is NOT
  // checkpointed: dumps written before the crash already persist its history,
  // and a resumed recorder refills within one window of rounds.
  obs::EnergyLedger::State ledger;
  obs::AnomalyDetector::State anomaly;

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  /// Throws SnapshotError on any malformed input (bad framing, CRC mismatch,
  /// truncated section, inconsistent per-camera array sizes).
  [[nodiscard]] static SimulationCheckpoint decode(std::span<const std::uint8_t> bytes);

  void save(const std::string& path) const;
  [[nodiscard]] static SimulationCheckpoint load(const std::string& path);
};

}  // namespace eecs::runtime
