// Robustness of the closed loop under injected faults: lossy links, camera
// crashes (with and without reboot), assignment retry/abandon, liveness-driven
// mid-round re-selection, and battery exhaustion. All faulted runs are
// deterministic in (config, seed).
#include <gtest/gtest.h>

#include "core/simulation.hpp"

namespace eecs::core {
namespace {

class FaultTolerance : public ::testing::Test {
 protected:
  static const DetectorBank& bank() {
    static const DetectorBank detectors = detect::make_trained_detectors(1234);
    return detectors;
  }

  static OfflineOptions options() {
    OfflineOptions opts;
    opts.algorithms = {detect::AlgorithmId::Hog, detect::AlgorithmId::Acf};
    opts.frames_per_item = 4;
    return opts;
  }

  static const OfflineKnowledge& knowledge() {
    static const OfflineKnowledge k = run_offline_training(bank(), {1}, 42, options());
    return k;
  }

  static EecsSimulationConfig config(SelectionMode mode) {
    EecsSimulationConfig cfg;
    cfg.dataset = 1;
    cfg.mode = mode;
    cfg.budget_per_frame = 3.0;
    cfg.controller.algorithms = options().algorithms;
    cfg.models = options();
    cfg.end_frame = 1900;  // One recalibration round: assess 1300-1400, operate 1400-1900.
    return cfg;
  }

  // Shared fault-free baseline (AllBest keeps every camera active, making
  // degradation comparisons tight).
  static const SimulationResult& baseline() {
    static const SimulationResult r =
        run_eecs_simulation(bank(), knowledge(), config(SelectionMode::AllBest));
    return r;
  }

  static EecsSimulationConfig crash_config() {
    EecsSimulationConfig cfg = config(SelectionMode::AllBest);
    // 10% uplink loss, and camera 2 (network node 3) dies mid-operation
    // without rebooting.
    cfg.uplink.loss_probability = 0.1;
    cfg.faults.add_crash(3, 1500.0, 1.0e9);
    return cfg;
  }

  static const SimulationResult& crash_result() {
    static const SimulationResult r = run_eecs_simulation(bank(), knowledge(), crash_config());
    return r;
  }
};

TEST_F(FaultTolerance, ZeroFaultRunHasCleanCounters) {
  const SimulationResult& r = baseline();
  EXPECT_GT(r.faults.messages_sent, 0);
  EXPECT_EQ(r.faults.messages_lost, 0);
  EXPECT_EQ(r.faults.assignments_retried, 0);
  EXPECT_EQ(r.faults.assignments_abandoned, 0);
  EXPECT_EQ(r.faults.registrations_lost, 0);
  EXPECT_EQ(r.faults.decode_errors, 0);
  EXPECT_EQ(r.faults.cameras_failed, 0);
  EXPECT_EQ(r.faults.cameras_recovered, 0);
  EXPECT_EQ(r.faults.midround_reselections, 0);
  EXPECT_EQ(r.faults.frames_skipped_exhausted, 0);
  for (const auto& round : r.rounds) EXPECT_FALSE(round.midround_recovery);
  ASSERT_EQ(r.battery_residual.size(), 4u);
  for (double residual : r.battery_residual) {
    EXPECT_GT(residual, 0.0);
    EXPECT_LT(residual, 1.0e5);  // Something was spent.
  }
}

TEST_F(FaultTolerance, FaultedRunIsDeterministic) {
  const SimulationResult again = run_eecs_simulation(bank(), knowledge(), crash_config());
  const SimulationResult& first = crash_result();
  EXPECT_EQ(again.cpu_joules, first.cpu_joules);
  EXPECT_EQ(again.radio_joules, first.radio_joules);
  EXPECT_EQ(again.humans_detected, first.humans_detected);
  EXPECT_EQ(again.humans_present, first.humans_present);
  EXPECT_EQ(again.faults.messages_sent, first.faults.messages_sent);
  EXPECT_EQ(again.faults.messages_lost, first.faults.messages_lost);
  EXPECT_EQ(again.faults.cameras_failed, first.faults.cameras_failed);
  EXPECT_EQ(again.faults.midround_reselections, first.faults.midround_reselections);
  EXPECT_EQ(again.rounds.size(), first.rounds.size());
  EXPECT_EQ(again.battery_residual, first.battery_residual);
}

TEST_F(FaultTolerance, UplinkLossDegradesDetectionsButRunCompletes) {
  EecsSimulationConfig cfg = config(SelectionMode::AllBest);
  cfg.uplink.loss_probability = 0.1;
  const SimulationResult r = run_eecs_simulation(bank(), knowledge(), cfg);
  EXPECT_GT(r.faults.messages_lost, 0);
  // Detections the controller never receives do not count, so a lossy uplink
  // strictly degrades the detection rate; CPU spend is unchanged (the camera
  // still did the work).
  EXPECT_GT(r.humans_detected, 0);
  EXPECT_LT(r.humans_detected, baseline().humans_detected);
  EXPECT_EQ(r.humans_present, baseline().humans_present);
  EXPECT_EQ(r.gt_frames_processed, baseline().gt_frames_processed);
}

TEST_F(FaultTolerance, DownlinkLossTriggersAssignmentRetries) {
  EecsSimulationConfig cfg = config(SelectionMode::AllBest);
  cfg.end_frame = 2400;  // Two rounds: more assignment pushes.
  cfg.downlink.loss_probability = 0.5;
  const SimulationResult r = run_eecs_simulation(bank(), knowledge(), cfg);
  EXPECT_GT(r.faults.messages_lost, 0);
  EXPECT_GT(r.faults.assignments_retried, 0);
  // Even with half the assignments lost, retries keep the loop productive.
  EXPECT_GT(r.humans_detected, 0);
}

TEST_F(FaultTolerance, CameraCrashTriggersMidRoundReselection) {
  const SimulationResult& r = crash_result();
  EXPECT_GT(r.faults.messages_lost, 0);
  EXPECT_EQ(r.faults.cameras_failed, 1);
  EXPECT_EQ(r.faults.cameras_recovered, 0);
  EXPECT_EQ(r.faults.midround_reselections, 1);

  // The recovery round log shows the controller re-selecting over the three
  // survivors (the baseline round ran all four cameras).
  const RoundLog* recovery = nullptr;
  for (const auto& round : r.rounds) {
    if (round.midround_recovery) recovery = &round;
  }
  ASSERT_NE(recovery, nullptr);
  EXPECT_GT(recovery->start_frame, 1500);
  EXPECT_EQ(recovery->stats.cameras_active, 3);
  EXPECT_EQ(r.rounds.front().stats.cameras_active, 4);

  // A dark camera does no work; overlapping views can still cover its people,
  // so the unique-person count may hold while energy strictly drops.
  EXPECT_LE(r.humans_detected, baseline().humans_detected);
  EXPECT_LT(r.cpu_joules, baseline().cpu_joules);
  EXPECT_LT(r.radio_joules, baseline().radio_joules);
}

TEST_F(FaultTolerance, RebootedCameraIsHeardAgain) {
  EecsSimulationConfig cfg = config(SelectionMode::AllBest);
  cfg.faults.add_crash(3, 1500.0, 1600.0);  // Camera 2 reboots at frame 1600.
  const SimulationResult r = run_eecs_simulation(bank(), knowledge(), cfg);
  EXPECT_EQ(r.faults.cameras_failed, 1);
  EXPECT_EQ(r.faults.cameras_recovered, 1);
  EXPECT_EQ(r.faults.midround_reselections, 1);
  // The reboot preserves the last-known-good assignment, so the camera
  // resumes detecting: it spends strictly more energy than staying dark
  // forever (and never fewer unique detections).
  EXPECT_GE(r.humans_detected, crash_result().humans_detected);
  EXPECT_GT(r.cpu_joules, crash_result().cpu_joules);
}

TEST_F(FaultTolerance, UplinkBlackoutAbandonsNothingButLosesUploads) {
  EecsSimulationConfig cfg = config(SelectionMode::AllBest);
  // Total blackout across the whole assessment window: the controller must
  // select from an empty assessment (estimates collapse to zero) yet the run
  // completes without throwing.
  cfg.faults.add_blackout(1300.0, 1400.0);
  const SimulationResult r = run_eecs_simulation(bank(), knowledge(), cfg);
  EXPECT_GT(r.faults.messages_lost, 0);
  EXPECT_EQ(r.gt_frames_processed, baseline().gt_frames_processed);
  ASSERT_FALSE(r.rounds.empty());
  EXPECT_EQ(r.rounds.front().stats.n_star, 0.0);
}

TEST_F(FaultTolerance, BatteryExhaustionStopsCamerasMidRun) {
  EecsSimulationConfig cfg = config(SelectionMode::AllBest);
  cfg.battery_joules = 15.0;  // Registration + a few operation frames.
  const SimulationResult r = run_eecs_simulation(bank(), knowledge(), cfg);
  EXPECT_GT(r.faults.frames_skipped_exhausted, 0);
  EXPECT_LT(r.humans_detected, baseline().humans_detected);
  EXPECT_LT(r.cpu_joules, baseline().cpu_joules);
  for (double residual : r.battery_residual) EXPECT_LE(residual, 15.0);
}

TEST_F(FaultTolerance, FixedComboEnforcesBatteries) {
  const FixedCombo combo{{{0, detect::AlgorithmId::Hog},
                          {1, detect::AlgorithmId::Hog},
                          {2, detect::AlgorithmId::Acf},
                          {3, detect::AlgorithmId::Acf}}};
  FixedComboConfig cfg;
  cfg.models = options();
  cfg.end_frame = 1400;

  const SimulationResult unconstrained = run_fixed_combo(bank(), knowledge(), combo, cfg);
  EXPECT_EQ(unconstrained.faults.frames_skipped_exhausted, 0);

  cfg.battery_joules = 2.0;
  const SimulationResult constrained = run_fixed_combo(bank(), knowledge(), combo, cfg);
  EXPECT_GT(constrained.faults.frames_skipped_exhausted, 0);
  EXPECT_LT(constrained.humans_detected, unconstrained.humans_detected);
  EXPECT_LT(constrained.radio_joules, unconstrained.radio_joules);
  EXPECT_LT(constrained.cpu_joules, unconstrained.cpu_joules);
  ASSERT_EQ(constrained.battery_residual.size(), 4u);
  for (double residual : constrained.battery_residual) EXPECT_LE(residual, 2.0);
}

// A round that advances no ground-truth frame would loop forever, pushing
// assignments each pass; such configs are rejected on entry. The checks
// fire before any detector or profile is used, so empty ones suffice.
TEST(SimulationContracts, RejectsRoundsThatNeverAdvanceTheScene) {
  const DetectorBank no_detectors;
  const OfflineKnowledge no_knowledge({}, domain::VideoComparator{}, nullptr);
  const auto rejects = [&](const EecsSimulationConfig& cfg) {
    EXPECT_THROW((void)run_eecs_simulation(no_detectors, no_knowledge, cfg), ContractViolation);
  };
  EecsSimulationConfig empty_windows;
  empty_windows.assessment_gt_frames = 0;
  empty_windows.operation_gt_frames = 0;
  rejects(empty_windows);
  EecsSimulationConfig negative_window;
  negative_window.assessment_gt_frames = -4;
  rejects(negative_window);
  EecsSimulationConfig zero_step;
  zero_step.gt_frame_step = 0;
  rejects(zero_step);
}

}  // namespace
}  // namespace eecs::core
