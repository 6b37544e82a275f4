// Scenario: the closed loop under real-world network failures (§I's disaster
// settings: lossy wireless links, cameras dying mid-mission). Sweeps the
// uplink loss rate to show graceful degradation of the detection rate, then
// injects a camera crash and shows the controller's liveness tracker
// declaring it dead and re-selecting mid-round over the survivors — all
// deterministic from (config, seed).
#include <cstdio>

#include "core/simulation.hpp"

int main() {
  using namespace eecs;
  using namespace eecs::core;

  std::printf("training detectors + offline profiles (indoor lab scene)...\n\n");
  const DetectorBank bank = detect::make_trained_detectors(1234);
  OfflineOptions options;
  options.algorithms = {detect::AlgorithmId::Hog, detect::AlgorithmId::Acf};
  options.frames_per_item = 4;
  const OfflineKnowledge knowledge = run_offline_training(bank, {1}, 42, options);

  EecsSimulationConfig base;
  base.dataset = 1;
  base.mode = SelectionMode::AllBest;
  base.budget_per_frame = 3.0;
  base.controller.algorithms = options.algorithms;
  base.models = options;
  base.end_frame = 1900;  // One recalibration round.

  // --- Graceful degradation: sweep the uplink loss rate. Detections the
  // controller never receives do not count, but lost transmissions still cost
  // the camera energy, so efficiency falls with the loss rate.
  std::printf("uplink loss | detected | msgs lost/sent | retries | radio J\n");
  for (const double loss : {0.0, 0.1, 0.3, 0.5}) {
    EecsSimulationConfig config = base;
    config.uplink.loss_probability = loss;
    config.downlink.loss_probability = loss;
    const SimulationResult r = run_eecs_simulation(bank, knowledge, config);
    std::printf("   %4.0f %%   | %3d/%3d  |  %5ld/%5ld   |  %4ld   | %.4f\n", 100.0 * loss,
                r.humans_detected, r.humans_present, r.faults.messages_lost,
                r.faults.messages_sent, r.faults.assignments_retried, r.radio_joules);
  }

  // --- Crash and recovery: camera 2 (network node 3) dies at frame 1500 and
  // reboots at 1700 with its last-known-good assignment still in flash.
  std::printf("\ncamera 2 crashes at frame 1500, reboots at 1700...\n");
  EecsSimulationConfig config = base;
  config.faults.add_crash(3, 1500.0, 1700.0);
  const SimulationResult crashed = run_eecs_simulation(bank, knowledge, config);

  for (const auto& round : crashed.rounds) {
    std::printf("  frame %4d: %s%d cameras active  (n*=%.2f, n_est=%.2f)  %s\n",
                round.start_frame,
                round.midround_recovery ? "mid-round re-selection -> " : "scheduled round   -> ",
                round.stats.cameras_active, round.stats.n_star, round.stats.n_est,
                round.stats.summary.c_str());
  }
  std::printf("  cameras declared dead: %ld, recovered: %ld\n", crashed.faults.cameras_failed,
              crashed.faults.cameras_recovered);

  const SimulationResult intact = run_eecs_simulation(bank, knowledge, base);
  std::printf("\ndetections: intact network %d, with crash+reboot %d (of %d present)\n",
              intact.humans_detected, crashed.humans_detected, crashed.humans_present);
  std::printf("\nThe loop survives silent cameras: the liveness tracker times the camera\n"
              "out, the controller re-selects over the survivors, and the rebooted node\n"
              "rejoins with its last-known-good assignment.\n");
  return 0;
}
