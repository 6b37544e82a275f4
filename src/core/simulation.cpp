#include "core/simulation.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <set>
#include <tuple>

#include "common/parallel.hpp"
#include "common/simd.hpp"
#include "detect/frame_cache.hpp"
#include "detect/sweep_scheduler.hpp"
#include "features/color_feature.hpp"
#include "net/messages.hpp"
#include "obs/flight.hpp"
#include "obs/span.hpp"
#include "obs/telemetry.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/deadline.hpp"
#include "runtime/protocol.hpp"
#include "runtime/snapshot.hpp"

namespace eecs::core {

namespace {

/// Record an instant ('i') trace event; compiled out under EECS_OBS_OFF.
void trace_instant(const char* name, const char* cat, double sim_time,
                   std::initializer_list<std::pair<const char*, double>> args = {}) {
  if constexpr (obs::kEnabled) {
    obs::TraceEvent event;
    event.phase = 'i';
    event.sim_time = sim_time;
    event.cat = cat;
    event.name = name;
    event.num_args.reserve(args.size());
    for (const auto& [key, value] : args) event.num_args.emplace_back(key, value);
    obs::current().tracer().record(std::move(event));
  }
}

// kFaultCounterFields covers FaultCounters: every field is a long, and each
// appears in the table exactly once.
static_assert(sizeof(FaultCounters) == kFaultCounterFields.size() * sizeof(long));
static_assert([] {
  for (std::size_t i = 0; i < kFaultCounterFields.size(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      if (kFaultCounterFields[i].field == kFaultCounterFields[j].field) return false;
    }
  }
  return true;
}());

/// Registry substrate of the SimulationResult façades. The loop's semantic
/// counters and stage gauges live in the current obs session; FaultCounters
/// and StageTimings are computed as registry deltas over the run at a single
/// assignment point (finalize), so multiple runs sharing one session (the
/// report/determinism tools) each see only their own activity. Functional
/// under EECS_OBS_OFF too — the façades keep their semantics either way.
struct SimTelemetry {
  explicit SimTelemetry(obs::MetricsRegistry& metrics)
      : windows_evaluated(metrics.counter("detect.windows.evaluated")),
        windows_pruned(metrics.counter("detect.windows.pruned")),
        debit_joules(metrics.histogram("energy.debit_joules",
                                       {0.001, 0.01, 0.1, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0})),
        render_s(metrics.gauge("stage.render_s", obs::Determinism::WallClock)),
        detect_s(metrics.gauge("stage.detect_s", obs::Determinism::WallClock)),
        features_s(metrics.gauge("stage.features_s", obs::Determinism::WallClock)),
        controller_s(metrics.gauge("stage.controller_s", obs::Determinism::WallClock)),
        net_s(metrics.gauge("stage.net_s", obs::Determinism::WallClock)) {
    for (std::size_t i = 0; i < kFaultCounterFields.size(); ++i) {
      faults_[i] = &metrics.counter(kFaultCounterFields[i].metric);
      base_faults_[i] = faults_[i]->value();
    }
    base_gauges_ = {render_s.value(), detect_s.value(), features_s.value(),
                    controller_s.value(), net_s.value()};
  }

  /// The registry counter behind a FaultCounters field.
  [[nodiscard]] obs::Counter& fault(long FaultCounters::*field) const {
    std::size_t i = 0;
    while (kFaultCounterFields[i].field != field) ++i;
    return *faults_[i];
  }

  /// Registry deltas over this run so far, plus the counters of a resumed
  /// snapshot; used by finalize() and by the checkpoint capture.
  [[nodiscard]] FaultCounters fault_deltas() const {
    FaultCounters f;
    for (std::size_t i = 0; i < kFaultCounterFields.size(); ++i) {
      f.*kFaultCounterFields[i].field = static_cast<long>(faults_[i]->value() - base_faults_[i]);
    }
    return f;
  }

  /// Count a snapshot's fault counters (in kFaultCounterFields order) as this
  /// run's own, so finalize() and any later checkpoint cover the whole run.
  /// A shorter vector, from an older build, leaves the missing fields at 0.
  void resume_faults(const std::vector<std::int64_t>& counters) {
    for (std::size_t i = 0; i < std::min(counters.size(), kFaultCounterFields.size()); ++i) {
      base_faults_[i] -= static_cast<std::uint64_t>(counters[i]);
    }
  }

  /// The single assignment point of the FaultCounters/StageTimings views.
  void finalize(SimulationResult& result) const {
    result.faults = fault_deltas();
    result.timings.render_s = render_s.value() - base_gauges_[0];
    result.timings.detect_s = detect_s.value() - base_gauges_[1];
    result.timings.features_s = features_s.value() - base_gauges_[2];
    result.timings.controller_s = controller_s.value() - base_gauges_[3];
    result.timings.net_s = net_s.value() - base_gauges_[4];
  }

  /// Sliding-window work accounting (not a FaultCounters field: the result
  /// accumulates these directly from FrameOutcomes, the counters are
  /// session-wide telemetry).
  obs::Counter& windows_evaluated;
  obs::Counter& windows_pruned;
  /// Per-debit battery drain sizes (every camera battery debit across all
  /// stages); the source of the p50/p99 quantile columns in the report tools.
  obs::Histogram& debit_joules;
  obs::Gauge& render_s;
  obs::Gauge& detect_s;
  obs::Gauge& features_s;
  obs::Gauge& controller_s;
  obs::Gauge& net_s;

 private:
  std::array<obs::Counter*, kFaultCounterFields.size()> faults_{};
  std::array<std::uint64_t, kFaultCounterFields.size()> base_faults_{};
  std::array<double, 5> base_gauges_{};
};

/// O(1) algorithm -> detector resolution, hoisted out of the frame loops
/// (the bank scan used to run once per (frame, camera, algorithm)).
class DetectorLookup {
 public:
  explicit DetectorLookup(const DetectorBank& detectors) {
    by_id_.fill(nullptr);
    for (const auto& d : detectors) by_id_[static_cast<std::size_t>(d->id())] = d.get();
  }

  const detect::Detector& operator()(detect::AlgorithmId id) const {
    const detect::Detector* d = by_id_[static_cast<std::size_t>(id)];
    if (d == nullptr) throw ContractViolation("DetectorLookup: algorithm not in bank");
    return *d;
  }

 private:
  std::array<const detect::Detector*, detect::kNumAlgorithms> by_id_;
};

/// Training-item profile of a (dataset, camera) feed.
const TrainingItemProfile* find_profile(const OfflineKnowledge& knowledge, int dataset,
                                        int camera) {
  for (const auto& p : knowledge.profiles()) {
    if (p.dataset == dataset && p.camera == camera) return &p;
  }
  return nullptr;
}

/// One camera's processing of one frame during operation: detect, extract
/// color features, upload metadata + JPEG crops, and account energy. Pure
/// compute on const inputs — safe to fan out per camera. Detections and their
/// color features stay in parallel arrays so detect::Detection is never
/// copied through reid::ViewDetection and back (matching consumes
/// `detections` directly; assessment moves both into ViewDetections once).
struct FrameOutcome {
  std::vector<detect::Detection> detections;         ///< Thresholded, score order.
  std::vector<std::vector<float>> color_features;    ///< Aligned with detections.
  double cpu_joules = 0.0;
  std::size_t comm_bytes = 0;
  std::uint64_t windows_evaluated = 0;  ///< Sliding windows actually scored.
  std::uint64_t windows_pruned = 0;     ///< ... skipped by the context gate.
};

FrameOutcome process_camera_frame(const detect::Detector& detector, double threshold,
                                  detect::FramePrecompute& pre, const OfflineOptions& models) {
  FrameOutcome outcome;
  energy::CostCounter cost;
  auto raw = detector.detect(pre, &cost);
  outcome.windows_evaluated = cost.windows_evaluated;
  outcome.windows_pruned = cost.windows_pruned;
  const imaging::Image& frame = pre.frame();
  outcome.detections.reserve(raw.size());
  outcome.color_features.reserve(raw.size());
  for (auto& det : raw) {
    if (det.score < threshold) continue;
    outcome.color_features.push_back(features::color_feature(frame, det.box, &cost));
    outcome.comm_bytes += 172;  // §V-A metadata per object.
    outcome.comm_bytes += models.jpeg_model.region_bytes(frame, det.box);
    outcome.detections.push_back(det);
  }
  outcome.cpu_joules = models.cpu_model.joules(cost);
  return outcome;
}

/// One detector run of a frame's detection fan-out. Jobs sharing a `slot`
/// run in list order over that slot's FramePrecompute, so a camera sweeping
/// several algorithms computes their common substrates once.
struct DetectJob {
  std::size_t slot = 0;
  int camera = 0;
  const detect::Detector* detector = nullptr;
  double threshold = 0.0;
};

/// The per-frame detection step of every phase: plan the jobs in list order
/// on one SweepScheduler (the context gate prunes infeasible (scale, row
/// band) tiles when it engages at `round_phase`), prewarm the work-list
/// stage-major (resizes, then feature substrates, rung by rung across all
/// slots), fan out one task per slot, and account the windows serially in
/// slot/job order (assessment sweeps count too: the camera really runs them).
/// Returns each slot's outcomes in job order; a slot without jobs gets none.
std::vector<std::vector<FrameOutcome>> detect_frame(
    const video::MultiViewFrame& frame, const std::vector<geometry::PinholeCamera>& calibrations,
    std::size_t slots, const std::vector<DetectJob>& jobs, const detect::ContextGateOptions& gate,
    std::uint64_t round_phase, const OfflineOptions& models, SimTelemetry& st,
    SimulationResult& result) {
  std::vector<std::vector<FrameOutcome>> outcomes;
  {
    const obs::ScopedSpan span("stage.detect", "stage", st.detect_s, frame.index);
    detect::SweepScheduler sched(slots, gate, round_phase);
    for (const DetectJob& job : jobs) {
      const auto c = static_cast<std::size_t>(job.camera);
      sched.plan(job.slot, frame.views[c], *job.detector, &calibrations[c]);
    }
    sched.prewarm();
    outcomes = common::parallel_map<std::vector<FrameOutcome>>(slots, [&](std::size_t s) {
      std::vector<FrameOutcome> out;
      for (const DetectJob& job : jobs) {
        if (job.slot != s) continue;
        out.push_back(process_camera_frame(*job.detector, job.threshold, sched.at(s), models));
      }
      return out;
    });
  }
  for (const auto& slot_outcomes : outcomes) {
    for (const FrameOutcome& outcome : slot_outcomes) {
      result.windows_evaluated += outcome.windows_evaluated;
      result.windows_pruned += outcome.windows_pruned;
      st.windows_evaluated.inc(outcome.windows_evaluated);
      st.windows_pruned.inc(outcome.windows_pruned);
    }
  }
  return outcomes;
}

/// Assemble the §IV-B assessment sample representation from an outcome,
/// moving (not copying) detections and color features.
std::vector<reid::ViewDetection> to_view_detections(int camera, FrameOutcome&& outcome) {
  std::vector<reid::ViewDetection> views;
  views.reserve(outcome.detections.size());
  for (std::size_t i = 0; i < outcome.detections.size(); ++i) {
    reid::ViewDetection vd;
    vd.camera = camera;
    vd.detection = outcome.detections[i];
    vd.color_feature = std::move(outcome.color_features[i]);
    views.push_back(std::move(vd));
  }
  return views;
}

/// Countable (per metrics defaults) ground truth person ids in one view.
std::set<int> countable_ids(const std::vector<video::GroundTruthBox>& truth) {
  const MatchOptions opts;
  std::set<int> ids;
  for (const auto& gt : truth) {
    if (gt.visibility >= opts.min_visibility && gt.in_image_fraction >= opts.min_in_image) {
      ids.insert(gt.person_id);
    }
  }
  return ids;
}

net::DetectionMetadataMsg make_metadata_msg(int camera, int frame_index,
                                            detect::AlgorithmId algorithm,
                                            const FrameOutcome& outcome) {
  net::DetectionMetadataMsg msg;
  msg.camera_id = camera;
  msg.frame_index = frame_index;
  msg.algorithm = static_cast<std::uint8_t>(algorithm);
  msg.objects.reserve(outcome.detections.size());
  for (std::size_t i = 0; i < outcome.detections.size(); ++i) {
    const detect::Detection& det = outcome.detections[i];
    net::ObjectMetadata obj;
    obj.x = static_cast<std::uint16_t>(std::clamp(det.box.x, 0.0, 65535.0));
    obj.y = static_cast<std::uint16_t>(std::clamp(det.box.y, 0.0, 65535.0));
    obj.w = static_cast<std::uint16_t>(std::clamp(det.box.w, 0.0, 65535.0));
    obj.h = static_cast<std::uint16_t>(std::clamp(det.box.h, 0.0, 65535.0));
    obj.probability = static_cast<float>(det.probability);
    obj.color_feature = outcome.color_features[i];
    msg.objects.push_back(std::move(obj));
  }
  return msg;
}

/// What the camera device itself knows. Assignments are applied only when the
/// controller's message is actually delivered; the last-known-good one
/// survives lost updates and crash/reboot cycles (kept in flash).
struct CameraNode {
  bool has_assignment = false;
  bool active = false;
  detect::AlgorithmId algorithm = detect::AlgorithmId::Hog;
  double threshold = 0.0;
  std::uint32_t applied_sequence = 0;
};

/// Set-up, per-frame scoring and the end of a run, shared by the closed loop
/// and the fixed combinations. `Config` is EecsSimulationConfig or
/// FixedComboConfig; both name these knobs alike.
struct RunScaffold {
  template <class Config>
  RunScaffold(const DetectorBank& detectors, const Config& config)
      : scoped_threads(config.threads),
        scoped_simd(config.simd),
        detector_of(detectors),
        gate_opts(detect::resolve_context_gate(config.context_gate)),
        models(config.models),
        sim(video::dataset_by_id(config.dataset), config.seed),
        stride(sim.environment().ground_truth_stride * config.gt_frame_step),
        num_cameras(static_cast<int>(sim.cameras().size())),
        batteries(static_cast<std::size_t>(num_cameras), energy::Battery(config.battery_joules)),
        st(obs::current().metrics()),
        ledger(obs::current().ledger()) {
    // Dispatch mode is a build/run-environment fact, not a run result: WallClock
    // so determinism snapshots (which diff SIMD-on vs SIMD-off runs) skip it.
    obs::current()
        .metrics()
        .gauge("simd.dispatch.native", obs::Determinism::WallClock)
        .set(simd::enabled() && simd::kNativeBackend ? 1.0 : 0.0);
    ledger.begin_run(std::vector<double>(static_cast<std::size_t>(num_cameras),
                                         config.battery_joules));
  }

  video::MultiViewFrame next_frame_timed() {
    const obs::ScopedSpan span("stage.render", "stage", st.render_s, sim.frame_index());
    return sim.next_frame();
  }

  /// Count one scored ground-truth frame: its countable persons (the union
  /// over views) join humans_present and are returned.
  std::set<int> count_present(const video::MultiViewFrame& frame) {
    ++result.gt_frames_processed;
    std::set<int> present;
    for (int c = 0; c < num_cameras; ++c) {
      for (int id : countable_ids(frame.truth[static_cast<std::size_t>(c)])) present.insert(id);
    }
    result.humans_present += static_cast<int>(present.size());
    return present;
  }

  /// Only persons actually present count (a matched ignore-region person
  /// cannot occur since matching skips them).
  void count_detected(const std::set<int>& detected, const std::set<int>& present) {
    for (int id : detected) {
      if (present.count(id) > 0) ++result.humans_detected;
    }
  }

  /// Debit a camera's battery, mirrored in the ledger and the drain histogram.
  void drain(int camera, double joules) {
    batteries[static_cast<std::size_t>(camera)].drain(joules);
    ledger.drain(camera, joules);
    st.debit_joules.observe(joules);
  }

  /// Assign the telemetry views and the battery residuals; ends the run.
  SimulationResult finish() {
    st.finalize(result);
    result.battery_residual.reserve(batteries.size());
    for (const auto& battery : batteries) result.battery_residual.push_back(battery.residual());
    return std::move(result);
  }

  const common::ScopedThreads scoped_threads;
  const simd::ScopedSimd scoped_simd;
  const DetectorLookup detector_of;
  /// Context gate: resolved once per run (config knob, EECS_CONTEXT_GATE env
  /// override). The closed loop's recovery cadence is driven by
  /// rounds_completed, which the checkpoint restores, so gating resumes
  /// bit-exactly.
  const detect::ContextGateOptions gate_opts;
  const OfflineOptions& models;
  video::SceneSimulator sim;
  const int stride;
  const int num_cameras;
  std::vector<energy::Battery> batteries;  ///< One per camera node.
  SimulationResult result;
  SimTelemetry st;
  /// Energy audit ledger: every joule debited is attributed to a (camera,
  /// round, stage, algorithm, cause) key, with running totals that accumulate
  /// the exact same doubles in the same order as the result accumulators and
  /// battery mirrors replaying every drain — so conservation against the
  /// returned result is bit-exact (see obs/ledger.hpp).
  obs::EnergyLedger& ledger;
};

/// The closed loop of §IV: its state (scene, network, camera nodes,
/// controller, durable-runtime machinery, telemetry) and one member per step
/// of a round. run_eecs_simulation sequences the steps.
class ClosedLoop : RunScaffold {
 public:
  ClosedLoop(const DetectorBank& detectors, const OfflineKnowledge& knowledge,
             const EecsSimulationConfig& config)
      : RunScaffold(detectors, config),
        config(config),
        knowledge(knowledge),
        network(config.models.radio_model, config.seed ^ 0xabcd),
        anomaly_detector(config.runtime.anomaly, num_cameras),
        flight_enabled(obs::kEnabled && !config.runtime.flight_recorder_path.empty()),
        flight(flight_enabled
                   ? static_cast<std::size_t>(std::max(config.runtime.flight_recorder_rounds, 1))
                   : 0),
        cameras(static_cast<std::size_t>(num_cameras)),
        controller(knowledge,
                   [&] {
                     reid::ReIdentifier reidentifier = make_reidentifier(sim);
                     const obs::ScopedSpan span("stage.features", "stage", st.features_s);
                     reidentifier.set_color_gate(fit_color_gate(config.dataset, config.seed + 17));
                     return reidentifier;
                   }(),
                   config.controller),
        liveness(num_cameras, config.protocol.liveness_timeout_gt_frames * stride),
        retry_queue([&] {
          runtime::RetryPolicy policy;
          policy.max_retries = config.protocol.max_assignment_retries;
          policy.jitter_fraction = config.protocol.retry_jitter_fraction;
          policy.jitter_seed = config.seed;
          return policy;
        }()),
        watchdog({config.runtime.round_deadline_gt_frames, config.runtime.deadline_strikes_to_fail},
                 num_cameras),
        ladder(config.runtime.degradation, num_cameras),
        fallback(static_cast<std::size_t>(num_cameras), nullptr) {
    // Network: node 0 is the controller; camera c is node c + 1. The network
    // clock is driven with the video frame index (one frame = one clock unit).
    network.set_fault_plan(config.faults);
    (void)network.add_node(config.downlink);
    for (int c = 0; c < num_cameras; ++c) (void)network.add_node(config.uplink);
    // Full validation now that the node count is known (set_fault_plan could
    // only do the node-count-free checks).
    config.faults.validate(network.node_count());

    if constexpr (obs::kEnabled) {
      for (int k = 0; k < obs::kNumAnomalyKinds; ++k) {
        anomaly_counters[static_cast<std::size_t>(k)] = &obs::current().metrics().counter(
            std::string("anomaly.") + obs::to_string(static_cast<obs::Anomaly::Kind>(k)));
      }
      // Per-camera energy gauges: battery residual mirrored on every drain,
      // CPU joules accumulated at the serial replay points. Registered once
      // here so the per-frame paths never format metric names.
      cpu_gauges.resize(static_cast<std::size_t>(num_cameras));
      for (int c = 0; c < num_cameras; ++c) {
        const std::string cam = "cam" + std::to_string(c);
        batteries[static_cast<std::size_t>(c)].bind_residual_gauge(
            &obs::current().metrics().gauge("energy.battery.residual." + cam));
        cpu_gauges[static_cast<std::size_t>(c)] =
            &obs::current().metrics().gauge("energy.cpu_joules." + cam);
      }
    }

    // Camera-flash fallback table for the ladder's CheapAlgorithm/SkipFrames
    // rungs: the cheapest allowed in-budget profile of the camera's own feed
    // (the profile data ships with the camera firmware, so no wire traffic is
    // needed to degrade). Computed only when the ladder can engage.
    if (!ladder.enabled()) return;
    for (int c = 0; c < num_cameras; ++c) {
      const TrainingItemProfile* item = find_profile(knowledge, config.dataset, c);
      if (item == nullptr) continue;
      const AlgorithmProfile* cheapest = nullptr;
      for (const auto& profile : item->algorithms) {
        const bool allowed =
            std::find(config.controller.algorithms.begin(), config.controller.algorithms.end(),
                      profile.id) != config.controller.algorithms.end();
        if (!allowed || profile.total_joules_per_frame() > config.budget_per_frame) continue;
        if (cheapest == nullptr ||
            profile.total_joules_per_frame() < cheapest->total_joules_per_frame()) {
          cheapest = &profile;
        }
      }
      fallback[static_cast<std::size_t>(c)] = cheapest;
    }
  }

  /// Checkpoint restore (config.runtime.resume_from): false when the run
  /// starts fresh. The snapshot carries the registration state, so a
  /// resumed run skips register_cameras().
  bool restore() {
    if (config.runtime.resume_from.empty()) return false;
    const runtime::SimulationCheckpoint ck =
        runtime::SimulationCheckpoint::load(config.runtime.resume_from);
    if (!(ck.guard == config_guard())) {
      throw runtime::SnapshotError(
          "resume: snapshot was taken under a different simulation configuration");
    }
    // The scene is a pure function of (environment, seed, #advances):
    // replaying the advances restores its RNG stream exactly.
    sim.skip(ck.frame_index);
    network.import_state(ck.network);
    for (const auto& reg : ck.registrations) {
      controller.restore_camera(reg.camera, reg.matched_item, reg.budget);
    }
    std::vector<int> strikes(static_cast<std::size_t>(num_cameras), 0);
    std::vector<runtime::DegradationLadder::CameraState> ladder_state(
        static_cast<std::size_t>(num_cameras));
    for (int c = 0; c < num_cameras; ++c) {
      const auto& state = ck.cameras[static_cast<std::size_t>(c)];
      CameraNode& cam = cameras[static_cast<std::size_t>(c)];
      batteries[static_cast<std::size_t>(c)].restore_residual(state.battery_residual);
      cam.has_assignment = state.has_assignment != 0;
      cam.active = state.active != 0;
      cam.algorithm = static_cast<detect::AlgorithmId>(state.algorithm);
      cam.threshold = state.threshold;
      cam.applied_sequence = state.applied_sequence;
      strikes[static_cast<std::size_t>(c)] = state.deadline_strikes;
      ladder_state[static_cast<std::size_t>(c)] = state.ladder;
    }
    watchdog.restore(strikes);
    ladder.restore(ladder_state);
    liveness.restore(ck.liveness);
    controller_active = std::set<int>(ck.controller_active.begin(), ck.controller_active.end());
    std::map<int, runtime::AssignmentRetryQueue::Entry> pending_entries;
    for (const auto& p : ck.pending) pending_entries[p.camera] = p.entry;
    retry_queue.restore(std::move(pending_entries));
    next_sequence = ck.next_sequence;
    result.cpu_joules = ck.cpu_joules;
    result.radio_joules = ck.radio_joules;
    result.humans_detected = ck.humans_detected;
    result.humans_present = ck.humans_present;
    result.gt_frames_processed = ck.gt_frames_processed;
    result.windows_evaluated = ck.windows_evaluated;
    result.windows_pruned = ck.windows_pruned;
    for (const auto& entry : ck.rounds) {
      RoundLog round;
      round.start_frame = entry.start_frame;
      round.stats.n_star = entry.n_star;
      round.stats.p_star = entry.p_star;
      round.stats.n_est = entry.n_est;
      round.stats.p_est = entry.p_est;
      round.stats.cameras_active = entry.cameras_active;
      round.stats.summary = entry.summary;
      round.midround_recovery = entry.midround_recovery != 0;
      result.rounds.push_back(std::move(round));
    }
    st.resume_faults(ck.fault_counters);
    rounds_completed = ck.rounds_completed;
    // Restore the audit ledger and anomaly windows captured with the
    // snapshot, so the resumed run's conservation check covers the whole run
    // and the detector replays identical findings. Guarded: a snapshot from
    // a pre-ledger build simply restarts both empty.
    if (ck.ledger.mirror_residual.size() == static_cast<std::size_t>(num_cameras)) {
      ledger.import_state(ck.ledger);
      anomaly_detector.import_state(ck.anomaly);
    }
    trace_instant("runtime.resume", "runtime", sim.frame_index(),
                  {{"rounds_completed", static_cast<double>(rounds_completed)}});
    return true;
  }

  /// Checkpoint capture: a full snapshot of the loop state, taken at a round
  /// boundary (assessment data and in-flight samples are empty there); the
  /// inverse of restore().
  runtime::SimulationCheckpoint capture_checkpoint() const {
    runtime::SimulationCheckpoint ck;
    ck.guard = config_guard();
    ck.frame_index = sim.frame_index();
    ck.rounds_completed = rounds_completed;
    ck.cpu_joules = result.cpu_joules;
    ck.radio_joules = result.radio_joules;
    ck.humans_detected = result.humans_detected;
    ck.humans_present = result.humans_present;
    ck.gt_frames_processed = result.gt_frames_processed;
    ck.windows_evaluated = result.windows_evaluated;
    ck.windows_pruned = result.windows_pruned;
    ck.rounds.reserve(result.rounds.size());
    for (const RoundLog& round : result.rounds) {
      runtime::SimulationCheckpoint::RoundLogState entry;
      entry.start_frame = round.start_frame;
      entry.n_star = round.stats.n_star;
      entry.p_star = round.stats.p_star;
      entry.n_est = round.stats.n_est;
      entry.p_est = round.stats.p_est;
      entry.cameras_active = round.stats.cameras_active;
      entry.summary = round.stats.summary;
      entry.midround_recovery = round.midround_recovery ? 1 : 0;
      ck.rounds.push_back(std::move(entry));
    }
    const FaultCounters faults = st.fault_deltas();
    for (const FaultCounterField& counter : kFaultCounterFields) {
      ck.fault_counters.push_back(faults.*counter.field);
    }
    ck.cameras.reserve(cameras.size());
    for (int c = 0; c < num_cameras; ++c) {
      const CameraNode& cam = cameras[static_cast<std::size_t>(c)];
      runtime::SimulationCheckpoint::CameraState state;
      state.battery_residual = batteries[static_cast<std::size_t>(c)].residual();
      state.has_assignment = cam.has_assignment ? 1 : 0;
      state.active = cam.active ? 1 : 0;
      state.algorithm = static_cast<std::int32_t>(cam.algorithm);
      state.threshold = cam.threshold;
      state.applied_sequence = cam.applied_sequence;
      state.deadline_strikes = watchdog.strikes(c);
      state.ladder = ladder.state()[static_cast<std::size_t>(c)];
      ck.cameras.push_back(state);
    }
    for (const auto& reg : controller.registrations()) {
      ck.registrations.push_back({reg.camera, reg.matched_item, reg.budget});
    }
    ck.liveness = liveness.state();
    ck.controller_active.assign(controller_active.begin(), controller_active.end());
    for (const auto& [camera, entry] : retry_queue.entries()) {
      ck.pending.push_back({camera, entry});
    }
    ck.next_sequence = next_sequence;
    ck.network = network.export_state();
    ck.ledger = ledger.export_state();
    ck.anomaly = anomaly_detector.export_state();
    return ck;
  }

  [[nodiscard]] runtime::SimulationCheckpoint::ConfigGuard config_guard() const {
    runtime::SimulationCheckpoint::ConfigGuard guard;
    guard.dataset = config.dataset;
    guard.seed = config.seed;
    guard.mode = static_cast<std::int32_t>(config.mode);
    guard.start_frame = config.start_frame;
    guard.end_frame = config.end_frame;
    guard.assessment_gt_frames = config.assessment_gt_frames;
    guard.operation_gt_frames = config.operation_gt_frames;
    guard.gt_frame_step = config.gt_frame_step;
    guard.num_cameras = num_cameras;
    guard.budget_per_frame = config.budget_per_frame;
    guard.battery_joules = config.battery_joules;
    return guard;
  }

  /// §IV-B.1: feature upload + registration, from early test-segment frames.
  /// The upload is retried immediately on loss (the camera sees the missing
  /// link-layer ack); a camera whose upload never arrives stays unregistered
  /// and is simply never selected.
  void register_cameras() {
    sim.skip(config.start_frame);
    std::vector<std::vector<imaging::Image>> reg_frames(static_cast<std::size_t>(num_cameras));
    for (int f = 0; f < config.upload_feature_frames; ++f) {
      const video::MultiViewFrame frame = next_frame_timed();
      for (int c = 0; c < num_cameras; ++c) {
        reg_frames[static_cast<std::size_t>(c)].push_back(frame.views[static_cast<std::size_t>(c)]);
      }
      sim.skip(stride - 1);
    }
    // Feature extraction fans out per camera (const extractor, disjoint
    // outputs); the uploads below stay in camera order so the network's
    // RNG/event sequence matches the serial path exactly.
    struct Registration {
      net::FeatureUploadMsg msg;
      double cpu_joules = 0.0;
    };
    std::vector<Registration> registrations;
    {
      const obs::ScopedSpan span("stage.features", "stage", st.features_s, sim.frame_index());
      registrations = common::parallel_map<Registration>(
          static_cast<std::size_t>(num_cameras), [&](std::size_t c) {
            energy::CostCounter cost;
            const auto& frames = reg_frames[c];
            Registration reg;
            reg.msg.camera_id = static_cast<int>(c);
            reg.msg.feature_dim = knowledge.extractor().dimension();
            reg.msg.energy_budget = config.budget_per_frame;
            reg.msg.features.reserve(frames.size() *
                                     static_cast<std::size_t>(reg.msg.feature_dim));
            for (std::size_t i = 0; i < frames.size(); ++i) {
              const auto f = knowledge.extractor().extract(frames[i], &cost);
              for (int d = 0; d < reg.msg.feature_dim; ++d) {
                reg.msg.features.push_back(f[static_cast<std::size_t>(d)]);
              }
            }
            reg.cpu_joules = config.models.cpu_model.joules(cost);
            return reg;
          });
    }
    const obs::ScopedSpan span("stage.net", "stage", st.net_s, sim.frame_index());
    for (int c = 0; c < num_cameras; ++c) {
      const Registration& reg = registrations[static_cast<std::size_t>(c)];
      const std::vector<std::uint8_t> payload = encode(reg.msg);
      double tx_joules = 0.0;
      net::TxResult tx;
      int attempts = 0;
      do {
        ++attempts;
        // First attempt is ordinary tx; every further attempt is retry
        // energy, attributed as such. The result accumulates per attempt so
        // the ledger total folds in the identical doubles in the same order.
        const obs::EnergyCause cause =
            attempts == 1 ? obs::EnergyCause::Tx : obs::EnergyCause::Retry;
        st.fault(&FaultCounters::messages_sent).inc();
        tx = network.send(node_of(c), 0, payload, net::TxClass::Data, cause);
        tx_joules += tx.tx_joules;
        result.radio_joules += tx.tx_joules;
        ledger.debit_radio(c, obs::EnergyStage::Registration, -1, cause, tx.tx_joules);
        if (!tx.delivered) st.fault(&FaultCounters::messages_lost).inc();
      } while (!tx.delivered && attempts <= config.protocol.registration_retries &&
               !network.node_down(node_of(c)));
      if (!tx.delivered) st.fault(&FaultCounters::registrations_lost).inc();
      result.cpu_joules += reg.cpu_joules;
      ledger.debit_cpu(c, obs::EnergyStage::Registration, -1, obs::EnergyCause::Features,
                       reg.cpu_joules);
      add_cpu_gauge(c, reg.cpu_joules);
      drain(c, reg.cpu_joules + tx_joules);
    }
  }

  /// Another round fits before the end of the test segment.
  [[nodiscard]] bool round_fits() const {
    return sim.frame_index() + stride * config.assessment_gt_frames < config.end_frame;
  }

  /// Assessment window (§IV-B): every camera runs every affordable algorithm
  /// on the next GT frames. (Bookkeeping cost only; the paper's Fig. 5
  /// energy covers the operation phase — see EXPERIMENTS.md.) Each sample
  /// travels as a control message: a lost one leaves a hole and the
  /// controller estimates from the partial assessment data it actually
  /// received.
  void assess() {
    assessment.clear();
    in_flight.clear();
    // Per-round message tallies for fault-storm detection, plus the ledger
    // round context and energy bases, so the flight recorder and the anomaly
    // detector see this round's deltas at close.
    round_base.sent = st.fault(&FaultCounters::messages_sent).value();
    round_base.lost = st.fault(&FaultCounters::messages_lost).value();
    ledger.set_round(rounds_completed);
    round_base.cpu = ledger.cpu_total();
    round_base.radio = ledger.radio_total();
    if constexpr (obs::kEnabled) {
      round_base.camera.resize(static_cast<std::size_t>(num_cameras));
      for (int c = 0; c < num_cameras; ++c) {
        round_base.camera[static_cast<std::size_t>(c)] = ledger.camera_joules(c);
      }
    }
    // Round deadline: cameras owing assessment metadata must land it before
    // `deadline_gt_frames` ground-truth frames elapse.
    if (watchdog.enabled()) {
      std::set<int> expected;
      for (int c : eligible_set()) {
        if (controller.best_entry(c) != nullptr) expected.insert(c);
      }
      watchdog.arm(sim.frame_index(), stride, expected);
    }
    for (int f = 0; f < config.assessment_gt_frames; ++f) {
      assess_frame(f);
      if (sim.frame_index() >= config.end_frame) break;
    }
    // Collect the window's remaining uploads before selecting (everything
    // sent by frame t is delivered well before t + stride).
    pump_network(sim.frame_index());
  }

  /// Close the round at the watchdog: cameras whose assessment metadata
  /// never landed inside the deadline take a strike; enough strikes fail
  /// them out of the selection and the round closes with the surviving
  /// coverage. Then the degradation ladder takes its per-round step.
  void close_assessment() {
    missed_this_round.clear();
    for (const runtime::RoundWatchdog::Miss& miss : watchdog.close()) {
      missed_this_round.insert(miss.camera);
      st.fault(&FaultCounters::deadline_misses).inc();
      trace_instant("deadline.miss", "runtime", sim.frame_index(),
                    {{"camera", static_cast<double>(miss.camera)},
                     {"strikes", static_cast<double>(miss.strikes)},
                     {"failed", miss.failed ? 1.0 : 0.0}});
    }
    rung_descended = false;
    if (!ladder.enabled()) return;
    // Fault storm: a large fraction of this round's offered messages were
    // lost (both tallies are deterministic, so the flag is too).
    const auto& policy = config.runtime.degradation;
    const long round_sent = static_cast<long>(st.fault(&FaultCounters::messages_sent).value()) -
                            static_cast<long>(round_base.sent);
    const long round_lost = static_cast<long>(st.fault(&FaultCounters::messages_lost).value()) -
                            static_cast<long>(round_base.lost);
    const bool storm = round_sent >= policy.storm_min_messages &&
                       static_cast<double>(round_lost) >=
                           policy.storm_loss_ratio * static_cast<double>(round_sent);
    for (int c = 0; c < num_cameras; ++c) {
      const energy::Battery& battery = batteries[static_cast<std::size_t>(c)];
      const double fraction =
          battery.capacity() > 0.0 ? battery.residual() / battery.capacity() : 0.0;
      // The advisory is last round's burn-rate finding for this camera
      // (observed at the previous round close, restored on resume).
      for (const runtime::DegradationLadder::Transition& t :
           ladder.on_round(c, fraction, missed_this_round.count(c) > 0, storm,
                           anomaly_detector.flagged(c))) {
        if (t.to > t.from) {
          st.fault(&FaultCounters::degradation_stepdowns).inc();
          rung_descended = true;
        } else {
          st.fault(&FaultCounters::degradation_stepups).inc();
        }
        trace_instant("degradation.step", "runtime", sim.frame_index(),
                      {{"camera", static_cast<double>(c)},
                       {"from", static_cast<double>(t.from)},
                       {"to", static_cast<double>(t.to)},
                       {"trigger", static_cast<double>(t.trigger)}});
      }
    }
  }

  /// §IV-B.3/4 + §IV-C: select cameras and algorithms (with downgrade) over
  /// the eligible cameras, then push the assignments over the network
  /// (sequence-numbered; acked on delivery, retried with backoff while
  /// unacked).
  void select_and_push() {
    selection = select(sim.frame_index());
    adopt(selection, false);
  }

  /// Frames remain in the test segment.
  [[nodiscard]] bool frames_left() const { return sim.frame_index() < config.end_frame; }

  /// One operation-window frame: every assigned camera detects with its
  /// algorithm and uploads metadata plus JPEG crops; every awake camera sends
  /// a heartbeat. Protocol upkeep (deliveries, retries, liveness) runs first.
  void operate_frame() {
    pump_network(sim.frame_index() + 0.5);
    retry_assignments();
    check_liveness();
    const video::MultiViewFrame frame = next_frame_timed();
    const std::set<int> present = count_present(frame);

    // Gate each camera exactly as the serial loop would (a camera only
    // drains its own battery, so camera c's gate never depends on c' < c),
    // fan the frame processing out, then replay transmissions and energy
    // accounting sequentially in camera order. A processing camera gets one
    // slot and runs its controller assignment, or the camera-local fallback
    // entry once the ladder has pushed it to CheapAlgorithm or deeper.
    std::vector<char> awake(static_cast<std::size_t>(num_cameras), 0);  // Sends a heartbeat.
    std::vector<DetectJob> jobs;
    for (int c = 0; c < num_cameras; ++c) {
      const CameraNode& cam = cameras[static_cast<std::size_t>(c)];
      if (batteries[static_cast<std::size_t>(c)].empty()) {
        // Exhausted: the node is dark — no detection, no transmission.
        if (cam.has_assignment && cam.active) {
          st.fault(&FaultCounters::frames_skipped_exhausted).inc();
        }
        continue;
      }
      if (network.node_down(node_of(c))) continue;
      const runtime::DegradationRung rung = ladder.rung(c);
      if (rung == runtime::DegradationRung::Parked) {
        // Deepest rung: radio and detector both off until recovery.
        st.fault(&FaultCounters::frames_parked).inc();
        continue;
      }
      awake[static_cast<std::size_t>(c)] = 1;
      // SkipFrames halves the duty cycle: odd GT slots become heartbeats.
      const bool skip_slot =
          rung == runtime::DegradationRung::SkipFrames && ((frame.index / stride) & 1) != 0;
      if (!cam.has_assignment || !cam.active || rung >= runtime::DegradationRung::MetadataOnly ||
          skip_slot) {
        continue;
      }
      const AlgorithmProfile* cheap = fallback[static_cast<std::size_t>(c)];
      const bool degraded = rung >= runtime::DegradationRung::CheapAlgorithm && cheap != nullptr;
      jobs.push_back({jobs.size(), c, &detector_of(degraded ? cheap->id : cam.algorithm),
                      degraded ? cheap->threshold : cam.threshold});
    }
    const std::vector<std::vector<FrameOutcome>> outcomes =
        detect_frame(frame, sim.cameras(), jobs.size(), jobs, gate_opts,
                     static_cast<std::uint64_t>(rounds_completed), models, st, result);
    trace_instant("detect.batch", "detect", frame.index,
                  {{"cameras", static_cast<double>(jobs.size())},
                   {"assessment", 0.0},
                   {"windows_evaluated", static_cast<double>(result.windows_evaluated)},
                   {"windows_pruned", static_cast<double>(result.windows_pruned)}});

    std::set<int> detected;
    const obs::ScopedSpan span("stage.net", "stage", st.net_s, frame.index);
    std::size_t next_job = 0;  // The jobs are in camera order.
    for (int c = 0; c < num_cameras; ++c) {
      if (!awake[static_cast<std::size_t>(c)]) continue;
      send_heartbeat(c, obs::EnergyStage::Operation);
      if (next_job == jobs.size() || jobs[next_job].camera != c) continue;
      const detect::AlgorithmId alg = jobs[next_job].detector->id();
      const FrameOutcome& outcome = outcomes[next_job++].front();

      const net::DetectionMetadataMsg msg = make_metadata_msg(c, frame.index, alg, outcome);
      st.fault(&FaultCounters::messages_sent).inc();
      const auto tx = network.send(node_of(c), 0, encode(msg));
      // JPEG crops of the detected objects ride along (charged per byte).
      const double crop_joules =
          config.models.radio_model.joules_per_byte * static_cast<double>(outcome.comm_bytes);

      const double tx_crop = tx.tx_joules + crop_joules;
      result.cpu_joules += outcome.cpu_joules;
      result.radio_joules += tx_crop;
      ledger.debit_cpu(c, obs::EnergyStage::Operation, static_cast<int>(alg),
                       obs::EnergyCause::Detect, outcome.cpu_joules);
      ledger.debit_radio(c, obs::EnergyStage::Operation, static_cast<int>(alg),
                         obs::EnergyCause::Tx, tx_crop);
      add_cpu_gauge(c, outcome.cpu_joules);
      const double debit = outcome.cpu_joules + tx.tx_joules + crop_joules;
      drain(c, debit);
      trace_instant("battery.debit", "energy", frame.index,
                    {{"camera", static_cast<double>(c)},
                     {"joules", debit},
                     {"residual", batteries[static_cast<std::size_t>(c)].residual()}});

      if (tx.delivered) {
        const MatchResult match =
            match_detections(outcome.detections, frame.truth[static_cast<std::size_t>(c)]);
        for (int id : match.matched_person_ids) detected.insert(id);
      } else {
        // The controller never sees these detections: they don't count.
        st.fault(&FaultCounters::messages_lost).inc();
      }
    }
    count_detected(detected, present);
    sim.skip(stride - 1);
  }

  /// Round close: fold the round into the anomaly detector (whose burn-rate
  /// flags advise next round's ladder pass), record it in the flight
  /// recorder, then snapshot every K completed rounds. False when a
  /// simulated crash (stop_after_rounds) stops the run here.
  bool close_round() {
    observe_round();
    ++rounds_completed;
    // Nothing runs between here and the top of the next round, so a resumed
    // run re-enters the loop at exactly this program point.
    if (config.runtime.checkpoint_every_rounds > 0 &&
        rounds_completed % config.runtime.checkpoint_every_rounds == 0 &&
        !config.runtime.checkpoint_path.empty()) {
      capture_checkpoint().save(config.runtime.checkpoint_path);
      trace_instant("runtime.checkpoint", "runtime", sim.frame_index(),
                    {{"rounds_completed", static_cast<double>(rounds_completed)}});
      if (flight_enabled) {
        (void)flight.dump(config.runtime.flight_recorder_path, "checkpoint");
      }
    }
    if (config.runtime.stop_after_rounds > 0 &&
        rounds_completed >= config.runtime.stop_after_rounds) {
      if (flight_enabled) {
        (void)flight.dump(config.runtime.flight_recorder_path, "crash");
      }
      stopped_early = true;
    }
    return !stopped_early;
  }

  SimulationResult finish() {
    if (stopped_early) {
      trace_instant("runtime.stop", "runtime", sim.frame_index(),
                    {{"rounds_completed", static_cast<double>(rounds_completed)}});
    }
    // Assignments still awaiting an ack close the accounting identity:
    // pushed == acked + abandoned + dropped + replaced + pending_at_exit.
    st.fault(&FaultCounters::assignments_pending_at_exit)
        .inc(static_cast<std::uint64_t>(retry_queue.size()));
    // Receiver-side drops count as lost protocol messages, exactly like the
    // legacy `faults.messages_lost += rx_dropped` accounting. On a resumed run
    // the restored network state carries the full rx_dropped tally, so this
    // single end-of-run increment never double counts (checkpoint counters
    // exclude it by construction).
    st.fault(&FaultCounters::messages_lost).inc(network.rx_dropped());
    return RunScaffold::finish();
  }

 private:
  static int node_of(int camera) { return camera + 1; }

  /// Assessment sample in flight, keyed (camera, frame, algorithm): its
  /// window slot and full-fidelity detections. The wire carries the
  /// §V-A-sized payload for loss accounting; the simulator hands the lossless
  /// sample to the controller when (and only when) that payload is actually
  /// delivered.
  struct InFlightSample {
    int slot = 0;
    std::vector<reid::ViewDetection> detections;
  };

  /// One assessment-window frame, the `slot`-th of the window.
  void assess_frame(int slot) {
    pump_network(sim.frame_index() + 0.5);
    const video::MultiViewFrame frame = next_frame_timed();
    // Gating depends only on state fixed before any of this frame's
    // transmissions (node_down is clock-driven, batteries are not drained
    // here), so the job list is built up front. One slot per camera: a
    // camera's algorithms run sequentially over one shared
    // FramePrecompute, so the 4-algorithm sweep computes common substrates
    // (resizes, block grids, channels) once instead of once per algorithm.
    std::vector<DetectJob> jobs;
    std::vector<char> camera_up(static_cast<std::size_t>(num_cameras), 0);
    for (int c = 0; c < num_cameras; ++c) {
      if (batteries[static_cast<std::size_t>(c)].empty() || network.node_down(node_of(c))) {
        continue;
      }
      const runtime::DegradationRung rung = ladder.rung(c);
      if (rung == runtime::DegradationRung::Parked) continue;  // Radio dark.
      camera_up[static_cast<std::size_t>(c)] = 1;
      // MetadataOnly and deeper: heartbeats keep liveness, but the camera
      // spends nothing on assessment detection.
      if (rung >= runtime::DegradationRung::MetadataOnly) continue;
      for (detect::AlgorithmId alg : config.controller.algorithms) {
        const AlgorithmProfile* profile = controller.entry(c, alg);
        if (profile == nullptr) continue;  // Over budget or not ranked.
        jobs.push_back({static_cast<std::size_t>(c), c, &detector_of(alg), profile->threshold});
      }
    }
    std::vector<std::vector<FrameOutcome>> outcomes =
        detect_frame(frame, sim.cameras(), static_cast<std::size_t>(num_cameras), jobs, gate_opts,
                     static_cast<std::uint64_t>(rounds_completed), models, st, result);
    if constexpr (obs::kEnabled) {
      double assessed = 0.0;
      for (const auto& camera_outcomes : outcomes) {
        assessed += camera_outcomes.empty() ? 0.0 : 1.0;
      }
      trace_instant("detect.batch", "detect", frame.index,
                    {{"cameras", assessed},
                     {"assessment", 1.0},
                     {"windows_evaluated", static_cast<double>(result.windows_evaluated)},
                     {"windows_pruned", static_cast<double>(result.windows_pruned)}});
    }
    // Sequential transmission phase, in the exact serial-path order:
    // heartbeat(c), then one metadata message per assessed algorithm (the
    // jobs are in camera order, so `next_job` walks them alongside).
    const obs::ScopedSpan span("stage.net", "stage", st.net_s, frame.index);
    std::size_t next_job = 0;
    for (int c = 0; c < num_cameras; ++c) {
      if (!camera_up[static_cast<std::size_t>(c)]) continue;
      send_heartbeat(c, obs::EnergyStage::Assessment);
      for (FrameOutcome& outcome : outcomes[static_cast<std::size_t>(c)]) {
        const detect::AlgorithmId alg = jobs[next_job++].detector->id();
        const net::DetectionMetadataMsg msg = make_metadata_msg(c, frame.index, alg, outcome);
        st.fault(&FaultCounters::messages_sent).inc();
        const auto tx = network.send(node_of(c), 0, encode(msg), net::TxClass::Control);
        // Assessment metadata rides the control plane (zero joules today);
        // the debit keeps the sample traffic visible in the audit.
        ledger.debit_radio(c, obs::EnergyStage::Assessment, static_cast<int>(alg),
                           obs::EnergyCause::Tx, tx.tx_joules);
        if (tx.delivered) {
          in_flight[{c, frame.index, static_cast<int>(alg)}] = {
              slot, to_view_detections(c, std::move(outcome))};
        } else {
          st.fault(&FaultCounters::messages_lost).inc();
        }
      }
    }
    sim.skip(stride - 1);
  }

  /// Observability half of the round close: the anomaly detector and the
  /// flight recorder, whose black box is dumped if the round tripped a
  /// watchdog strike or a ladder descent. Compiled out under EECS_OBS_OFF.
  void observe_round() {
    if constexpr (obs::kEnabled) {
      obs::RoundObservation ob;
      ob.round = rounds_completed;
      ob.messages_sent = st.fault(&FaultCounters::messages_sent).value() - round_base.sent;
      ob.messages_lost = st.fault(&FaultCounters::messages_lost).value() - round_base.lost;
      ob.deadline_misses = static_cast<std::uint32_t>(missed_this_round.size());
      ob.camera_joules.resize(static_cast<std::size_t>(num_cameras));
      for (int c = 0; c < num_cameras; ++c) {
        ob.camera_joules[static_cast<std::size_t>(c)] =
            ledger.camera_joules(c) - round_base.camera[static_cast<std::size_t>(c)];
      }
      static constexpr const char* kAnomalyEvent[obs::kNumAnomalyKinds] = {
          "anomaly.burn_rate", "anomaly.loss_rate", "anomaly.latency"};
      int round_anomalies = 0;
      for (const obs::Anomaly& a : anomaly_detector.observe(ob)) {
        ++round_anomalies;
        anomaly_counters[static_cast<std::size_t>(a.kind)]->inc();
        trace_instant(kAnomalyEvent[static_cast<int>(a.kind)], "anomaly", sim.frame_index(),
                      {{"camera", static_cast<double>(a.camera)},
                       {"round", static_cast<double>(a.round)},
                       {"value", a.value},
                       {"threshold", a.threshold}});
      }
      if (!flight_enabled) return;
      obs::FlightRound fr;
      fr.round = rounds_completed;
      fr.sim_time_s = network.now();
      fr.selected = selection.stats.cameras_active;
      fr.assignments = static_cast<std::int32_t>(selection.assignments.size());
      fr.pending = static_cast<std::int32_t>(retry_queue.size());
      fr.deadline_misses = static_cast<std::int32_t>(missed_this_round.size());
      for (int c = 0; c < num_cameras; ++c) fr.watchdog_strikes += watchdog.strikes(c);
      fr.messages_sent = ob.messages_sent;
      fr.messages_lost = ob.messages_lost;
      fr.cpu_joules = ledger.cpu_total() - round_base.cpu;
      fr.radio_joules = ledger.radio_total() - round_base.radio;
      fr.anomalies = round_anomalies;
      fr.rungs.reserve(static_cast<std::size_t>(num_cameras));
      fr.residual_j.reserve(static_cast<std::size_t>(num_cameras));
      for (int c = 0; c < num_cameras; ++c) {
        fr.rungs.push_back(static_cast<std::int8_t>(ladder.rung(c)));
        fr.residual_j.push_back(batteries[static_cast<std::size_t>(c)].residual());
      }
      flight.record(fr);
      if (!missed_this_round.empty()) {
        (void)flight.dump(config.runtime.flight_recorder_path, "watchdog_strike");
      } else if (rung_descended) {
        (void)flight.dump(config.runtime.flight_recorder_path, "ladder_descent");
      }
    }
  }

  void add_cpu_gauge(int camera, double joules) {
    if constexpr (obs::kEnabled) cpu_gauges[static_cast<std::size_t>(camera)]->add(joules);
  }

  void mark_heard(int camera, double time) {
    if (camera < 0 || camera >= num_cameras) return;
    if (liveness.mark_heard(camera, time)) {
      st.fault(&FaultCounters::cameras_recovered).inc();
      trace_instant("camera.recovered", "liveness", time,
                    {{"camera", static_cast<double>(camera)}});
    }
  }

  /// Selection eligibility: alive cameras minus those failed by the round
  /// watchdog and those degraded past useful detection. With the watchdog
  /// and ladder disabled (the defaults) this is exactly the legacy alive set.
  [[nodiscard]] std::set<int> eligible_set() const {
    std::set<int> eligible = liveness.alive_set();
    for (int camera : watchdog.failed_set()) eligible.erase(camera);
    if (ladder.enabled()) {
      for (int c = 0; c < num_cameras; ++c) {
        if (ladder.rung(c) >= runtime::DegradationRung::MetadataOnly) eligible.erase(c);
      }
    }
    return eligible;
  }

  void handle_controller_delivery(const net::Network::Delivery& d) {
    switch (net::peek_type(d.payload)) {
      case net::MessageType::FeatureUpload: {
        const auto msg = net::decode_feature_upload(d.payload);
        if (msg.camera_id < 0 || msg.camera_id >= num_cameras || msg.feature_dim <= 0 ||
            msg.features.empty()) {
          return;
        }
        const int rows = static_cast<int>(msg.features.size()) / msg.feature_dim;
        linalg::Matrix features(rows, msg.feature_dim);
        for (int r = 0; r < rows; ++r) {
          for (int col = 0; col < msg.feature_dim; ++col) {
            features(r, col) =
                msg.features[static_cast<std::size_t>(r * msg.feature_dim + col)];
          }
        }
        controller.register_camera(msg.camera_id, features, msg.energy_budget);
        mark_heard(msg.camera_id, d.time);
        return;
      }
      case net::MessageType::DetectionMetadata: {
        const auto msg = net::decode_detection_metadata(d.payload);
        if (msg.camera_id < 0 || msg.camera_id >= num_cameras) return;
        mark_heard(msg.camera_id, d.time);
        watchdog.report(msg.camera_id, d.time);
        const auto it =
            in_flight.find({msg.camera_id, msg.frame_index, static_cast<int>(msg.algorithm)});
        if (it != in_flight.end()) {
          auto& sample =
              assessment[msg.camera_id][static_cast<detect::AlgorithmId>(msg.algorithm)];
          sample.frames.resize(static_cast<std::size_t>(config.assessment_gt_frames));
          sample.frames[static_cast<std::size_t>(it->second.slot)] =
              std::move(it->second.detections);
          in_flight.erase(it);
        }
        return;
      }
      case net::MessageType::EnergyReport: {
        const auto msg = net::decode_energy_report(d.payload);
        mark_heard(msg.camera_id, d.time);
        return;
      }
      case net::MessageType::AssignmentAck: {
        const auto msg = net::decode_assignment_ack(d.payload);
        mark_heard(msg.camera_id, d.time);
        switch (retry_queue.ack(msg.camera_id, msg.sequence)) {
          case runtime::AssignmentRetryQueue::AckOutcome::Acked:
            st.fault(&FaultCounters::assignments_acked).inc();
            break;
          case runtime::AssignmentRetryQueue::AckOutcome::Late:
            // The assignment was already closed (acked, abandoned, or
            // dropped): count the straggler, apply nothing.
            st.fault(&FaultCounters::acks_late).inc();
            break;
          case runtime::AssignmentRetryQueue::AckOutcome::Stale:
            break;  // Ack for a superseded sequence; the newer push retries on.
        }
        return;
      }
      default:
        return;  // An assignment addressed to the controller is a stray.
    }
  }

  void handle_camera_delivery(int camera, const net::Network::Delivery& d) {
    if (camera < 0 || camera >= num_cameras) return;
    // Powered off: cannot receive.
    if (batteries[static_cast<std::size_t>(camera)].empty()) return;
    CameraNode& cam = cameras[static_cast<std::size_t>(camera)];
    if (net::peek_type(d.payload) != net::MessageType::AlgorithmAssignment) return;
    const auto msg = net::decode_algorithm_assignment(d.payload);
    if (msg.sequence > cam.applied_sequence || !cam.has_assignment) {
      cam.has_assignment = true;
      cam.applied_sequence = msg.sequence;
      cam.active = msg.active != 0;
      cam.algorithm = static_cast<detect::AlgorithmId>(msg.algorithm);
      cam.threshold = msg.threshold;
    }
    // Always ack — also for stale duplicates, so retransmissions stop. The
    // ack rides the link layer (no application radio energy); cause-tagged as
    // heartbeat traffic for the audit counters.
    net::AssignmentAckMsg ack;
    ack.camera_id = camera;
    ack.sequence = msg.sequence;
    st.fault(&FaultCounters::messages_sent).inc();
    const auto tx = network.send(node_of(camera), 0, encode(ack), net::TxClass::Control,
                                 obs::EnergyCause::Heartbeat);
    if (!tx.delivered) st.fault(&FaultCounters::messages_lost).inc();
  }

  /// Drain the network up to `until` and route deliveries. Malformed payloads
  /// are rejected by the decoders (DecodeError) without killing the loop.
  void pump_network(double until) {
    const obs::ScopedSpan span("stage.net", "stage", st.net_s, until);
    for (const auto& d : network.advance_to(until)) {
      try {
        if (d.to_node == 0) {
          handle_controller_delivery(d);
        } else {
          handle_camera_delivery(d.to_node - 1, d);
        }
      } catch (const ByteReader::DecodeError&) {
        st.fault(&FaultCounters::decode_errors).inc();
      }
    }
  }

  void send_heartbeat(int c, obs::EnergyStage stage) {
    net::EnergyReportMsg msg;
    msg.camera_id = c;
    msg.residual_joules = batteries[static_cast<std::size_t>(c)].residual();
    st.fault(&FaultCounters::messages_sent).inc();
    const auto tx = network.send(node_of(c), 0, encode(msg), net::TxClass::Control,
                                 obs::EnergyCause::Heartbeat);
    // Control-class: zero joules today, but the debit records the attempt in
    // the ledger so heartbeat cost shows up the day the model charges it
    // (x + 0.0 == x keeps the totals bit-equal to the result meanwhile).
    ledger.debit_radio(c, stage, -1, obs::EnergyCause::Heartbeat, tx.tx_joules);
    if (!tx.delivered) st.fault(&FaultCounters::messages_lost).inc();
  }

  /// Selection over the eligible cameras from this round's assessment data.
  [[nodiscard]] EecsController::Selection select(double sim_time) const {
    const std::set<int> alive = eligible_set();
    const obs::ScopedSpan span("stage.controller", "stage", st.controller_s, sim_time);
    return controller.select(assessment, config.mode, &alive);
  }

  /// Log a selection as a round (scheduled or mid-round), trace it, and push
  /// its assignments to the cameras.
  void adopt(const EecsController::Selection& chosen, bool midround) {
    result.rounds.push_back({sim.frame_index(), chosen.stats, midround});
    trace_instant("round.select", "round", sim.frame_index(),
                  {{"midround", midround ? 1.0 : 0.0},
                   {"cameras_active", static_cast<double>(chosen.stats.cameras_active)},
                   {"n_est", chosen.stats.n_est},
                   {"p_est", chosen.stats.p_est}});
    controller_active.clear();
    for (const auto& a : chosen.assignments) {
      if (a.active) controller_active.insert(a.camera);
    }
    for (const auto& a : chosen.assignments) {
      net::AlgorithmAssignmentMsg msg;
      msg.camera_id = a.camera;
      msg.sequence = ++next_sequence;
      msg.algorithm = static_cast<std::uint8_t>(a.algorithm);
      msg.threshold = a.threshold;
      msg.active = a.active ? 1 : 0;
      std::vector<std::uint8_t> payload = encode(msg);
      st.fault(&FaultCounters::messages_sent).inc();
      const auto tx = network.send(0, node_of(a.camera), payload);
      if (!tx.delivered) st.fault(&FaultCounters::messages_lost).inc();
      trace_instant("camera.assign", "round", network.now(),
                    {{"camera", static_cast<double>(a.camera)},
                     {"algorithm", static_cast<double>(msg.algorithm)},
                     {"active", a.active ? 1.0 : 0.0}});
      st.fault(&FaultCounters::assignments_pushed).inc();
      if (retry_queue.push(a.camera, std::move(payload), msg.sequence, network.now(), stride)) {
        st.fault(&FaultCounters::assignments_replaced).inc();
      }
    }
  }

  void retry_assignments() {
    const obs::ScopedSpan span("stage.net", "stage", st.net_s, network.now());
    retry_queue.process_due(
        network.now(), stride,
        [&](int camera, const runtime::AssignmentRetryQueue::Entry& entry) {
          st.fault(&FaultCounters::assignments_retried).inc();
          st.fault(&FaultCounters::messages_sent).inc();
          trace_instant("assignment.retry", "protocol", network.now(),
                        {{"camera", static_cast<double>(camera)},
                         {"attempt", static_cast<double>(entry.attempts + 1)}});
          const auto tx = network.send(0, node_of(camera), entry.payload, net::TxClass::Data,
                                       obs::EnergyCause::Retry);
          if (!tx.delivered) st.fault(&FaultCounters::messages_lost).inc();
        },
        [&](int camera, const runtime::AssignmentRetryQueue::Entry& entry) {
          // Retry budget exhausted: the camera keeps its last-known-good
          // assignment until the next recalibration round reaches it.
          st.fault(&FaultCounters::assignments_abandoned).inc();
          trace_instant("assignment.abandoned", "protocol", network.now(),
                        {{"camera", static_cast<double>(camera)},
                         {"attempts", static_cast<double>(entry.attempts)}});
        });
  }

  void check_liveness() {
    bool lost_active_camera = false;
    for (int c : liveness.sweep(network.now())) {
      st.fault(&FaultCounters::cameras_failed).inc();
      trace_instant("camera.dead", "liveness", network.now(),
                    {{"camera", static_cast<double>(c)},
                     {"last_heard", liveness.last_heard(c)}});
      // Stop retrying into the void.
      if (retry_queue.drop(c)) st.fault(&FaultCounters::assignments_dropped).inc();
      if (controller_active.count(c) > 0) lost_active_camera = true;
    }
    if (!lost_active_camera) return;
    // Mid-round recovery: re-select over the surviving cameras with this
    // round's assessment data and push fresh assignments.
    st.fault(&FaultCounters::midround_reselections).inc();
    adopt(select(network.now()), true);
  }

  const EecsSimulationConfig& config;
  const OfflineKnowledge& knowledge;
  net::Network network;
  obs::AnomalyDetector anomaly_detector;
  const bool flight_enabled;
  obs::FlightRecorder flight;
  std::array<obs::Counter*, obs::kNumAnomalyKinds> anomaly_counters{};
  std::vector<obs::Gauge*> cpu_gauges;  ///< Per camera; empty under EECS_OBS_OFF.
  std::vector<CameraNode> cameras;
  EecsController controller;

  // Controller-side protocol state (runtime layer).
  runtime::LivenessTracker liveness;
  runtime::AssignmentRetryQueue retry_queue;
  runtime::RoundWatchdog watchdog;
  runtime::DegradationLadder ladder;
  std::vector<const AlgorithmProfile*> fallback;  ///< Per camera; see the constructor.
  std::set<int> controller_active;
  std::uint32_t next_sequence = 0;
  long rounds_completed = 0;
  bool stopped_early = false;
  AssessmentData assessment;
  std::map<std::tuple<int, int, int>, InFlightSample> in_flight;

  // The current round, from assess() to close_round(): message and energy
  // bases, the watchdog's misses, whether the ladder descended, and the
  // scheduled selection.
  struct {
    std::uint64_t sent = 0;
    std::uint64_t lost = 0;
    double cpu = 0.0;
    double radio = 0.0;
    std::vector<double> camera;  ///< Per-camera ledger joules; obs builds only.
  } round_base;
  std::set<int> missed_this_round;
  bool rung_descended = false;
  EecsController::Selection selection;
};

}  // namespace

reid::ColorGate fit_color_gate(int dataset, std::uint64_t seed, int calibration_frames) {
  video::SceneSimulator sim(video::dataset_by_id(dataset), seed);
  std::vector<std::vector<float>> features;
  std::vector<int> labels;
  for (int f = 0; f < calibration_frames; ++f) {
    const video::MultiViewFrame frame = sim.next_frame();
    for (std::size_t cam = 0; cam < frame.views.size(); ++cam) {
      for (const auto& gt : frame.truth[cam]) {
        if (gt.visibility < 0.7 || gt.in_image_fraction < 0.8) continue;
        features.push_back(features::color_feature(frame.views[cam], gt.box));
        // Distinct label per (frame, person): appearance pairs must come from
        // simultaneous views, not the same person at different times.
        labels.push_back(f * 1000 + gt.person_id);
      }
    }
    sim.skip(sim.environment().ground_truth_stride - 1);
  }
  return reid::ColorGate(features, labels);
}

reid::ReIdentifier make_reidentifier(const video::SceneSimulator& sim,
                                     const reid::ReIdParams& params) {
  std::vector<geometry::Homography> image_to_ground;
  image_to_ground.reserve(sim.cameras().size());
  for (const auto& cam : sim.cameras()) {
    image_to_ground.push_back(cam.ground_homography().inverse());
  }
  return reid::ReIdentifier(std::move(image_to_ground), params);
}

SimulationResult run_eecs_simulation(const DetectorBank& detectors,
                                     const OfflineKnowledge& knowledge,
                                     const EecsSimulationConfig& config) {
  EECS_EXPECTS(config.start_frame < config.end_frame);
  // Every round must advance the scene, or the loop never ends.
  EECS_EXPECTS(config.gt_frame_step >= 1);
  EECS_EXPECTS(config.assessment_gt_frames >= 0 && config.operation_gt_frames >= 0);
  EECS_EXPECTS(config.assessment_gt_frames + config.operation_gt_frames > 0);
  ClosedLoop loop(detectors, knowledge, config);
  // §IV-B.1 registration; a resumed run restores it from the snapshot instead.
  if (!loop.restore()) loop.register_cameras();
  while (loop.round_fits()) {
    loop.assess();            // §IV-B: sample every affordable algorithm.
    loop.close_assessment();  // Round watchdog and degradation ladder.
    loop.select_and_push();   // §IV-B.3/4, §IV-C: select, downgrade, push.
    for (int f = 0; f < config.operation_gt_frames && loop.frames_left(); ++f) {
      loop.operate_frame();
    }
    if (!loop.close_round()) break;  // Checkpoint; a simulated crash stops here.
  }
  return loop.finish();
}

SimulationResult run_fixed_combo(const DetectorBank& detectors, const OfflineKnowledge& knowledge,
                                 const FixedCombo& combo, const FixedComboConfig& config) {
  EECS_EXPECTS(!combo.active.empty());
  RunScaffold run(detectors, config);
  // Per-entry profile resolution, hoisted out of the frame loop. One slot per
  // (camera, algorithm) entry — a camera listed twice keeps two independent
  // caches, matching the legacy per-entry work profile.
  std::vector<DetectJob> entries;
  entries.reserve(combo.active.size());
  for (const auto& [camera, algorithm] : combo.active) {
    EECS_EXPECTS(camera >= 0 && camera < run.num_cameras);
    const TrainingItemProfile* item = find_profile(knowledge, config.dataset, camera);
    EECS_EXPECTS(item != nullptr);
    const AlgorithmProfile* profile = item->find(algorithm);
    EECS_EXPECTS(profile != nullptr);
    entries.push_back({entries.size(), camera, &run.detector_of(algorithm), profile->threshold});
  }

  // Fixed combos have no rounds or protocol: every joule lands in the
  // Operation stage under {Detect, Tx}, still subject to the conservation
  // invariant (ledger totals == result totals, bit-exact).
  run.sim.skip(config.start_frame);
  while (run.sim.frame_index() < config.end_frame) {
    const video::MultiViewFrame frame = run.next_frame_timed();
    const std::set<int> present = run.count_present(frame);

    // Fan out the entries whose battery holds charge at the top of the frame;
    // the sequential replay below re-checks each battery at its legacy
    // sequence point, so an entry drained dark mid-frame (a camera listed
    // twice) discards its speculative outcome exactly like the serial path.
    // Fixed combos have no rounds; the recovery cadence ticks per GT frame.
    std::vector<DetectJob> jobs;
    jobs.reserve(entries.size());
    for (const DetectJob& entry : entries) {
      if (!run.batteries[static_cast<std::size_t>(entry.camera)].empty()) jobs.push_back(entry);
    }
    const std::vector<std::vector<FrameOutcome>> outcomes =
        detect_frame(frame, run.sim.cameras(), entries.size(), jobs, run.gate_opts,
                     static_cast<std::uint64_t>(run.result.gt_frames_processed), run.models,
                     run.st, run.result);

    std::set<int> detected;
    for (const DetectJob& entry : entries) {
      if (run.batteries[static_cast<std::size_t>(entry.camera)].empty()) {
        // Exhausted camera: contributes no detections and no radio energy.
        run.st.fault(&FaultCounters::frames_skipped_exhausted).inc();
        continue;
      }
      // Charged now means charged at the top of the frame: the entry ran.
      const FrameOutcome& outcome = outcomes[entry.slot].front();
      const int alg = static_cast<int>(entry.detector->id());
      const double radio_joules = config.models.radio_model.tx_joules(outcome.comm_bytes);
      run.result.cpu_joules += outcome.cpu_joules;
      run.result.radio_joules += radio_joules;
      run.ledger.debit_cpu(entry.camera, obs::EnergyStage::Operation, alg,
                           obs::EnergyCause::Detect, outcome.cpu_joules);
      run.ledger.debit_radio(entry.camera, obs::EnergyStage::Operation, alg,
                             obs::EnergyCause::Tx, radio_joules);
      run.drain(entry.camera, outcome.cpu_joules + radio_joules);

      const MatchResult match = match_detections(
          outcome.detections, frame.truth[static_cast<std::size_t>(entry.camera)]);
      for (int id : match.matched_person_ids) detected.insert(id);
    }
    run.count_detected(detected, present);
    run.sim.skip(run.stride - 1);
  }
  return run.finish();
}

}  // namespace eecs::core
