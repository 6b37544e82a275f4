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

/// Registry substrate of the SimulationResult façades. The loop's semantic
/// counters and stage gauges live in the current obs session; FaultCounters
/// and StageTimings are computed as registry deltas over the run at a single
/// assignment point (finalize), so multiple runs sharing one session (the
/// report/determinism tools) each see only their own activity. Functional
/// under EECS_OBS_OFF too — the façades keep their semantics either way.
struct SimTelemetry {
  explicit SimTelemetry(obs::MetricsRegistry& metrics)
      : messages_sent(metrics.counter("net.messages.sent")),
        messages_lost(metrics.counter("net.messages.lost")),
        assignments_retried(metrics.counter("protocol.assignments.retried")),
        assignments_abandoned(metrics.counter("protocol.assignments.abandoned")),
        registrations_lost(metrics.counter("protocol.registrations.lost")),
        decode_errors(metrics.counter("protocol.decode_errors")),
        cameras_failed(metrics.counter("liveness.cameras.failed")),
        cameras_recovered(metrics.counter("liveness.cameras.recovered")),
        midround_reselections(metrics.counter("liveness.midround_reselections")),
        frames_skipped(metrics.counter("battery.frames_skipped")),
        assignments_pushed(metrics.counter("protocol.assignments.pushed")),
        assignments_acked(metrics.counter("protocol.assignments.acked")),
        acks_late(metrics.counter("protocol.acks.late")),
        assignments_dropped(metrics.counter("protocol.assignments.dropped")),
        assignments_replaced(metrics.counter("protocol.assignments.replaced")),
        assignments_pending(metrics.counter("protocol.assignments.pending_at_exit")),
        deadline_misses(metrics.counter("runtime.deadline.misses")),
        degradation_stepdowns(metrics.counter("runtime.degradation.stepdowns")),
        degradation_stepups(metrics.counter("runtime.degradation.stepups")),
        frames_parked(metrics.counter("battery.frames_parked")),
        windows_evaluated(metrics.counter("detect.windows.evaluated")),
        windows_pruned(metrics.counter("detect.windows.pruned")),
        debit_joules(metrics.histogram("energy.debit_joules",
                                       {0.001, 0.01, 0.1, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0})),
        render_s(metrics.gauge("stage.render_s", obs::Determinism::WallClock)),
        detect_s(metrics.gauge("stage.detect_s", obs::Determinism::WallClock)),
        features_s(metrics.gauge("stage.features_s", obs::Determinism::WallClock)),
        controller_s(metrics.gauge("stage.controller_s", obs::Determinism::WallClock)),
        net_s(metrics.gauge("stage.net_s", obs::Determinism::WallClock)) {
    base_counters_ = {messages_sent.value(),       messages_lost.value(),
                      assignments_retried.value(), assignments_abandoned.value(),
                      registrations_lost.value(),  decode_errors.value(),
                      cameras_failed.value(),      cameras_recovered.value(),
                      midround_reselections.value(), frames_skipped.value(),
                      assignments_pushed.value(),  assignments_acked.value(),
                      acks_late.value(),           assignments_dropped.value(),
                      assignments_replaced.value(), assignments_pending.value(),
                      deadline_misses.value(),     degradation_stepdowns.value(),
                      degradation_stepups.value(), frames_parked.value()};
    base_gauges_ = {render_s.value(), detect_s.value(), features_s.value(),
                    controller_s.value(), net_s.value()};
  }

  /// Registry deltas over this run so far; used by finalize() and by the
  /// checkpoint capture (a snapshot stores the deltas at the checkpoint
  /// instant, and a resumed run adds them back after its own finalize()).
  [[nodiscard]] FaultCounters fault_deltas() const {
    const auto d = [](const obs::Counter& c, std::uint64_t base) {
      return static_cast<long>(c.value() - base);
    };
    FaultCounters f;
    f.messages_sent = d(messages_sent, base_counters_[0]);
    f.messages_lost = d(messages_lost, base_counters_[1]);
    f.assignments_retried = d(assignments_retried, base_counters_[2]);
    f.assignments_abandoned = d(assignments_abandoned, base_counters_[3]);
    f.registrations_lost = d(registrations_lost, base_counters_[4]);
    f.decode_errors = d(decode_errors, base_counters_[5]);
    f.cameras_failed = static_cast<int>(d(cameras_failed, base_counters_[6]));
    f.cameras_recovered = static_cast<int>(d(cameras_recovered, base_counters_[7]));
    f.midround_reselections = static_cast<int>(d(midround_reselections, base_counters_[8]));
    f.frames_skipped_exhausted = d(frames_skipped, base_counters_[9]);
    f.assignments_pushed = d(assignments_pushed, base_counters_[10]);
    f.assignments_acked = d(assignments_acked, base_counters_[11]);
    f.acks_late = d(acks_late, base_counters_[12]);
    f.assignments_dropped = d(assignments_dropped, base_counters_[13]);
    f.assignments_replaced = d(assignments_replaced, base_counters_[14]);
    f.assignments_pending_at_exit = d(assignments_pending, base_counters_[15]);
    f.deadline_misses = d(deadline_misses, base_counters_[16]);
    f.degradation_stepdowns = d(degradation_stepdowns, base_counters_[17]);
    f.degradation_stepups = d(degradation_stepups, base_counters_[18]);
    f.frames_parked = d(frames_parked, base_counters_[19]);
    return f;
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

  obs::Counter& messages_sent;
  obs::Counter& messages_lost;
  obs::Counter& assignments_retried;
  obs::Counter& assignments_abandoned;
  obs::Counter& registrations_lost;
  obs::Counter& decode_errors;
  obs::Counter& cameras_failed;
  obs::Counter& cameras_recovered;
  obs::Counter& midround_reselections;
  obs::Counter& frames_skipped;
  obs::Counter& assignments_pushed;
  obs::Counter& assignments_acked;
  obs::Counter& acks_late;
  obs::Counter& assignments_dropped;
  obs::Counter& assignments_replaced;
  obs::Counter& assignments_pending;
  obs::Counter& deadline_misses;
  obs::Counter& degradation_stepdowns;
  obs::Counter& degradation_stepups;
  obs::Counter& frames_parked;
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
  std::array<std::uint64_t, 20> base_counters_{};
  std::array<double, 5> base_gauges_{};
};

/// Fixed serialization order of the FaultCounters fields inside a snapshot's
/// "counters" section. Append-only: new fields go at the end so snapshots
/// from older builds (shorter vectors) still resume.
std::vector<std::int64_t> pack_fault_counters(const FaultCounters& f) {
  return {f.messages_sent,
          f.messages_lost,
          f.assignments_retried,
          f.assignments_abandoned,
          f.registrations_lost,
          f.decode_errors,
          f.cameras_failed,
          f.cameras_recovered,
          f.midround_reselections,
          f.frames_skipped_exhausted,
          f.assignments_pushed,
          f.assignments_acked,
          f.acks_late,
          f.assignments_dropped,
          f.assignments_replaced,
          f.assignments_pending_at_exit,
          f.deadline_misses,
          f.degradation_stepdowns,
          f.degradation_stepups,
          f.frames_parked};
}

FaultCounters unpack_fault_counters(const std::vector<std::int64_t>& v) {
  FaultCounters f;
  const auto get = [&](std::size_t i) -> long {
    return i < v.size() ? static_cast<long>(v[i]) : 0;
  };
  f.messages_sent = get(0);
  f.messages_lost = get(1);
  f.assignments_retried = get(2);
  f.assignments_abandoned = get(3);
  f.registrations_lost = get(4);
  f.decode_errors = get(5);
  f.cameras_failed = static_cast<int>(get(6));
  f.cameras_recovered = static_cast<int>(get(7));
  f.midround_reselections = static_cast<int>(get(8));
  f.frames_skipped_exhausted = get(9);
  f.assignments_pushed = get(10);
  f.assignments_acked = get(11);
  f.acks_late = get(12);
  f.assignments_dropped = get(13);
  f.assignments_replaced = get(14);
  f.assignments_pending_at_exit = get(15);
  f.deadline_misses = get(16);
  f.degradation_stepdowns = get(17);
  f.degradation_stepups = get(18);
  f.frames_parked = get(19);
  return f;
}

void add_fault_counters(FaultCounters& dst, const FaultCounters& src) {
  dst.messages_sent += src.messages_sent;
  dst.messages_lost += src.messages_lost;
  dst.assignments_retried += src.assignments_retried;
  dst.assignments_abandoned += src.assignments_abandoned;
  dst.registrations_lost += src.registrations_lost;
  dst.decode_errors += src.decode_errors;
  dst.cameras_failed += src.cameras_failed;
  dst.cameras_recovered += src.cameras_recovered;
  dst.midround_reselections += src.midround_reselections;
  dst.frames_skipped_exhausted += src.frames_skipped_exhausted;
  dst.assignments_pushed += src.assignments_pushed;
  dst.assignments_acked += src.assignments_acked;
  dst.acks_late += src.acks_late;
  dst.assignments_dropped += src.assignments_dropped;
  dst.assignments_replaced += src.assignments_replaced;
  dst.assignments_pending_at_exit += src.assignments_pending_at_exit;
  dst.deadline_misses += src.deadline_misses;
  dst.degradation_stepdowns += src.degradation_stepdowns;
  dst.degradation_stepups += src.degradation_stepups;
  dst.frames_parked += src.frames_parked;
}

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
  energy::Battery battery;
  bool has_assignment = false;
  bool active = false;
  detect::AlgorithmId algorithm = detect::AlgorithmId::Hog;
  double threshold = 0.0;
  std::uint32_t applied_sequence = 0;
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
  const common::ScopedThreads scoped_threads(config.threads);
  const simd::ScopedSimd scoped_simd(config.simd);
  // Dispatch mode is a build/run-environment fact, not a run result: WallClock
  // so determinism snapshots (which diff SIMD-on vs SIMD-off runs) skip it.
  obs::current()
      .metrics()
      .gauge("simd.dispatch.native", obs::Determinism::WallClock)
      .set(simd::enabled() && simd::kNativeBackend ? 1.0 : 0.0);
  const DetectorLookup detector_of(detectors);
  // Context gate: resolved once per run (config knob, EECS_CONTEXT_GATE env
  // override). The recovery cadence is driven by rounds_completed, which the
  // checkpoint restores, so gating resumes bit-exactly.
  const detect::ContextGateOptions gate_opts = detect::resolve_context_gate(config.context_gate);
  video::SceneSimulator sim(video::dataset_by_id(config.dataset), config.seed);
  const int stride = sim.environment().ground_truth_stride * config.gt_frame_step;
  const int num_cameras = static_cast<int>(sim.cameras().size());

  // Network: node 0 is the controller; nodes 1..M the cameras. The network
  // clock is driven with the video frame index (one frame = one clock unit).
  net::Network network(config.models.radio_model, config.seed ^ 0xabcd);
  network.set_fault_plan(config.faults);
  (void)network.add_node(config.downlink);
  std::vector<int> net_node(static_cast<std::size_t>(num_cameras));
  std::vector<CameraNode> cameras;
  for (int c = 0; c < num_cameras; ++c) {
    net_node[static_cast<std::size_t>(c)] = network.add_node(config.uplink);
    cameras.push_back({energy::Battery(config.battery_joules)});
  }
  // Full validation now that the node count is known (set_fault_plan could
  // only do the node-count-free checks).
  config.faults.validate(network.node_count());
  const auto node_camera = [&](int node) { return node - 1; };

  SimulationResult result;
  obs::Telemetry& telemetry = obs::current();
  SimTelemetry st(telemetry.metrics());

  // ---- Energy audit ledger: every joule debited below is attributed to a
  // (camera, round, stage, algorithm, cause) key, with running totals that
  // accumulate the exact same doubles in the same order as the result
  // accumulators and battery mirrors replaying every drain — so conservation
  // against the returned result is bit-exact (see obs/ledger.hpp).
  obs::EnergyLedger& ledger = telemetry.ledger();
  ledger.begin_run(std::vector<double>(static_cast<std::size_t>(num_cameras),
                                       config.battery_joules));

  // ---- Anomaly detection + flight recorder (obs/anomaly.hpp, obs/flight.hpp).
  obs::AnomalyDetector anomaly_detector(config.runtime.anomaly, num_cameras);
  const bool flight_enabled =
      obs::kEnabled && !config.runtime.flight_recorder_path.empty();
  obs::FlightRecorder flight(
      flight_enabled ? static_cast<std::size_t>(std::max(config.runtime.flight_recorder_rounds, 1))
                     : 0);
  obs::Counter* anomaly_counters[obs::kNumAnomalyKinds] = {};
  if constexpr (obs::kEnabled) {
    for (int k = 0; k < obs::kNumAnomalyKinds; ++k) {
      anomaly_counters[k] = &telemetry.metrics().counter(
          std::string("anomaly.") + obs::to_string(static_cast<obs::Anomaly::Kind>(k)));
    }
  }

  // Per-camera energy gauges: battery residual mirrored on every drain, CPU
  // joules accumulated at the serial replay points. Registered once here so
  // the per-frame paths never format metric names.
  std::vector<obs::Gauge*> cpu_gauges(static_cast<std::size_t>(num_cameras), nullptr);
  if constexpr (obs::kEnabled) {
    for (int c = 0; c < num_cameras; ++c) {
      const std::string cam = "cam" + std::to_string(c);
      cameras[static_cast<std::size_t>(c)].battery.bind_residual_gauge(
          &telemetry.metrics().gauge("energy.battery.residual." + cam));
      cpu_gauges[static_cast<std::size_t>(c)] =
          &telemetry.metrics().gauge("energy.cpu_joules." + cam);
    }
  }

  reid::ReIdentifier reidentifier = make_reidentifier(sim);
  {
    const obs::ScopedSpan span("stage.features", "stage", st.features_s);
    reidentifier.set_color_gate(fit_color_gate(config.dataset, config.seed + 17));
  }
  EecsController controller(knowledge, std::move(reidentifier), config.controller);

  // ---- Controller-side protocol state (runtime layer).
  runtime::LivenessTracker liveness(num_cameras,
                                    config.protocol.liveness_timeout_gt_frames * stride);
  runtime::RetryPolicy retry_policy;
  retry_policy.max_retries = config.protocol.max_assignment_retries;
  retry_policy.jitter_fraction = config.protocol.retry_jitter_fraction;
  retry_policy.jitter_seed = config.seed;
  runtime::AssignmentRetryQueue retry_queue(retry_policy);
  runtime::RoundWatchdog watchdog({config.runtime.round_deadline_gt_frames,
                                   config.runtime.deadline_strikes_to_fail},
                                  num_cameras);
  runtime::DegradationLadder ladder(config.runtime.degradation, num_cameras);
  std::set<int> controller_active;
  std::uint32_t next_sequence = 0;
  long rounds_completed = 0;
  AssessmentData assessment;

  // Camera-flash fallback table for the ladder's CheapAlgorithm/SkipFrames
  // rungs: the cheapest allowed in-budget profile of the camera's own feed
  // (the profile data ships with the camera firmware, so no wire traffic is
  // needed to degrade). Computed only when the ladder can engage.
  struct FallbackEntry {
    bool valid = false;
    detect::AlgorithmId algorithm = detect::AlgorithmId::Hog;
    double threshold = 0.0;
  };
  std::vector<FallbackEntry> fallback(static_cast<std::size_t>(num_cameras));
  if (ladder.enabled()) {
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
      if (cheapest != nullptr) {
        fallback[static_cast<std::size_t>(c)] = {true, cheapest->id, cheapest->threshold};
      }
    }
  }
  // Assessment samples in flight: (camera, frame, algorithm) -> (window slot,
  // full-fidelity detections). The wire carries the §V-A-sized payload for
  // loss accounting; the simulator hands the lossless sample to the
  // controller when (and only when) that payload is actually delivered.
  struct InFlightSample {
    int slot = 0;
    std::vector<reid::ViewDetection> detections;
  };
  std::map<std::tuple<int, int, int>, InFlightSample> in_flight;

  const auto mark_heard = [&](int camera, double time) {
    if (camera < 0 || camera >= num_cameras) return;
    if (liveness.mark_heard(camera, time)) {
      st.cameras_recovered.inc();
      trace_instant("camera.recovered", "liveness", time,
                    {{"camera", static_cast<double>(camera)}});
    }
  };

  // Selection eligibility: alive cameras minus those failed by the round
  // watchdog and those degraded past useful detection. With the watchdog and
  // ladder disabled (the defaults) this is exactly the legacy alive set.
  const auto eligible_set = [&]() {
    std::set<int> eligible = liveness.alive_set();
    for (int camera : watchdog.failed_set()) eligible.erase(camera);
    if (ladder.enabled()) {
      for (int c = 0; c < num_cameras; ++c) {
        if (ladder.rung(c) >= runtime::DegradationRung::MetadataOnly) eligible.erase(c);
      }
    }
    return eligible;
  };

  const auto handle_controller_delivery = [&](const net::Network::Delivery& d) {
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
        const auto it = in_flight.find(
            {msg.camera_id, msg.frame_index, static_cast<int>(msg.algorithm)});
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
            st.assignments_acked.inc();
            break;
          case runtime::AssignmentRetryQueue::AckOutcome::Late:
            // The assignment was already closed (acked, abandoned, or
            // dropped): count the straggler, apply nothing.
            st.acks_late.inc();
            break;
          case runtime::AssignmentRetryQueue::AckOutcome::Stale:
            break;  // Ack for a superseded sequence; the newer push retries on.
        }
        return;
      }
      default:
        return;  // An assignment addressed to the controller is a stray.
    }
  };

  const auto handle_camera_delivery = [&](int camera, const net::Network::Delivery& d) {
    if (camera < 0 || camera >= num_cameras) return;
    CameraNode& cam = cameras[static_cast<std::size_t>(camera)];
    if (cam.battery.empty()) return;  // Powered off: cannot receive.
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
    st.messages_sent.inc();
    const auto tx = network.send(net_node[static_cast<std::size_t>(camera)], 0, encode(ack),
                                 net::TxClass::Control, obs::EnergyCause::Heartbeat);
    if (!tx.delivered) st.messages_lost.inc();
  };

  // Drain the network up to `until` and route deliveries. Malformed payloads
  // are rejected by the decoders (DecodeError) without killing the loop.
  const auto pump_network = [&](double until) {
    const obs::ScopedSpan span("stage.net", "stage", st.net_s, until);
    for (const auto& d : network.advance_to(until)) {
      try {
        if (d.to_node == 0) {
          handle_controller_delivery(d);
        } else {
          handle_camera_delivery(node_camera(d.to_node), d);
        }
      } catch (const ByteReader::DecodeError&) {
        st.decode_errors.inc();
      }
    }
  };

  const auto send_heartbeat = [&](int c, obs::EnergyStage stage) {
    net::EnergyReportMsg msg;
    msg.camera_id = c;
    msg.residual_joules = cameras[static_cast<std::size_t>(c)].battery.residual();
    st.messages_sent.inc();
    const auto tx = network.send(net_node[static_cast<std::size_t>(c)], 0, encode(msg),
                                 net::TxClass::Control, obs::EnergyCause::Heartbeat);
    // Control-class: zero joules today, but the debit records the attempt in
    // the ledger so heartbeat cost shows up the day the model charges it
    // (x + 0.0 == x keeps the totals bit-equal to the result meanwhile).
    ledger.debit_radio(c, stage, -1, obs::EnergyCause::Heartbeat, tx.tx_joules);
    if (!tx.delivered) st.messages_lost.inc();
  };

  const auto push_assignments = [&](const std::vector<CameraAssignment>& assignments) {
    for (const auto& a : assignments) {
      net::AlgorithmAssignmentMsg msg;
      msg.camera_id = a.camera;
      msg.sequence = ++next_sequence;
      msg.algorithm = static_cast<std::uint8_t>(a.algorithm);
      msg.threshold = a.threshold;
      msg.active = a.active ? 1 : 0;
      std::vector<std::uint8_t> payload = encode(msg);
      st.messages_sent.inc();
      const auto tx = network.send(0, net_node[static_cast<std::size_t>(a.camera)], payload);
      if (!tx.delivered) st.messages_lost.inc();
      trace_instant("camera.assign", "round", network.now(),
                    {{"camera", static_cast<double>(a.camera)},
                     {"algorithm", static_cast<double>(msg.algorithm)},
                     {"active", a.active ? 1.0 : 0.0}});
      st.assignments_pushed.inc();
      if (retry_queue.push(a.camera, std::move(payload), msg.sequence, network.now(), stride)) {
        st.assignments_replaced.inc();
      }
    }
  };

  const auto apply_selection = [&](const EecsController::Selection& selection) {
    controller_active.clear();
    for (const auto& a : selection.assignments) {
      if (a.active) controller_active.insert(a.camera);
    }
    push_assignments(selection.assignments);
  };

  const auto retry_assignments = [&]() {
    const obs::ScopedSpan span("stage.net", "stage", st.net_s, network.now());
    retry_queue.process_due(
        network.now(), stride,
        [&](int camera, const runtime::AssignmentRetryQueue::Entry& entry) {
          st.assignments_retried.inc();
          st.messages_sent.inc();
          trace_instant("assignment.retry", "protocol", network.now(),
                        {{"camera", static_cast<double>(camera)},
                         {"attempt", static_cast<double>(entry.attempts + 1)}});
          const auto tx = network.send(0, net_node[static_cast<std::size_t>(camera)],
                                       entry.payload, net::TxClass::Data,
                                       obs::EnergyCause::Retry);
          if (!tx.delivered) st.messages_lost.inc();
        },
        [&](int camera, const runtime::AssignmentRetryQueue::Entry& entry) {
          // Retry budget exhausted: the camera keeps its last-known-good
          // assignment until the next recalibration round reaches it.
          st.assignments_abandoned.inc();
          trace_instant("assignment.abandoned", "protocol", network.now(),
                        {{"camera", static_cast<double>(camera)},
                         {"attempts", static_cast<double>(entry.attempts)}});
        });
  };

  const auto check_liveness = [&]() {
    bool lost_active_camera = false;
    for (int c : liveness.sweep(network.now())) {
      st.cameras_failed.inc();
      trace_instant("camera.dead", "liveness", network.now(),
                    {{"camera", static_cast<double>(c)},
                     {"last_heard", liveness.last_heard(c)}});
      if (retry_queue.drop(c)) st.assignments_dropped.inc();  // Stop retrying into the void.
      if (controller_active.count(c) > 0) lost_active_camera = true;
    }
    if (lost_active_camera) {
      // Mid-round recovery: re-select over the surviving cameras with this
      // round's assessment data and push fresh assignments.
      const std::set<int> alive = eligible_set();
      const EecsController::Selection selection = [&] {
        const obs::ScopedSpan span("stage.controller", "stage", st.controller_s, network.now());
        return controller.select(assessment, config.mode, &alive);
      }();
      result.rounds.push_back({sim.frame_index(), selection.stats, true});
      st.midround_reselections.inc();
      trace_instant("round.select", "round", sim.frame_index(),
                    {{"midround", 1.0},
                     {"cameras_active", static_cast<double>(selection.stats.cameras_active)},
                     {"n_est", selection.stats.n_est},
                     {"p_est", selection.stats.p_est}});
      apply_selection(selection);
    }
  };

  const auto camera_down = [&](int c) {
    return cameras[static_cast<std::size_t>(c)].battery.empty() ||
           network.node_down(net_node[static_cast<std::size_t>(c)]);
  };

  const auto next_frame_timed = [&]() {
    const obs::ScopedSpan span("stage.render", "stage", st.render_s, sim.frame_index());
    return sim.next_frame();
  };

  // ---- Checkpoint capture: a full snapshot of the loop state, taken at a
  // round boundary (assessment data and in-flight samples are empty there).
  const auto config_guard = [&]() {
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
  };

  const auto capture_checkpoint = [&]() {
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
    ck.fault_counters = pack_fault_counters(st.fault_deltas());
    ck.cameras.reserve(cameras.size());
    for (int c = 0; c < num_cameras; ++c) {
      const CameraNode& cam = cameras[static_cast<std::size_t>(c)];
      runtime::SimulationCheckpoint::CameraState state;
      state.battery_residual = cam.battery.residual();
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
  };

  FaultCounters resumed_faults{};
  bool resumed = false;
  if (!config.runtime.resume_from.empty()) {
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
      cam.battery.restore_residual(state.battery_residual);
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
    controller_active =
        std::set<int>(ck.controller_active.begin(), ck.controller_active.end());
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
    resumed_faults = unpack_fault_counters(ck.fault_counters);
    rounds_completed = ck.rounds_completed;
    // Restore the audit ledger and anomaly windows captured with the
    // snapshot, so the resumed run's conservation check covers the whole run
    // and the detector replays identical findings. Guarded: a snapshot from
    // a pre-ledger build simply restarts both empty.
    if (ck.ledger.mirror_residual.size() == static_cast<std::size_t>(num_cameras)) {
      ledger.import_state(ck.ledger);
      anomaly_detector.import_state(ck.anomaly);
    }
    resumed = true;
    trace_instant("runtime.resume", "runtime", sim.frame_index(),
                  {{"rounds_completed", static_cast<double>(rounds_completed)}});
  }

  // §IV-B.1: feature upload + registration. Uses early test-segment frames.
  // The upload is retried immediately on loss (the camera sees the missing
  // link-layer ack); a camera whose upload never arrives stays unregistered
  // and is simply never selected. A resumed run restores the registration
  // state from the snapshot instead of re-running the upload phase.
  if (!resumed) {
  sim.skip(config.start_frame);
  {
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
        st.messages_sent.inc();
        tx = network.send(net_node[static_cast<std::size_t>(c)], 0, payload,
                          net::TxClass::Data, cause);
        tx_joules += tx.tx_joules;
        result.radio_joules += tx.tx_joules;
        ledger.debit_radio(c, obs::EnergyStage::Registration, -1, cause, tx.tx_joules);
        if (!tx.delivered) st.messages_lost.inc();
      } while (!tx.delivered && attempts <= config.protocol.registration_retries &&
               !network.node_down(net_node[static_cast<std::size_t>(c)]));
      if (!tx.delivered) st.registrations_lost.inc();
      result.cpu_joules += reg.cpu_joules;
      ledger.debit_cpu(c, obs::EnergyStage::Registration, -1, obs::EnergyCause::Features,
                       reg.cpu_joules);
      if (cpu_gauges[static_cast<std::size_t>(c)] != nullptr) {
        cpu_gauges[static_cast<std::size_t>(c)]->add(reg.cpu_joules);
      }
      const double reg_debit = reg.cpu_joules + tx_joules;
      cameras[static_cast<std::size_t>(c)].battery.drain(reg_debit);
      ledger.drain(c, reg_debit);
      st.debit_joules.observe(reg_debit);
    }
  }
  }

  // Recalibration rounds.
  bool stopped_early = false;
  while (sim.frame_index() + stride * config.assessment_gt_frames < config.end_frame) {
    // --- Assessment window: every camera runs every affordable algorithm on
    // the next GT frames. (Bookkeeping cost only; the paper's Fig. 5 energy
    // covers the operation phase — see EXPERIMENTS.md.) Each sample travels
    // as a control message: a lost one leaves a hole and the controller
    // estimates from the partial assessment data it actually received.
    assessment.clear();
    in_flight.clear();
    // Per-round message tallies for fault-storm detection, and the round
    // deadline: cameras owing assessment metadata must land it before
    // `deadline_gt_frames` ground-truth frames elapse.
    const std::uint64_t round_sent_base = st.messages_sent.value();
    const std::uint64_t round_lost_base = st.messages_lost.value();
    // Ledger round context plus energy bases, so the flight recorder and the
    // anomaly detector see this round's deltas at close.
    ledger.set_round(rounds_completed);
    const double round_cpu_base = ledger.cpu_total();
    const double round_radio_base = ledger.radio_total();
    std::vector<double> round_camera_base;
    if constexpr (obs::kEnabled) {
      round_camera_base.resize(static_cast<std::size_t>(num_cameras));
      for (int c = 0; c < num_cameras; ++c) {
        round_camera_base[static_cast<std::size_t>(c)] = ledger.camera_joules(c);
      }
    }
    if (watchdog.enabled()) {
      std::set<int> expected;
      for (int c : eligible_set()) {
        if (controller.best_entry(c) != nullptr) expected.insert(c);
      }
      watchdog.arm(sim.frame_index(), stride, expected);
    }
    for (int f = 0; f < config.assessment_gt_frames; ++f) {
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
        if (camera_down(c)) continue;
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
          detect_frame(frame, sim.cameras(), static_cast<std::size_t>(num_cameras), jobs,
                       gate_opts, static_cast<std::uint64_t>(rounds_completed), config.models,
                       st, result);
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
          st.messages_sent.inc();
          const auto tx = network.send(net_node[static_cast<std::size_t>(c)], 0, encode(msg),
                                       net::TxClass::Control);
          // Assessment metadata rides the control plane (zero joules today);
          // the debit keeps the sample traffic visible in the audit.
          ledger.debit_radio(c, obs::EnergyStage::Assessment, static_cast<int>(alg),
                             obs::EnergyCause::Tx, tx.tx_joules);
          if (tx.delivered) {
            in_flight[{c, frame.index, static_cast<int>(alg)}] = {
                f, to_view_detections(c, std::move(outcome))};
          } else {
            st.messages_lost.inc();
          }
        }
      }
      sim.skip(stride - 1);
      if (sim.frame_index() >= config.end_frame) break;
    }
    // Collect the window's remaining uploads before selecting (everything
    // sent by frame t is delivered well before t + stride).
    pump_network(sim.frame_index());

    // Close the round at the watchdog: cameras whose assessment metadata
    // never landed inside the deadline take a strike; enough strikes fail
    // them out of the selection below and the round closes with the
    // surviving coverage.
    std::set<int> missed_this_round;
    for (const runtime::RoundWatchdog::Miss& miss : watchdog.close()) {
      missed_this_round.insert(miss.camera);
      st.deadline_misses.inc();
      trace_instant("deadline.miss", "runtime", sim.frame_index(),
                    {{"camera", static_cast<double>(miss.camera)},
                     {"strikes", static_cast<double>(miss.strikes)},
                     {"failed", miss.failed ? 1.0 : 0.0}});
    }
    bool rung_descended = false;
    if (ladder.enabled()) {
      // Fault storm: a large fraction of this round's offered messages were
      // lost (both tallies are deterministic, so the flag is too).
      const auto& policy = config.runtime.degradation;
      const long round_sent =
          static_cast<long>(st.messages_sent.value()) - static_cast<long>(round_sent_base);
      const long round_lost =
          static_cast<long>(st.messages_lost.value()) - static_cast<long>(round_lost_base);
      const bool storm = round_sent >= policy.storm_min_messages &&
                         static_cast<double>(round_lost) >=
                             policy.storm_loss_ratio * static_cast<double>(round_sent);
      for (int c = 0; c < num_cameras; ++c) {
        const energy::Battery& battery = cameras[static_cast<std::size_t>(c)].battery;
        const double fraction =
            battery.capacity() > 0.0 ? battery.residual() / battery.capacity() : 0.0;
        // The advisory is last round's burn-rate finding for this camera
        // (observed at the previous round close, restored on resume).
        for (const runtime::DegradationLadder::Transition& t :
             ladder.on_round(c, fraction, missed_this_round.count(c) > 0, storm,
                             anomaly_detector.flagged(c))) {
          if (t.to > t.from) {
            st.degradation_stepdowns.inc();
            rung_descended = true;
          } else {
            st.degradation_stepups.inc();
          }
          trace_instant("degradation.step", "runtime", sim.frame_index(),
                        {{"camera", static_cast<double>(c)},
                         {"from", static_cast<double>(t.from)},
                         {"to", static_cast<double>(t.to)},
                         {"trigger", static_cast<double>(t.trigger)}});
        }
      }
    }

    const std::set<int> alive = eligible_set();
    const EecsController::Selection selection = [&] {
      const obs::ScopedSpan span("stage.controller", "stage", st.controller_s, sim.frame_index());
      return controller.select(assessment, config.mode, &alive);
    }();
    result.rounds.push_back({sim.frame_index(), selection.stats, false});
    trace_instant("round.select", "round", sim.frame_index(),
                  {{"midround", 0.0},
                   {"cameras_active", static_cast<double>(selection.stats.cameras_active)},
                   {"n_est", selection.stats.n_est},
                   {"p_est", selection.stats.p_est}});

    // Push assignments to the cameras over the network (sequence-numbered;
    // acked on delivery, retried with backoff while unacked).
    apply_selection(selection);

    // --- Operation window.
    for (int f = 0; f < config.operation_gt_frames; ++f) {
      if (sim.frame_index() >= config.end_frame) break;
      pump_network(sim.frame_index() + 0.5);
      retry_assignments();
      check_liveness();
      const video::MultiViewFrame frame = next_frame_timed();
      ++result.gt_frames_processed;

      std::set<int> present;
      for (int c = 0; c < num_cameras; ++c) {
        for (int id : countable_ids(frame.truth[static_cast<std::size_t>(c)])) present.insert(id);
      }
      result.humans_present += static_cast<int>(present.size());

      // Gate each camera exactly as the serial loop would (a camera only
      // drains its own battery, so camera c's gate never depends on c' < c),
      // fan the frame processing out, then replay transmissions and energy
      // accounting sequentially in camera order.
      enum class Act : char { Silent, HeartbeatOnly, Process };
      std::vector<Act> acts(static_cast<std::size_t>(num_cameras), Act::Silent);
      // The detector/threshold a processing camera actually runs this frame:
      // its controller assignment, or the camera-local fallback entry when the
      // ladder has pushed it to CheapAlgorithm or deeper.
      struct Effective {
        detect::AlgorithmId algorithm = detect::AlgorithmId::Hog;
        double threshold = 0.0;
      };
      std::vector<Effective> effective(static_cast<std::size_t>(num_cameras));
      std::vector<int> processing;
      for (int c = 0; c < num_cameras; ++c) {
        CameraNode& cam = cameras[static_cast<std::size_t>(c)];
        if (cam.battery.empty()) {
          // Exhausted: the node is dark — no detection, no transmission.
          if (cam.has_assignment && cam.active) st.frames_skipped.inc();
          continue;
        }
        if (network.node_down(net_node[static_cast<std::size_t>(c)])) continue;
        const runtime::DegradationRung rung = ladder.rung(c);
        if (rung == runtime::DegradationRung::Parked) {
          // Deepest rung: radio and detector both off until recovery.
          st.frames_parked.inc();
          continue;
        }
        effective[static_cast<std::size_t>(c)] = {cam.algorithm, cam.threshold};
        if (rung >= runtime::DegradationRung::CheapAlgorithm &&
            fallback[static_cast<std::size_t>(c)].valid) {
          effective[static_cast<std::size_t>(c)] = {fallback[static_cast<std::size_t>(c)].algorithm,
                                                    fallback[static_cast<std::size_t>(c)].threshold};
        }
        // SkipFrames halves the duty cycle: odd GT slots become heartbeats.
        const bool skip_slot = rung == runtime::DegradationRung::SkipFrames &&
                               ((frame.index / stride) & 1) != 0;
        if (cam.has_assignment && cam.active &&
            rung < runtime::DegradationRung::MetadataOnly && !skip_slot) {
          acts[static_cast<std::size_t>(c)] = Act::Process;
          processing.push_back(c);
        } else {
          acts[static_cast<std::size_t>(c)] = Act::HeartbeatOnly;
        }
      }
      std::vector<DetectJob> jobs;
      jobs.reserve(processing.size());
      for (std::size_t i = 0; i < processing.size(); ++i) {
        const int c = processing[i];
        const Effective& eff = effective[static_cast<std::size_t>(c)];
        jobs.push_back({i, c, &detector_of(eff.algorithm), eff.threshold});
      }
      const std::vector<std::vector<FrameOutcome>> outcomes =
          detect_frame(frame, sim.cameras(), processing.size(), jobs, gate_opts,
                       static_cast<std::uint64_t>(rounds_completed), config.models, st, result);
      trace_instant("detect.batch", "detect", frame.index,
                    {{"cameras", static_cast<double>(processing.size())},
                     {"assessment", 0.0},
                     {"windows_evaluated", static_cast<double>(result.windows_evaluated)},
                     {"windows_pruned", static_cast<double>(result.windows_pruned)}});

      std::set<int> detected;
      const obs::ScopedSpan span("stage.net", "stage", st.net_s, frame.index);
      std::size_t next_outcome = 0;
      for (int c = 0; c < num_cameras; ++c) {
        if (acts[static_cast<std::size_t>(c)] == Act::Silent) continue;
        send_heartbeat(c, obs::EnergyStage::Operation);
        if (acts[static_cast<std::size_t>(c)] != Act::Process) continue;
        CameraNode& cam = cameras[static_cast<std::size_t>(c)];
        const FrameOutcome& outcome = outcomes[next_outcome++].front();

        const net::DetectionMetadataMsg msg = make_metadata_msg(
            c, frame.index, effective[static_cast<std::size_t>(c)].algorithm, outcome);
        st.messages_sent.inc();
        const auto tx = network.send(net_node[static_cast<std::size_t>(c)], 0, encode(msg));
        // JPEG crops of the detected objects ride along (charged per byte).
        const double crop_joules =
            config.models.radio_model.joules_per_byte * static_cast<double>(outcome.comm_bytes);

        const int alg = static_cast<int>(effective[static_cast<std::size_t>(c)].algorithm);
        const double tx_crop = tx.tx_joules + crop_joules;
        result.cpu_joules += outcome.cpu_joules;
        result.radio_joules += tx_crop;
        ledger.debit_cpu(c, obs::EnergyStage::Operation, alg, obs::EnergyCause::Detect,
                         outcome.cpu_joules);
        ledger.debit_radio(c, obs::EnergyStage::Operation, alg, obs::EnergyCause::Tx, tx_crop);
        if (cpu_gauges[static_cast<std::size_t>(c)] != nullptr) {
          cpu_gauges[static_cast<std::size_t>(c)]->add(outcome.cpu_joules);
        }
        const double debit = outcome.cpu_joules + tx.tx_joules + crop_joules;
        cam.battery.drain(debit);
        ledger.drain(c, debit);
        st.debit_joules.observe(debit);
        trace_instant("battery.debit", "energy", frame.index,
                      {{"camera", static_cast<double>(c)},
                       {"joules", debit},
                       {"residual", cam.battery.residual()}});

        if (tx.delivered) {
          const MatchResult match = match_detections(
              outcome.detections, frame.truth[static_cast<std::size_t>(c)]);
          for (int id : match.matched_person_ids) detected.insert(id);
        } else {
          // The controller never sees these detections: they don't count.
          st.messages_lost.inc();
        }
      }
      // Only persons actually present count (a matched ignore-region person
      // cannot occur since matching skips them).
      for (int id : detected) {
        if (present.count(id) > 0) ++result.humans_detected;
      }
      sim.skip(stride - 1);
    }

    // ---- Round close, observability: fold the round into the anomaly
    // detector (whose burn-rate flags advise next round's ladder pass), then
    // record it in the flight recorder and dump the black box if the round
    // tripped a watchdog strike or a ladder descent.
    int round_anomalies = 0;
    if constexpr (obs::kEnabled) {
      obs::RoundObservation ob;
      ob.round = rounds_completed;
      ob.messages_sent = st.messages_sent.value() - round_sent_base;
      ob.messages_lost = st.messages_lost.value() - round_lost_base;
      ob.deadline_misses = static_cast<std::uint32_t>(missed_this_round.size());
      ob.camera_joules.resize(static_cast<std::size_t>(num_cameras));
      for (int c = 0; c < num_cameras; ++c) {
        ob.camera_joules[static_cast<std::size_t>(c)] =
            ledger.camera_joules(c) - round_camera_base[static_cast<std::size_t>(c)];
      }
      static constexpr const char* kAnomalyEvent[obs::kNumAnomalyKinds] = {
          "anomaly.burn_rate", "anomaly.loss_rate", "anomaly.latency"};
      for (const obs::Anomaly& a : anomaly_detector.observe(ob)) {
        ++round_anomalies;
        anomaly_counters[static_cast<int>(a.kind)]->inc();
        trace_instant(kAnomalyEvent[static_cast<int>(a.kind)], "anomaly", sim.frame_index(),
                      {{"camera", static_cast<double>(a.camera)},
                       {"round", static_cast<double>(a.round)},
                       {"value", a.value},
                       {"threshold", a.threshold}});
      }
      if (flight_enabled) {
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
        fr.cpu_joules = ledger.cpu_total() - round_cpu_base;
        fr.radio_joules = ledger.radio_total() - round_radio_base;
        fr.anomalies = round_anomalies;
        fr.rungs.reserve(static_cast<std::size_t>(num_cameras));
        fr.residual_j.reserve(static_cast<std::size_t>(num_cameras));
        for (int c = 0; c < num_cameras; ++c) {
          fr.rungs.push_back(static_cast<std::int8_t>(ladder.rung(c)));
          fr.residual_j.push_back(cameras[static_cast<std::size_t>(c)].battery.residual());
        }
        flight.record(fr);
        if (!missed_this_round.empty()) {
          (void)flight.dump(config.runtime.flight_recorder_path, "watchdog_strike");
        } else if (rung_descended) {
          (void)flight.dump(config.runtime.flight_recorder_path, "ladder_descent");
        }
      }
    }

    ++rounds_completed;
    // Round boundary: snapshot every K completed rounds, then honour a
    // simulated-crash stop. Nothing runs between here and the top of the
    // next iteration, so a resumed run re-enters the loop at exactly this
    // program point.
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
      break;
    }
  }

  if (stopped_early) {
    trace_instant("runtime.stop", "runtime", sim.frame_index(),
                  {{"rounds_completed", static_cast<double>(rounds_completed)}});
  }
  // Assignments still awaiting an ack close the accounting identity:
  // pushed == acked + abandoned + dropped + replaced + pending_at_exit.
  st.assignments_pending.inc(static_cast<std::uint64_t>(retry_queue.size()));
  // Receiver-side drops count as lost protocol messages, exactly like the
  // legacy `faults.messages_lost += rx_dropped` accounting. On a resumed run
  // the restored network state carries the full rx_dropped tally, so this
  // single end-of-run increment never double counts (checkpoint counter
  // deltas exclude it by construction).
  st.messages_lost.inc(network.rx_dropped());
  st.finalize(result);
  if (resumed) add_fault_counters(result.faults, resumed_faults);
  result.battery_residual.reserve(static_cast<std::size_t>(num_cameras));
  for (const auto& cam : cameras) result.battery_residual.push_back(cam.battery.residual());
  return result;
}

SimulationResult run_fixed_combo(const DetectorBank& detectors, const OfflineKnowledge& knowledge,
                                 const FixedCombo& combo, const FixedComboConfig& config) {
  EECS_EXPECTS(!combo.active.empty());
  const common::ScopedThreads scoped_threads(config.threads);
  const simd::ScopedSimd scoped_simd(config.simd);
  obs::current()
      .metrics()
      .gauge("simd.dispatch.native", obs::Determinism::WallClock)
      .set(simd::enabled() && simd::kNativeBackend ? 1.0 : 0.0);
  const DetectorLookup detector_of(detectors);
  const detect::ContextGateOptions gate_opts = detect::resolve_context_gate(config.context_gate);
  video::SceneSimulator sim(video::dataset_by_id(config.dataset), config.seed);
  const int stride = sim.environment().ground_truth_stride * config.gt_frame_step;
  const int num_cameras = static_cast<int>(sim.cameras().size());

  std::vector<energy::Battery> batteries;
  batteries.reserve(static_cast<std::size_t>(num_cameras));
  for (int c = 0; c < num_cameras; ++c) batteries.emplace_back(config.battery_joules);

  // Per-entry profile resolution, hoisted out of the frame loop.
  struct Entry {
    int camera = 0;
    detect::AlgorithmId algorithm = detect::AlgorithmId::Hog;
    const detect::Detector* detector = nullptr;
    double threshold = 0.0;
  };
  std::vector<Entry> entries;
  entries.reserve(combo.active.size());
  for (const auto& [camera, algorithm] : combo.active) {
    EECS_EXPECTS(camera >= 0 && camera < num_cameras);
    const TrainingItemProfile* item = find_profile(knowledge, config.dataset, camera);
    EECS_EXPECTS(item != nullptr);
    const AlgorithmProfile* profile = item->find(algorithm);
    EECS_EXPECTS(profile != nullptr);
    entries.push_back({camera, algorithm, &detector_of(algorithm), profile->threshold});
  }

  SimulationResult result;
  SimTelemetry st(obs::current().metrics());
  // Fixed combos have no rounds or protocol: every joule lands in the
  // Operation stage under {Detect, Tx}, still subject to the conservation
  // invariant (ledger totals == result totals, bit-exact).
  obs::EnergyLedger& ledger = obs::current().ledger();
  ledger.begin_run(std::vector<double>(static_cast<std::size_t>(num_cameras),
                                       config.battery_joules));
  sim.skip(config.start_frame);
  while (sim.frame_index() < config.end_frame) {
    const video::MultiViewFrame frame = [&] {
      const obs::ScopedSpan span("stage.render", "stage", st.render_s, sim.frame_index());
      return sim.next_frame();
    }();
    ++result.gt_frames_processed;

    std::set<int> present;
    for (int c = 0; c < num_cameras; ++c) {
      for (int id : countable_ids(frame.truth[static_cast<std::size_t>(c)])) present.insert(id);
    }
    result.humans_present += static_cast<int>(present.size());

    // Fan out the entries whose battery holds charge at the top of the frame;
    // the sequential replay below re-checks each battery at its legacy
    // sequence point, so an entry drained dark mid-frame (a camera listed
    // twice) discards its speculative outcome exactly like the serial path.
    // One slot per (camera, algorithm) entry — a camera listed twice keeps
    // two independent caches, matching the legacy per-entry work profile.
    // Fixed combos have no rounds; the recovery cadence ticks per GT frame.
    std::vector<DetectJob> jobs;
    jobs.reserve(entries.size());
    for (std::size_t e = 0; e < entries.size(); ++e) {
      const Entry& entry = entries[e];
      if (batteries[static_cast<std::size_t>(entry.camera)].empty()) continue;
      jobs.push_back({e, entry.camera, entry.detector, entry.threshold});
    }
    const std::vector<std::vector<FrameOutcome>> outcomes =
        detect_frame(frame, sim.cameras(), entries.size(), jobs, gate_opts,
                     static_cast<std::uint64_t>(result.gt_frames_processed), config.models, st,
                     result);

    std::set<int> detected;
    for (std::size_t e = 0; e < entries.size(); ++e) {
      const Entry& entry = entries[e];
      energy::Battery& battery = batteries[static_cast<std::size_t>(entry.camera)];
      if (battery.empty()) {
        // Exhausted camera: contributes no detections and no radio energy.
        st.frames_skipped.inc();
        continue;
      }
      // Charged now means charged at the top of the frame: the entry ran.
      const FrameOutcome& outcome = outcomes[e].front();
      const double radio_joules = config.models.radio_model.tx_joules(outcome.comm_bytes);
      result.cpu_joules += outcome.cpu_joules;
      result.radio_joules += radio_joules;
      ledger.debit_cpu(entry.camera, obs::EnergyStage::Operation,
                       static_cast<int>(entry.algorithm), obs::EnergyCause::Detect,
                       outcome.cpu_joules);
      ledger.debit_radio(entry.camera, obs::EnergyStage::Operation,
                         static_cast<int>(entry.algorithm), obs::EnergyCause::Tx, radio_joules);
      const double debit = outcome.cpu_joules + radio_joules;
      battery.drain(debit);
      ledger.drain(entry.camera, debit);
      st.debit_joules.observe(debit);

      const MatchResult match = match_detections(
          outcome.detections, frame.truth[static_cast<std::size_t>(entry.camera)]);
      for (int id : match.matched_person_ids) detected.insert(id);
    }
    for (int id : detected) {
      if (present.count(id) > 0) ++result.humans_detected;
    }
    sim.skip(stride - 1);
  }
  st.finalize(result);
  result.battery_residual.reserve(static_cast<std::size_t>(num_cameras));
  for (const auto& b : batteries) result.battery_residual.push_back(b.residual());
  return result;
}

}  // namespace eecs::core
