// Benchmark driver: runs one workload of BENCHMARK.json through the library's
// public API and prints the raw measurements as one JSON line on stdout.
// run.py builds this binary, turns the raw numbers into the reported metrics
// and checks the outcomes; the driver itself checks only that every repeated
// leg reproduces the first one bit for bit.
//
//   perfbench_driver --workload eecs_d1 --seed 777 --seconds 10 [--trace <spans.tsv>]
//
// The width-N legs run at N = the CPUs this process may run on.
//
// Timed mode repeats rounds of set-up and a width-N leg of the workload's
// phase until --seconds have passed, then runs one threads=1 leg. Trace mode
// runs one round and the threads=1 leg, then replays the workload's per-frame work layer by layer
// through the public entry points, twice bare and twice with a span around
// every call (alternating), and writes the last traced replay's spans to the
// given file.
#include <cpuid.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.hpp"
#include "common/simd.hpp"
#include "core/metrics.hpp"
#include "core/offline.hpp"
#include "core/simulation.hpp"
#include "detect/acf_detector.hpp"
#include "detect/c4_detector.hpp"
#include "detect/frame_cache.hpp"
#include "detect/hog_detector.hpp"
#include "detect/lsvm_detector.hpp"
#include "detect/sweep_scheduler.hpp"
#include "features/color_feature.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "reid/reid.hpp"
#include "video/scene.hpp"

using namespace eecs;
using detect::AlgorithmId;

namespace {

// ---------------------------------------------------------------- clocks

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux.
}

/// CPU brand string from CPUID leaves 0x80000002..4 (no file access).
std::string cpu_model() {
  unsigned regs[12] = {};
  for (unsigned i = 0; i < 3; ++i) {
    if (__get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                    &regs[4 * i + 3]) == 0) {
      return "unknown";
    }
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  s.erase(0, s.find_first_not_of(' '));
  s.erase(s.find_last_not_of(' ') + 1);
  return s.empty() ? "unknown" : s;
}

/// CPUs this process may run on (what `nproc` prints): the width-N legs' width.
int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

// ---------------------------------------------------------------- JSON out

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";  // run.py fails the run on a null.
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string num_list(const std::vector<double>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) s += (i ? ", " : "") + num(v[i]);
  return s + "]";
}

// ---------------------------------------------------------------- workloads

enum class Kind { EecsD1, OfflineAll };

constexpr std::uint64_t kBankSeed = 1234;
/// Offline-profiling seed of eecs_d1's knowledge (held fixed so the benchmark
/// seed varies only the scene the loop sees).
constexpr std::uint64_t kKnowledgeSeed = 42;

/// eecs_d1's knowledge profiles dataset 1 with HOG and ACF; offline_all
/// profiles datasets 1 and 3 with all four algorithms, 2 GT frames per item.
const std::vector<int>& offline_datasets(Kind k) {
  static const std::vector<int> d1{1}, d13{1, 3};
  return k == Kind::EecsD1 ? d1 : d13;
}

core::OfflineOptions offline_options(Kind k) {
  core::OfflineOptions o;
  if (k == Kind::EecsD1) {
    o.algorithms = {AlgorithmId::Hog, AlgorithmId::Acf};
  } else {
    o.frames_per_item = 2;
  }
  return o;
}

/// What set-up hands the timed phase.
struct Setup {
  core::DetectorBank bank;
  std::optional<core::OfflineKnowledge> knowledge;  ///< Loop workloads only.
};

Setup run_setup(Kind k) {
  Setup s;
  s.bank = detect::make_trained_detectors(kBankSeed);
  if (k != Kind::OfflineAll) {
    s.knowledge.emplace(
        core::run_offline_training(s.bank, offline_datasets(k), kKnowledgeSeed, offline_options(k)));
  }
  return s;
}

/// Bit-exact outcome of one leg; every field but `timings` is deterministic.
struct Outcome {
  double joules = 0.0;
  long humans = 0;
  long present = 0;  ///< Base of humans: the countable people it could find.
  std::uint64_t windows_evaluated = 0;
  std::uint64_t windows_pruned = 0;
  std::string digest;  ///< offline_all: FNV-1a over every profile row.
  core::StageTimings timings;
  std::optional<core::OfflineKnowledge> knowledge;  ///< offline_all's product.

  [[nodiscard]] std::string key() const {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%.17g|%ld|%ld|%" PRIu64 "|%" PRIu64 "|", joules, humans,
                  present, windows_evaluated, windows_pruned);
    return buf + digest;
  }
};

std::uint64_t fnv1a(const std::string& s, std::uint64_t h = 1469598103934665603ull) {
  for (unsigned char c : s) h = (h ^ c) * 1099511628211ull;
  return h;
}

/// Countable ground-truth people over an offline item's profiled frames: the
/// false negatives of an empty detection list. Follows run_offline_training's
/// frame sampling without rendering.
long item_positives(int dataset, int camera, std::uint64_t seed, const core::OfflineOptions& o) {
  video::SceneSimulator sim(video::dataset_by_id(dataset),
                            seed * 131 + static_cast<std::uint64_t>(dataset));
  const int stride = sim.environment().ground_truth_stride;
  const int total = std::max(o.frames_per_item, o.feature_frames_per_item);
  const int hop = std::max(1, (video::kTrainFrames / stride) / total) * stride;
  long positives = 0;
  for (int i = 0; i < o.frames_per_item; ++i) {
    positives += core::match_detections({}, sim.ground_truth(camera)).counts.false_negatives;
    sim.skip(hop);
  }
  return positives;
}

Outcome from_result(const core::SimulationResult& r) {
  Outcome o;
  o.joules = r.total_joules();
  o.humans = r.humans_detected;
  o.present = r.humans_present;
  o.windows_evaluated = r.windows_evaluated;
  o.windows_pruned = r.windows_pruned;
  o.timings = r.timings;
  return o;
}

Outcome run_phase(Kind k, const Setup& s, std::uint64_t seed, int threads) {
  switch (k) {
    case Kind::EecsD1: {
      core::EecsSimulationConfig c;
      c.dataset = 1;
      c.seed = seed;
      c.threads = threads;
      // Fig. 5a's baseline: every camera runs its best algorithm, so the work
      // is the same for every scene seed. The subset modes pick cameras from
      // the scene, and their joules and run time move with the seed.
      c.mode = core::SelectionMode::AllBest;
      c.budget_per_frame = 3.0;
      c.controller.algorithms = {AlgorithmId::Hog, AlgorithmId::Acf};
      c.models = offline_options(k);
      c.context_gate.enabled = false;
      c.start_frame = 1000;
      c.end_frame = 2950;
      return from_result(core::run_eecs_simulation(s.bank, *s.knowledge, c));
    }
    case Kind::OfflineAll: {
      const common::ScopedThreads width(threads);
      Outcome o;
      o.knowledge.emplace(
          core::run_offline_training(s.bank, offline_datasets(k), seed, offline_options(k)));
      return o;
    }
  }
  return {};
}

/// Fills offline_all's outcome from the profiles it produced (outside the
/// timed leg): the digest over every profile row, the modeled joules of the
/// profiled frames, and the true positives at each profile's threshold out of
/// the countable people each algorithm was profiled on.
void summarize_offline(Outcome& o, std::uint64_t seed) {
  const core::OfflineOptions options = offline_options(Kind::OfflineAll);
  std::uint64_t h = fnv1a("");
  for (const auto& item : o.knowledge->profiles()) {
    const long positives = item_positives(item.dataset, item.camera, seed, options);
    for (const auto& p : item.algorithms) {
      char row[200];
      std::snprintf(row, sizeof row, "%s|%s|%.17g|%.17g|%.17g;", item.label.c_str(),
                    detect::to_string(p.id), p.threshold, p.accuracy.f_score,
                    p.total_joules_per_frame());
      h = fnv1a(row, h);
      o.joules += p.total_joules_per_frame() * options.frames_per_item;
      // recall = tp / positives, so this recovers tp exactly.
      const double tp = p.accuracy.recall * static_cast<double>(positives);
      if (std::fabs(tp - std::round(tp)) > 1e-6) o.joules = NAN;  // Fails the run.
      o.humans += std::lround(tp);
      o.present += positives;
    }
  }
  char hex[20];
  std::snprintf(hex, sizeof hex, "%016" PRIx64, h);
  o.digest = hex;
}

// ---------------------------------------------------------------- spans

/// One replayed call. `alg` tags detect work with the algorithm it serves.
struct Span {
  const char* name;
  const char* alg;
  long request;
  int parent;
  std::int64_t start_ns, end_ns;
  energy::CostCounter ops;
};

/// In-memory span log; a disabled recorder makes every span a no-op so the
/// same replay measures the tracing overhead.
class Recorder {
 public:
  explicit Recorder(bool enabled) : enabled_(enabled), t0_(Clock::now()) {
    if (enabled_) spans_.reserve(1 << 16);
  }
  int open(const char* name, const char* alg, long request) {
    if (!enabled_) return -1;
    spans_.push_back({name, alg, request, stack_.empty() ? -1 : stack_.back(), now(), 0, {}});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int id, const energy::CostCounter* ops) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_ns = now();
    if (ops != nullptr) spans_[static_cast<std::size_t>(id)].ops = *ops;
    stack_.pop_back();
  }

  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "name\talg\trequest\tparent\tstart_ns\tend_ns\tpixel_ops\tfeature_ops\t"
                    "classifier_ops\n");
    for (const Span& s : spans_) {
      std::fprintf(f, "%s\t%s\t%ld\t%d\t%" PRId64 "\t%" PRId64 "\t%" PRIu64 "\t%" PRIu64
                      "\t%" PRIu64 "\n",
                   s.name, s.alg, s.request, s.parent, s.start_ns, s.end_ns, s.ops.pixel_ops,
                   s.ops.feature_ops, s.ops.classifier_ops);
    }
    return std::fclose(f) == 0;
  }

 private:
  [[nodiscard]] std::int64_t now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0_).count();
  }
  bool enabled_;
  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; `ops` (optional) is copied into the span when it closes.
class Scoped {
 public:
  Scoped(Recorder& r, const char* name, long request, const char* alg = "",
         const energy::CostCounter* ops = nullptr)
      : r_(r), id_(r.open(name, alg, request)), ops_(ops) {}
  ~Scoped() { r_.close(id_, ops_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Recorder& r_;
  int id_;
  const energy::CostCounter* ops_;
};

// ---------------------------------------------------------------- replay

const char* alg_name(AlgorithmId id) {
  switch (id) {
    case AlgorithmId::Hog: return "hog";
    case AlgorithmId::Acf: return "acf";
    case AlgorithmId::C4: return "c4";
    case AlgorithmId::Lsvm: return "lsvm";
  }
  return "unknown";
}

const char* scan_span(AlgorithmId id) {
  switch (id) {
    case AlgorithmId::Hog: return "detect.scan.hog";
    case AlgorithmId::Acf: return "detect.scan.acf";
    case AlgorithmId::C4: return "detect.scan.c4";
    case AlgorithmId::Lsvm: return "detect.scan.lsvm";
  }
  return "detect.scan.unknown";
}

/// Misses of the substrate caches a scan may fill; a scan that adds one is
/// rebuilding a substrate the replay did not build before it.
std::uint64_t substrate_misses() {
  std::uint64_t n = 0;
  for (const char* name : {"detect.cache.scaled.miss", "detect.cache.block_grid.miss",
                           "detect.cache.acf_channels.miss", "detect.cache.census.miss"}) {
    n += obs::current().metrics().counter(name).value();
  }
  return n;
}

const detect::Detector& detector_of(const core::DetectorBank& bank, AlgorithmId id) {
  for (const auto& d : bank) {
    if (d->id() == id) return *d;
  }
  std::fprintf(stderr, "detector %s missing from the bank\n", alg_name(id));
  std::exit(3);
}

/// Every (width, height) the detector's scan visits on a width x height frame,
/// identity included: its default parameters' ladder under the scan's own
/// lround and minimum-window guard. precompute_plan() lists the same dims
/// minus identity.
std::vector<std::pair<int, int>> scan_dims(AlgorithmId id, int width, int height) {
  double lo = 0, hi = 0, factor = 0;
  switch (id) {
    case AlgorithmId::Hog: {
      const detect::HogDetectorParams p;
      lo = p.min_scale, hi = p.max_scale, factor = p.scale_factor;
      break;
    }
    case AlgorithmId::Acf: {
      const detect::AcfDetectorParams p;
      lo = p.min_scale, hi = p.max_scale, factor = p.scale_factor;
      break;
    }
    case AlgorithmId::C4: {
      const detect::C4DetectorParams p;
      lo = p.min_scale, hi = p.max_scale, factor = p.scale_factor;
      break;
    }
    case AlgorithmId::Lsvm: {
      const detect::LsvmDetectorParams p;
      lo = p.min_scale, hi = p.max_scale, factor = p.scale_factor;
      break;
    }
  }
  std::vector<std::pair<int, int>> dims;
  for (double s : detect::pyramid_scales(lo, hi, factor)) {
    const int sw = static_cast<int>(std::lround(width * s));
    const int sh = static_cast<int>(std::lround(height * s));
    if (sw >= detect::kWindowWidth && sh >= detect::kWindowHeight) dims.emplace_back(sw, sh);
  }
  return dims;
}

/// Replays one frame's detection through `pre`: resize every planned rung on
/// the cold cache, build each detector's substrates, then scan on the warm
/// cache. Returns the detections of `algs.front()`.
std::vector<detect::Detection> replay_detect(Recorder& rec, long request,
                                             detect::FramePrecompute& pre,
                                             const core::DetectorBank& bank,
                                             const std::vector<AlgorithmId>& algs) {
  const int w = pre.frame().width();
  const int h = pre.frame().height();
  std::set<std::pair<int, int>> resized;
  for (AlgorithmId id : algs) {
    for (const auto& [sw, sh] : detector_of(bank, id).precompute_plan(w, h)) {
      if (!resized.insert({sw, sh}).second) continue;
      const Scoped span(rec, "detect.scaled", request, alg_name(id));
      (void)pre.scaled(sw, sh);
    }
  }
  std::vector<detect::Detection> first;
  for (AlgorithmId id : algs) {
    energy::CostCounter substrates;
    for (const auto& [sw, sh] : scan_dims(id, w, h)) {
      energy::CostCounter ops;
      switch (id) {
        case AlgorithmId::Hog:
        case AlgorithmId::Lsvm: {
          const Scoped span(rec, "detect.block_grid", request, alg_name(id), &ops);
          (void)pre.block_grid(sw, sh, features::HogParams{}, &ops);
          break;
        }
        case AlgorithmId::Acf: {
          const Scoped span(rec, "detect.acf_channels", request, alg_name(id), &ops);
          (void)pre.acf_channels(sw, sh, &ops);
          break;
        }
        case AlgorithmId::C4: {
          constexpr int kOffsets[4][2] = {{0, 0}, {4, 0}, {0, 4}, {4, 4}};
          for (const auto& [ox, oy] : kOffsets) {
            if (sw - ox < detect::kWindowWidth || sh - oy < detect::kWindowHeight) continue;
            energy::CostCounter one;
            {
              const Scoped span(rec, "detect.census_grid", request, alg_name(id), &one);
              (void)pre.census_grid(sw, sh, ox, oy, &one);
            }
            ops += one;
          }
          break;
        }
      }
      substrates += ops;
    }
    energy::CostCounter scan;
    energy::CostCounter own;
    std::vector<detect::Detection> found;
    const std::uint64_t misses = substrate_misses();
    {
      const Scoped span(rec, scan_span(id), request, alg_name(id), &own);
      found = detector_of(bank, id).detect(pre, &scan);
      // The cache replays each substrate's build cost into the scan's counter;
      // the scan's own ops are what remains.
      own.pixel_ops = scan.pixel_ops - substrates.pixel_ops;
      own.feature_ops = scan.feature_ops - substrates.feature_ops;
      own.classifier_ops = scan.classifier_ops - substrates.classifier_ops;
    }
    // Both fire when scan_dims() or the substrate parameters above drift from
    // the detector's own: its scan then builds substrates inside its span.
    if (substrate_misses() != misses) {
      throw std::runtime_error(std::string("replay: ") + scan_span(id) +
                               " built a substrate the replay did not warm");
    }
    if (scan.pixel_ops < substrates.pixel_ops || scan.feature_ops < substrates.feature_ops ||
        scan.classifier_ops < substrates.classifier_ops) {
      throw std::runtime_error(std::string("replay: ") + scan_span(id) +
                               " charged fewer ops than its substrates");
    }
    if (id == algs.front()) first = std::move(found);
  }
  return first;
}

/// eecs_d1's per-frame work: registration (features, then the match that
/// picks each camera's thresholds), then per GT frame render, plan, HOG and
/// ACF on one shared cache per camera as an assessment sweep does, the JPEG
/// size of every HOG detection above threshold, and re-identification.
/// Every other GT frame is replayed; per-call figures need no more.
void replay_eecs(Recorder& rec, const Setup& s, std::uint64_t seed) {
  const std::vector<AlgorithmId> algs{AlgorithmId::Hog, AlgorithmId::Acf};
  const core::OfflineKnowledge& knowledge = *s.knowledge;
  const core::OfflineOptions models = offline_options(Kind::EecsD1);
  const core::EecsSimulationConfig loop;

  video::SceneSimulator sim(video::dataset_by_id(1), seed);
  const int stride = sim.environment().ground_truth_stride;
  const auto cams = sim.cameras().size();
  sim.skip(loop.start_frame);

  const int nreg = loop.upload_feature_frames;
  std::vector<linalg::Matrix> feats(cams, linalg::Matrix(nreg, knowledge.extractor().dimension()));
  for (int f = 0; f < nreg; ++f) {
    const long request = sim.frame_index();
    const video::MultiViewFrame frame = [&] {
      const Scoped span(rec, "video.next_frame", request);
      return sim.next_frame();
    }();
    for (std::size_t c = 0; c < cams; ++c) {
      std::vector<float> v;
      {
        const Scoped span(rec, "features.extract", request);
        v = knowledge.extractor().extract(frame.views[c]);
      }
      for (int d = 0; d < feats[c].cols(); ++d) feats[c](f, d) = v[static_cast<std::size_t>(d)];
    }
    sim.skip(stride - 1);
  }
  std::vector<double> hog_threshold(cams);
  for (std::size_t c = 0; c < cams; ++c) {
    int best = -1;
    {
      const Scoped span(rec, "domain.best_match", sim.frame_index());
      best = knowledge.match(feats[c]).best_index;
    }
    hog_threshold[c] = knowledge.profile(best).find(AlgorithmId::Hog)->threshold;
  }

  const reid::ReIdentifier reidentifier = core::make_reidentifier(sim);
  while (sim.frame_index() < loop.end_frame) {
    const long request = sim.frame_index();
    const video::MultiViewFrame frame = [&] {
      const Scoped span(rec, "video.next_frame", request);
      return sim.next_frame();
    }();
    detect::SweepScheduler sched(cams);
    for (std::size_t c = 0; c < cams; ++c) {
      for (AlgorithmId id : algs) {
        const Scoped span(rec, "detect.plan", request, alg_name(id));
        sched.plan(c, frame.views[c], detector_of(s.bank, id), &sim.cameras()[c]);
      }
    }
    std::vector<reid::ViewDetection> views;
    for (std::size_t c = 0; c < cams; ++c) {
      const imaging::Image& img = frame.views[c];
      for (const auto& det : replay_detect(rec, request, sched.at(c), s.bank, algs)) {
        if (det.score < hog_threshold[c]) continue;
        {
          const Scoped span(rec, "imaging.jpeg_bytes", request);
          (void)models.jpeg_model.region_bytes(img, det.box);
        }
        views.push_back({static_cast<int>(c), det, features::color_feature(img, det.box)});
      }
    }
    {
      const Scoped span(rec, "reid.group", request);
      (void)reidentifier.group(views);
    }
    sim.skip(2 * stride - 1);
  }
}

void replay_offline(Recorder& rec, const Setup& s, const core::OfflineKnowledge& knowledge,
                    std::uint64_t seed) {
  const core::OfflineOptions o = offline_options(Kind::OfflineAll);
  long item = 0;
  for (int ds : offline_datasets(Kind::OfflineAll)) {
    for (int cam = 0; cam < video::kNumCamerasPerDataset; ++cam, ++item) {
      const core::TrainingItemProfile& profile = knowledge.profile(static_cast<int>(item));
      video::SceneSimulator sim(video::dataset_by_id(ds), seed * 131 + static_cast<std::uint64_t>(ds));
      const int stride = sim.environment().ground_truth_stride;
      const int total = std::max(o.frames_per_item, o.feature_frames_per_item);
      const int hop = std::max(1, (video::kTrainFrames / stride) / total) * stride;
      for (int i = 0; i < total; ++i) {
        imaging::Image frame;
        {
          const Scoped span(rec, "video.next_frame", item);
          frame = sim.next_frame_single(cam);
        }
        if (i < o.frames_per_item) {
          // Offline profiling calls Detector::detect(frame): a fresh cache per
          // (frame, algorithm), nothing shared between algorithms.
          for (AlgorithmId id : o.algorithms) {
            detect::FramePrecompute pre(frame);
            const auto found = replay_detect(rec, item, pre, s.bank, {id});
            const double threshold = profile.find(id)->threshold;
            for (const auto& det : found) {
              if (det.score < threshold) continue;
              const Scoped span(rec, "imaging.jpeg_bytes", item);
              (void)o.jpeg_model.region_bytes(frame, det.box);
            }
          }
        }
        if (i < o.feature_frames_per_item) {
          const Scoped span(rec, "features.extract", item);
          (void)knowledge.extractor().extract(frame);
        }
        sim.skip(hop - 1);
      }
    }
  }
}

// ---------------------------------------------------------------- main

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  std::string trace_path;  ///< Non-empty: trace mode.
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload "
               "<eecs_d1|offline_all> --seed <n> --seconds <s> "
               "[--trace <spans.tsv>]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, &end);
    } else if (flag == "--trace") {
      a.trace_path = v;
    } else {
      usage("unknown flag");
    }
    if (end != nullptr && *end != '\0') usage("malformed number");
  }
  if (a.seconds <= 0) usage("--seconds must be positive");
  return a;
}

/// obs counters (a) of BENCHMARK.json's per-layer list, as registry names.
const char* const kCounters[] = {
    "detect.invocations.hog",       "detect.invocations.acf",
    "detect.invocations.c4",        "detect.invocations.lsvm",
    "detect.windows.evaluated",     "detect.windows.pruned",
    "detect.cache.scaled.hit",      "detect.cache.scaled.miss",
    "detect.cache.block_grid.hit",  "detect.cache.block_grid.miss",
    "detect.cache.acf_channels.hit", "detect.cache.acf_channels.miss",
    "detect.cache.census.hit",      "detect.cache.census.miss",
    "net.messages.sent",            "net.messages.lost",
};

std::map<std::string, double> counter_values() {
  std::map<std::string, double> v;
  for (const char* name : kCounters) {
    v[name] = static_cast<double>(obs::current().metrics().counter(name).value());
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr, "perfbench_driver: built without NDEBUG; refusing to time it\n");
  return 3;
#endif
  for (const char* var : {"EECS_THREADS", "EECS_SIMD", "EECS_CONTEXT_GATE"}) {
    if (std::getenv(var) != nullptr) {
      std::fprintf(stderr, "perfbench_driver: %s is set; the workload pins these knobs\n", var);
      return 2;
    }
  }
  const Args args = parse(argc, argv);
  Kind kind;
  if (args.workload == "eecs_d1") {
    kind = Kind::EecsD1;
  } else if (args.workload == "offline_all") {
    kind = Kind::OfflineAll;
  } else {
    usage("unknown workload");
  }
  const bool trace = !args.trace_path.empty();
  const int threads = usable_cpus();

  std::string out = "{";
  out += "\"fingerprint\": {\"cpu_model\": \"" + json_escape(cpu_model()) +
         "\", \"threads\": " + std::to_string(threads) + ", \"simd_dispatch\": \"" +
         simd::dispatch_name() + "\", \"simd_width\": " + std::to_string(simd::dispatch_width()) +
         ", \"ndebug\": true, \"obs\": \"" + (obs::kEnabled ? "on" : "off") + "\"}";

  long attempted = 0;
  long failed = 0;
  std::vector<std::string> errors;
  std::optional<std::string> reference;  // First leg's outcome key.
  const auto check = [&](const Outcome& o, const char* leg) {
    ++attempted;
    const std::string key = o.key();
    if (!std::isfinite(o.joules) || !std::isfinite(o.timings.total())) {
      ++failed;
      errors.push_back(std::string(leg) + ": non-finite outcome");
    } else if (!reference) {
      reference = key;
    } else if (key != *reference) {
      ++failed;
      errors.push_back(std::string(leg) + ": outcome " + key + " differs from " + *reference);
    }
  };

  try {
    std::vector<double> setup_s, run_s, run_cpu_s;
    Setup setup;
    Outcome last;
    // Rounds of set-up and width-N leg, so both metrics sample the whole run.
    // A round starts while --seconds have not passed, and at least three run
    // (exactly one when tracing).
    const int min_rounds = trace ? 1 : 3;
    const auto t_measure = Clock::now();
    for (int round = 0;
         round < min_rounds || (!trace && seconds_since(t_measure) < args.seconds); ++round) {
      {
        const common::ScopedThreads width(threads);
        const auto t0 = Clock::now();
        Setup fresh = run_setup(kind);
        setup_s.push_back(seconds_since(t0));
        setup = std::move(fresh);
      }

      const auto before = counter_values();
      const double cpu0 = process_cpu_s();
      const auto t0 = Clock::now();
      last = run_phase(kind, setup, args.seed, threads);
      run_s.push_back(seconds_since(t0));
      run_cpu_s.push_back(process_cpu_s() - cpu0);
      if (kind == Kind::OfflineAll) summarize_offline(last, args.seed);
      check(last, "threads=N");
      if (trace) {
        const auto after = counter_values();
        out += ", \"counters\": {";
        for (const auto& [name, v] : after) {
          out += std::string(name == after.begin()->first ? "" : ", ") + "\"" + name +
                 "\": " + num(v - before.at(name));
        }
        const core::StageTimings& t = last.timings;
        out += "}, \"stages\": {\"render_s\": " + num(t.render_s) +
               ", \"detect_s\": " + num(t.detect_s) + ", \"features_s\": " + num(t.features_s) +
               ", \"controller_s\": " + num(t.controller_s) + ", \"net_s\": " + num(t.net_s) +
               "}";
      }
    }

    // One threads=1 leg, on the last set-up: the single-threaded baseline,
    // which must reproduce the width-N legs bit for bit.
    const auto t1 = Clock::now();
    Outcome serial = run_phase(kind, setup, args.seed, 1);
    const double serial_s = seconds_since(t1);
    if (kind == Kind::OfflineAll) summarize_offline(serial, args.seed);
    check(serial, "threads=1");

    out += ", \"setup_s\": " + num_list(setup_s);
    out += ", \"run_s\": " + num_list(run_s) + ", \"run_cpu_s\": " + num_list(run_cpu_s) +
           ", \"serial_run_s\": " + num(serial_s) +
           ", \"serial_detect_s\": " + num(serial.timings.detect_s);
    out += ", \"outcome\": {\"modeled_j\": " + num(last.joules) +
           ", \"humans_detected\": " + std::to_string(last.humans) +
           ", \"humans_present\": " + std::to_string(last.present) +
           ", \"windows_evaluated\": " + std::to_string(last.windows_evaluated) +
           ", \"windows_pruned\": " + std::to_string(last.windows_pruned) + ", \"digest\": \"" +
           last.digest + "\"}";

    if (trace) {
      // The replay is serial, like the threads=1 leg it is compared with.
      const common::ScopedThreads serial_width(1);
      const auto replay = [&](Recorder& rec) {
        const auto t0 = Clock::now();
        if (kind == Kind::OfflineAll) {
          replay_offline(rec, setup, *last.knowledge, args.seed);
        } else {
          replay_eecs(rec, setup, args.seed);
        }
        return seconds_since(t0);
      };
      // Alternate bare and traced replays so warm-up lands on neither side;
      // the spans of the last traced replay are kept.
      std::vector<double> bare_s, traced_s;
      std::unique_ptr<Recorder> traced;
      for (int i = 0; i < 2; ++i) {
        Recorder bare(false);
        bare_s.push_back(replay(bare));
        traced = std::make_unique<Recorder>(true);
        traced_s.push_back(replay(*traced));
      }
      if (!traced->write(args.trace_path)) {
        std::fprintf(stderr, "perfbench_driver: cannot write %s\n", args.trace_path.c_str());
        return 1;
      }
      out += ", \"replay_bare_s\": " + num_list(bare_s) +
             ", \"replay_traced_s\": " + num_list(traced_s);
    }
  } catch (const std::exception& e) {
    ++attempted;
    ++failed;
    errors.push_back(std::string("exception: ") + e.what());
  }

  out += ", \"peak_rss_mb\": " + num(peak_rss_mb());
  out += ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) + ", \"errors\": [";
  for (std::size_t i = 0; i < errors.size(); ++i) {
    out += std::string(i ? ", " : "") + "\"" + json_escape(errors[i]) + "\"";
  }
  out += "]}";
  std::printf("%s\n", out.c_str());
  return 0;
}
