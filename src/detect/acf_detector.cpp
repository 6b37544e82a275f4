#include "detect/acf_detector.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/simd.hpp"
#include "detect/frame_cache.hpp"
#include "detect/nms.hpp"
#include "detect/sweep_scheduler.hpp"
#include "imaging/filter.hpp"

namespace eecs::detect {

/// One scale's soft cascade as AcfDetector::run scans it: every stump
/// resolved to a flat offset into the scale's channel map, with the
/// per-stump constants hoisted out of the scan in the exact doubles the
/// per-window loop produced.
struct AcfCascade {
  std::vector<std::size_t> offset;  ///< Channel-map offset of each stump's feature.
  std::vector<double> a;            ///< double(alpha) * double(polarity).
  std::vector<double> na;           ///< -a (bit-exact: IEEE multiply is sign-symmetric).
  std::vector<double> thr;          ///< Threshold widened to double.
  std::vector<double> remaining_after;  ///< total_alpha minus |alpha| through stump k.
  std::size_t check_every = 1;      ///< Stumps between cascade tests.
  double reject_rhs = 0.0;          ///< cascade_margin * total_alpha.
  float score_floor = 0.0f;         ///< Surviving windows must score above this.
};

/// A window that survived the cascade: anchor (channel-map cells) and score.
struct AcfHit {
  int x0 = 0;
  int y0 = 0;
  double score = 0.0;
};

}  // namespace eecs::detect

EECS_SIMD_TIER_BEGIN
namespace eecs::detect {

namespace {

/// One output row of 4x4 block-averaged color aggregation. Each lane owns
/// one output block: tap dx of lane k sits at source column 4k + dx, so the
/// four strided gathers t0..t3 are the dx taps across kLanes outputs, and
/// the add sequence acc + t0 + t1 + t2 + t3 reproduces the scalar dx
/// accumulation order per lane at every width. Tail outputs run the scalar
/// chain.
template <class F4>
void acf_color_row(const float* src, int iw, int y, int aw, float* dst) {
  static_assert(kAcfShrink == 4, "lane blocking assumes 4x4 aggregation blocks");
  const F4 area = F4::broadcast(static_cast<float>(kAcfShrink * kAcfShrink));
  int x = 0;
  for (; x + F4::kLanes <= aw; x += F4::kLanes) {
    F4 acc = F4::broadcast(0.0f);
    for (int dy = 0; dy < kAcfShrink; ++dy) {
      const float* row = src + static_cast<std::size_t>(y * kAcfShrink + dy) *
                                   static_cast<std::size_t>(iw) +
                         static_cast<std::size_t>(x * kAcfShrink);
      const F4 t0 = F4::gather_stride(row + 0, kAcfShrink);
      const F4 t1 = F4::gather_stride(row + 1, kAcfShrink);
      const F4 t2 = F4::gather_stride(row + 2, kAcfShrink);
      const F4 t3 = F4::gather_stride(row + 3, kAcfShrink);
      acc = acc + t0 + t1 + t2 + t3;
    }
    (acc / area).store(dst + y * aw + x);
  }
  for (; x < aw; ++x) {
    float s = 0.0f;
    for (int dy = 0; dy < kAcfShrink; ++dy) {
      const float* row = src + static_cast<std::size_t>(y * kAcfShrink + dy) *
                                   static_cast<std::size_t>(iw) +
                         static_cast<std::size_t>(x * kAcfShrink);
      for (int dx = 0; dx < kAcfShrink; ++dx) s += row[dx];
    }
    dst[y * aw + x] = s / (kAcfShrink * kAcfShrink);
  }
}

/// One output row of gradient-magnitude + orientation-channel aggregation.
/// Magnitude sums use the same strided-gather blocking as the color rows (tap
/// dx across kLanes outputs); the orientation bin of every source pixel is
/// computed lane-blocked (floor + min are exact), then scattered scalar in
/// (dy, dx) order into each output's private 6-bin accumulator — the same
/// float order as the scalar loop at every width.
template <class F4>
void acf_gradient_row(const float* mag_src, const float* ori_src, int iw, int y, int aw, int ah,
                      float bin_width, int orientations, float* planes, std::ptrdiff_t plane_stride,
                      float* mag_plane) {
  static_assert(kAcfShrink == 4, "lane blocking assumes 4x4 aggregation blocks");
  const F4 area = F4::broadcast(static_cast<float>(kAcfShrink * kAcfShrink));
  const F4 bw = F4::broadcast(bin_width);
  const F4 top_bin = F4::broadcast(static_cast<float>(orientations - 1));
  (void)ah;
  int x = 0;
  for (; x + F4::kLanes <= aw; x += F4::kLanes) {
    F4 macc = F4::broadcast(0.0f);
    float orient_sum[F4::kLanes][8] = {};
    for (int dy = 0; dy < kAcfShrink; ++dy) {
      const std::size_t base = static_cast<std::size_t>(y * kAcfShrink + dy) *
                                   static_cast<std::size_t>(iw) +
                               static_cast<std::size_t>(x * kAcfShrink);
      // Gather dx holds tap dx of every output lane; per output the scatter
      // drains taps in dx order, the scalar chain's order.
      float mvals[kAcfShrink][F4::kLanes];
      float bvals[kAcfShrink][F4::kLanes];
      F4 md[kAcfShrink];
      for (int dx = 0; dx < kAcfShrink; ++dx) {
        md[dx] = F4::gather_stride(mag_src + base + static_cast<std::size_t>(dx), kAcfShrink);
        const F4 o =
            F4::gather_stride(ori_src + base + static_cast<std::size_t>(dx), kAcfShrink);
        const F4 bins = F4::min(top_bin, F4::floor(o / bw));
        md[dx].store(mvals[dx]);
        bins.store(bvals[dx]);
      }
      for (int k = 0; k < F4::kLanes; ++k) {
        for (int dx = 0; dx < kAcfShrink; ++dx) {
          orient_sum[k][static_cast<int>(bvals[dx][k])] += mvals[dx][k];
        }
      }
      macc = macc + md[0] + md[1] + md[2] + md[3];
    }
    (macc / area).store(mag_plane + y * aw + x);
    for (int k = 0; k < F4::kLanes; ++k) {
      for (int o = 0; o < orientations; ++o) {
        planes[static_cast<std::ptrdiff_t>(o) * plane_stride + y * aw + x + k] =
            orient_sum[k][o] / (kAcfShrink * kAcfShrink);
      }
    }
  }
  for (; x < aw; ++x) {
    float mag_sum = 0.0f;
    float orient_sum[8] = {};
    for (int dy = 0; dy < kAcfShrink; ++dy) {
      const std::size_t base = static_cast<std::size_t>(y * kAcfShrink + dy) *
                                   static_cast<std::size_t>(iw) +
                               static_cast<std::size_t>(x * kAcfShrink);
      for (int dx = 0; dx < kAcfShrink; ++dx) {
        const float mv = mag_src[base + static_cast<std::size_t>(dx)];
        mag_sum += mv;
        const int bin = std::min(orientations - 1,
                                 static_cast<int>(ori_src[base + static_cast<std::size_t>(dx)] / bin_width));
        orient_sum[bin] += mv;
      }
    }
    mag_plane[y * aw + x] = mag_sum / (kAcfShrink * kAcfShrink);
    for (int o = 0; o < orientations; ++o) {
      planes[static_cast<std::ptrdiff_t>(o) * plane_stride + y * aw + x] =
          orient_sum[o] / (kAcfShrink * kAcfShrink);
    }
  }
}

}  // namespace

/// The ACF channel and cascade-scan kernels of one ISA tag; a tier section
/// (common/simd.hpp "Kernel tiers").
template <class Isa>
struct AcfKernels {
  /// Fills the aggregated channels of `img` into the zeroed map (aw, ah >= 1).
  static void channels(const imaging::Image& img, ChannelMap& map);
  /// Scans anchor rows [y_lo, y_hi] x columns [0, max_x] of a channel map of
  /// row stride cw, charging classifier ops per window and appending the
  /// surviving windows in (y0, x0) order.
  static void scan(const AcfCascade& cascade, const float* map_data, std::size_t cw, int y_lo,
                   int y_hi, int max_x, energy::CostCounter* cost, std::vector<AcfHit>& hits);
};

template <class Isa>
void AcfKernels<Isa>::channels(const imaging::Image& img, ChannelMap& map) {
  using F4 = typename Isa::F32;
  const int aw = map.width;
  const int ah = map.height;
  auto plane = [&](int c) {
    return map.data.data() + static_cast<std::size_t>(c) * static_cast<std::size_t>(aw) *
                                 static_cast<std::size_t>(ah);
  };

  // Color channels: block-averaged RGB (grayscale images replicate). Every
  // sample x*kAcfShrink+dx <= aw*kAcfShrink-1 <= width-1 is in bounds, so the
  // aggregation indexes source rows directly; the (dy, dx) sum order matches
  // the clamped-access form this replaces bit for bit.
  const int iw = img.width();
  for (int c = 0; c < 3; ++c) {
    float* dst = plane(c);
    const float* src = img.plane(img.channels() == 3 ? c : 0).data();
    for (int y = 0; y < ah; ++y) {
      acf_color_row<F4>(src, iw, y, aw, dst);
    }
  }

  // Gradient magnitude + 6 orientation channels, aggregated.
  const imaging::Gradients grads = imaging::compute_gradients(img);
  constexpr int kOrientations = 6;
  const float bin_width = std::numbers::pi_v<float> / kOrientations;
  const float* mag_src = grads.magnitude.plane(0).data();
  const float* ori_src = grads.orientation.plane(0).data();
  const std::ptrdiff_t plane_stride =
      static_cast<std::ptrdiff_t>(aw) * static_cast<std::ptrdiff_t>(ah);
  for (int y = 0; y < ah; ++y) {
    acf_gradient_row<F4>(mag_src, ori_src, iw, y, aw, ah, bin_width, kOrientations, plane(4),
                         plane_stride, plane(3));
  }
}

template <class Isa>
void AcfKernels<Isa>::scan(const AcfCascade& cascade, const float* map_data, std::size_t cw,
                           int y_lo, int y_hi, int max_x, energy::CostCounter* cost,
                           std::vector<AcfHit>& hits) {
  using D2 = typename Isa::F64;
  constexpr int K = D2::kLanes;
  const std::size_t n_stumps = cascade.offset.size();
  const std::size_t check_every = cascade.check_every;
  const double reject_rhs = cascade.reject_rhs;
  const std::size_t* stump_off = cascade.offset.data();
  const double* stump_a = cascade.a.data();
  const double* stump_na = cascade.na.data();
  const double* stump_thr = cascade.thr.data();
  const double* remaining_after = cascade.remaining_after.data();
  double tmp[K];
  std::size_t eval[K];
  bool rejected[K];
  for (int y0 = y_lo; y0 <= y_hi; ++y0) {
    int x0 = 0;
    for (; x0 + K <= max_x + 1; x0 += K) {
      const std::size_t window_base =
          static_cast<std::size_t>(y0) * cw + static_cast<std::size_t>(x0);
      D2 s = D2::broadcast(0.0);
      for (int l = 0; l < K; ++l) {
        rejected[l] = false;
        eval[l] = 0;
      }
      int active = K;
      std::size_t until_check = check_every;
      for (std::size_t k = 0; k < n_stumps; ++k) {
        const D2 v = D2::load2f(map_data + stump_off[k] + window_base);
        s = s + D2::select_gt(v, D2::broadcast(stump_thr[k]), D2::broadcast(stump_a[k]),
                              D2::broadcast(stump_na[k]));
        if (--until_check == 0) {
          until_check = check_every;
          s.store(tmp);
          const double remaining = remaining_after[k];
          for (int l = 0; l < K; ++l) {
            if (!rejected[l] && tmp[l] + remaining < reject_rhs) {
              rejected[l] = true;
              eval[l] = k + 1;
              --active;
            }
          }
          if (active == 0) break;
        }
      }
      s.store(tmp);
      for (int l = 0; l < K; ++l) {
        const std::size_t evaluated = rejected[l] ? eval[l] : n_stumps;
        if (cost != nullptr) cost->add_classifier(2 * evaluated);
        if (rejected[l] || tmp[l] <= cascade.score_floor) continue;
        hits.push_back({x0 + l, y0, tmp[l]});
      }
    }
    for (; x0 <= max_x; ++x0) {
      const std::size_t window_base =
          static_cast<std::size_t>(y0) * cw + static_cast<std::size_t>(x0);
      double s = 0.0;
      std::size_t evaluated = 0;
      std::size_t until_check = check_every;
      bool was_rejected = false;
      for (std::size_t k = 0; k < n_stumps; ++k) {
        const double v = static_cast<double>(map_data[stump_off[k] + window_base]);
        s += (v > stump_thr[k]) ? stump_a[k] : stump_na[k];
        ++evaluated;
        if (--until_check == 0) {
          until_check = check_every;
          if (s + remaining_after[k] < reject_rhs) {
            was_rejected = true;
            break;
          }
        }
      }
      if (cost != nullptr) cost->add_classifier(2 * evaluated);
      if (was_rejected || s <= cascade.score_floor) continue;
      hits.push_back({x0, y0, s});
    }
  }
}

EECS_SIMD_TIER_KERNELS(AcfKernels);

}  // namespace eecs::detect
EECS_SIMD_TIER_END

#if EECS_SIMD_TIER == 0
namespace eecs::detect {

ChannelMap compute_acf_channels(const imaging::Image& img, energy::CostCounter* cost) {
  const int aw = img.width() / kAcfShrink;
  const int ah = img.height() / kAcfShrink;
  ChannelMap map;
  map.width = aw;
  map.height = ah;
  map.data.assign(static_cast<std::size_t>(kAcfChannels) * static_cast<std::size_t>(aw) *
                      static_cast<std::size_t>(ah),
                  0.0f);
  if (aw == 0 || ah == 0) return map;
  simd::dispatch([&](auto isa) { AcfKernels<decltype(isa)>::channels(img, map); });
  if (cost != nullptr) {
    // One gradient pass plus one aggregation pass over all pixels.
    cost->add_pixels(2 * img.pixel_count());
  }
  return map;
}

std::vector<float> acf_window_features(const ChannelMap& channels, int x0, int y0) {
  EECS_EXPECTS(x0 >= 0 && y0 >= 0);
  EECS_EXPECTS(x0 + kAcfWindowX <= channels.width && y0 + kAcfWindowY <= channels.height);
  std::vector<float> feat;
  feat.reserve(static_cast<std::size_t>(kAcfChannels * kAcfWindowX * kAcfWindowY));
  for (int c = 0; c < kAcfChannels; ++c) {
    for (int y = 0; y < kAcfWindowY; ++y) {
      for (int x = 0; x < kAcfWindowX; ++x) feat.push_back(channels.at(x0 + x, y0 + y, c));
    }
  }
  return feat;
}

std::vector<float> acf_patch_features(const imaging::Image& patch) {
  return acf_window_features(compute_acf_channels(patch), 0, 0);
}

void AcfDetector::train(const TrainingSet& training_set, Rng& rng) {
  const std::vector<std::vector<float>> x = training_rows(training_set, acf_patch_features);
  const std::vector<int> y = training_set.labels();
  model_ = train_adaboost(x, y, rng, params_.boost);
  total_alpha_ = 0.0;
  for (const Stump& st : model_.stumps) total_alpha_ += std::abs(static_cast<double>(st.alpha));

  std::vector<double> pos_scores, neg_scores;
  for (std::size_t i = 0; i < x.size(); ++i) {
    (y[i] == 1 ? pos_scores : neg_scores).push_back(model_.score(x[i]));
  }
  fit_score_calibration(pos_scores, neg_scores);
}

void AcfDetector::prewarm_substrates(FramePrecompute& pre, int width, int height) const {
  (void)pre.acf_channels(width, height, nullptr);
}

std::vector<Detection> AcfDetector::run(FramePrecompute& pre, energy::CostCounter* cost) const {
  EECS_EXPECTS(trained());
  std::vector<Detection> candidates;
  const imaging::Image& frame = pre.frame();
  const double total_alpha = total_alpha_;
  const SweepGate* gate = pre.gate();

  for (double scale : scales_) {
    const int sw = static_cast<int>(std::lround(frame.width() * scale));
    const int sh = static_cast<int>(std::lround(frame.height() * scale));
    if (sw < kWindowWidth || sh < kWindowHeight) continue;
    // Anchor geometry from the dims alone (channel maps shrink by
    // kAcfShrink), so fully pruned scales are accounted before any channel
    // work happens.
    const int aw = sw / kAcfShrink;
    const int ah = sh / kAcfShrink;
    const int max_x = aw - kAcfWindowX;
    const int max_y = ah - kAcfWindowY;
    const auto row_windows = max_x >= 0 ? static_cast<std::uint64_t>(max_x) + 1 : 0;
    const auto full_rows = max_y >= 0 ? static_cast<std::uint64_t>(max_y) + 1 : 0;
    const RowInterval anchors = gated_anchor_rows(gate, sw, sh, kAcfShrink, 0, max_y);
    const auto kept_rows =
        anchors.empty() ? 0 : static_cast<std::uint64_t>(anchors.hi - anchors.lo) + 1;
    if (cost != nullptr) {
      cost->add_windows(row_windows * kept_rows, row_windows * (full_rows - kept_rows));
    }
    if (gate != nullptr && anchors.empty()) continue;  // Scale infeasible: no work at all.
    // At scale 1.0 pre.scaled returns the frame itself, matching the old
    // resize-free path; only resized levels are charged as pixel ops.
    const imaging::Image& scaled = pre.scaled(sw, sh);
    if (scale != 1.0 && cost != nullptr) cost->add_pixels(scaled.pixel_count());

    const ChannelMap& channels = pre.acf_channels(sw, sh, cost);
    EECS_EXPECTS(channels.width == aw && channels.height == ah);
    // Each stump's (channel, cell) coordinates are fixed by its feature
    // index; resolve them to a flat offset into this scale's channel map once
    // instead of div/mod per stump per window. The per-stump constants and
    // the cascade's `remaining` sequence (identical for every window, built
    // with the same serial subtraction) are hoisted out of the scan too.
    const std::size_t cw = static_cast<std::size_t>(channels.width);
    const std::size_t n_stumps = model_.stumps.size();
    AcfCascade cascade;
    cascade.offset.resize(n_stumps);
    cascade.a.resize(n_stumps);
    cascade.na.resize(n_stumps);
    cascade.thr.resize(n_stumps);
    cascade.remaining_after.resize(n_stumps);
    double r = total_alpha;
    for (std::size_t k = 0; k < n_stumps; ++k) {
      const Stump& st = model_.stumps[k];
      const int c = st.feature / (kAcfWindowX * kAcfWindowY);
      const int rem = st.feature % (kAcfWindowX * kAcfWindowY);
      const int cy = rem / kAcfWindowX;
      const int cx = rem % kAcfWindowX;
      cascade.offset[k] = static_cast<std::size_t>(c) * cw *
                              static_cast<std::size_t>(channels.height) +
                          static_cast<std::size_t>(cy) * cw + static_cast<std::size_t>(cx);
      cascade.a[k] = static_cast<double>(st.alpha) * static_cast<double>(st.polarity);
      cascade.na[k] = -cascade.a[k];
      cascade.thr[k] = static_cast<double>(st.threshold);
      r -= std::abs(static_cast<double>(st.alpha));
      cascade.remaining_after[k] = r;
    }
    cascade.check_every = static_cast<std::size_t>(params_.cascade_check_every);
    cascade.reject_rhs = static_cast<double>(params_.cascade_margin) * total_alpha;
    cascade.score_floor = params_.score_floor;
    // Evaluate stumps directly against the channel map (no feature
    // materialization), with soft-cascade early rejection. Lanes run across
    // adjacent x0 anchors: window_base steps by 1 per lane, so every stump
    // reads kLanes contiguous floats. Each lane's score is the same serial
    // sum_k ±a_k chain as the scalar loop, and each lane freezes its own
    // `evaluated` count at the first cascade check it fails (the pack keeps
    // running until all lanes are rejected — extra work, but the per-window
    // op counts the energy model charges are exact). Emission stays in
    // (y0, x0) order.
    std::vector<AcfHit> hits;
    simd::dispatch([&](auto isa) {
      AcfKernels<decltype(isa)>::scan(cascade, channels.data.data(), cw, anchors.lo, anchors.hi,
                                      max_x, cost, hits);
    });
    for (const AcfHit& hit : hits) {
      Detection d;
      d.box = window_to_person_box({hit.x0 * kAcfShrink / scale, hit.y0 * kAcfShrink / scale,
                                    kWindowWidth / scale, kWindowHeight / scale});
      d.score = hit.score;
      d.probability = calibrated_probability(hit.score);
      candidates.push_back(d);
    }
  }
  return non_max_suppression(std::move(candidates), params_.nms_iou);
}

}  // namespace eecs::detect
#endif  // EECS_SIMD_TIER == 0
