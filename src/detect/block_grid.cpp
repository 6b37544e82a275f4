#include "detect/block_grid.hpp"

#include <algorithm>
#include <cmath>

#include "common/simd.hpp"

EECS_SIMD_TIER_BEGIN
namespace eecs::detect {

namespace {

/// Accumulates one weight block's partial dot products into a row of anchor
/// accumulators, reading the feature-major (transposed) layout: per weight
/// index i the kLanes anchor samples are contiguous at trow[i * tstride + ax],
/// so the inner loop issues plain loads instead of stride-block_dim gathers
/// (the gathers were the score-map bottleneck — latency-bound and
/// width-insensitive). Lanes run across anchors (independent chains); each
/// anchor's partial is the same serial sum_i w[i]*b[i] chain as window_score,
/// so any anchor blocking width is bit-identical.
template <class D2>
void accumulate_block_row(const float* w, const float* trow, std::size_t bd,
                          std::size_t tstride, int width, double* acc) {
  constexpr int K = D2::kLanes;
  int ax = 0;
  // Four packs per weight broadcast: the broadcast and the trow pointer
  // arithmetic amortize over 4K anchors and the 4 independent accumulator
  // packs overlap the (long-latency) double FMA chains. Grouping width never
  // touches any single anchor's chain, so this is bit-identical to the
  // two-pack and scalar forms.
  for (; ax + 4 * K <= width; ax += 4 * K) {
    const float* t0 = trow + static_cast<std::size_t>(ax);
    D2 p0 = D2::broadcast(0.0);
    D2 p1 = D2::broadcast(0.0);
    D2 p2 = D2::broadcast(0.0);
    D2 p3 = D2::broadcast(0.0);
    for (std::size_t i = 0; i < bd; ++i) {
      const D2 wd = D2::broadcast(static_cast<double>(w[i]));
      const float* ti = t0 + i * tstride;
      p0 = p0 + wd * D2::load2f(ti);
      p1 = p1 + wd * D2::load2f(ti + K);
      p2 = p2 + wd * D2::load2f(ti + 2 * K);
      p3 = p3 + wd * D2::load2f(ti + 3 * K);
    }
    double lanes[K];
    p0.store(lanes);
    for (int l = 0; l < K; ++l) acc[ax + l] += lanes[l];
    p1.store(lanes);
    for (int l = 0; l < K; ++l) acc[ax + K + l] += lanes[l];
    p2.store(lanes);
    for (int l = 0; l < K; ++l) acc[ax + 2 * K + l] += lanes[l];
    p3.store(lanes);
    for (int l = 0; l < K; ++l) acc[ax + 3 * K + l] += lanes[l];
  }
  for (; ax + 2 * K <= width; ax += 2 * K) {
    const float* t0 = trow + static_cast<std::size_t>(ax);
    D2 p01 = D2::broadcast(0.0);
    D2 p23 = D2::broadcast(0.0);
    for (std::size_t i = 0; i < bd; ++i) {
      const D2 wd = D2::broadcast(static_cast<double>(w[i]));
      const float* ti = t0 + i * tstride;
      p01 = p01 + wd * D2::load2f(ti);
      p23 = p23 + wd * D2::load2f(ti + K);
    }
    double t0s[K];
    double t1s[K];
    p01.store(t0s);
    p23.store(t1s);
    for (int l = 0; l < K; ++l) acc[ax + l] += t0s[l];
    for (int l = 0; l < K; ++l) acc[ax + K + l] += t1s[l];
  }
  for (; ax < width; ++ax) {
    double partial = 0.0;
    for (std::size_t i = 0; i < bd; ++i) {
      partial += static_cast<double>(w[i]) *
                 static_cast<double>(trow[i * tstride + static_cast<std::size_t>(ax)]);
    }
    acc[ax] += partial;
  }
}

}  // namespace

/// BlockGrid's normalization and score-map kernels of one ISA tag; a tier
/// section (common/simd.hpp "Kernel tiers").
template <class Isa>
struct BlockGridKernels {
  /// L2-hys normalizes every bs x bs cell block of `grid` into `data`
  /// (block-major) and its feature-major mirror `data_t`.
  static void normalize(const features::HogGrid& grid, int bs, int blocks_x, int blocks_y,
                        float* data, float* data_t);
  /// Scores anchor rows [row_begin, row_end] of a wbx x wby-block model
  /// against the feature-major mirror into map.scores.
  static void score_rows(const float* data_t, int blocks_x, std::size_t bd,
                         const LinearModel& model, int wbx, int wby, int row_begin, int row_end,
                         ScoreMap& map);
};

template <class Isa>
void BlockGridKernels<Isa>::normalize(const features::HogGrid& grid, int bs, int blocks_x,
                                      int blocks_y, float* data, float* data_t) {
  using F4 = typename Isa::F32;
  const std::size_t bd = static_cast<std::size_t>(bs * bs * grid.bins());
  const std::size_t bxs = static_cast<std::size_t>(blocks_x);
  std::vector<float> block(bd);
  const F4 clip = F4::broadcast(0.2f);
  // Per-element v/n and min(v/n, 0.2) are elementwise — the same division
  // and compare the scalar passes issued per value, so lane grouping cannot
  // change any bit. The l2norm double chains stay serial (order-pinned).
  const auto l2norm = [](std::span<const float> v) {
    double s = 0.0;
    for (float x : v) s += static_cast<double>(x) * static_cast<double>(x);
    return static_cast<float>(std::sqrt(s) + 1e-6);
  };
  for (int by = 0; by < blocks_y; ++by) {
    for (int bx = 0; bx < blocks_x; ++bx) {
      std::size_t k = 0;
      for (int cy = 0; cy < bs; ++cy) {
        for (int cx = 0; cx < bs; ++cx) {
          const auto cell = grid.cell(bx + cx, by + cy);
          for (float v : cell) block[k++] = v;
        }
      }
      float n = l2norm(block);
      {
        const F4 nn = F4::broadcast(n);
        std::size_t i = 0;
        for (; i + F4::kLanes <= bd; i += F4::kLanes) {
          const F4 q = F4::load(block.data() + i) / nn;
          // std::min(q, 0.2f): 0.2 wins only when strictly smaller.
          F4::select(F4::lt(clip, q), clip, q).store(block.data() + i);
        }
        for (; i < bd; ++i) block[i] = std::min(block[i] / n, 0.2f);
      }
      n = l2norm(block);
      float* dst = data + (static_cast<std::size_t>(by) * bxs + static_cast<std::size_t>(bx)) * bd;
      {
        const F4 nn = F4::broadcast(n);
        std::size_t i = 0;
        for (; i + F4::kLanes <= bd; i += F4::kLanes) {
          (F4::load(block.data() + i) / nn).store(dst + i);
        }
        for (; i < bd; ++i) dst[i] = block[i] / n;
      }
      float* dst_t = data_t + static_cast<std::size_t>(by) * bd * bxs + static_cast<std::size_t>(bx);
      for (std::size_t i = 0; i < bd; ++i) dst_t[i * bxs] = dst[i];
    }
  }
}

template <class Isa>
void BlockGridKernels<Isa>::score_rows(const float* data_t, int blocks_x, std::size_t bd,
                                       const LinearModel& model, int wbx, int wby, int row_begin,
                                       int row_end, ScoreMap& map) {
  using D2 = typename Isa::F64;
  // Rolling per-anchor-row double accumulators, streamed by ABSOLUTE block
  // row: anchor row ay reads feature rows ay..ay+wby-1, so sweeping ar over
  // the grid and applying row ar to every live anchor row (ay = ar - by)
  // keeps each 6-KB feature-major row cache-hot across all its readers
  // instead of re-streaming wby rows per anchor row. Each anchor's sum is
  // still built in the same order as window_score — bias first (when its
  // by = 0 row arrives), then one double partial per weight block in
  // (by, bx) ascending order: for fixed ay, ar ascending IS by ascending,
  // and bx ascends in the inner loop — so the final float is bit-identical
  // to the per-window path.
  std::vector<std::vector<double>> acc(static_cast<std::size_t>(wby),
                                       std::vector<double>(static_cast<std::size_t>(map.width)));
  // Only the feature rows the retained anchor band reads are streamed:
  // anchor rows [row_begin, row_end] read block rows
  // [row_begin, row_end + wby - 1].
  for (int ar = row_begin; ar <= row_end + wby - 1; ++ar) {
    const float* trow_base =
        data_t + static_cast<std::size_t>(ar) * bd * static_cast<std::size_t>(blocks_x);
    const int ay_lo = std::max(row_begin, ar - wby + 1);
    const int ay_hi = std::min(row_end, ar);
    for (int ay = ay_lo; ay <= ay_hi; ++ay) {
      const int by = ar - ay;
      std::vector<double>& row_acc = acc[static_cast<std::size_t>(ay % wby)];
      if (by == 0) {
        std::fill(row_acc.begin(), row_acc.end(), static_cast<double>(model.bias));
      }
      const float* w =
          model.weights.data() + static_cast<std::size_t>(by) * static_cast<std::size_t>(wbx) * bd;
      for (int bx = 0; bx < wbx; ++bx) {
        // Each weight block streams across the anchor row through the
        // feature-major mirror (consecutive anchors contiguous per weight
        // index); independent accumulator chains per step (lane-blocked
        // across anchors) keep the (non-reassociable) double adds off the
        // critical path without changing any single chain's order.
        accumulate_block_row<D2>(w, trow_base + static_cast<std::size_t>(bx), bd,
                                 static_cast<std::size_t>(blocks_x), map.width, row_acc.data());
        w += bd;
      }
      if (by == wby - 1) {
        float* out = map.scores.data() +
                     static_cast<std::size_t>(ay - row_begin) * static_cast<std::size_t>(map.width);
        for (int ax = 0; ax < map.width; ++ax) {
          out[ax] = static_cast<float>(row_acc[static_cast<std::size_t>(ax)]);
        }
      }
    }
  }
}

EECS_SIMD_TIER_KERNELS(BlockGridKernels);

}  // namespace eecs::detect
EECS_SIMD_TIER_END

#if EECS_SIMD_TIER == 0
namespace eecs::detect {

BlockGrid::BlockGrid(const imaging::Image& img, const features::HogParams& params,
                     energy::CostCounter* cost)
    : params_(params) {
  const features::HogGrid grid = features::compute_hog_grid(img, params, cost);
  const int bs = params.block_size;
  blocks_x_ = std::max(0, grid.cells_x() - bs + 1);
  blocks_y_ = std::max(0, grid.cells_y() - bs + 1);
  block_dim_ = bs * bs * params.bins;
  data_.assign(static_cast<std::size_t>(blocks_x_) * static_cast<std::size_t>(blocks_y_) *
                   static_cast<std::size_t>(block_dim_),
               0.0f);

  // Feature-major mirror for score_map is filled alongside data_: same
  // floats, transposed per block row so consecutive anchors are contiguous.
  // Pure data movement — charges nothing and changes no value.
  data_t_.resize(data_.size());
  simd::dispatch([&](auto isa) {
    BlockGridKernels<decltype(isa)>::normalize(grid, bs, blocks_x_, blocks_y_, data_.data(),
                                               data_t_.data());
  });
  if (cost != nullptr) {
    cost->add_features(data_.size() * 3);  // Gather + two normalization passes.
  }
}

std::span<const float> BlockGrid::block(int bx, int by) const {
  EECS_EXPECTS(bx >= 0 && bx < blocks_x_ && by >= 0 && by < blocks_y_);
  return {data_.data() + (static_cast<std::size_t>(by) * static_cast<std::size_t>(blocks_x_) +
                          static_cast<std::size_t>(bx)) *
                             static_cast<std::size_t>(block_dim_),
          static_cast<std::size_t>(block_dim_)};
}

float BlockGrid::window_score(const LinearModel& model, int cell_x0, int cell_y0,
                              int window_cells_x, int window_cells_y,
                              energy::CostCounter* cost) const {
  const int bs = params_.block_size;
  const int wbx = window_cells_x - bs + 1;
  const int wby = window_cells_y - bs + 1;
  EECS_EXPECTS(cell_x0 >= 0 && cell_y0 >= 0);
  EECS_EXPECTS(cell_x0 + wbx <= blocks_x_ && cell_y0 + wby <= blocks_y_);
  EECS_EXPECTS(static_cast<int>(model.weights.size()) == wbx * wby * block_dim_);

  double s = model.bias;
  const float* w = model.weights.data();
  for (int by = 0; by < wby; ++by) {
    for (int bx = 0; bx < wbx; ++bx) {
      const std::span<const float> blk = block(cell_x0 + bx, cell_y0 + by);
      double partial = 0.0;
      for (int i = 0; i < block_dim_; ++i) {
        partial += static_cast<double>(w[i]) * static_cast<double>(blk[static_cast<std::size_t>(i)]);
      }
      s += partial;
      w += block_dim_;
    }
  }
  if (cost != nullptr) cost->add_classifier(static_cast<std::uint64_t>(wbx * wby * block_dim_));
  return static_cast<float>(s);
}

ScoreMap BlockGrid::score_map(const LinearModel& model, int window_cells_x,
                              int window_cells_y, int anchor_row_begin,
                              int anchor_row_end) const {
  const int bs = params_.block_size;
  const int wbx = window_cells_x - bs + 1;
  const int wby = window_cells_y - bs + 1;
  EECS_EXPECTS(static_cast<int>(model.weights.size()) == wbx * wby * block_dim_);

  const int full_height = blocks_y_ - wby + 1;
  ScoreMap map;
  map.width = blocks_x_ - wbx + 1;
  const int row_begin = std::max(0, anchor_row_begin);
  const int row_end = anchor_row_end < 0 ? full_height - 1 : std::min(anchor_row_end, full_height - 1);
  map.height = row_end - row_begin + 1;
  map.y0 = row_begin;
  if (map.width <= 0 || map.height <= 0) {
    map.width = 0;
    map.height = 0;
    map.y0 = 0;
    return map;
  }
  map.scores.resize(static_cast<std::size_t>(map.width) * static_cast<std::size_t>(map.height));

  simd::dispatch([&](auto isa) {
    BlockGridKernels<decltype(isa)>::score_rows(data_t_.data(), blocks_x_,
                                                static_cast<std::size_t>(block_dim_), model, wbx,
                                                wby, row_begin, row_end, map);
  });
  return map;
}

std::vector<float> BlockGrid::window_descriptor(int cell_x0, int cell_y0, int window_cells_x,
                                                int window_cells_y) const {
  const int bs = params_.block_size;
  const int wbx = window_cells_x - bs + 1;
  const int wby = window_cells_y - bs + 1;
  EECS_EXPECTS(cell_x0 >= 0 && cell_y0 >= 0);
  EECS_EXPECTS(cell_x0 + wbx <= blocks_x_ && cell_y0 + wby <= blocks_y_);
  std::vector<float> desc;
  desc.reserve(static_cast<std::size_t>(wbx * wby * block_dim_));
  for (int by = 0; by < wby; ++by) {
    for (int bx = 0; bx < wbx; ++bx) {
      const auto blk = block(cell_x0 + bx, cell_y0 + by);
      desc.insert(desc.end(), blk.begin(), blk.end());
    }
  }
  return desc;
}

}  // namespace eecs::detect
#endif  // EECS_SIMD_TIER == 0
