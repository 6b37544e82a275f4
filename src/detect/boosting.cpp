#include "detect/boosting.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/contracts.hpp"
#include "common/parallel.hpp"

namespace eecs::detect {

float BoostedModel::score(std::span<const float> x) const {
  double s = 0.0;
  for (const Stump& st : stumps) {
    const float v = x[static_cast<std::size_t>(st.feature)];
    const float h = (v > st.threshold) ? st.polarity : -st.polarity;
    s += static_cast<double>(st.alpha) * static_cast<double>(h);
  }
  return static_cast<float>(s);
}

FeatureOrder presort_features(const std::vector<std::vector<float>>& x) {
  EECS_EXPECTS(!x.empty());
  const std::size_t n = x.size();
  const std::size_t dim = x.front().size();
  EECS_EXPECTS(n <= FeatureOrder::kIndexMask);
  for (const auto& row : x) EECS_EXPECTS(row.size() == dim);

  FeatureOrder out;
  out.samples = n;
  out.entries.resize(dim * n);
  // Features are gathered in blocks, so one row read brings in a cache line
  // of the block's columns instead of one line per feature. Each feature's
  // sort makes the comparisons a sort on the rows would make, so its
  // permutation, ties included, is the same; the sweep's sums follow it.
  constexpr std::size_t kBlock = 16;
  common::parallel_for((dim + kBlock - 1) / kBlock, 1, [&](std::size_t b0, std::size_t b1) {
    std::vector<float> columns(kBlock * n);
    std::vector<int> order(n);
    for (std::size_t b = b0; b < b1; ++b) {
      const std::size_t f0 = b * kBlock;
      const std::size_t width = std::min(kBlock, dim - f0);
      for (std::size_t i = 0; i < n; ++i) {
        const float* row = x[i].data() + f0;
        for (std::size_t j = 0; j < width; ++j) columns[j * n + i] = row[j];
      }
      for (std::size_t j = 0; j < width; ++j) {
        const float* col = columns.data() + j * n;
        std::iota(order.begin(), order.end(), 0);
        std::sort(order.data(), order.data() + n, [col](int a, int b) {
          return col[static_cast<std::size_t>(a)] < col[static_cast<std::size_t>(b)];
        });
        std::uint32_t* dst = out.entries.data() + (f0 + j) * n;
        for (std::size_t i = 0; i < n; ++i) {
          const float value = col[static_cast<std::size_t>(order[i])];
          const bool run_end = i + 1 == n || col[static_cast<std::size_t>(order[i + 1])] != value;
          dst[i] = static_cast<std::uint32_t>(order[i]) | (run_end ? FeatureOrder::kRunEnd : 0u);
        }
      }
    }
  });
  return out;
}

namespace {

/// A sample's round weight on the side of its label; the other side is 0.0,
/// and adding 0.0 leaves a non-negative sum bit-for-bit unchanged.
struct LabeledWeight {
  double pos = 0.0;
  double neg = 0.0;
};

struct BestSplit {
  double error = 1.0;
  std::size_t position = 0;  ///< Index into the feature's order; a run end.
  float polarity = 1.0f;
};

/// Best threshold/polarity for one feature: a linear sweep over its sorted
/// order that reads only the order entries and the round's weights.
BestSplit best_split_for_feature(std::span<const std::uint32_t> order,
                                 const LabeledWeight* weights, double total_pos,
                                 double total_neg) {
  BestSplit best;
  // Sweep thresholds between consecutive distinct values. For "x > t ->
  // positive" the error at a split is (positives below) + (negatives above).
  double pos_below = 0.0, neg_below = 0.0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    const std::uint32_t entry = order[i];
    const LabeledWeight& w = weights[entry & FeatureOrder::kIndexMask];
    pos_below += w.pos;
    neg_below += w.neg;
    if ((entry & FeatureOrder::kRunEnd) == 0) continue;
    const double err_pos_polarity = pos_below + (total_neg - neg_below);
    const double err_neg_polarity = neg_below + (total_pos - pos_below);
    if (err_pos_polarity < best.error) best = {err_pos_polarity, i, +1.0f};
    if (err_neg_polarity < best.error) best = {err_neg_polarity, i, -1.0f};
  }
  return best;
}

}  // namespace

BoostedModel train_adaboost(const std::vector<std::vector<float>>& x, const std::vector<int>& y,
                            Rng& rng, const BoostOptions& options) {
  return train_adaboost(x, y, presort_features(x), rng, options);
}

BoostedModel train_adaboost(const std::vector<std::vector<float>>& x, const std::vector<int>& y,
                            const FeatureOrder& order, Rng& rng, const BoostOptions& options) {
  EECS_EXPECTS(!x.empty());
  EECS_EXPECTS(x.size() == y.size());
  const int dim = static_cast<int>(x.front().size());
  EECS_EXPECTS(dim >= 1);
  EECS_EXPECTS(options.rounds >= 1 && options.features_per_round >= 1);

  const std::size_t n = x.size();
  EECS_EXPECTS(order.samples == n && order.entries.size() == static_cast<std::size_t>(dim) * n);

  std::vector<double> w(n, 1.0 / static_cast<double>(n));
  std::vector<LabeledWeight> weights(n);
  std::vector<BestSplit> splits;
  BoostedModel model;

  for (int round = 0; round < options.rounds; ++round) {
    const int k = std::min(options.features_per_round, dim);
    const std::vector<int> features = rng.sample_indices(dim, k);

    // Class totals, summed in sample order, are the same for every feature.
    double total_pos = 0.0, total_neg = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const bool pos = y[i] == 1;
      (pos ? total_pos : total_neg) += w[i];
      weights[i] = pos ? LabeledWeight{w[i], 0.0} : LabeledWeight{0.0, w[i]};
    }

    // Each sampled feature's sweep writes its own slot; the serial fold below
    // keeps the sampled order and strict <, so the first feature wins ties.
    splits.assign(static_cast<std::size_t>(k), BestSplit{});
    common::parallel_for(splits.size(), 8, [&](std::size_t begin, std::size_t end) {
      for (std::size_t j = begin; j < end; ++j) {
        splits[j] =
            best_split_for_feature(order.feature(features[j]), weights.data(), total_pos, total_neg);
      }
    });
    BestSplit best;
    int best_feature = features.front();
    for (std::size_t j = 0; j < splits.size(); ++j) {
      if (splits[j].error < best.error) {
        best = splits[j];
        best_feature = features[j];
      }
    }

    const double eps = std::clamp(best.error, 1e-10, 1.0 - 1e-10);
    if (eps >= 0.5) continue;  // No better than chance on this subsample.
    const double alpha = 0.5 * std::log((1.0 - eps) / eps);

    const std::size_t at = order.feature(best_feature)[best.position] & FeatureOrder::kIndexMask;
    const float threshold = x[at][static_cast<std::size_t>(best_feature)];
    Stump stump{best_feature, threshold, best.polarity, static_cast<float>(alpha)};
    model.stumps.push_back(stump);

    // Reweight.
    double sum_w = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const float v = x[i][static_cast<std::size_t>(stump.feature)];
      const float h = (v > stump.threshold) ? stump.polarity : -stump.polarity;
      w[i] *= std::exp(-alpha * static_cast<double>(y[i]) * static_cast<double>(h));
      sum_w += w[i];
    }
    for (auto& wi : w) wi /= sum_w;
  }
  return model;
}

}  // namespace eecs::detect
