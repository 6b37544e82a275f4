// Discrete AdaBoost over decision stumps — the classifier of the ACF
// detector (the paper's [4] boosts shallow trees over aggregated channels).
// Each round examines a random feature subsample, keeping training fast.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"

namespace eecs::detect {

struct Stump {
  int feature = 0;
  float threshold = 0.0f;
  float polarity = 1.0f;  ///< +1: predict positive when x[f] > threshold.
  float alpha = 0.0f;     ///< Round weight.
};

struct BoostedModel {
  std::vector<Stump> stumps;

  /// Additive score in alpha units; sign is the hard decision.
  [[nodiscard]] float score(std::span<const float> x) const;
  [[nodiscard]] bool trained() const { return !stumps.empty(); }
};

struct BoostOptions {
  int rounds = 512;
  int features_per_round = 256;  ///< Random feature subsample per round.
};

/// Every feature's ascending sample order, sorted once per training set and
/// reused by every round. Entry i of feature f holds the sample index in its
/// low 31 bits and sets kRunEnd when the next entry's value differs (or i is
/// last), so a round's weighted-error sweep never reads a feature value.
struct FeatureOrder {
  static constexpr std::uint32_t kRunEnd = 1u << 31;
  static constexpr std::uint32_t kIndexMask = kRunEnd - 1;

  std::size_t samples = 0;
  std::vector<std::uint32_t> entries;  ///< Feature-major, `samples` per feature.

  [[nodiscard]] std::span<const std::uint32_t> feature(int f) const {
    return {entries.data() + static_cast<std::size_t>(f) * samples, samples};
  }
};

/// Sort every feature of the rows of `x` (in parallel over features). Ties
/// keep the exact permutation std::sort gives on the sample indices.
[[nodiscard]] FeatureOrder presort_features(const std::vector<std::vector<float>>& x);

/// Train on rows of `x` with labels +1/-1.
[[nodiscard]] BoostedModel train_adaboost(const std::vector<std::vector<float>>& x,
                                          const std::vector<int>& y, Rng& rng,
                                          const BoostOptions& options = {});

/// The boosting rounds alone, on `order == presort_features(x)`.
[[nodiscard]] BoostedModel train_adaboost(const std::vector<std::vector<float>>& x,
                                          const std::vector<int>& y, const FeatureOrder& order,
                                          Rng& rng, const BoostOptions& options = {});

}  // namespace eecs::detect
