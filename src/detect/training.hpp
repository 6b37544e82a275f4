// Synthetic training patches for the detectors. Positives are person sprites
// rendered on varied backgrounds at the canonical window size; negatives are
// background texture and furniture-distractor patches. This mirrors how the
// paper's detectors come pre-trained on generic pedestrian data (INRIA etc.)
// rather than on the evaluation datasets themselves.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "common/rng.hpp"
#include "imaging/image.hpp"

namespace eecs::detect {

/// Canonical detection window (pixels). All detectors share it.
inline constexpr int kWindowWidth = 48;
inline constexpr int kWindowHeight = 96;

struct TrainingSet {
  std::vector<imaging::Image> positives;  ///< kWindowWidth x kWindowHeight RGB.
  std::vector<imaging::Image> negatives;

  [[nodiscard]] std::size_t size() const { return positives.size() + negatives.size(); }
  /// Patch i, positives first.
  [[nodiscard]] const imaging::Image& patch(std::size_t i) const {
    return i < positives.size() ? positives[i] : negatives[i - positives.size()];
  }
  /// +1 per positive, then -1 per negative: patch i's label is entry i.
  [[nodiscard]] std::vector<int> labels() const;
};

struct TrainingSetOptions {
  int num_positives = 350;
  int num_negatives = 700;
  /// Fraction of negatives that are furniture distractors (hard negatives).
  double clutter_fraction = 0.30;
};

/// Row i is features(set.patch(i)). Serial on purpose: fanning the patches
/// out to the pool trimmed set-up by about a tenth but raised offline
/// profiling's peak RSS 3-7%, since each worker's malloc arena keeps what it
/// allocated.
[[nodiscard]] std::vector<std::vector<float>> training_rows(
    const TrainingSet& set, const std::function<std::vector<float>(const imaging::Image&)>& features);

/// Generate a deterministic training set from the given RNG.
[[nodiscard]] TrainingSet generate_training_set(Rng& rng, const TrainingSetOptions& options = {});

}  // namespace eecs::detect
