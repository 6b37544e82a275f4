#include "detect/linear_svm.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"
#include "common/simd.hpp"

EECS_SIMD_TIER_BEGIN
namespace eecs::detect {

/// The Pegasos update of one ISA tag; a tier section (common/simd.hpp
/// "Kernel tiers").
template <class Isa>
struct SvmKernels {
  /// Elementwise Pegasos step: w *= decay, then (inside the margin)
  /// w += step*x. Both loops are pure elementwise float ops — lane-blocked
  /// with no reassociation, so scalar and SIMD agree bit for bit. The margin
  /// dot product stays scalar in the caller: it is a single serial double
  /// chain.
  static void pegasos_step(float* w, const float* x, std::size_t dim, float decay, bool update,
                           float step);
};

template <class Isa>
void SvmKernels<Isa>::pegasos_step(float* w, const float* x, std::size_t dim, float decay,
                                   bool update, float step) {
  using F4 = typename Isa::F32;
  const F4 dv = F4::broadcast(decay);
  const F4 sv = F4::broadcast(step);
  std::size_t d = 0;
  if (update) {
    for (; d + F4::kLanes <= dim; d += F4::kLanes) {
      (F4::load(w + d) * dv + sv * F4::load(x + d)).store(w + d);
    }
    for (; d < dim; ++d) w[d] = w[d] * decay + step * x[d];
  } else {
    for (; d + F4::kLanes <= dim; d += F4::kLanes) {
      (F4::load(w + d) * dv).store(w + d);
    }
    for (; d < dim; ++d) w[d] *= decay;
  }
}

EECS_SIMD_TIER_KERNELS(SvmKernels);

}  // namespace eecs::detect
EECS_SIMD_TIER_END

#if EECS_SIMD_TIER == 0
namespace eecs::detect {

float LinearModel::score(std::span<const float> x) const {
  EECS_EXPECTS(x.size() == weights.size());
  double s = bias;
  for (std::size_t i = 0; i < x.size(); ++i) s += static_cast<double>(weights[i]) * static_cast<double>(x[i]);
  return static_cast<float>(s);
}

LinearModel train_linear_svm(const std::vector<std::vector<float>>& x, const std::vector<int>& y,
                             Rng& rng, const SvmOptions& options) {
  EECS_EXPECTS(!x.empty());
  EECS_EXPECTS(x.size() == y.size());
  const std::size_t dim = x.front().size();
  bool has_pos = false, has_neg = false;
  for (std::size_t i = 0; i < y.size(); ++i) {
    EECS_EXPECTS(y[i] == 1 || y[i] == -1);
    EECS_EXPECTS(x[i].size() == dim);
    has_pos |= (y[i] == 1);
    has_neg |= (y[i] == -1);
  }
  EECS_EXPECTS(has_pos && has_neg);

  LinearModel model;
  model.weights.assign(dim, 0.0f);

  long t = 1;
  std::vector<int> order(x.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);

  // Pegasos over the unbiased hyperplane; the bias is set afterwards so the
  // decision threshold sits midway between the class score means (the 1/(λt)
  // schedule makes online bias updates wildly unstable in early steps).
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    rng.shuffle(order);
    for (int idx : order) {
      const double eta = 1.0 / (options.lambda * static_cast<double>(t));
      const auto& xi = x[static_cast<std::size_t>(idx)];
      const double yi = y[static_cast<std::size_t>(idx)];
      double margin = 0.0;
      for (std::size_t d = 0; d < dim; ++d) {
        margin += static_cast<double>(model.weights[d]) * static_cast<double>(xi[d]);
      }
      margin *= yi;
      // Weight decay (the lambda/2 ||w||^2 term), fused with the margin
      // update when it fires — identical float ops to the two separate loops.
      const float decay = static_cast<float>(std::max(0.0, 1.0 - eta * options.lambda));
      const bool update = margin < 1.0;
      const float step = update ? static_cast<float>(eta * yi) : 0.0f;
      simd::dispatch([&](auto isa) {
        SvmKernels<decltype(isa)>::pegasos_step(model.weights.data(), xi.data(), dim, decay,
                                                update, step);
      });
      ++t;
    }
  }

  double pos_mean = 0.0, neg_mean = 0.0;
  long pos_n = 0, neg_n = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    double s = 0.0;
    for (std::size_t d = 0; d < dim; ++d) {
      s += static_cast<double>(model.weights[d]) * static_cast<double>(x[i][d]);
    }
    if (y[i] == 1) {
      pos_mean += s;
      ++pos_n;
    } else {
      neg_mean += s;
      ++neg_n;
    }
  }
  pos_mean /= static_cast<double>(pos_n);
  neg_mean /= static_cast<double>(neg_n);
  model.bias = static_cast<float>(-(pos_mean + neg_mean) / 2.0);
  return model;
}

}  // namespace eecs::detect
#endif  // EECS_SIMD_TIER == 0
