// Tier-compiled pack checks (see simd_pack_checks.hpp).
#include "simd_pack_checks.hpp"

#include <bit>
#include <iterator>

#include "common/atan2.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"

EECS_SIMD_TIER_BEGIN
namespace eecs::simd_checks {

template <class Isa>
void PackChecks<Isa>::atan2_matches_scalar(int random_iters) {
  using F4 = typename Isa::F32;
  constexpr int W = F4::kLanes;
  const auto check = [](const float* ys, const float* xs) {
    float out[W];
    simd::atan2f_pack<F4>(F4::load(ys), F4::load(xs)).store(out);
    for (int i = 0; i < W; ++i) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(out[i]),
                std::bit_cast<std::uint32_t>(simd::atan2f_portable(ys[i], xs[i])))
          << "lane " << i << " y=" << std::hexfloat << ys[i] << " x=" << xs[i];
    }
  };
  Rng rng(78);
  const auto rand_bits = [&] {
    return std::bit_cast<float>(static_cast<std::uint32_t>(rng.next_u64() >> 32));
  };
  for (std::uint32_t by : kAtanSpecialBits) {
    for (std::uint32_t bx : kAtanSpecialBits) {
      // Specials mixed with random lanes: the fallback must patch exactly
      // the special lanes and leave the vector lanes untouched.
      float ys[W];
      float xs[W];
      for (int j = 0; j < W; ++j) {
        const bool special = j == 0 || j == W - 1;
        ys[j] = special ? std::bit_cast<float>(by) : rand_bits();
        xs[j] = special ? std::bit_cast<float>(bx) : rand_bits();
      }
      check(ys, xs);
    }
  }
  for (int i = 0; i < random_iters; ++i) {
    float ys[W];
    float xs[W];
    for (int j = 0; j < W; ++j) {
      ys[j] = rand_bits();
      xs[j] = rand_bits();
    }
    check(ys, xs);
  }
  // Gradient-realistic small magnitudes (the hot kernel's actual operands).
  for (int i = 0; i < random_iters; ++i) {
    float ys[W];
    float xs[W];
    for (int j = 0; j < W; ++j) {
      ys[j] = static_cast<float>(rng.uniform() * 4.0 - 2.0);
      xs[j] = static_cast<float>(rng.uniform() * 4.0 - 2.0);
    }
    check(ys, xs);
  }
}

template <class Isa>
void PackChecks<Isa>::ops_match_emulation() {
  using F = typename Isa::F32;
  using E = simd::F32xEmul<F::kLanes>;
  constexpr int W = F::kLanes;
  constexpr int N = static_cast<int>(std::size(kTrickyF));
  for (int base = 0; base < N; ++base) {
    float va[W];
    float vb[W];
    for (int j = 0; j < W; ++j) {
      va[j] = kTrickyF[(base + j) % N];
      vb[j] = kTrickyF[(base + 2 * j + 1) % N];
    }
    const F na = F::load(va);
    const F nb = F::load(vb);
    const E ea = E::load(va);
    const E eb = E::load(vb);
    float n[W];
    float e[W];
    const auto check = [&](F nv, E ev) {
      nv.store(n);
      ev.store(e);
      expect_bits_eq<float>(n, e);
    };
    check(na + nb, ea + eb);
    check(na - nb, ea - eb);
    check(na * nb, ea * eb);
    check(na / nb, ea / eb);
    check(F::min(na, nb), E::min(ea, eb));
    check(F::max(na, nb), E::max(ea, eb));
    check(F::floor(na), E::floor(ea));
    check(F::abs(na), E::abs(ea));
    check(F::select(F::gt(na, nb), na, nb), E::select(E::gt(ea, eb), ea, eb));
    for (int j = 0; j < W; ++j) {
      EXPECT_EQ(F::gt(na, nb).extract(j), E::gt(ea, eb).extract(j));
      EXPECT_EQ(F::lt(na, nb).extract(j), E::lt(ea, eb).extract(j));
      EXPECT_EQ(F::ge(na, nb).extract(j), E::ge(ea, eb).extract(j));
    }
  }
  // Gathers: indexed, strided, and the float->double strided form.
  float src[4 * W + 3];
  for (int i = 0; i < 4 * W + 3; ++i) src[i] = kTrickyF[i % N];
  int idx[W];
  for (int j = 0; j < W; ++j) idx[j] = (j * 3 + 1) % (4 * W);
  float n[W];
  float e[W];
  F::gather(src, idx).store(n);
  E::gather(src, idx).store(e);
  expect_bits_eq<float>(n, e);
  F::gather_stride(src, 3).store(n);
  E::gather_stride(src, 3).store(e);
  expect_bits_eq<float>(n, e);
  using D = typename Isa::F64;
  using ED = simd::F64xEmul<D::kLanes>;
  double dn[D::kLanes];
  double de[D::kLanes];
  D::gather2f(src, 3).store(dn);
  ED::gather2f(src, 3).store(de);
  expect_bits_eq<double>(dn, de);
}

EECS_SIMD_TIER_KERNELS(PackChecks);

}  // namespace eecs::simd_checks
EECS_SIMD_TIER_END
