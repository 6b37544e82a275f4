// Portable, vectorizable atan2f that is bit-exact with the fdlibm float
// atan2 (glibc's sysdeps/ieee754/flt-32 e_atan2f/s_atanf, derived from Sun's
// fdlibm, whose license freely grants use/copy/modify/distribute).
//
// Why vendor a libm function: the gradient-orientation kernel is the hottest
// scalar loop in the detector stack, and std::atan2(float, float) is (a) an
// opaque call the pack layer cannot vectorize and (b) a per-libm-version
// result — glibc switched float transcendentals to correctly-rounded
// implementations after 2.36, so goldens computed through libm would not be
// portable across hosts. Freezing the exact fdlibm evaluation order here
// makes orientation both lane-parallel and host-independent; the committed
// goldens are fdlibm values and stay bit-identical everywhere.
//
// `atan2f_portable` is the scalar reference: the same float operation
// sequence fdlibm executes, boundary-for-boundary (the bit-pattern range
// checks are kept as in the original; they are equivalent to float compares
// for the finite nonnegative reduced argument, which is what the pack kernel
// exploits). `atan2f_pack<F4>` evaluates four quotients at once with
// mask/select lane classification — every lane runs the one polynomial, the
// per-interval argument reductions are blended in, and the rare special
// operands (zeros, infinities, NaNs) fall back to the scalar reference
// per lane. Both entry points produce identical bits for every input pair
// (tests/test_simd.cpp sweeps this; tools/atan2_exhaustive proves the scalar
// replica against a fdlibm host libm over all 2^32 single-argument patterns).
#pragma once

#include <bit>
#include <cstdint>

#include "common/simd.hpp"

namespace eecs::simd {

namespace atan_detail {

inline constexpr float f32(std::uint32_t bits) { return std::bit_cast<float>(bits); }

// atanf coefficients (fdlibm s_atanf): atan_hi/atan_lo anchor values for the
// four reduction intervals, the even-power polynomial aT[0,2,..,10], and the
// odd-power chain, written exactly as fdlibm evaluates it (a fused
// multiply-subtract sequence starting from -aT[9]).
inline constexpr float kAtanHi[4] = {f32(0x3EED6338u), f32(0x3F490FDAu), f32(0x3F7B985Eu),
                                     f32(0x3FC90FDAu)};
inline constexpr float kAtanLo[4] = {f32(0x31AC3769u), f32(0x33222168u), f32(0x33140FB4u),
                                     f32(0x33A22168u)};
inline constexpr float kA0 = f32(0x3EAAAAABu);   // aT[0]  =  3.3333334327e-01
inline constexpr float kA2 = f32(0x3E124925u);   // aT[2]  =  1.4285714924e-01
inline constexpr float kA4 = f32(0x3DBA2E6Eu);   // aT[4]  =  9.0908870101e-02
inline constexpr float kA6 = f32(0x3D886B35u);   // aT[6]  =  6.6610731184e-02
inline constexpr float kA8 = f32(0x3D4BDA59u);   // aT[8]  =  4.9768779427e-02
inline constexpr float kA10 = f32(0x3C8569D7u);  // aT[10] =  1.6285819933e-02
inline constexpr float kB9 = f32(0xBD15A221u);   // -aT[9], the chain's seed
inline constexpr float kB7 = f32(0x3D6EF16Bu);   // -aT[7]
inline constexpr float kB5 = f32(0x3D9D8795u);   // -aT[5]
inline constexpr float kB3 = f32(0x3DE38E38u);   // -aT[3]
inline constexpr float kB1 = f32(0x3E4CCCCDu);   // -aT[1]

// atan2f constants (fdlibm e_atan2f).
inline constexpr float kTiny = f32(0x0DA24260u);       // 1.0e-30
inline constexpr float kPiO4 = f32(0x3F490FDBu);       // pi/4
inline constexpr float kPiO2 = f32(0x3FC90FDBu);       // pi/2
inline constexpr float kPi = f32(0x40490FDBu);         // pi
inline constexpr float kPiLoNeg = f32(0x33BBBD2Eu);    // -pi_lo =  8.7422776573e-08
inline constexpr float kPiLoNegH = f32(0x333BBD2Eu);   // -pi_lo/2

/// fdlibm s_atanf, restricted to the bit-identical op sequence. Handles the
/// full float range including NaN and infinities.
inline float atanf_fdlibm(float x) {
  const std::uint32_t hx = std::bit_cast<std::uint32_t>(x);
  const std::uint32_t ix = hx & 0x7FFFFFFFu;
  if (ix >= 0x4C000000u) {  // |x| >= 2^25: atan saturates (or NaN)
    if (ix > 0x7F800000u) return x + x;
    if ((hx >> 31) == 0u) return kAtanHi[3] + kAtanLo[3];
    return -kAtanHi[3] - kAtanLo[3];
  }
  int id;
  float t;
  if (ix < 0x3EE00000u) {      // |x| < 0.4375
    if (ix <= 0x30FFFFFFu) {   // |x| < 2^-29: atan(x) rounds to x
      return x;
    }
    id = -1;
    t = x;
  } else {
    t = x < 0.0f ? -x : x;
    if (ix < 0x3F300000u) {  // |x| < 0.6875
      id = 0;
      t = ((t + t) - 1.0f) / (2.0f + t);
    } else if (ix < 0x3F980000u) {  // |x| < 1.1875
      id = 1;
      t = (t - 1.0f) / (t + 1.0f);
    } else if (ix < 0x401C0000u) {  // |x| < 2.4375
      id = 2;
      t = (t - 1.5f) / (1.5f * t + 1.0f);
    } else {
      id = 3;
      t = -1.0f / t;
    }
  }
  const float z = t * t;
  const float w = z * z;
  // Odd/even split exactly as fdlibm orders it.
  const float s1 = z * (kA0 + w * (kA2 + w * (kA4 + w * (kA6 + w * (kA8 + w * kA10)))));
  float p = kB9;
  p = p * w - kB7;
  p = p * w - kB5;
  p = p * w - kB3;
  p = p * w - kB1;
  const float s2 = p * w;
  const float poly = (s1 + s2) * t;
  if (id < 0) return t - poly;
  const float r = kAtanHi[id] - ((poly - kAtanLo[id]) - t);
  return (hx >> 31) ? std::bit_cast<float>(std::bit_cast<std::uint32_t>(r) ^ 0x80000000u) : r;
}

}  // namespace atan_detail

/// fdlibm e_atan2f: bit-exact scalar replica over the full float x float
/// domain (zeros, infinities, NaNs, denormals included).
inline float atan2f_portable(float y, float x) {
  using namespace atan_detail;
  const std::uint32_t hx = std::bit_cast<std::uint32_t>(x);
  const std::uint32_t hy = std::bit_cast<std::uint32_t>(y);
  const std::uint32_t ix = hx & 0x7FFFFFFFu;
  const std::uint32_t iy = hy & 0x7FFFFFFFu;
  // NaN operands propagate x's payload first (the addss operand order the
  // glibc build compiled fdlibm's `x+y` into).
  if (ix > 0x7F800000u) return x + x;
  if (iy > 0x7F800000u) return y + y;
  // Quadrant selector: bit 0 = sign(y), bit 1 = sign(x).
  const unsigned m = ((hx >> 30) & 2u) | (hy >> 31);
  if (iy == 0u) {  // y = +-0
    switch (m) {
      case 0u:
      case 1u:
        return y;  // atan(+-0, +anything) = +-0
      case 2u:
        return kPi + kTiny;  // atan(+0, -anything) = pi
      default:
        return -kPi - kTiny;  // atan(-0, -anything) = -pi
    }
  }
  if (ix == 0u) {  // x = +-0, y != 0
    return (hy >> 31) ? -kPiO2 - kTiny : kPiO2 + kTiny;
  }
  if (ix == 0x7F800000u) {  // x infinite
    if (iy == 0x7F800000u) {
      switch (m) {
        case 0u:
          return kPiO4 + kTiny;  // atan(+inf, +inf)
        case 1u:
          return -kPiO4 - kTiny;
        case 2u:
          return 3.0f * kPiO4 + kTiny;  // atan(+inf, -inf)
        default:
          return -3.0f * kPiO4 - kTiny;
      }
    }
    switch (m) {
      case 0u:
        return 0.0f;  // atan(+finite, +inf)
      case 1u:
        return -0.0f;
      case 2u:
        return kPi + kTiny;  // atan(+finite, -inf)
      default:
        return -kPi - kTiny;
    }
  }
  if (iy == 0x7F800000u) {  // y infinite, x finite
    return (hy >> 31) ? -kPiO2 - kTiny : kPiO2 + kTiny;
  }
  // |y/x| as an exponent difference; the quotient itself cannot overflow
  // below because k <= 60 bounds it by ~2^61.
  const int k = static_cast<std::int32_t>(iy - ix) >> 23;
  float z;
  if (k > 60) {
    z = kPiO2 - kPiLoNegH;  // |y/x| > 2^60: atan saturates to pi/2
  } else if ((hx >> 31) && k < -60) {
    z = 0.0f;  // |y| <<< |x| (x < 0): atan underflows to 0
  } else {
    const float q = y / x;
    // fabsf must be a sign-bit clear: the quotient can underflow to -0.0.
    z = atan_detail::atanf_fdlibm(
        std::bit_cast<float>(std::bit_cast<std::uint32_t>(q) & 0x7FFFFFFFu));
  }
  switch (m) {
    case 0u:
      return z;  // atan(+, +)
    case 1u:
      return std::bit_cast<float>(std::bit_cast<std::uint32_t>(z) ^ 0x80000000u);
    case 2u:
      return kPi - (z + kPiLoNeg);  // atan(+, -)
    default:
      return (z + kPiLoNeg) - kPi;  // atan(-, -)
  }
}

/// Four atan2f_portable evaluations per call, bit-identical to the scalar
/// reference in every lane. The pack body classifies the reduced argument
/// with compare masks and blends the per-interval reductions; lanes holding
/// a zero, infinite, or NaN operand are recomputed through the scalar
/// reference (they never occur in the gradient kernels' interiors, so the
/// branch is cold there). Always inlined, with the packs passed by
/// reference: this header template is declared at baseline flags, so a wide
/// pack's ops only get its tier's ISA once the body lands in the tier kernel
/// that calls it (common/simd.hpp "Kernel tiers"), and no baseline signature
/// carries a wide vector by value.
template <class F4>
[[gnu::always_inline]] inline F4 atan2f_pack(const F4& y, const F4& x) {
  using namespace atan_detail;
  using U = typename F4::Mask;
  const U abs_mask = U::broadcast(0x7FFFFFFFu);
  const U uy = F4::to_bits(y);
  const U ux = F4::to_bits(x);
  const U iy = uy & abs_mask;
  const U ix = ux & abs_mask;
  // Special lanes needing the scalar reference: infinities and NaNs only.
  // Zero operands — common in the gradient kernels, where flat image regions
  // make gx or gy exactly 0 — are handled with blends below, so they no
  // longer force the per-lane fallback. (All the remaining bit patterns are
  // positive as signed ints, so cmpgt_signed is an unsigned compare here.)
  const U zero_bits = U::broadcast(0u);
  const U max_finite = U::broadcast(0x7F7FFFFFu);
  const U special =
      U::cmpgt_signed(iy, max_finite) | U::cmpgt_signed(ix, max_finite);
  const U y_zero = U::cmpeq(iy, zero_bits);
  const U x_zero = U::cmpeq(ix, zero_bits);

  const F4 one = F4::broadcast(1.0f);
  // Keep the (discarded) special and zero-operand lanes division-safe.
  const F4 x_safe = F4::select(special | y_zero | x_zero, one, x);
  const F4 q = F4::abs(y / x_safe);  // fabsf(y/x), the atanf argument

  // atanf interval classification on q >= 0 — float compares are exactly the
  // fdlibm bit-range tests for finite nonnegative arguments.
  const U lt_04375 = F4::lt(q, F4::broadcast(0.4375f));
  const U lt_06875 = F4::lt(q, F4::broadcast(0.6875f));
  const U lt_11875 = F4::lt(q, F4::broadcast(1.1875f));
  const U lt_24375 = F4::lt(q, F4::broadcast(2.4375f));
  const U huge = F4::ge(q, F4::broadcast(33554432.0f));  // q >= 2^25

  // Blended argument reduction: every lane evaluates its interval's t with
  // the identical scalar op order. The |q| < 2^-29 "return q" shortcut needs
  // no mask — the id=-1 polynomial path reproduces q bit-exactly there (the
  // correction term falls below half an ulp of q).
  const F4 num = F4::select(
      lt_04375, q,
      F4::select(lt_06875, (q + q) - one,
                 F4::select(lt_11875, q - one,
                            F4::select(lt_24375, q - F4::broadcast(1.5f), F4::broadcast(-1.0f)))));
  const F4 den = F4::select(
      lt_04375, one,
      F4::select(lt_06875, F4::broadcast(2.0f) + q,
                 F4::select(lt_11875, q + one,
                            F4::select(lt_24375, F4::broadcast(1.5f) * q + one, q))));
  const F4 t = num / den;

  const F4 z2 = t * t;
  const F4 w = z2 * z2;
  const F4 s1 =
      z2 * (F4::broadcast(kA0) +
            w * (F4::broadcast(kA2) +
                 w * (F4::broadcast(kA4) +
                      w * (F4::broadcast(kA6) +
                           w * (F4::broadcast(kA8) + w * F4::broadcast(kA10))))));
  F4 p = F4::broadcast(kB9);
  p = p * w - F4::broadcast(kB7);
  p = p * w - F4::broadcast(kB5);
  p = p * w - F4::broadcast(kB3);
  p = p * w - F4::broadcast(kB1);
  const F4 s2 = p * w;
  const F4 poly = (s1 + s2) * t;

  const F4 hi = F4::select(
      lt_06875, F4::broadcast(kAtanHi[0]),
      F4::select(lt_11875, F4::broadcast(kAtanHi[1]),
                 F4::select(lt_24375, F4::broadcast(kAtanHi[2]), F4::broadcast(kAtanHi[3]))));
  const F4 lo = F4::select(
      lt_06875, F4::broadcast(kAtanLo[0]),
      F4::select(lt_11875, F4::broadcast(kAtanLo[1]),
                 F4::select(lt_24375, F4::broadcast(kAtanLo[2]), F4::broadcast(kAtanLo[3]))));
  F4 z = F4::select(lt_04375, t - poly, hi - ((poly - lo) - t));
  z = F4::select(huge, F4::broadcast(kAtanHi[3] + kAtanLo[3]), z);

  // fdlibm's exponent-difference guards: |y/x| > ~2^60 saturates to pi/2
  // before the division result could overflow; |y/x| < ~2^-60 with x < 0
  // flushes atan to zero. Two's-complement compares on the raw bits.
  const U expdiff = iy - ix;
  const U k_big = U::cmpgt_signed(expdiff, U::broadcast(0x1E7FFFFFu));
  const U k_small = U::cmpgt_signed(U::broadcast(0xE2000000u), expdiff);  // diff < -60 * 2^23
  const F4 fzero = F4::broadcast(0.0f);
  const U x_neg = F4::lt(x, fzero);
  const U y_neg = F4::lt(y, fzero);
  z = F4::select(k_big, F4::broadcast(kPiO2 - kPiLoNegH), z);
  z = F4::select(k_small & x_neg, fzero, z);

  // Quadrant fix-up, the four fdlibm cases as two nested blends.
  const F4 zpl = z + F4::broadcast(kPiLoNeg);  // z - pi_lo
  const F4 pi = F4::broadcast(kPi);
  const F4 neg_z = F4::from_bits(F4::to_bits(z) ^ U::broadcast(0x80000000u));
  const F4 when_x_neg = F4::select(y_neg, zpl - pi, pi - zpl);
  const F4 when_x_pos = F4::select(y_neg, neg_z, z);
  F4 result = F4::select(x_neg, when_x_neg, when_x_pos);

  // Zero-operand cases, the exact fdlibm results (e_atan2f's iy==0 / ix==0
  // branches). Sign tests use the raw bits so -0.0 counts as negative, as
  // fdlibm's hx>>31 does; -kPi - kTiny == -(kPi + kTiny) exactly, so one
  // blended constant per sign suffices. Lanes that are also infinite/NaN get
  // overwritten by the scalar fallback right after.
  const U x_sign = U::cmpgt_signed(zero_bits, ux);
  const U y_sign = U::cmpgt_signed(zero_bits, uy);
  const U y_nonzero = U::cmpgt_signed(iy, zero_bits);
  const F4 half_signed = F4::select(y_sign, F4::broadcast(-kPiO2 - kTiny),
                                    F4::broadcast(kPiO2 + kTiny));
  result = F4::select(x_zero & y_nonzero, half_signed, result);
  const F4 pi_signed =
      F4::select(y_sign, F4::broadcast(-kPi - kTiny), F4::broadcast(kPi + kTiny));
  result = F4::select(y_zero, F4::select(x_sign, pi_signed, y), result);

  if (U::any(special)) {
    float ys[F4::kLanes];
    float xs[F4::kLanes];
    float rs[F4::kLanes];
    y.store(ys);
    x.store(xs);
    result.store(rs);
    for (int i = 0; i < F4::kLanes; ++i) {
      if (special.extract(i) != 0u) rs[i] = atan2f_portable(ys[i], xs[i]);
    }
    result = F4::load(rs);
  }
  return result;
}

}  // namespace eecs::simd
