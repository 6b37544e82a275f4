// Pack-level checks of tests/test_simd.cpp that run the native packs. Like
// the library kernels they are compiled once per x86 tier (common/simd.hpp
// "Kernel tiers"): the AVX2/AVX-512 packs may only be used by code compiled
// in their own tier's unit.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <span>

namespace eecs::simd_checks {

/// Values chosen to stress rounding edges: negatives, non-representable
/// fractions, exact powers of two, halfway cases for floor, and zeros.
inline constexpr float kTrickyF[] = {0.0f,  -0.0f, 1.0f,      -1.0f,   0.1f,     -0.1f,  2.5f,
                                     -2.5f, 3.0f,  -3.0f,     1e-8f,   -1e-8f,   1e8f,   -1e8f,
                                     0.3f,  7.25f, -1048576.0f, 1048575.5f, 0.5f, -0.5f, 1.5f};

/// Operand bit patterns that exercise every atan2f path: signed zeros,
/// denormals, infinities, quiet/signalling NaNs, each atanf reduction
/// boundary with its neighbors, and the exponent-gap guard thresholds.
inline constexpr std::uint32_t kAtanSpecialBits[] = {
    0x00000000u, 0x80000000u, 0x00000001u, 0x80000001u, 0x007FFFFFu, 0x807FFFFFu,
    0x00800000u, 0x3F800000u, 0xBF800000u, 0x7F7FFFFFu, 0xFF7FFFFFu, 0x7F800000u,
    0xFF800000u, 0x7FC00000u, 0xFFC00001u, 0x7F800001u, 0x7FFFFFFFu, 0x30FFFFFFu,
    0x31000000u, 0x3EDFFFFFu, 0x3EE00000u, 0x3F300000u, 0x3F980000u, 0x401C0000u,
    0x4BFFFFFFu, 0x4C000000u, 0x4C800000u, 0x5DFFFFFFu, 0x5E000000u, 0x0DA24260u,
    0x40490FDBu, 0xC0490FDBu, 0x3FC90FDBu, 0x61800000u, 0xE1800000u,
};

template <class T>
void expect_bits_eq(std::span<const T> a, std::span<const T> b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(T)), 0);
}

/// The checks for one ISA tag (simd::IsaEmul*/IsaNative*).
template <class Isa>
struct PackChecks {
  /// atan2f_pack against the scalar replica in every lane, in the native and
  /// emulated backends alike: special operands mixed with random lanes (the
  /// scalar fallback must patch exactly the special lanes), then
  /// `random_iters` packs of random bit patterns and as many of
  /// gradient-realistic small magnitudes.
  static void atan2_matches_scalar(int random_iters);
  /// Every F32 op, both gathers and the F64 float-widening gather of the
  /// tag's packs against the same-width emulation, on the kTrickyF grid.
  static void ops_match_emulation();
};

}  // namespace eecs::simd_checks
