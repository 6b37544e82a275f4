// Exhaustive verifier for the vendored fdlibm atan2f (common/atan2.hpp).
//
// Three passes, strongest first:
//   1. atan sweep: atan2f_portable(y, 1.0f) against the host libm for ALL
//      2^32 bit patterns of y. fdlibm's atan2f(y, 1.0f) reduces to atanf(y),
//      so this proves the whole polynomial/reduction core bit-for-bit.
//   2. pack sweep: atan2f_pack (native and emulated) against the scalar
//      replica on a dense deterministic sample plus a special-value grid —
//      zeros, denormals, infinities, NaNs, every interval boundary.
//   3. pair sweep: atan2f_portable against the host libm on the same grid
//      and sample, exercising the quadrant fix-up and exponent-gap guards.
//
// Passes 1 and 3 compare against the HOST libm, so they only prove
// equivalence on hosts whose atan2f is the classic fdlibm one (glibc <= 2.36
// and most BSD-derived libms). On hosts with a correctly-rounded libm
// (glibc >= 2.39's CORE-MATH floats) they are expected to report mismatches
// — run with --replica-only there; the vendored values are the committed
// goldens' values, which is the entire point of vendoring. The tool prints
// which mode it detected from a probe set before sweeping.
//
// Not registered as a test: pass 1 is ~2 minutes of single-core work. Run it
// whenever common/atan2.hpp or the pack ops under it change; CI's release job
// runs it on the default binary, whose pack sweep covers every SIMD tier the
// runner's CPU supports.
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>

#include "common/atan2.hpp"
#include "common/simd.hpp"

namespace {

/// Shared LCG stream: the pack sweeps of every tier and the pair sweep draw
/// from one sequence.
std::uint32_t next32(std::uint64_t& state) {
  state = state * 6364136223846793005ull + 1442695040888963407ull;
  return static_cast<std::uint32_t>(state >> 32);
}

float from_bits(std::uint32_t b) { return std::bit_cast<float>(b); }
std::uint32_t to_bits(float f) { return std::bit_cast<std::uint32_t>(f); }

// Special operands: signed zeros, extreme denormals/normals, infinities,
// quiet and signalling NaNs, every atanf interval boundary and its
// neighbors, and the exponent-gap guard thresholds.
constexpr std::uint32_t kSpecial[] = {
    0x00000000u, 0x80000000u, 0x00000001u, 0x80000001u, 0x007FFFFFu, 0x807FFFFFu,
    0x00800000u, 0x80800000u, 0x3F800000u, 0xBF800000u, 0x7F7FFFFFu, 0xFF7FFFFFu,
    0x7F800000u, 0xFF800000u, 0x7FC00000u, 0xFFC00001u, 0x7F800001u, 0xFF800001u,
    0x7FFFFFFFu, 0x30FFFFFFu, 0x31000000u, 0x31000001u, 0x3EDFFFFFu, 0x3EE00000u,
    0x3EE00001u, 0x3F2FFFFFu, 0x3F300000u, 0x3F97FFFFu, 0x3F980000u, 0x401BFFFFu,
    0x401C0000u, 0x4BFFFFFFu, 0x4C000000u, 0x4C000001u, 0x4C7FFFFFu, 0x4C800000u,
    0x5DFFFFFFu, 0x5E000000u, 0x5E000001u, 0x0DA24260u, 0x40490FDBu, 0xC0490FDBu,
    0x3FC90FDBu, 0xBFC90FDBu, 0x1E7FFFFFu, 0x1E800000u, 0x61800000u, 0xE1800000u,
};

bool bits_equal_or_both_nan_payload(float a, float b) { return to_bits(a) == to_bits(b); }

}  // namespace

// The pack sweep runs the native packs, so it is compiled once per x86 tier
// like the library kernels (common/simd.hpp "Kernel tiers").
EECS_SIMD_TIER_BEGIN

template <class Isa>
struct PackSweep {
  /// atan2f_pack against the scalar replica over the special grid plus 64M
  /// random lanes; returns the mismatch count.
  static long run(const char* name, std::uint64_t& rng);
};

template <class Isa>
long PackSweep<Isa>::run(const char* name, std::uint64_t& rng) {
  using F4 = typename Isa::F32;
  constexpr int W = F4::kLanes;
  long bad = 0;
  auto batch = [&](const float* ys, const float* xs) {
    float out[W];
    eecs::simd::atan2f_pack<F4>(F4::load(ys), F4::load(xs)).store(out);
    for (int i = 0; i < W; ++i) {
      const float want = eecs::simd::atan2f_portable(ys[i], xs[i]);
      if (!bits_equal_or_both_nan_payload(out[i], want)) {
        if (bad < 10) {
          std::printf("  [%s] PACK MISMATCH y=%08x x=%08x pack=%08x scalar=%08x\n", name,
                      to_bits(ys[i]), to_bits(xs[i]), to_bits(out[i]), to_bits(want));
        }
        ++bad;
      }
    }
  };
  for (std::uint32_t by : kSpecial) {
    for (std::uint32_t bx : kSpecial) {
      // Specials on the edge lanes, random fill in between: the scalar
      // fallback must patch exactly the special lanes.
      float ys[W];
      float xs[W];
      for (int j = 0; j < W; ++j) {
        const bool special = j == 0 || j == W - 1;
        ys[j] = special ? from_bits(by) : from_bits(next32(rng));
        xs[j] = special ? from_bits(bx) : from_bits(next32(rng));
      }
      batch(ys, xs);
    }
  }
  for (long i = 0; i < (64 * 1000 * 1000) / W; ++i) {
    float ys[W];
    float xs[W];
    for (int j = 0; j < W; ++j) {
      ys[j] = from_bits(next32(rng));
      xs[j] = from_bits(next32(rng));
    }
    batch(ys, xs);
  }
  std::printf("pack sweep (%s, %d lanes): %ld mismatches over 64M lanes + special grid\n", name,
              W, bad);
  return bad;
}

EECS_SIMD_TIER_KERNELS(PackSweep);
EECS_SIMD_TIER_END

#if EECS_SIMD_TIER == 0
namespace {

long check_pair(float y, float x, long budget, const char* tag, float (*ref)(float, float)) {
  const float mine = eecs::simd::atan2f_portable(y, x);
  const float want = ref(y, x);
  if (!bits_equal_or_both_nan_payload(mine, want)) {
    if (budget < 10) {
      std::printf("  [%s] MISMATCH y=%08x x=%08x replica=%08x ref=%08x\n", tag, to_bits(y),
                  to_bits(x), to_bits(mine), to_bits(want));
    }
    return 1;
  }
  return 0;
}

float libm_atan2f(float y, float x) { return std::atan2(y, x); }

}  // namespace

int main(int argc, char** argv) {
  const bool replica_only = argc > 1 && std::strcmp(argv[1], "--replica-only") == 0;

  // Probe whether the host libm is the fdlibm this file replicates: a
  // handful of arguments where fdlibm's result differs from the correctly
  // rounded one.
  bool host_is_fdlibm = true;
  for (std::uint32_t by : kSpecial) {
    for (std::uint32_t bx : kSpecial) {
      if (to_bits(eecs::simd::atan2f_portable(from_bits(by), from_bits(bx))) !=
          to_bits(libm_atan2f(from_bits(by), from_bits(bx)))) {
        host_is_fdlibm = false;
      }
    }
  }
  std::printf("host libm probe: %s\n", host_is_fdlibm ? "fdlibm-compatible" : "NOT fdlibm");

  long bad = 0;
  // Every available backend at every width: the 128-bit native/emulation
  // pair, plus the wider native tiers compiled in and supported by this CPU
  // and their always-present emulation twins.
  std::uint64_t rng = 0x9E3779B97F4A7C15ull;
  eecs::simd::for_each_isa([&](auto isa) {
    using Isa = decltype(isa);
    char name[32];
    std::snprintf(name, sizeof name, "%s%d", Isa::kIsNative ? "native" : "emul", Isa::kWidthBits);
    bad += PackSweep<Isa>::run(name, rng);
  });

  if (!replica_only && host_is_fdlibm) {
    long bad_pairs = 0;
    for (long i = 0; i < 64 * 1000 * 1000; ++i) {
      bad_pairs += check_pair(from_bits(next32(rng)), from_bits(next32(rng)), bad_pairs, "pairs",
                              &libm_atan2f);
    }
    std::printf("pair sweep vs libm: %ld mismatches over 64M pairs\n", bad_pairs);
    bad += bad_pairs;

    long bad_atan = 0;
    for (std::uint64_t b = 0; b <= 0xFFFFFFFFull; ++b) {
      bad_atan += check_pair(from_bits(static_cast<std::uint32_t>(b)), 1.0f, bad_atan, "atan",
                             &libm_atan2f);
    }
    std::printf("atan sweep vs libm: %ld mismatches over all 2^32 patterns\n", bad_atan);
    bad += bad_atan;
  } else {
    std::printf("libm sweeps skipped (%s)\n", replica_only ? "--replica-only" : "host not fdlibm");
  }

  if (bad == 0) {
    std::printf("PASS: vendored atan2f is bit-exact\n");
    return 0;
  }
  std::printf("FAIL: %ld mismatches\n", bad);
  return 1;
}
#endif  // EECS_SIMD_TIER == 0
