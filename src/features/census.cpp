#include "features/census.hpp"

#include <cmath>

#include "common/simd.hpp"

EECS_SIMD_TIER_BEGIN
namespace eecs::features {

namespace {

/// Census codes of one row. The 8 neighbor comparisons of a pixel are
/// independent single-float compares, so the lanes run across 4 adjacent
/// output pixels: each comparison becomes a masked bit per lane, OR-folded in
/// the same LSB-first neighbor order as the scalar edge code. Pure integer
/// masking after the compares — trivially bit-exact in every backend.
template <class F4>
void census_row(const float* row, const float* up, const float* dn, int w, float threshold,
                std::uint8_t* out) {
  using Mask = typename F4::Mask;
  const auto scalar_code = [&](int x) {
    const int xl = x > 0 ? x - 1 : 0;
    const int xr = x + 1 < w ? x + 1 : w - 1;
    const float t = row[x] + threshold;
    unsigned code = (up[xl] > t) ? 1u : 0u;
    code |= (up[x] > t) ? 2u : 0u;
    code |= (up[xr] > t) ? 4u : 0u;
    code |= (row[xl] > t) ? 8u : 0u;
    code |= (row[xr] > t) ? 16u : 0u;
    code |= (dn[xl] > t) ? 32u : 0u;
    code |= (dn[x] > t) ? 64u : 0u;
    code |= (dn[xr] > t) ? 128u : 0u;
    out[x] = static_cast<std::uint8_t>(code);
  };
  if (w == 0) return;
  scalar_code(0);
  int x = 1;
  const F4 thr = F4::broadcast(threshold);
  for (; x + F4::kLanes <= w - 1; x += F4::kLanes) {
    const F4 t = F4::load(row + x) + thr;
    const auto bit = [&](const float* p, std::uint32_t b) {
      return F4::gt(F4::load(p), t) & Mask::broadcast(b);
    };
    const Mask code = bit(up + x - 1, 1u) | bit(up + x, 2u) | bit(up + x + 1, 4u) |
                      bit(row + x - 1, 8u) | bit(row + x + 1, 16u) | bit(dn + x - 1, 32u) |
                      bit(dn + x, 64u) | bit(dn + x + 1, 128u);
    for (int j = 0; j < F4::kLanes; ++j) {
      out[x + j] = static_cast<std::uint8_t>(code.extract(j));
    }
  }
  for (; x < w; ++x) scalar_code(x);
}

}  // namespace

/// The census transform of one ISA tag; a tier section (common/simd.hpp
/// "Kernel tiers").
template <class Isa>
struct CensusKernels {
  /// Codes of every pixel of a w x h gray plane into `codes`.
  static void transform(const float* src, int w, int h, float threshold, std::uint8_t* codes);
};

template <class Isa>
void CensusKernels<Isa>::transform(const float* src, int w, int h, float threshold,
                                   std::uint8_t* codes) {
  using F4 = typename Isa::F32;
  for (int y = 0; y < h; ++y) {
    const float* row = src + static_cast<std::size_t>(y) * static_cast<std::size_t>(w);
    const float* up =
        src + static_cast<std::size_t>(y > 0 ? y - 1 : 0) * static_cast<std::size_t>(w);
    const float* dn =
        src + static_cast<std::size_t>(y + 1 < h ? y + 1 : h - 1) * static_cast<std::size_t>(w);
    std::uint8_t* out = codes + static_cast<std::size_t>(y) * static_cast<std::size_t>(w);
    census_row<F4>(row, up, dn, w, threshold, out);
  }
}

EECS_SIMD_TIER_KERNELS(CensusKernels);

}  // namespace eecs::features
EECS_SIMD_TIER_END

#if EECS_SIMD_TIER == 0
namespace eecs::features {

std::vector<std::uint8_t> census_transform(const imaging::Image& img, energy::CostCounter* cost,
                                           float threshold) {
  const imaging::Image gray = imaging::to_gray(img);
  std::vector<std::uint8_t> codes(gray.pixel_count(), 0);
  const int w = gray.width();
  const int h = gray.height();
  // Neighbor bit layout, LSB first: (-1,-1) (0,-1) (1,-1) (-1,0) (1,0)
  // (-1,1) (0,1) (1,1) — same fixed order as the offset-table form this
  // replaces; each comparison is independent, with edge pixels clamped.
  const float* src = gray.plane(0).data();
  simd::dispatch([&](auto isa) {
    CensusKernels<decltype(isa)>::transform(src, w, h, threshold, codes.data());
  });
  if (cost != nullptr) cost->add_pixels(gray.pixel_count() * 8);
  return codes;
}

std::vector<float> census_window_descriptor(const std::vector<std::uint8_t>& codes,
                                            int image_width, int image_height, int x0, int y0,
                                            int window_w, int window_h, int blocks_x,
                                            int blocks_y, energy::CostCounter* cost) {
  EECS_EXPECTS(image_width > 0 && image_height > 0);
  EECS_EXPECTS(static_cast<std::size_t>(image_width) * static_cast<std::size_t>(image_height) ==
               codes.size());
  EECS_EXPECTS(x0 >= 0 && y0 >= 0 && x0 + window_w <= image_width && y0 + window_h <= image_height);
  EECS_EXPECTS(blocks_x >= 1 && blocks_y >= 1);

  std::vector<float> desc(static_cast<std::size_t>(census_descriptor_size(blocks_x, blocks_y)), 0.0f);
  for (int by = 0; by < blocks_y; ++by) {
    const int wy0 = y0 + window_h * by / blocks_y;
    const int wy1 = y0 + window_h * (by + 1) / blocks_y;
    for (int bx = 0; bx < blocks_x; ++bx) {
      const int wx0 = x0 + window_w * bx / blocks_x;
      const int wx1 = x0 + window_w * (bx + 1) / blocks_x;
      float* hist = desc.data() + static_cast<std::size_t>((by * blocks_x + bx) * 16);
      for (int y = wy0; y < wy1; ++y) {
        for (int x = wx0; x < wx1; ++x) {
          const std::uint8_t code =
              codes[static_cast<std::size_t>(y) * static_cast<std::size_t>(image_width) +
                    static_cast<std::size_t>(x)];
          hist[code >> 4] += 1.0f;
        }
      }
    }
  }
  double s = 0.0;
  for (float v : desc) s += static_cast<double>(v) * static_cast<double>(v);
  const float n = static_cast<float>(std::sqrt(s) + 1e-9);
  for (auto& v : desc) v /= n;
  if (cost != nullptr) {
    cost->add_features(static_cast<std::uint64_t>(window_w) * static_cast<std::uint64_t>(window_h) +
                       desc.size());
  }
  return desc;
}

}  // namespace eecs::features
#endif  // EECS_SIMD_TIER == 0
