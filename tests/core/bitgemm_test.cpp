// Packed bit-plane GEMM: exact agreement with the per-row XNOR-popcount
// kernels on randomized shapes (word-multiple and ragged), hardware-vs-scalar
// kernel equivalence (GEMM and the pixel-planar conv kernels), and the
// batched packing / row-slicing primitives.
#include "core/bitgemm.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/bitops.h"
#include "tensor/rng.h"

namespace rrambnn::core {
namespace {

BitMatrix RandomBits(std::int64_t rows, std::int64_t cols, Rng& rng) {
  BitMatrix m(rows, cols);
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t c = 0; c < cols; ++c) {
      m.Set(r, c, rng.Bernoulli(0.5) ? +1 : -1);
    }
  }
  return m;
}

/// Shapes straddling word boundaries, including the EEG serving geometry.
struct Shape3 {
  std::int64_t n, m, l;
};
const Shape3 kShapes[] = {{1, 1, 1},     {3, 2, 63},   {4, 5, 64},
                          {5, 3, 65},    {2, 7, 127},  {7, 4, 128},
                          {3, 6, 200},   {2, 80, 331}, {6, 9, 1024},
                          {4, 80, 2520}, {0, 3, 40},   {3, 0, 40}};

TEST(XnorPopcountGemm, MatchesPerRowKernelOnRandomizedShapes) {
  Rng rng(11);
  for (const auto& s : kShapes) {
    const BitMatrix x = RandomBits(s.n, s.l, rng);
    const BitMatrix w = RandomBits(s.m, s.l, rng);
    std::vector<std::int32_t> pops;
    XnorPopcountGemm(x, w, pops);
    ASSERT_EQ(pops.size(), static_cast<std::size_t>(s.n * s.m));
    for (std::int64_t i = 0; i < s.n; ++i) {
      const BitVector row = x.Row(i);
      for (std::int64_t j = 0; j < s.m; ++j) {
        EXPECT_EQ(pops[static_cast<std::size_t>(i * s.m + j)],
                  w.RowXnorPopcount(j, row))
            << "shape (" << s.n << ", " << s.m << ", " << s.l << ") at ("
            << i << ", " << j << ")";
      }
    }
  }
}

TEST(XnorPopcountGemm, ColumnMismatchThrows) {
  std::vector<std::int32_t> pops;
  BitMatrix a(2, 64), b(2, 65);
  EXPECT_THROW(XnorPopcountGemm(a, b, pops), std::invalid_argument);
}

TEST(XnorPopcountGemm, Avx2AndScalarKernelsAgree) {
  if (std::string(XnorGemmKernelName()) != "avx2") {
    GTEST_SKIP() << "no AVX2 on this host; only the scalar kernel runs";
  }
  Rng rng(13);
  for (const auto& s : kShapes) {
    const BitMatrix x = RandomBits(s.n, s.l, rng);
    const BitMatrix w = RandomBits(s.m, s.l, rng);
    std::vector<std::int32_t> vec_pops, scalar_pops;
    XnorPopcountGemm(x, w, vec_pops);
    const bool prev = SetXnorGemmForceScalar(true);
    EXPECT_STREQ(XnorGemmKernelName(), "scalar");
    XnorPopcountGemm(x, w, scalar_pops);
    SetXnorGemmForceScalar(prev);
    EXPECT_EQ(vec_pops, scalar_pops)
        << "shape (" << s.n << ", " << s.m << ", " << s.l << ")";
  }
  // Every width of 1, 2 and 3 words (the narrow-row POPCNT kernel) and up
  // to the first AVX2-vector widths.
  for (std::int64_t l = 1; l <= 255; ++l) {
    const BitMatrix x = RandomBits(3, l, rng);
    const BitMatrix w = RandomBits(5, l, rng);
    std::vector<std::int32_t> vec_pops, scalar_pops;
    XnorPopcountGemm(x, w, vec_pops);
    const bool prev = SetXnorGemmForceScalar(true);
    XnorPopcountGemm(x, w, scalar_pops);
    SetXnorGemmForceScalar(prev);
    ASSERT_EQ(vec_pops, scalar_pops) << "cols " << l;
  }
}

/// Runs `fn` on the hardware kernels (when the host has them) and on the
/// portable ones; returns {hardware, scalar} results.
template <typename Fn>
auto OnBothKernels(Fn fn) {
  const bool prev = SetXnorGemmForceScalar(false);
  auto hardware = fn();
  SetXnorGemmForceScalar(true);
  auto scalar = fn();
  SetXnorGemmForceScalar(prev);
  return std::make_pair(std::move(hardware), std::move(scalar));
}

std::uint64_t RandomWord(Rng& rng) {
  std::uint64_t v = 0;
  for (int b = 0; b < 64; ++b) v |= std::uint64_t{rng.Bernoulli(0.5)} << b;
  return v;
}

/// The pixel-planar gather: hardware and portable kernels leave the same
/// bytes in the block, and each pixel's field sits at `shift` of its patch
/// word, with the bits past 63 in the next patch word row. Covers one-word
/// rows (the vector path, grids narrower than and not a multiple of four
/// pixels) and multi-word rows.
TEST(PlanarKernels, GatherHardwareAndScalarAgreeBytewise) {
  struct Grid {
    std::int64_t oh, ow, sw, sh, row_words;
    int kw;
  };
  const Grid grids[] = {{1, 1, 1, 1, 1, 3},   {2, 3, 2, 2, 1, 5},
                        {12, 12, 1, 1, 1, 3}, {6, 6, 1, 1, 1, 3},
                        {5, 7, 9, 1, 1, 8},   {3, 1, 1, 3, 1, 64},
                        {4, 5, 13, 2, 2, 33}, {2, 9, 7, 1, 3, 64}};
  Rng rng(59);
  for (const Grid& gr : grids) {
    const PixelGrid grid{gr.oh, gr.ow, gr.sw, gr.sh * gr.row_words,
                         gr.row_words, gr.kw};
    const std::int64_t pixels = gr.oh * gr.ow, stride = PlanarStride(pixels);
    std::vector<std::uint64_t> rows(
        static_cast<std::size_t>(gr.oh * grid.row_step + gr.row_words));
    for (auto& v : rows) v = RandomWord(rng);
    for (const int shift : {0, 1, 31, 64 - gr.kw, 63}) {
      const auto [hw, scalar] = OnBothKernels([&] {
        std::vector<std::uint64_t> block(static_cast<std::size_t>(2 * stride));
        GatherPlanarField(grid, rows.data(), shift, block.data());
        return block;
      });
      ASSERT_EQ(hw, scalar) << "grid " << (&gr - grids) << " shift " << shift;
      for (std::int64_t p = 0; p < pixels; ++p) {
        const std::int64_t x0 = (p % gr.ow) * gr.sw;
        const std::uint64_t* row = rows.data() + (p / gr.ow) * grid.row_step;
        std::uint64_t field = 0;
        for (int b = 0; b < gr.kw; ++b) {
          const std::int64_t x = x0 + b;
          field |= ((row[x >> 6] >> (x & 63)) & 1) << b;
        }
        const auto lo = static_cast<std::size_t>(p);
        ASSERT_EQ(scalar[lo], field << shift)
            << "grid " << (&gr - grids) << " pixel " << p;
        ASSERT_EQ(scalar[lo + static_cast<std::size_t>(stride)],
                  shift + gr.kw > 64 ? field >> (64 - shift) : 0)
            << "grid " << (&gr - grids) << " pixel " << p;
      }
    }
  }
}

/// The pixel-planar XNOR-popcount + threshold: hardware and portable kernels
/// write the same output bytes, equal to popcount(XNOR) + bias >= threshold
/// per (unit, pixel), for pixel counts below and off a multiple of four,
/// units whose bits straddle output words, one- and multi-word patches,
/// both pairings and both threshold layouts.
TEST(PlanarKernels, ThresholdHardwareAndScalarAgreeBytewise) {
  Rng rng(61);
  for (const std::int64_t pixels : {1, 3, 4, 6, 36, 61, 144}) {
    for (const std::int64_t cols : {1, 9, 64, 72, 130}) {
      for (const bool grouped : {false, true}) {
        for (const bool per_pixel : {false, true}) {
          const std::int64_t units = grouped ? 5 : 16 + pixels % 3;
          const BitMatrix w = RandomBits(units, cols, rng);
          const std::int64_t wpr = w.words_per_row();
          const std::int64_t stride = PlanarStride(pixels);
          std::vector<std::uint64_t> block(
              static_cast<std::size_t>((grouped ? units : 1) * wpr * stride));
          for (std::size_t j = 0; j < block.size(); ++j) {
            // Patch bits past `cols` stay zero, as the gather leaves them.
            const auto k = static_cast<std::int64_t>(j) / stride % wpr;
            const std::int64_t valid = std::min<std::int64_t>(cols - 64 * k,
                                                              64);
            block[j] = RandomWord(rng) & (~std::uint64_t{0} >> (64 - valid));
          }
          std::vector<std::int32_t> thresholds(
              static_cast<std::size_t>(per_pixel ? units * pixels : units));
          for (auto& t : thresholds) {
            t = static_cast<std::int32_t>(cols / 2 + rng.UniformInt(5) - 2);
          }
          std::vector<std::int32_t> bias(static_cast<std::size_t>(units));
          for (auto& b : bias) {
            b = static_cast<std::int32_t>(rng.UniformInt(5)) - 2;
          }
          const std::int64_t out_words = (units * pixels + 63) / 64;
          const auto [hw, scalar] = OnBothKernels([&] {
            // Pre-filled with ones: every output word must be written.
            std::vector<std::uint64_t> out(static_cast<std::size_t>(out_words),
                                           ~std::uint64_t{0});
            XnorThresholdPlanar(block.data(), pixels, grouped, w, bias.data(),
                                thresholds.data(), per_pixel, out.data());
            return out;
          });
          const std::string where = "pixels " + std::to_string(pixels) +
                                    " cols " + std::to_string(cols) +
                                    (grouped ? " grouped" : "") +
                                    (per_pixel ? " per-pixel" : "");
          ASSERT_EQ(hw, scalar) << where;
          const BitMatrix got =
              BitMatrix::FromWords(1, units * pixels, scalar);
          for (std::int64_t u = 0; u < units; ++u) {
            const std::uint64_t* patch =
                block.data() + (grouped ? u * wpr * stride : 0);
            for (std::int64_t p = 0; p < pixels; ++p) {
              std::vector<std::uint64_t> words(static_cast<std::size_t>(wpr));
              for (std::int64_t k = 0; k < wpr; ++k) {
                words[static_cast<std::size_t>(k)] = patch[k * stride + p];
              }
              const BitVector x =
                  BitMatrix::FromWords(1, cols, std::move(words)).Row(0);
              const std::int64_t count =
                  w.RowXnorPopcount(u, x) + bias[static_cast<std::size_t>(u)];
              const std::int32_t t = thresholds[static_cast<std::size_t>(
                  per_pixel ? u * pixels + p : u)];
              ASSERT_EQ(got.Get(0, u * pixels + p), count >= t ? +1 : -1)
                  << where << " unit " << u << " pixel " << p;
            }
          }
        }
      }
    }
  }
}

TEST(BitMatrixPacking, FromSignRowsMatchesPerRowFromSigns) {
  Rng rng(17);
  for (const std::int64_t cols : {1, 63, 64, 65, 200, 2520}) {
    const std::int64_t rows = 5;
    std::vector<float> values(static_cast<std::size_t>(rows * cols));
    for (auto& v : values) v = rng.Normal(0.0f, 1.0f);
    const BitMatrix batch = BitMatrix::FromSignRows(values, rows, cols);
    for (std::int64_t r = 0; r < rows; ++r) {
      const BitVector row = BitVector::FromSigns(std::span<const float>(
          values.data() + r * cols, static_cast<std::size_t>(cols)));
      EXPECT_EQ(batch.Row(r), row) << "cols " << cols << " row " << r;
    }
  }
}

TEST(BitMatrixPacking, ExtractRowReusesStorageAndMatchesRow) {
  Rng rng(19);
  const BitMatrix m = RandomBits(6, 131, rng);
  BitVector scratch;
  for (std::int64_t r = 0; r < m.rows(); ++r) {
    m.ExtractRow(r, scratch);
    EXPECT_EQ(scratch, m.Row(r)) << "row " << r;
  }
}

TEST(BitMatrixPacking, RowSliceCopiesContiguousRows) {
  Rng rng(23);
  const BitMatrix m = RandomBits(7, 90, rng);
  const BitMatrix slice = m.RowSlice(2, 5);
  ASSERT_EQ(slice.rows(), 3);
  ASSERT_EQ(slice.cols(), 90);
  for (std::int64_t r = 0; r < 3; ++r) {
    EXPECT_EQ(slice.Row(r), m.Row(r + 2));
  }
  EXPECT_EQ(m.RowSlice(4, 4).rows(), 0);
  EXPECT_THROW(m.RowSlice(-1, 2), std::invalid_argument);
  EXPECT_THROW(m.RowSlice(3, 8), std::invalid_argument);
}

}  // namespace
}  // namespace rrambnn::core
