#include "nn/im2col.h"

#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <vector>

#include "tensor/rng.h"

namespace rrambnn::nn {
namespace {

/// Tap-by-tap reference: every (row, patch) entry looked up on its own.
std::vector<float> NaiveIm2Col(const std::vector<float>& x,
                               const ConvGeometry& g) {
  const std::int64_t oh = g.OutH(), ow = g.OutW();
  std::vector<float> cols(static_cast<std::size_t>(g.PatchSize() * oh * ow));
  std::size_t out = 0;
  for (std::int64_t c = 0; c < g.in_channels; ++c) {
    for (std::int64_t ky = 0; ky < g.kernel_h; ++ky) {
      for (std::int64_t kx = 0; kx < g.kernel_w; ++kx) {
        for (std::int64_t oy = 0; oy < oh; ++oy) {
          for (std::int64_t ox = 0; ox < ow; ++ox, ++out) {
            const std::int64_t iy = oy * g.stride_h + ky - g.pad_h;
            const std::int64_t ix = ox * g.stride_w + kx - g.pad_w;
            const bool inside = iy >= 0 && iy < g.in_h && ix >= 0 && ix < g.in_w;
            cols[out] = inside ? x[static_cast<std::size_t>(
                                     (c * g.in_h + iy) * g.in_w + ix)]
                               : 0.0f;
          }
        }
      }
    }
  }
  return cols;
}

/// Im2Col against the reference, bytewise (input carries -0 entries).
void ExpectMatchesNaive(const ConvGeometry& g, Rng& rng) {
  g.Validate();
  std::vector<float> x(static_cast<std::size_t>(g.in_channels * g.in_h *
                                                g.in_w));
  for (float& v : x) v = rng.Uniform() < 0.1f ? -0.0f : rng.Normal(0, 1);
  const std::vector<float> expected = NaiveIm2Col(x, g);
  // Poisoned output buffer: every entry must be written.
  std::vector<float> cols(expected.size(), 12345.0f);
  Im2Col(x.data(), g, cols.data());
  EXPECT_EQ(std::memcmp(cols.data(), expected.data(),
                        cols.size() * sizeof(float)),
            0)
      << "C=" << g.in_channels << " in=" << g.in_h << "x" << g.in_w
      << " k=" << g.kernel_h << "x" << g.kernel_w << " s=" << g.stride_h
      << "x" << g.stride_w << " p=" << g.pad_h << "x" << g.pad_w;
}

TEST(ConvGeometry, OutputDims) {
  ConvGeometry g{.in_channels = 1, .in_h = 960, .in_w = 64,
                 .kernel_h = 30, .kernel_w = 1, .stride_h = 1,
                 .stride_w = 1, .pad_h = 15, .pad_w = 0};
  g.Validate();
  // Table I first row: 960 -> 961 with pad 15.
  EXPECT_EQ(g.OutH(), 961);
  EXPECT_EQ(g.OutW(), 64);
}

TEST(ConvGeometry, PoolDims) {
  // Table I average pool: 961 -> 63 with k=30, stride 15.
  ConvGeometry g{.in_channels = 1, .in_h = 961, .in_w = 1,
                 .kernel_h = 30, .kernel_w = 1, .stride_h = 15,
                 .stride_w = 1};
  EXPECT_EQ(g.OutH(), 63);
}

TEST(ConvGeometry, ValidationErrors) {
  ConvGeometry g{.in_channels = 1, .in_h = 4, .in_w = 4,
                 .kernel_h = 9, .kernel_w = 1};
  EXPECT_THROW(g.Validate(), std::invalid_argument);
  g.kernel_h = 0;
  EXPECT_THROW(g.Validate(), std::invalid_argument);
  g = ConvGeometry{.in_channels = 0, .in_h = 4, .in_w = 4};
  EXPECT_THROW(g.Validate(), std::invalid_argument);
  g = ConvGeometry{.in_channels = 1, .in_h = 4, .in_w = 4, .pad_h = -1};
  EXPECT_THROW(g.Validate(), std::invalid_argument);
}

TEST(Im2Col, IdentityKernel) {
  // 1x1 kernel: im2col is the identity layout.
  ConvGeometry g{.in_channels = 2, .in_h = 2, .in_w = 2,
                 .kernel_h = 1, .kernel_w = 1};
  const std::vector<float> x{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<float> cols(static_cast<std::size_t>(g.PatchSize() *
                                                   g.NumPatches()));
  Im2Col(x.data(), g, cols.data());
  EXPECT_EQ(cols, x);
}

TEST(Im2Col, KnownPatch) {
  // Single channel 3x3, kernel 2x2, no pad: 4 patches of 4 taps.
  ConvGeometry g{.in_channels = 1, .in_h = 3, .in_w = 3,
                 .kernel_h = 2, .kernel_w = 2};
  const std::vector<float> x{1, 2, 3, 4, 5, 6, 7, 8, 9};
  std::vector<float> cols(static_cast<std::size_t>(16));
  Im2Col(x.data(), g, cols.data());
  // Row 0 = tap (0,0): top-left of each patch.
  EXPECT_EQ(cols[0], 1);
  EXPECT_EQ(cols[1], 2);
  EXPECT_EQ(cols[2], 4);
  EXPECT_EQ(cols[3], 5);
  // Row 3 = tap (1,1): bottom-right of each patch.
  EXPECT_EQ(cols[12], 5);
  EXPECT_EQ(cols[15], 9);
}

TEST(Im2Col, ZeroPadding) {
  ConvGeometry g{.in_channels = 1, .in_h = 2, .in_w = 2,
                 .kernel_h = 3, .kernel_w = 3, .stride_h = 1,
                 .stride_w = 1, .pad_h = 1, .pad_w = 1};
  const std::vector<float> x{1, 2, 3, 4};
  std::vector<float> cols(static_cast<std::size_t>(9 * 4));
  Im2Col(x.data(), g, cols.data());
  // Patch at output (0,0), tap (0,0) looks at input (-1,-1): zero.
  EXPECT_EQ(cols[0], 0.0f);
  // Tap (1,1) of patch (0,0) is input (0,0) = 1.
  EXPECT_EQ(cols[4 * 4 + 0], 1.0f);
}

TEST(Im2Col, MatchesNaiveReference) {
  Rng rng(37);
  const std::vector<ConvGeometry> fixed = {
      // ECG: k x 1 over [leads, time, 1] (ow == 1).
      {.in_channels = 12, .in_h = 200, .in_w = 1, .kernel_h = 9,
       .kernel_w = 1},
      // EEG temporal: k x 1 with time padding over [1, time, electrodes].
      {.in_channels = 1, .in_h = 192, .in_w = 16, .kernel_h = 15,
       .kernel_w = 1, .pad_h = 7},
      // EEG spatial: 1 x W with kernel == width (ow == 1).
      {.in_channels = 8, .in_h = 192, .in_w = 16, .kernel_h = 1,
       .kernel_w = 16},
      // Image stem: 3 x 3, pad 1.
      {.in_channels = 2, .in_h = 12, .in_w = 12, .kernel_h = 3,
       .kernel_w = 3, .pad_h = 1, .pad_w = 1},
      // Strides > 1 with padding, strided ow == 1 column.
      {.in_channels = 3, .in_h = 9, .in_w = 7, .kernel_h = 3, .kernel_w = 2,
       .stride_h = 2, .stride_w = 3, .pad_h = 1, .pad_w = 2},
      {.in_channels = 2, .in_h = 11, .in_w = 3, .kernel_h = 4, .kernel_w = 3,
       .stride_h = 3, .stride_w = 1, .pad_h = 2},
      // Padding wider than the input: whole rows and columns of zeros.
      {.in_channels = 1, .in_h = 2, .in_w = 2, .kernel_h = 5, .kernel_w = 5,
       .pad_h = 3, .pad_w = 3}};
  for (const ConvGeometry& g : fixed) ExpectMatchesNaive(g, rng);
  for (int trial = 0; trial < 200; ++trial) {
    auto pick = [&](std::int64_t lo, std::int64_t hi) {
      return lo + static_cast<std::int64_t>(rng.Uniform() *
                                            static_cast<float>(hi - lo + 1)) %
                      (hi - lo + 1);
    };
    ConvGeometry g{.in_channels = pick(1, 3), .in_h = pick(1, 12),
                   .in_w = pick(1, 12), .kernel_h = pick(1, 5),
                   .kernel_w = pick(1, 5), .stride_h = pick(1, 3),
                   .stride_w = pick(1, 3), .pad_h = pick(0, 3),
                   .pad_w = pick(0, 3)};
    if (g.in_h + 2 * g.pad_h < g.kernel_h ||
        g.in_w + 2 * g.pad_w < g.kernel_w) {
      continue;
    }
    ExpectMatchesNaive(g, rng);
  }
}

TEST(Col2Im, AdjointOfIm2Col) {
  // <Im2Col(x), c> == <x, Col2Im(c)> for random x, c (adjoint property,
  // which is exactly what the conv backward pass needs).
  ConvGeometry g{.in_channels = 2, .in_h = 5, .in_w = 4,
                 .kernel_h = 3, .kernel_w = 2, .stride_h = 2,
                 .stride_w = 1, .pad_h = 1, .pad_w = 0};
  g.Validate();
  const std::int64_t xs = g.in_channels * g.in_h * g.in_w;
  const std::int64_t cs = g.PatchSize() * g.NumPatches();
  std::vector<float> x(static_cast<std::size_t>(xs));
  std::vector<float> c(static_cast<std::size_t>(cs));
  for (std::int64_t i = 0; i < xs; ++i) {
    x[static_cast<std::size_t>(i)] = static_cast<float>((i * 7 % 13) - 6);
  }
  for (std::int64_t i = 0; i < cs; ++i) {
    c[static_cast<std::size_t>(i)] = static_cast<float>((i * 5 % 11) - 5);
  }
  std::vector<float> ax(static_cast<std::size_t>(cs), 0.0f);
  Im2Col(x.data(), g, ax.data());
  std::vector<float> atc(static_cast<std::size_t>(xs), 0.0f);
  Col2Im(c.data(), g, atc.data());
  double lhs = 0.0, rhs = 0.0;
  for (std::int64_t i = 0; i < cs; ++i) {
    lhs += static_cast<double>(ax[static_cast<std::size_t>(i)]) *
           c[static_cast<std::size_t>(i)];
  }
  for (std::int64_t i = 0; i < xs; ++i) {
    rhs += static_cast<double>(x[static_cast<std::size_t>(i)]) *
           atc[static_cast<std::size_t>(i)];
  }
  EXPECT_NEAR(lhs, rhs, 1e-6);
}

}  // namespace
}  // namespace rrambnn::nn
