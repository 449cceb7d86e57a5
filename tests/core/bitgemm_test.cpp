// Packed bit-plane GEMM: exact agreement with the per-row XNOR-popcount
// kernels on randomized shapes (word-multiple and ragged), hardware-vs-scalar
// kernel equivalence (GEMM and per-patch row kernel), and the batched
// packing / row-slicing primitives.
#include "core/bitgemm.h"

#include <gtest/gtest.h>

#include <span>
#include <string>
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

/// The per-patch row kernel: hardware and portable selections agree with
/// each other and, after the padding correction, with the GEMM.
TEST(XnorPopcountGemm, RowKernelMatchesGemmOnEveryWidth) {
  Rng rng(37);
  for (std::int64_t l = 1; l <= 255; l += 3) {
    const BitMatrix x = RandomBits(2, l, rng);
    const BitMatrix w = RandomBits(7, l, rng);
    std::vector<std::int32_t> gemm;
    XnorPopcountGemm(x, w, gemm);
    const std::int64_t wpr = w.words_per_row();
    const auto pad_ones = static_cast<std::int32_t>(wpr * 64 - l);
    for (const bool force_scalar : {false, true}) {
      const bool prev = SetXnorGemmForceScalar(force_scalar);
      const XnorRowsKernel kernel = SelectXnorRowsKernel();
      SetXnorGemmForceScalar(prev);
      for (std::int64_t i = 0; i < x.rows(); ++i) {
        std::vector<std::int32_t> row(static_cast<std::size_t>(w.rows()));
        kernel(x.RowWords(i).data(), 0, w.words().data(), w.rows(), wpr,
               row.data());
        for (std::int64_t j = 0; j < w.rows(); ++j) {
          ASSERT_EQ(row[static_cast<std::size_t>(j)] - pad_ones,
                    gemm[static_cast<std::size_t>(i * w.rows() + j)])
              << "cols " << l << " row " << i << " unit " << j
              << (force_scalar ? " (scalar)" : "");
        }
      }
      // Strided form (the depthwise pairing): row j of `pairs` against
      // weight row j only.
      const BitMatrix pairs = RandomBits(w.rows(), l, rng);
      std::vector<std::int32_t> diag(static_cast<std::size_t>(w.rows()));
      kernel(pairs.words().data(), wpr, w.words().data(), w.rows(), wpr,
             diag.data());
      for (std::int64_t j = 0; j < w.rows(); ++j) {
        ASSERT_EQ(diag[static_cast<std::size_t>(j)] - pad_ones,
                  w.RowXnorPopcount(j, pairs.Row(j)))
            << "cols " << l << " pair " << j;
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
