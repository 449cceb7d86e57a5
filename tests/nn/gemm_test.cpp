// GemmAccumulate: the dispatched AVX2 kernel must reproduce the scalar
// reference loop bit for bit (same k order, separate multiply and add,
// exact-zero weights skipped), on every tile remainder shape.
#include "nn/gemm.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "tensor/rng.h"

namespace rrambnn::nn {
namespace {

struct GemmShape {
  std::int64_t m, k, n;
};

/// Normal values with a `zero_share` of exact zeros, a quarter of them -0.
std::vector<float> RandomWithZeros(std::int64_t count, float zero_share,
                                   Rng& rng) {
  std::vector<float> v(static_cast<std::size_t>(count));
  for (float& x : v) {
    const float u = rng.Uniform();
    x = u < 0.75f * zero_share ? 0.0f
        : u < zero_share       ? -0.0f
                               : rng.Normal(0.0f, 1.0f);
  }
  return v;
}

/// Runs both kernels on one random problem and compares C bytewise. A gets
/// no zeros, a few (some row tiles take the zero-skip path, some not) or
/// many; B and the initial C always hold some +0 and -0.
void ExpectKernelsAgree(const GemmShape& s, Rng& rng) {
  for (const float a_zeros : {0.0f, 0.02f, 0.2f}) {
    const std::vector<float> a = RandomWithZeros(s.m * s.k, a_zeros, rng);
    const std::vector<float> b = RandomWithZeros(s.k * s.n, 0.2f, rng);
    const std::vector<float> c0 = RandomWithZeros(s.m * s.n, 0.2f, rng);
    std::vector<float> vec_c = c0, scalar_c = c0;
    GemmAccumulate(a.data(), b.data(), vec_c.data(), s.m, s.k, s.n);
    const bool prev = SetGemmForceScalar(true);
    EXPECT_STREQ(GemmKernelName(), "scalar");
    GemmAccumulate(a.data(), b.data(), scalar_c.data(), s.m, s.k, s.n);
    SetGemmForceScalar(prev);
    EXPECT_EQ(std::memcmp(vec_c.data(), scalar_c.data(),
                          vec_c.size() * sizeof(float)),
              0)
        << "shape (" << s.m << ", " << s.k << ", " << s.n << "), A zero share "
        << a_zeros;
  }
}

TEST(GemmAccumulate, MatchesManualProduct) {
  // [[1, 2], [0, -1]] * [[1, 0, 2], [3, 1, -1]] added to a ones matrix.
  const std::vector<float> a{1, 2, 0, -1};
  const std::vector<float> b{1, 0, 2, 3, 1, -1};
  std::vector<float> c(6, 1.0f);
  GemmAccumulate(a.data(), b.data(), c.data(), 2, 2, 3);
  EXPECT_EQ(c, (std::vector<float>{8, 3, 1, -2, 0, 2}));
}

TEST(GemmAccumulate, Avx2AndScalarKernelsAgreeBitwise) {
  if (std::string(GemmKernelName()) != "avx2") {
    GTEST_SKIP() << "no AVX2 on this host; only the scalar kernel runs";
  }
  Rng rng(29);
  // Serving conv shapes (ECG k x 1, EEG temporal and spatial), then tile
  // remainders: m not a multiple of 4, n not a multiple of 16 or 8, n < 16,
  // k = 0 and 1.
  const std::vector<GemmShape> fixed = {
      {8, 108, 192}, {8, 72, 96}, {8, 15, 3072}, {8, 128, 192},
      {8, 18, 144},  {1, 1, 1},   {3, 7, 5},     {5, 9, 23},
      {7, 33, 25},   {4, 1, 24},  {6, 20, 47},   {9, 3, 16},
      {2, 64, 15},   {13, 5, 49}, {8, 0, 10},    {4, 11, 8}};
  for (const GemmShape& s : fixed) ExpectKernelsAgree(s, rng);
  for (int trial = 0; trial < 60; ++trial) {
    const GemmShape s{1 + static_cast<std::int64_t>(rng.Uniform() * 13),
                      static_cast<std::int64_t>(rng.Uniform() * 40),
                      1 + static_cast<std::int64_t>(rng.Uniform() * 80)};
    ExpectKernelsAgree(s, rng);
  }
}

/// The strided-B entry point, with rows of B overlapping (ldb < n) as a k x 1
/// conv reads them, or spread apart (ldb > n), matches the scalar kernel
/// over a contiguous copy of the same rows.
TEST(GemmAccumulate, StridedBMatchesScalarBitwise) {
  Rng rng(31);
  const std::vector<GemmShape> shapes = {
      {8, 13, 200}, {8, 15, 3072}, {5, 7, 23}, {3, 1, 17}, {9, 4, 40}};
  for (const GemmShape& s : shapes) {
    for (const std::int64_t ldb : {std::int64_t{1}, std::int64_t{16},
                                   s.n + 5}) {
      const std::vector<float> a = RandomWithZeros(s.m * s.k, 0.1f, rng);
      const std::vector<float> plane =
          RandomWithZeros(std::max<std::int64_t>(s.k, 1) * ldb + s.n, 0.2f,
                          rng);
      std::vector<float> dense_b(static_cast<std::size_t>(s.k * s.n));
      for (std::int64_t kk = 0; kk < s.k; ++kk) {
        std::copy_n(plane.data() + kk * ldb, s.n, dense_b.data() + kk * s.n);
      }
      const std::vector<float> c0 = RandomWithZeros(s.m * s.n, 0.2f, rng);
      std::vector<float> strided_c = c0, scalar_c = c0;
      GemmAccumulateStridedB(a.data(), plane.data(), ldb, strided_c.data(),
                             s.m, s.k, s.n);
      const bool prev = SetGemmForceScalar(true);
      GemmAccumulate(a.data(), dense_b.data(), scalar_c.data(), s.m, s.k,
                     s.n);
      SetGemmForceScalar(prev);
      EXPECT_EQ(std::memcmp(strided_c.data(), scalar_c.data(),
                            strided_c.size() * sizeof(float)),
                0)
          << "shape (" << s.m << ", " << s.k << ", " << s.n << "), ldb "
          << ldb;
    }
  }
}

}  // namespace
}  // namespace rrambnn::nn
