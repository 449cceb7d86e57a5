#include "nn/gemm.h"

#include <algorithm>
#include <atomic>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define RRAMBNN_GEMM_X86 1
#include <immintrin.h>
#endif

namespace rrambnn::nn {

namespace {

using GemmKernel = void (*)(const float* a, const float* b, std::int64_t ldb,
                            float* c, std::int64_t m, std::int64_t k,
                            std::int64_t n);

// No OpenMP: like the AVX2 kernel, this serves conv layers from inside the
// serving worker pools (hosts without AVX2, SetGemmForceScalar).
void GemmScalar(const float* a, const float* b, std::int64_t ldb, float* c,
                std::int64_t m, std::int64_t k, std::int64_t n) {
  for (std::int64_t i = 0; i < m; ++i) {
    float* crow = c + i * n;
    const float* arow = a + i * k;
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float av = arow[kk];
      if (av == 0.0f) continue;
      const float* brow = b + kk * ldb;
      for (std::int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

#ifdef RRAMBNN_GEMM_X86

// Register tile of C: up to kTileRows rows by kTileVecs 8-float vectors.
// Without FMA each product needs a temporary, so 8 accumulators + 2 B
// vectors + broadcast + temporary fit the 16 ymm registers with no spills.
// No OpenMP: conv layers call this once per sample (m = output channels)
// from inside the serving worker pools.
constexpr int kTileRows = 4;
constexpr int kTileVecs = 2;
constexpr std::int64_t kTileCols = 8 * kTileVecs;

/// C[rows, tile] += A[rows, k] * B[k, tile] for one register tile, in the
/// scalar kernel's order: products enter each accumulator in increasing k,
/// multiply and add separately (no FMA). kSkipZeros skips exact-zero A
/// entries as the scalar kernel does; tiles whose A rows hold no zero run
/// without the per-entry test. With kMasked, `masks` selects the valid
/// lanes of each vector of a partial column tile; masked-out lanes are
/// neither read nor written.
template <int kRows, bool kMasked, bool kSkipZeros>
__attribute__((target("avx2"))) void TileAvx2(const float* a, std::int64_t k,
                                              const float* b, std::int64_t ldb,
                                              float* c, std::int64_t n,
                                              const __m256i* masks) {
  __m256 acc[kRows][kTileVecs];
#pragma GCC unroll 4
  for (int r = 0; r < kRows; ++r) {
#pragma GCC unroll 2
    for (int v = 0; v < kTileVecs; ++v) {
      float* p = c + r * n + 8 * v;
      acc[r][v] = kMasked ? _mm256_maskload_ps(p, masks[v]) : _mm256_loadu_ps(p);
    }
  }
  for (std::int64_t kk = 0; kk < k; ++kk) {
    const float* brow = b + kk * ldb;
    __m256 bv[kTileVecs];
#pragma GCC unroll 2
    for (int v = 0; v < kTileVecs; ++v) {
      bv[v] = kMasked ? _mm256_maskload_ps(brow + 8 * v, masks[v])
                      : _mm256_loadu_ps(brow + 8 * v);
    }
#pragma GCC unroll 4
    for (int r = 0; r < kRows; ++r) {
      if (kSkipZeros && a[r * k + kk] == 0.0f) continue;
      const __m256 av = _mm256_broadcast_ss(a + r * k + kk);
#pragma GCC unroll 2
      for (int v = 0; v < kTileVecs; ++v) {
        acc[r][v] = _mm256_add_ps(acc[r][v], _mm256_mul_ps(av, bv[v]));
      }
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < kRows; ++r) {
#pragma GCC unroll 2
    for (int v = 0; v < kTileVecs; ++v) {
      float* p = c + r * n + 8 * v;
      if constexpr (kMasked) {
        _mm256_maskstore_ps(p, masks[v], acc[r][v]);
      } else {
        _mm256_storeu_ps(p, acc[r][v]);
      }
    }
  }
}

/// One row tile of A across every column panel of B and C; the last panel
/// is partial when n is not a multiple of kTileCols.
template <int kRows, bool kSkipZeros>
__attribute__((target("avx2"))) void RowTileAvx2(const float* a,
                                                 const float* b,
                                                 std::int64_t ldb, float* c,
                                                 std::int64_t k,
                                                 std::int64_t n,
                                                 const __m256i* tail_masks) {
  std::int64_t j = 0;
  for (; j + kTileCols <= n; j += kTileCols) {
    TileAvx2<kRows, false, kSkipZeros>(a, k, b + j, ldb, c + j, n, nullptr);
  }
  if (j < n) {
    TileAvx2<kRows, true, kSkipZeros>(a, k, b + j, ldb, c + j, n, tail_masks);
  }
}

/// Only row tiles that hold an exact-zero weight pay for the skip test.
template <int kRows>
__attribute__((target("avx2"))) void RowTileAvx2(const float* a,
                                                 const float* b,
                                                 std::int64_t ldb, float* c,
                                                 std::int64_t k,
                                                 std::int64_t n,
                                                 const __m256i* tail_masks) {
  if (std::find(a, a + kRows * k, 0.0f) != a + kRows * k) {
    RowTileAvx2<kRows, true>(a, b, ldb, c, k, n, tail_masks);
  } else {
    RowTileAvx2<kRows, false>(a, b, ldb, c, k, n, tail_masks);
  }
}

__attribute__((target("avx2"))) void GemmAvx2(const float* a, const float* b,
                                              std::int64_t ldb, float* c,
                                              std::int64_t m, std::int64_t k,
                                              std::int64_t n) {
  __m256i tail_masks[kTileVecs];
  for (int v = 0; v < kTileVecs; ++v) {
    const std::int64_t lanes =
        std::clamp<std::int64_t>(n % kTileCols - 8 * v, 0, 8);
    tail_masks[v] =
        _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(lanes)),
                           _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  }
  std::int64_t i = 0;
  for (; i + kTileRows <= m; i += kTileRows) {
    RowTileAvx2<kTileRows>(a + i * k, b, ldb, c + i * n, k, n, tail_masks);
  }
  switch (m - i) {
    case 3: RowTileAvx2<3>(a + i * k, b, ldb, c + i * n, k, n, tail_masks); break;
    case 2: RowTileAvx2<2>(a + i * k, b, ldb, c + i * n, k, n, tail_masks); break;
    case 1: RowTileAvx2<1>(a + i * k, b, ldb, c + i * n, k, n, tail_masks); break;
    default: break;
  }
}

bool CpuHasAvx2() { return __builtin_cpu_supports("avx2"); }

#else

bool CpuHasAvx2() { return false; }

#endif  // RRAMBNN_GEMM_X86

std::atomic<bool> g_force_scalar{false};

GemmKernel ActiveKernel() {
#ifdef RRAMBNN_GEMM_X86
  static const bool has_avx2 = CpuHasAvx2();
  if (has_avx2 && !g_force_scalar.load(std::memory_order_relaxed)) {
    return GemmAvx2;
  }
#endif
  return GemmScalar;
}

}  // namespace

void GemmAccumulate(const float* a, const float* b, float* c, std::int64_t m,
                    std::int64_t k, std::int64_t n) {
  ActiveKernel()(a, b, n, c, m, k, n);
}

void GemmAccumulateStridedB(const float* a, const float* b, std::int64_t ldb,
                            float* c, std::int64_t m, std::int64_t k,
                            std::int64_t n) {
  ActiveKernel()(a, b, ldb, c, m, k, n);
}

const char* GemmKernelName() {
  return ActiveKernel() == GemmScalar ? "scalar" : "avx2";
}

bool SetGemmForceScalar(bool force) { return g_force_scalar.exchange(force); }

void GemmTransAAccumulate(const float* a, const float* b, float* c,
                          std::int64_t m, std::int64_t k, std::int64_t n) {
#pragma omp parallel for if (m * n * k > 1 << 18) schedule(static)
  for (std::int64_t i = 0; i < m; ++i) {
    float* crow = c + i * n;
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float av = a[kk * m + i];
      if (av == 0.0f) continue;
      const float* brow = b + kk * n;
      for (std::int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void GemmTransBAccumulate(const float* a, const float* b, float* c,
                          std::int64_t m, std::int64_t k, std::int64_t n) {
#pragma omp parallel for if (m * n * k > 1 << 18) schedule(static)
  for (std::int64_t i = 0; i < m; ++i) {
    float* crow = c + i * n;
    const float* arow = a + i * k;
    for (std::int64_t j = 0; j < n; ++j) {
      const float* brow = b + j * k;
      float acc = 0.0f;
      for (std::int64_t kk = 0; kk < k; ++kk) acc += arow[kk] * brow[kk];
      crow[j] += acc;
    }
  }
}

}  // namespace rrambnn::nn
