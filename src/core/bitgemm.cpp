#include "core/bitgemm.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <stdexcept>
#include <string>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define RRAMBNN_BITGEMM_X86 1
#include <immintrin.h>
#endif

namespace rrambnn::core {

namespace {

// 2 KiB of packed bits per operand row block: both row blocks stay resident
// in L1 while the (i, j) pair loop streams over them.
constexpr std::int64_t kWordBlock = 256;

using GemmKernel = void (*)(const std::uint64_t* x, std::int64_t n,
                            const std::uint64_t* w, std::int64_t m,
                            std::int64_t wpr, std::int32_t* out);

/// Full-word XNOR-popcount of two packed rows of `wpr` words.
[[gnu::always_inline]] inline std::int64_t XnorCount(const std::uint64_t* a,
                                                     const std::uint64_t* b,
                                                     std::int64_t wpr) {
  std::int64_t count = 0;
  for (std::int64_t k = 0; k < wpr; ++k) count += std::popcount(~(a[k] ^ b[k]));
  return count;
}

// Portable kernels. Without -mpopcnt, std::popcount is a libgcc call; these
// are the fallback and the reference the hardware kernels must equal.
void GemmScalar(const std::uint64_t* x, std::int64_t n, const std::uint64_t* w,
                std::int64_t m, std::int64_t wpr, std::int32_t* out) {
  for (std::int64_t w0 = 0; w0 < wpr; w0 += kWordBlock) {
    const std::int64_t w1 = std::min(wpr, w0 + kWordBlock);
    for (std::int64_t i = 0; i < n; ++i) {
      const std::uint64_t* a = x + i * wpr;
      std::int32_t* out_row = out + i * m;
      for (std::int64_t j = 0; j < m; ++j) {
        const std::uint64_t* b = w + j * wpr;
        std::int64_t c0 = 0, c1 = 0, c2 = 0, c3 = 0;
        std::int64_t k = w0;
        for (; k + 4 <= w1; k += 4) {
          c0 += std::popcount(~(a[k] ^ b[k]));
          c1 += std::popcount(~(a[k + 1] ^ b[k + 1]));
          c2 += std::popcount(~(a[k + 2] ^ b[k + 2]));
          c3 += std::popcount(~(a[k + 3] ^ b[k + 3]));
        }
        std::int64_t count = c0 + c1 + c2 + c3;
        for (; k < w1; ++k) count += std::popcount(~(a[k] ^ b[k]));
        out_row[j] += static_cast<std::int32_t>(count);
      }
    }
  }
}

/// out[j] = XnorCount(x + j * x_stride, w + j * wpr): the XnorRowsKernel
/// contract, inlined into a portable and a POPCNT-compiled kernel.
[[gnu::always_inline]] inline void RowsWords(const std::uint64_t* x,
                                             std::int64_t x_stride,
                                             const std::uint64_t* w,
                                             std::int64_t m, std::int64_t wpr,
                                             std::int32_t* out) {
  for (std::int64_t j = 0; j < m; ++j) {
    out[j] = static_cast<std::int32_t>(
        XnorCount(x + j * x_stride, w + j * wpr, wpr));
  }
}

void RowsScalar(const std::uint64_t* x, std::int64_t x_stride,
                const std::uint64_t* w, std::int64_t m, std::int64_t wpr,
                std::int32_t* out) {
  RowsWords(x, x_stride, w, m, wpr, out);
}

#ifdef RRAMBNN_BITGEMM_X86

/// Per-byte popcount via two nibble table lookups, horizontally summed into
/// the four 64-bit lanes (the classic pshufb/psadbw popcount).
__attribute__((target("avx2"))) inline __m256i Popcount256(__m256i v) {
  const __m256i lookup =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1,
                       1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
  const __m256i counts = _mm256_add_epi8(_mm256_shuffle_epi8(lookup, lo),
                                         _mm256_shuffle_epi8(lookup, hi));
  return _mm256_sad_epu8(counts, _mm256_setzero_si256());
}

__attribute__((target("avx2"))) void GemmAvx2(const std::uint64_t* x,
                                              std::int64_t n,
                                              const std::uint64_t* w,
                                              std::int64_t m, std::int64_t wpr,
                                              std::int32_t* out) {
  const __m256i all_ones = _mm256_set1_epi64x(-1);
  for (std::int64_t w0 = 0; w0 < wpr; w0 += kWordBlock) {
    const std::int64_t w1 = std::min(wpr, w0 + kWordBlock);
    for (std::int64_t i = 0; i < n; ++i) {
      const std::uint64_t* a = x + i * wpr;
      std::int32_t* out_row = out + i * m;
      for (std::int64_t j = 0; j < m; ++j) {
        const std::uint64_t* b = w + j * wpr;
        __m256i acc = _mm256_setzero_si256();
        std::int64_t k = w0;
        for (; k + 4 <= w1; k += 4) {
          const __m256i va =
              _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + k));
          const __m256i vb =
              _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + k));
          const __m256i xnor =
              _mm256_xor_si256(_mm256_xor_si256(va, vb), all_ones);
          acc = _mm256_add_epi64(acc, Popcount256(xnor));
        }
        alignas(32) std::uint64_t lanes[4];
        _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
        std::int64_t count = static_cast<std::int64_t>(lanes[0] + lanes[1] +
                                                       lanes[2] + lanes[3]);
        for (; k < w1; ++k) count += std::popcount(~(a[k] ^ b[k]));
        out_row[j] += static_cast<std::int32_t>(count);
      }
    }
  }
}

// Plain loops compiled for the hardware POPCNT instruction. The GEMM form
// serves rows narrower than one AVX2 vector (wpr < 4), where GemmAvx2 would
// only pay for an accumulator it never fills and word blocking buys
// nothing.
__attribute__((target("popcnt"))) void GemmPopcnt(
    const std::uint64_t* x, std::int64_t n, const std::uint64_t* w,
    std::int64_t m, std::int64_t wpr, std::int32_t* out) {
  for (std::int64_t i = 0; i < n; ++i, x += wpr, out += m) {
    for (std::int64_t j = 0; j < m; ++j) {
      out[j] += static_cast<std::int32_t>(XnorCount(x, w + j * wpr, wpr));
    }
  }
}

__attribute__((target("popcnt"))) void RowsPopcnt(
    const std::uint64_t* x, std::int64_t x_stride, const std::uint64_t* w,
    std::int64_t m, std::int64_t wpr, std::int32_t* out) {
  RowsWords(x, x_stride, w, m, wpr, out);
}

bool CpuHasAvx2() {
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("popcnt");
}

#else

bool CpuHasAvx2() { return false; }

#endif  // RRAMBNN_BITGEMM_X86

std::atomic<bool> g_force_scalar{false};

/// True when the hardware kernels may run (the CPU has AVX2 and POPCNT and
/// no test forced the scalar path).
bool UseHardwareKernels() {
  static const bool has_avx2 = CpuHasAvx2();
  return has_avx2 && !g_force_scalar.load(std::memory_order_relaxed);
}

GemmKernel ActiveKernel(std::int64_t wpr) {
#ifdef RRAMBNN_BITGEMM_X86
  if (UseHardwareKernels()) return wpr < 4 ? GemmPopcnt : GemmAvx2;
#endif
  (void)wpr;
  return GemmScalar;
}

}  // namespace

void XnorPopcountGemm(const BitMatrix& x, const BitMatrix& w,
                      std::vector<std::int32_t>& out) {
  if (x.cols() != w.cols()) {
    throw std::invalid_argument("XnorPopcountGemm: column count mismatch (" +
                                std::to_string(x.cols()) + " vs " +
                                std::to_string(w.cols()) + ")");
  }
  const std::int64_t n = x.rows(), m = w.rows();
  const std::int64_t wpr = x.words_per_row();
  out.assign(static_cast<std::size_t>(n * m),
             static_cast<std::int32_t>(x.cols() - wpr * 64));
  if (n == 0 || m == 0 || wpr == 0) return;
  ActiveKernel(wpr)(x.RowWords(0).data(), n, w.RowWords(0).data(), m, wpr,
                    out.data());
}

XnorRowsKernel SelectXnorRowsKernel() {
#ifdef RRAMBNN_BITGEMM_X86
  if (UseHardwareKernels()) return RowsPopcnt;
#endif
  return RowsScalar;
}

const char* XnorGemmKernelName() {
  return UseHardwareKernels() ? "avx2" : "scalar";
}

bool SetXnorGemmForceScalar(bool force) {
  return g_force_scalar.exchange(force);
}

}  // namespace rrambnn::core
