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

void GatherFieldScalar(const PixelGrid& g, const std::uint64_t* src,
                       int shift, std::uint64_t* dst) {
  const std::int64_t stride = PlanarStride(g.oh * g.ow);
  const bool carries = shift + g.kw > 64;
  for (std::int64_t oy = 0, p = 0; oy < g.oh; ++oy) {
    const std::uint64_t* row = src + oy * g.row_step;
    for (std::int64_t ox = 0; ox < g.ow; ++ox, ++p) {
      const std::uint64_t v = ExtractField(row, ox * g.stride_w, g.kw);
      dst[p] |= v << shift;
      if (carries) dst[stride + p] |= v >> (64 - shift);
    }
  }
}

/// The (unit, pixel) loop shared by both threshold kernels: `quad` computes
/// the output bits of pixels [p, p + len) of one unit as the low `len` bits
/// of a word, given the unit's weight row, patch group, count base
/// (cols + bias) and thresholds.
template <int kPixels, typename Quad>
[[gnu::always_inline]] inline void ForEachUnitPixels(
    const std::uint64_t* block, std::int64_t pixels, bool grouped,
    const BitMatrix& w, const std::int32_t* bias,
    const std::int32_t* thresholds, bool per_pixel, std::uint64_t* out,
    Quad quad) {
  const std::int64_t stride = PlanarStride(pixels), wpr = w.words_per_row();
  const std::uint64_t* weights = w.words().data();
  BitWriter bits(out);
  for (std::int64_t u = 0; u < w.rows(); ++u) {
    const std::int64_t base = w.cols() + (bias ? bias[u] : 0);
    const std::int32_t* t = thresholds + (per_pixel ? u * pixels : u);
    const std::uint64_t* patch = block + (grouped ? u * wpr * stride : 0);
    for (std::int64_t p = 0; p < pixels; p += kPixels) {
      const int len = static_cast<int>(std::min<std::int64_t>(pixels - p,
                                                              kPixels));
      bits.Put(quad(weights + u * wpr, patch + p, base, t, p, len), len);
    }
  }
  bits.Flush();
}

void XnorThresholdScalar(const std::uint64_t* block, std::int64_t pixels,
                         bool grouped, const BitMatrix& w,
                         const std::int32_t* bias,
                         const std::int32_t* thresholds, bool per_pixel,
                         std::uint64_t* out) {
  const std::int64_t stride = PlanarStride(pixels), wpr = w.words_per_row();
  ForEachUnitPixels<1>(
      block, pixels, grouped, w, bias, thresholds, per_pixel, out,
      [&](const std::uint64_t* wu, const std::uint64_t* patch,
          std::int64_t base, const std::int32_t* t, std::int64_t p, int) {
        // Both operands have zero padding bits, so XOR counts only the
        // cols logical bits: the XNOR popcount is cols - differences.
        std::int64_t diff = 0;
        for (std::int64_t k = 0; k < wpr; ++k) {
          diff += std::popcount(patch[k * stride] ^ wu[k]);
        }
        return std::uint64_t{base - diff >= t[per_pixel ? p : 0]};
      });
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

/// GatherFieldScalar for one-word padded rows: every field of pixel row oy
/// is a shift of the same word, so one variable shift extracts four.
__attribute__((target("avx2"))) void GatherFieldAvx2(const PixelGrid& g,
                                                     const std::uint64_t* src,
                                                     int shift,
                                                     std::uint64_t* dst) {
  const std::int64_t stride = PlanarStride(g.oh * g.ow);
  const bool carries = shift + g.kw > 64;
  const __m256i field = _mm256_set1_epi64x(
      static_cast<long long>(~std::uint64_t{0} >> (64 - g.kw)));
  const __m256i lane = _mm256_setr_epi64x(0, 1, 2, 3);
  const __m128i up = _mm_cvtsi32_si128(shift);
  const __m128i down = _mm_cvtsi32_si128(64 - shift);
  for (std::int64_t ox = 0; ox < g.ow; ox += 4) {
    const __m256i cols = _mm256_add_epi64(_mm256_set1_epi64x(ox), lane);
    // Lanes past the last column deposit zero into the next pixel row (or
    // the block's slack, see PlanarStride).
    const __m256i mask = _mm256_and_si256(
        field, _mm256_cmpgt_epi64(_mm256_set1_epi64x(g.ow), cols));
    const __m256i offsets =
        _mm256_mul_epu32(cols, _mm256_set1_epi64x(g.stride_w));
    std::uint64_t* d = dst + ox;
    for (std::int64_t oy = 0; oy < g.oh; ++oy, d += g.ow) {
      const __m256i row =
          _mm256_set1_epi64x(static_cast<long long>(src[oy * g.row_step]));
      const __m256i v =
          _mm256_and_si256(_mm256_srlv_epi64(row, offsets), mask);
      auto* lo = reinterpret_cast<__m256i*>(d);
      _mm256_storeu_si256(lo, _mm256_or_si256(_mm256_loadu_si256(lo),
                                              _mm256_sll_epi64(v, up)));
      if (carries) {
        auto* hi = reinterpret_cast<__m256i*>(d + stride);
        _mm256_storeu_si256(hi, _mm256_or_si256(_mm256_loadu_si256(hi),
                                                _mm256_srl_epi64(v, down)));
      }
    }
  }
}

__attribute__((target("avx2"))) void XnorThresholdAvx2(
    const std::uint64_t* block, std::int64_t pixels, bool grouped,
    const BitMatrix& w, const std::int32_t* bias,
    const std::int32_t* thresholds, bool per_pixel, std::uint64_t* out) {
  const std::int64_t stride = PlanarStride(pixels), wpr = w.words_per_row();
  ForEachUnitPixels<4>(
      block, pixels, grouped, w, bias, thresholds, per_pixel, out,
      [&](const std::uint64_t* wu, const std::uint64_t* patch,
          std::int64_t base, const std::int32_t* t, std::int64_t p,
          int len) __attribute__((target("avx2"))) {
        __m256i diff = _mm256_setzero_si256();
        for (std::int64_t k = 0; k < wpr; ++k) {
          const __m256i x = _mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(patch + k * stride));
          const __m256i weight =
              _mm256_set1_epi64x(static_cast<long long>(wu[k]));
          diff = _mm256_add_epi64(diff,
                                  Popcount256(_mm256_xor_si256(x, weight)));
        }
        // base - diff >= t  <=>  base + 1 - t > diff.
        __m256i limit = _mm256_set1_epi64x(base + 1);
        if (per_pixel) {
          alignas(16) std::int32_t tail[4] = {};
          const std::int32_t* tp = t + p;
          if (len < 4) {
            std::copy(tp, tp + len, tail);
            tp = tail;
          }
          limit = _mm256_sub_epi64(
              limit, _mm256_cvtepi32_epi64(_mm_loadu_si128(
                         reinterpret_cast<const __m128i*>(tp))));
        } else {
          limit = _mm256_sub_epi64(limit, _mm256_set1_epi64x(t[0]));
        }
        const int bits = _mm256_movemask_pd(
            _mm256_castsi256_pd(_mm256_cmpgt_epi64(limit, diff)));
        return static_cast<std::uint64_t>(bits) & ((1u << len) - 1);
      });
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

std::int64_t PlanarStride(std::int64_t pixels) {
  // A gather's last vector may start at pixel oh * ow - 1 - ((ow - 1) % 4)
  // and reach 3 words further: round pixels + 3 up to a multiple of 4.
  return (pixels + 6) / 4 * 4;
}

void GatherPlanarField(const PixelGrid& grid, const std::uint64_t* src,
                       int shift, std::uint64_t* dst) {
#ifdef RRAMBNN_BITGEMM_X86
  if (grid.row_words == 1 && UseHardwareKernels()) {
    GatherFieldAvx2(grid, src, shift, dst);
    return;
  }
#endif
  GatherFieldScalar(grid, src, shift, dst);
}

void XnorThresholdPlanar(const std::uint64_t* block, std::int64_t pixels,
                         bool grouped, const BitMatrix& w,
                         const std::int32_t* bias,
                         const std::int32_t* thresholds, bool per_pixel,
                         std::uint64_t* out) {
#ifdef RRAMBNN_BITGEMM_X86
  if (UseHardwareKernels()) {
    XnorThresholdAvx2(block, pixels, grouped, w, bias, thresholds, per_pixel,
                      out);
    return;
  }
#endif
  XnorThresholdScalar(block, pixels, grouped, w, bias, thresholds, per_pixel,
                      out);
}

const char* XnorGemmKernelName() {
  return UseHardwareKernels() ? "avx2" : "scalar";
}

bool SetXnorGemmForceScalar(bool force) {
  return g_force_scalar.exchange(force);
}

}  // namespace rrambnn::core
