// Packed bit-plane GEMM: the batched XNOR-popcount kernel of Eq. (3).
//
// For an activation batch X [N, L] and a weight matrix W [M, L], both packed
// as BitMatrix (bit 1 = +1), computes the popcount matrix
//     P[i][j] = popcount(XNOR(X.row(i), W.row(j)))
// over the logical L columns — one fused pass instead of N*M row kernels.
// Word-level cache blocking keeps the streamed operand resident in L1; the
// scalar kernel runs a 4x-unrolled std::popcount inner loop; on x86-64 a
// runtime dispatcher upgrades to an AVX2 kernel (256-bit XNOR + nibble-LUT
// popcount), or, for rows narrower than one vector, to a plain loop over the
// POPCNT instruction. All kernels produce identical integers — the hardware
// paths are an implementation detail, never a semantic one.
//
// Padding discipline: BitMatrix keeps all padding bits of the final word
// zero, so XNOR sets exactly (words*64 - L) spurious ones per row pair; the
// kernels count full words and the wrapper subtracts that constant, which
// keeps tail masking out of the inner loop.
#pragma once

#include <cstdint>
#include <vector>

#include "core/bitops.h"

namespace rrambnn::core {

/// out[i * w.rows() + j] = popcount(XNOR(x.row(i), w.row(j))).
/// Requires x.cols() == w.cols(); `out` is resized to x.rows() * w.rows().
void XnorPopcountGemm(const BitMatrix& x, const BitMatrix& w,
                      std::vector<std::int32_t>& out);

// -- Pixel-planar conv / depthwise kernels ----------------------------------
//
// One sample of a conv or depthwise stage runs over a pixel-planar patch
// block: word k of patch group g for output pixel p sits at
// block[(g * wpr + k) * PlanarStride(pixels) + p], so each patch word row
// holds one word per pixel and one AVX2 vector covers four adjacent pixels.
// A conv stage has one group (every unit row meets it); a depthwise stage
// has one group per channel, and unit u meets only group u. Pixels run
// row-major over the output grid, p = oy * ow + ox.

/// Where the pixels of an output grid read their kernel-row fields: pixel
/// (oy, ox) takes the `kw` bits at bit ox * stride_w of the zero-padded
/// input row that lies oy * row_step words past the field's row for oy = 0.
/// Each padded row is `row_words` words long and holds every field whole.
struct PixelGrid {
  std::int64_t oh = 0;
  std::int64_t ow = 0;
  std::int64_t stride_w = 1;
  std::int64_t row_step = 0;
  std::int64_t row_words = 1;
  int kw = 1;
};

/// Words between consecutive patch word rows of a block of `pixels` pixels:
/// room for every four-pixel vector the kernels below touch, a multiple of 4.
std::int64_t PlanarStride(std::int64_t pixels);

/// Phase 1, one (channel, kernel row) field for every pixel of `grid`: ORs
/// the field of pixel p, shifted left by `shift` (its bit offset in the
/// patch word, 0..63), into dst[p], and the bits it carries past bit 63 into
/// dst[PlanarStride(pixels) + p]. `src` is the field's padded input row for
/// oy = 0. One-word rows gather four pixels per vector on AVX2 hosts.
void GatherPlanarField(const PixelGrid& grid, const std::uint64_t* src,
                       int shift, std::uint64_t* dst);

/// Phases 2 and 3 over a block built by GatherPlanarField (every bit past
/// the w.cols() patch bits zero): XNOR-popcounts each pixel's patch against
/// weight row u, adds bias[u] (nullable), and writes output bit
/// u * pixels + p = (count >= threshold) to `out` unit-major and in order,
/// every one of the (units * pixels + 63) / 64 words. The threshold of
/// (u, p) is thresholds[u * pixels + p] when `per_pixel`, else
/// thresholds[u]. `grouped` selects the depthwise pairing of unit u with
/// patch group u. On AVX2 hosts four pixels share each XNOR-popcount and
/// threshold compare against one broadcast weight word.
void XnorThresholdPlanar(const std::uint64_t* block, std::int64_t pixels,
                         bool grouped, const BitMatrix& w,
                         const std::int32_t* bias,
                         const std::int32_t* thresholds, bool per_pixel,
                         std::uint64_t* out);

/// Name of the kernel the runtime dispatcher selected ("avx2" or "scalar").
const char* XnorGemmKernelName();

/// Forces the scalar GEMM and pixel-planar kernels regardless of CPU support
/// (tests/benchmarks compare the two). Returns the previous setting.
bool SetXnorGemmForceScalar(bool force);

}  // namespace rrambnn::core
