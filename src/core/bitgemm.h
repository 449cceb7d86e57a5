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

/// Row-by-row XNOR-popcount of packed rows of `wpr` words against `m`
/// consecutive weight rows: out[j] = popcount(XNOR(x + j * x_stride,
/// w + j * wpr)) over all wpr * 64 bits. x_stride 0 meets one patch with
/// every weight row (a conv pixel); x_stride wpr pairs patch j with weight
/// row j (a depthwise pixel). The counts include the zero padding bits of
/// the final word (each such pair XNORs to 1); callers subtract
/// wpr * 64 - cols as XnorPopcountGemm does.
using XnorRowsKernel = void (*)(const std::uint64_t* x, std::int64_t x_stride,
                                const std::uint64_t* w, std::int64_t m,
                                std::int64_t wpr, std::int32_t* out);

/// The runtime-selected row kernel (POPCNT instruction, or the portable loop
/// under SetXnorGemmForceScalar / on CPUs without it). Callers in a hot loop
/// fetch it once and call through the pointer.
XnorRowsKernel SelectXnorRowsKernel();

/// Name of the kernel the runtime dispatcher selected ("avx2" or "scalar").
const char* XnorGemmKernelName();

/// Forces the scalar GEMM and row kernels regardless of CPU support
/// (tests/benchmarks compare the two). Returns the previous setting.
bool SetXnorGemmForceScalar(bool force);

}  // namespace rrambnn::core
