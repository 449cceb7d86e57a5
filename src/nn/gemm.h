// Small GEMM kernels used by dense and (via im2col) convolutional layers.
//
// GemmAccumulate is the float conv hot path of inference. It is dispatched at
// runtime: a register-tiled AVX2 kernel where the CPU has AVX2, otherwise the
// plain ikj loop. Both produce the same bits: every C element receives its
// products in increasing k order, each as a separate multiply then add, and
// rows of A skip exact-zero entries. Neither starts threads: they run inside
// the serving worker pools. The transposed variants are training-only loops
// (OpenMP over output rows).
#pragma once

#include <cstdint>

namespace rrambnn::nn {

/// C[m,n] += A[m,k] * B[k,n]  (row-major, raw pointers; caller owns sizing).
void GemmAccumulate(const float* a, const float* b, float* c, std::int64_t m,
                    std::int64_t k, std::int64_t n);

/// GemmAccumulate with row k of B starting at b + k * ldb (C keeps row stride
/// n). Rows of B may overlap (ldb < n): a stride-1 k x 1 convolution reads
/// its patch rows in place from one input plane, row ky at offset ky * W.
void GemmAccumulateStridedB(const float* a, const float* b, std::int64_t ldb,
                            float* c, std::int64_t m, std::int64_t k,
                            std::int64_t n);

/// Name of the GemmAccumulate kernel the runtime dispatcher selected
/// ("avx2" or "scalar").
const char* GemmKernelName();

/// Forces the scalar GemmAccumulate kernel regardless of CPU support (tests
/// compare the two). Returns the previous setting.
bool SetGemmForceScalar(bool force);

/// C[m,n] += A^T[k,m] * B[k,n] — A is stored [k,m].
void GemmTransAAccumulate(const float* a, const float* b, float* c,
                          std::int64_t m, std::int64_t k, std::int64_t n);

/// C[m,n] += A[m,k] * B^T[n,k] — B is stored [n,k].
void GemmTransBAccumulate(const float* a, const float* b, float* c,
                          std::int64_t m, std::int64_t k, std::int64_t n);

}  // namespace rrambnn::nn
