// Weight initialization schemes.
#pragma once

#include <cmath>
#include <cstdint>

#include "tensor/rng.h"
#include "tensor/tensor.h"

namespace rrambnn::nn {

/// Glorot/Xavier uniform: U[-sqrt(6/(fan_in+fan_out)), +...]. Default for
/// dense and convolutional layers (sign-symmetric, suits hardtanh/sign nets).
inline void GlorotUniform(Tensor& w, std::int64_t fan_in, std::int64_t fan_out,
                          Rng& rng) {
  const float limit =
      std::sqrt(6.0f / static_cast<float>(fan_in + fan_out));
  rng.FillUniform(w, -limit, limit);
}

/// He/Kaiming normal: N(0, sqrt(2/fan_in)) — for ReLU feature extractors.
inline void HeNormal(Tensor& w, std::int64_t fan_in, Rng& rng) {
  rng.FillNormal(w, 0.0f, std::sqrt(2.0f / static_cast<float>(fan_in)));
}

/// Binarization convention used throughout the library: sign(0) = +1, so a
/// binary weight/activation is always in {-1, +1} (never 0). This matches
/// the 2T2R encoding where a pair is always programmed LRS/HRS or HRS/LRS.
inline float SignBin(float v) { return v >= 0.0f ? 1.0f : -1.0f; }

/// Elementwise SignBin: the effective weights of a binary layer and the
/// output of the Sign activation.
inline Tensor SignBinarize(const Tensor& x) {
  Tensor y(x.shape());
  const float* src = x.data();
  float* dst = y.data();
  const std::int64_t n = x.size();
  for (std::int64_t i = 0; i < n; ++i) dst[i] = SignBin(src[i]);
  return y;
}

}  // namespace rrambnn::nn
