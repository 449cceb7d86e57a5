#include "nn/activations.h"

#include <stdexcept>

#include "nn/init.h"

namespace rrambnn::nn {

namespace {

/// y[i] = f(x[i]) through raw pointers: one pass, no copy-on-write checks.
template <typename F>
Tensor Map(const Tensor& x, F f) {
  Tensor y(x.shape());
  const float* src = x.data();
  float* dst = y.data();
  const std::int64_t n = x.size();
  for (std::int64_t i = 0; i < n; ++i) dst[i] = f(src[i]);
  return y;
}

}  // namespace

Tensor Relu::Forward(const Tensor& x, bool /*training*/) {
  cached_input_ = x;
  return Infer(x);
}

Tensor Relu::Infer(const Tensor& x) const {
  return Map(x, [](float v) { return v < 0.0f ? 0.0f : v; });
}

Tensor Relu::Backward(const Tensor& grad_out) {
  if (grad_out.shape() != cached_input_.shape()) {
    throw std::invalid_argument("ReLU::Backward: shape mismatch");
  }
  Tensor grad_in = grad_out;
  for (std::int64_t i = 0; i < grad_in.size(); ++i) {
    if (cached_input_[i] <= 0.0f) grad_in[i] = 0.0f;
  }
  return grad_in;
}

Tensor HardTanh::Forward(const Tensor& x, bool /*training*/) {
  cached_input_ = x;
  return Infer(x);
}

Tensor HardTanh::Infer(const Tensor& x) const {
  return Map(x,
             [](float v) { return v > 1.0f ? 1.0f : v < -1.0f ? -1.0f : v; });
}

Tensor HardTanh::Backward(const Tensor& grad_out) {
  if (grad_out.shape() != cached_input_.shape()) {
    throw std::invalid_argument("HardTanh::Backward: shape mismatch");
  }
  Tensor grad_in = grad_out;
  for (std::int64_t i = 0; i < grad_in.size(); ++i) {
    const float v = cached_input_[i];
    if (v > 1.0f || v < -1.0f) grad_in[i] = 0.0f;
  }
  return grad_in;
}

Tensor SignSte::Forward(const Tensor& x, bool /*training*/) {
  cached_input_ = x;
  return Infer(x);
}

Tensor SignSte::Infer(const Tensor& x) const { return SignBinarize(x); }

Tensor SignSte::Backward(const Tensor& grad_out) {
  if (grad_out.shape() != cached_input_.shape()) {
    throw std::invalid_argument("Sign::Backward: shape mismatch");
  }
  // Straight-through: pass the gradient inside the clip region only.
  Tensor grad_in = grad_out;
  for (std::int64_t i = 0; i < grad_in.size(); ++i) {
    const float v = cached_input_[i];
    if (v > 1.0f || v < -1.0f) grad_in[i] = 0.0f;
  }
  return grad_in;
}

Tensor Flatten::Forward(const Tensor& x, bool /*training*/) {
  if (x.rank() < 2) {
    throw std::invalid_argument("Flatten: expected rank >= 2");
  }
  cached_shape_ = x.shape();
  return x.Reshape({x.dim(0), -1});
}

Tensor Flatten::Infer(const Tensor& x) const {
  if (x.rank() < 2) {
    throw std::invalid_argument("Flatten: expected rank >= 2");
  }
  return x.Reshape({x.dim(0), -1});
}

Tensor Flatten::Backward(const Tensor& grad_out) {
  return grad_out.Reshape(cached_shape_);
}

Shape Flatten::OutputShape(const Shape& in) const {
  return {NumElements(in)};
}

}  // namespace rrambnn::nn
