// Depthwise 2-D convolution (channel multiplier 1), the building block of
// MobileNet V1's depthwise-separable convolutions (paper Sec. IV).
#pragma once

#include <string>
#include <vector>

#include "nn/im2col.h"
#include "nn/layer.h"

namespace rrambnn::nn {

struct DepthwiseConv2dOptions {
  std::int64_t stride_h = 1;
  std::int64_t stride_w = 1;
  std::int64_t pad_h = 0;
  std::int64_t pad_w = 0;
  bool binary = false;
  bool use_bias = true;
  /// Deserialization fast path: no random init, no grad allocations (see
  /// DenseOptions::skip_init — loaded layers are never trained).
  bool skip_init = false;
};

class DepthwiseConv2d : public Layer {
 public:
  /// `options` is taken by reference, as in Conv2d (a GCC 12.2 AVX-512
  /// miscompile of passing it by value).
  DepthwiseConv2d(std::int64_t channels, std::int64_t kernel_h,
                  std::int64_t kernel_w, Rng& rng,
                  const DepthwiseConv2dOptions& options = {});

  Tensor Forward(const Tensor& x, bool training) override;
  Tensor Infer(const Tensor& x) const override;
  Tensor Backward(const Tensor& grad_out) override;
  std::vector<Param*> Params() override;
  std::string Name() const override {
    return options_.binary ? "BinaryDepthwiseConv2d" : "DepthwiseConv2d";
  }
  Shape OutputShape(const Shape& in) const override;
  std::string Describe() const override;

  std::int64_t channels() const { return channels_; }
  std::int64_t kernel_h() const { return kernel_h_; }
  std::int64_t kernel_w() const { return kernel_w_; }
  const DepthwiseConv2dOptions& options() const { return options_; }
  bool binary() const { return options_.binary; }
  /// Deserialization hook: the binary flag trails the serialized payload
  /// (backward compatibility with artifacts written before it existed), so
  /// the loader learns it only after construction.
  void SetBinary(bool binary) {
    options_.binary = binary;
    weight_.latent_binary = binary;
  }

  /// sign(W) in binary mode, W otherwise.
  Tensor EffectiveWeight() const;

  /// Weights stored [channels, kernel_h * kernel_w].
  const Param& weight() const { return weight_; }
  const Param& bias() const { return bias_; }
  Param& weight() { return weight_; }
  Param& bias() { return bias_; }

 private:
  ConvGeometry GeometryFor(const Shape& sample_shape) const;

  std::int64_t channels_;
  std::int64_t kernel_h_;
  std::int64_t kernel_w_;
  DepthwiseConv2dOptions options_;
  Param weight_;
  Param bias_;

  ConvGeometry geom_;
  Tensor cached_input_;
};

}  // namespace rrambnn::nn
