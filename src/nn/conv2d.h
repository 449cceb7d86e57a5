// 2-D convolution via im2col + GEMM, optionally with binarized weights.
// Infer skips im2col for stride-1 k x 1 kernels and reads their patches in
// place; Forward always materializes the columns Backward needs.
//
// The paper's "1-D" biomedical convolutions are expressed as k x 1 (conv in
// time) and 1 x k (conv in space) kernels on [N, C, H=time, W=space] tensors,
// exactly mirroring Table I / Table II of the paper.
#pragma once

#include <string>
#include <vector>

#include "nn/im2col.h"
#include "nn/layer.h"

namespace rrambnn::nn {

struct Conv2dOptions {
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

class Conv2d : public Layer {
 public:
  /// `options` is taken by reference: GCC 12.2 at -O2 with AVX-512 enabled
  /// (-march=native on such hosts) miscompiles passing this 40-byte
  /// aggregate by value, storing its stride and pad fields as one splat.
  Conv2d(std::int64_t in_channels, std::int64_t out_channels,
         std::int64_t kernel_h, std::int64_t kernel_w, Rng& rng,
         const Conv2dOptions& options = {});

  Tensor Forward(const Tensor& x, bool training) override;
  Tensor Infer(const Tensor& x) const override;
  Tensor Backward(const Tensor& grad_out) override;
  std::vector<Param*> Params() override;
  std::string Name() const override {
    return options_.binary ? "BinaryConv2d" : "Conv2d";
  }
  Shape OutputShape(const Shape& in) const override;
  std::string Describe() const override;

  std::int64_t in_channels() const { return in_channels_; }
  std::int64_t out_channels() const { return out_channels_; }
  std::int64_t kernel_h() const { return kernel_h_; }
  std::int64_t kernel_w() const { return kernel_w_; }
  const Conv2dOptions& options() const { return options_; }
  bool binary() const { return options_.binary; }

  /// Weights stored [out_channels, in_channels * kernel_h * kernel_w].
  const Param& weight() const { return weight_; }
  Param& weight() { return weight_; }
  const Param& bias() const { return bias_; }
  Param& bias() { return bias_; }

  /// sign(W) in binary mode, W otherwise.
  Tensor EffectiveWeight() const;

 private:
  ConvGeometry GeometryFor(const Shape& sample_shape) const;
  /// Infer for stride-1 k x 1 kernels (kernel_w == 1, pad_w == 0): the GEMM
  /// reads patches in place from the input planes instead of from Im2Col
  /// columns. Accumulates into the zeroed output `y`.
  void InferColumnKernel(const Tensor& x, const ConvGeometry& geom,
                         const Tensor& w_eff, Tensor& y) const;

  std::int64_t in_channels_;
  std::int64_t out_channels_;
  std::int64_t kernel_h_;
  std::int64_t kernel_w_;
  Conv2dOptions options_;
  Param weight_;
  Param bias_;

  // Cached forward state for Backward().
  ConvGeometry geom_;
  Tensor cached_cols_;  // [N, PatchSize, NumPatches]
  std::int64_t cached_batch_ = 0;
};

}  // namespace rrambnn::nn
