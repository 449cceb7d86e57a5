#include "nn/conv2d.h"

#include <algorithm>
#include <stdexcept>

#include "nn/gemm.h"
#include "nn/init.h"

namespace rrambnn::nn {

Conv2d::Conv2d(std::int64_t in_channels, std::int64_t out_channels,
               std::int64_t kernel_h, std::int64_t kernel_w, Rng& rng,
               const Conv2dOptions& options)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_h_(kernel_h),
      kernel_w_(kernel_w),
      options_(options) {
  if (in_channels <= 0 || out_channels <= 0 || kernel_h <= 0 ||
      kernel_w <= 0) {
    throw std::invalid_argument("Conv2d: non-positive constructor argument");
  }
  const std::int64_t patch = in_channels_ * kernel_h_ * kernel_w_;
  weight_.value = Tensor({out_channels_, patch});
  weight_.latent_binary = options_.binary;
  if (!options_.skip_init) {
    weight_.grad = Tensor({out_channels_, patch});
    GlorotUniform(weight_.value, patch, out_channels_, rng);
  }
  if (options_.use_bias) {
    bias_.value = Tensor({out_channels_});
    if (!options_.skip_init) bias_.grad = Tensor({out_channels_});
  }
}

ConvGeometry Conv2d::GeometryFor(const Shape& sample_shape) const {
  if (sample_shape.size() != 3 || sample_shape[0] != in_channels_) {
    throw std::invalid_argument(
        "Conv2d: expected per-sample shape [C=" +
        std::to_string(in_channels_) + ", H, W], got " +
        ShapeToString(sample_shape));
  }
  ConvGeometry g;
  g.in_channels = in_channels_;
  g.in_h = sample_shape[1];
  g.in_w = sample_shape[2];
  g.kernel_h = kernel_h_;
  g.kernel_w = kernel_w_;
  g.stride_h = options_.stride_h;
  g.stride_w = options_.stride_w;
  g.pad_h = options_.pad_h;
  g.pad_w = options_.pad_w;
  g.Validate();
  return g;
}

Tensor Conv2d::EffectiveWeight() const {
  return options_.binary ? SignBinarize(weight_.value) : weight_.value;
}

Tensor Conv2d::Forward(const Tensor& x, bool /*training*/) {
  if (x.rank() != 4) {
    throw std::invalid_argument("Conv2d::Forward: expected [N, C, H, W]");
  }
  geom_ = GeometryFor({x.dim(1), x.dim(2), x.dim(3)});
  const std::int64_t n = x.dim(0);
  const std::int64_t patch = geom_.PatchSize();
  const std::int64_t q = geom_.NumPatches();
  cached_batch_ = n;
  cached_cols_ = Tensor({n, patch, q});

  Tensor y({n, out_channels_, geom_.OutH(), geom_.OutW()});
  const Tensor w_eff = EffectiveWeight();
  for (std::int64_t s = 0; s < n; ++s) {
    float* cols = cached_cols_.data() + s * patch * q;
    Im2Col(x.data() + s * in_channels_ * geom_.in_h * geom_.in_w, geom_, cols);
    // y_s[OC, Q] = W[OC, P] * cols[P, Q]
    GemmAccumulate(w_eff.data(), cols, y.data() + s * out_channels_ * q,
                   out_channels_, patch, q);
  }
  if (options_.use_bias) {
    for (std::int64_t s = 0; s < n; ++s) {
      for (std::int64_t oc = 0; oc < out_channels_; ++oc) {
        float* plane = y.data() + (s * out_channels_ + oc) * q;
        const float b = bias_.value[oc];
        for (std::int64_t i = 0; i < q; ++i) plane[i] += b;
      }
    }
  }
  return y;
}

Tensor Conv2d::Infer(const Tensor& x) const {
  if (x.rank() != 4) {
    throw std::invalid_argument("Conv2d::Infer: expected [N, C, H, W]");
  }
  const ConvGeometry geom = GeometryFor({x.dim(1), x.dim(2), x.dim(3)});
  const std::int64_t n = x.dim(0);
  const std::int64_t patch = geom.PatchSize();
  const std::int64_t q = geom.NumPatches();

  Tensor y({n, out_channels_, geom.OutH(), geom.OutW()});
  const Tensor w_eff = EffectiveWeight();
  if (geom.stride_h == 1 && geom.stride_w == 1 && geom.kernel_w == 1 &&
      geom.pad_w == 0) {
    InferColumnKernel(x, geom, w_eff, y);
  } else {
    std::vector<float> cols(static_cast<std::size_t>(patch * q));
    for (std::int64_t s = 0; s < n; ++s) {
      Im2Col(x.data() + s * in_channels_ * geom.in_h * geom.in_w, geom,
             cols.data());
      GemmAccumulate(w_eff.data(), cols.data(),
                     y.data() + s * out_channels_ * q, out_channels_, patch,
                     q);
    }
  }
  if (options_.use_bias) {
    for (std::int64_t s = 0; s < n; ++s) {
      for (std::int64_t oc = 0; oc < out_channels_; ++oc) {
        float* plane = y.data() + (s * out_channels_ + oc) * q;
        const float b = bias_.value[oc];
        for (std::int64_t i = 0; i < q; ++i) plane[i] += b;
      }
    }
  }
  return y;
}

void Conv2d::InferColumnKernel(const Tensor& x, const ConvGeometry& geom,
                               const Tensor& w_eff, Tensor& y) const {
  // Im2Col row (c, ky) of a stride-1 k x 1 kernel is the q = OutH * W
  // contiguous floats of input plane c (zero-padded in height) that start at
  // row ky, so the GEMM reads B in place with row stride W. One call per
  // input channel, over that channel's [OC, kh] weight block, feeds each
  // output its products in Im2Col's (c, ky) order with the same zero skips:
  // the result is bit-identical to the Im2Col path Forward keeps.
  const std::int64_t n = x.dim(0);
  const std::int64_t kh = geom.kernel_h;
  const std::int64_t w = geom.in_w;
  const std::int64_t plane = geom.in_h * w;
  const std::int64_t q = geom.NumPatches();
  const std::int64_t patch = geom.PatchSize();
  std::vector<float> blocks(static_cast<std::size_t>(patch * out_channels_));
  for (std::int64_t c = 0; c < in_channels_; ++c) {
    for (std::int64_t oc = 0; oc < out_channels_; ++oc) {
      std::copy_n(w_eff.data() + oc * patch + c * kh, kh,
                  blocks.data() + (c * out_channels_ + oc) * kh);
    }
  }
  // Padded planes: the pad rows are zeroed once, the interior is restaged
  // per sample.
  const std::int64_t padded_plane = (geom.in_h + 2 * geom.pad_h) * w;
  std::vector<float> padded(
      geom.pad_h > 0 ? static_cast<std::size_t>(in_channels_ * padded_plane)
                     : 0);
  for (std::int64_t s = 0; s < n; ++s) {
    const float* planes = x.data() + s * in_channels_ * plane;
    std::int64_t plane_stride = plane;
    if (!padded.empty()) {
      for (std::int64_t c = 0; c < in_channels_; ++c) {
        std::copy_n(planes + c * plane, plane,
                    padded.data() + c * padded_plane + geom.pad_h * w);
      }
      planes = padded.data();
      plane_stride = padded_plane;
    }
    float* out = y.data() + s * out_channels_ * q;
    for (std::int64_t c = 0; c < in_channels_; ++c) {
      GemmAccumulateStridedB(blocks.data() + c * out_channels_ * kh,
                             planes + c * plane_stride, w, out, out_channels_,
                             kh, q);
    }
  }
}

Tensor Conv2d::Backward(const Tensor& grad_out) {
  const std::int64_t n = cached_batch_;
  const std::int64_t patch = geom_.PatchSize();
  const std::int64_t q = geom_.NumPatches();
  if (grad_out.rank() != 4 || grad_out.dim(0) != n ||
      grad_out.dim(1) != out_channels_ || grad_out.dim(2) != geom_.OutH() ||
      grad_out.dim(3) != geom_.OutW()) {
    throw std::invalid_argument("Conv2d::Backward: gradient shape mismatch");
  }
  Tensor grad_in({n, in_channels_, geom_.in_h, geom_.in_w});
  Tensor grad_cols({patch, q});
  const Tensor w_eff = EffectiveWeight();
  for (std::int64_t s = 0; s < n; ++s) {
    const float* gy = grad_out.data() + s * out_channels_ * q;
    const float* cols = cached_cols_.data() + s * patch * q;
    // dW[OC, P] += dY[OC, Q] * cols^T[Q, P]
    GemmTransBAccumulate(gy, cols, weight_.grad.data(), out_channels_, q,
                         patch);
    // dcols[P, Q] = W^T[P, OC] * dY[OC, Q]
    grad_cols.Fill(0.0f);
    GemmTransAAccumulate(w_eff.data(), gy, grad_cols.data(), patch,
                         out_channels_, q);
    Col2Im(grad_cols.data(), geom_,
           grad_in.data() + s * in_channels_ * geom_.in_h * geom_.in_w);
    if (options_.use_bias) {
      for (std::int64_t oc = 0; oc < out_channels_; ++oc) {
        const float* plane = gy + oc * q;
        float acc = 0.0f;
        for (std::int64_t i = 0; i < q; ++i) acc += plane[i];
        bias_.grad[oc] += acc;
      }
    }
  }
  return grad_in;
}

std::vector<Param*> Conv2d::Params() {
  if (options_.use_bias) return {&weight_, &bias_};
  return {&weight_};
}

Shape Conv2d::OutputShape(const Shape& in) const {
  const ConvGeometry g = GeometryFor(in);
  return {out_channels_, g.OutH(), g.OutW()};
}

std::string Conv2d::Describe() const {
  return Name() + " " + std::to_string(out_channels_) + " k=" +
         std::to_string(kernel_h_) + "x" + std::to_string(kernel_w_) +
         " s=" + std::to_string(options_.stride_h) + "x" +
         std::to_string(options_.stride_w) + " p=" +
         std::to_string(options_.pad_h) + "x" + std::to_string(options_.pad_w);
}

}  // namespace rrambnn::nn
