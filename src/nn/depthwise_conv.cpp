#include "nn/depthwise_conv.h"

#include <algorithm>
#include <stdexcept>

#include "nn/init.h"

namespace rrambnn::nn {

DepthwiseConv2d::DepthwiseConv2d(std::int64_t channels, std::int64_t kernel_h,
                                 std::int64_t kernel_w, Rng& rng,
                                 const DepthwiseConv2dOptions& options)
    : channels_(channels),
      kernel_h_(kernel_h),
      kernel_w_(kernel_w),
      options_(options) {
  if (channels <= 0 || kernel_h <= 0 || kernel_w <= 0) {
    throw std::invalid_argument(
        "DepthwiseConv2d: non-positive constructor argument");
  }
  weight_.value = Tensor({channels_, kernel_h_ * kernel_w_});
  weight_.latent_binary = options_.binary;
  if (!options_.skip_init) {
    weight_.grad = Tensor({channels_, kernel_h_ * kernel_w_});
    GlorotUniform(weight_.value, kernel_h_ * kernel_w_, kernel_h_ * kernel_w_,
                  rng);
  }
  if (options_.use_bias) {
    bias_.value = Tensor({channels_});
    if (!options_.skip_init) bias_.grad = Tensor({channels_});
  }
}

ConvGeometry DepthwiseConv2d::GeometryFor(const Shape& sample_shape) const {
  if (sample_shape.size() != 3 || sample_shape[0] != channels_) {
    throw std::invalid_argument("DepthwiseConv2d: expected [C=" +
                                std::to_string(channels_) + ", H, W], got " +
                                ShapeToString(sample_shape));
  }
  ConvGeometry g;
  g.in_channels = 1;  // each channel is convolved independently
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

Tensor DepthwiseConv2d::EffectiveWeight() const {
  return options_.binary ? SignBinarize(weight_.value) : weight_.value;
}

Tensor DepthwiseConv2d::Forward(const Tensor& x, bool /*training*/) {
  Tensor y = Infer(x);
  geom_ = GeometryFor({x.dim(1), x.dim(2), x.dim(3)});
  cached_input_ = x;
  return y;
}

Tensor DepthwiseConv2d::Infer(const Tensor& x) const {
  if (x.rank() != 4) {
    throw std::invalid_argument("DepthwiseConv2d: expected [N, C, H, W]");
  }
  const ConvGeometry geom = GeometryFor({x.dim(1), x.dim(2), x.dim(3)});
  const std::int64_t n = x.dim(0);
  const std::int64_t oh = geom.OutH(), ow = geom.OutW();
  Tensor y({n, channels_, oh, ow});
  const Tensor w_eff = EffectiveWeight();
  const float* in = x.data();
  float* out = y.data();
  for (std::int64_t s = 0; s < n; ++s) {
    for (std::int64_t c = 0; c < channels_; ++c) {
      const float* plane = in + (s * channels_ + c) * geom.in_h * geom.in_w;
      const float* ker = w_eff.data() + c * kernel_h_ * kernel_w_;
      const float b = options_.use_bias ? bias_.value[c] : 0.0f;
      for (std::int64_t oy = 0; oy < oh; ++oy) {
        // Only taps inside the plane contribute (padding taps are skipped),
        // accumulated in (ky, kx) order.
        const std::int64_t y0 = oy * geom.stride_h - geom.pad_h;
        const std::int64_t ky_lo = std::max<std::int64_t>(0, -y0);
        const std::int64_t ky_hi = std::min(kernel_h_, geom.in_h - y0);
        for (std::int64_t ox = 0; ox < ow; ++ox, ++out) {
          const std::int64_t x0 = ox * geom.stride_w - geom.pad_w;
          const std::int64_t kx_lo = std::max<std::int64_t>(0, -x0);
          const std::int64_t kx_hi = std::min(kernel_w_, geom.in_w - x0);
          float acc = b;
          for (std::int64_t ky = ky_lo; ky < ky_hi; ++ky) {
            const float* row = plane + (y0 + ky) * geom.in_w;
            const float* kr = ker + ky * kernel_w_;
            for (std::int64_t kx = kx_lo; kx < kx_hi; ++kx) {
              acc += kr[kx] * row[x0 + kx];
            }
          }
          *out = acc;
        }
      }
    }
  }
  return y;
}

Tensor DepthwiseConv2d::Backward(const Tensor& grad_out) {
  const std::int64_t n = cached_input_.dim(0);
  const std::int64_t oh = geom_.OutH(), ow = geom_.OutW();
  if (grad_out.rank() != 4 || grad_out.dim(0) != n ||
      grad_out.dim(1) != channels_ || grad_out.dim(2) != oh ||
      grad_out.dim(3) != ow) {
    throw std::invalid_argument(
        "DepthwiseConv2d::Backward: gradient shape mismatch");
  }
  Tensor grad_in({n, channels_, geom_.in_h, geom_.in_w});
  // Straight-through estimator in binary mode: dX flows through the
  // effective (sign) weights, dW accumulates on the latent floats.
  const Tensor w_eff = EffectiveWeight();
  for (std::int64_t s = 0; s < n; ++s) {
    for (std::int64_t c = 0; c < channels_; ++c) {
      const float* plane =
          cached_input_.data() + (s * channels_ + c) * geom_.in_h * geom_.in_w;
      const float* gy = grad_out.data() + (s * channels_ + c) * oh * ow;
      const float* ker = w_eff.data() + c * kernel_h_ * kernel_w_;
      float* gker = weight_.grad.data() + c * kernel_h_ * kernel_w_;
      float* gx = grad_in.data() + (s * channels_ + c) * geom_.in_h * geom_.in_w;
      float gb = 0.0f;
      for (std::int64_t oy = 0; oy < oh; ++oy) {
        for (std::int64_t ox = 0; ox < ow; ++ox) {
          const float g = gy[oy * ow + ox];
          gb += g;
          for (std::int64_t ky = 0; ky < kernel_h_; ++ky) {
            const std::int64_t iy = oy * geom_.stride_h + ky - geom_.pad_h;
            if (iy < 0 || iy >= geom_.in_h) continue;
            for (std::int64_t kx = 0; kx < kernel_w_; ++kx) {
              const std::int64_t ix = ox * geom_.stride_w + kx - geom_.pad_w;
              if (ix < 0 || ix >= geom_.in_w) continue;
              gker[ky * kernel_w_ + kx] += g * plane[iy * geom_.in_w + ix];
              gx[iy * geom_.in_w + ix] += g * ker[ky * kernel_w_ + kx];
            }
          }
        }
      }
      if (options_.use_bias) bias_.grad[c] += gb;
    }
  }
  return grad_in;
}

std::vector<Param*> DepthwiseConv2d::Params() {
  if (options_.use_bias) return {&weight_, &bias_};
  return {&weight_};
}

Shape DepthwiseConv2d::OutputShape(const Shape& in) const {
  const ConvGeometry g = GeometryFor(in);
  return {channels_, g.OutH(), g.OutW()};
}

std::string DepthwiseConv2d::Describe() const {
  std::string out = Name() + " " + std::to_string(channels_) + " k=" +
                    std::to_string(kernel_h_) + "x" +
                    std::to_string(kernel_w_) + " s=" +
                    std::to_string(options_.stride_h) + "x" +
                    std::to_string(options_.stride_w);
  if (options_.pad_h != 0 || options_.pad_w != 0) {
    out += " p=" + std::to_string(options_.pad_h) + "x" +
           std::to_string(options_.pad_w);
  }
  return out;
}

}  // namespace rrambnn::nn
