#include "nn/pool.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace rrambnn::nn {

Pool2d::Pool2d(PoolKind kind, std::int64_t kernel_h, std::int64_t kernel_w,
               Pool2dOptions options)
    : kind_(kind),
      kernel_h_(kernel_h),
      kernel_w_(kernel_w),
      stride_h_(options.stride_h > 0 ? options.stride_h : kernel_h),
      stride_w_(options.stride_w > 0 ? options.stride_w : kernel_w) {
  if (kernel_h <= 0 || kernel_w <= 0) {
    throw std::invalid_argument("Pool2d: non-positive kernel");
  }
}

ConvGeometry Pool2d::GeometryFor(const Shape& sample_shape) const {
  if (sample_shape.size() != 3) {
    throw std::invalid_argument("Pool2d: expected per-sample [C, H, W]");
  }
  ConvGeometry g;
  g.in_channels = 1;  // pooling acts per channel
  g.in_h = sample_shape[1];
  g.in_w = sample_shape[2];
  g.kernel_h = kernel_h_;
  g.kernel_w = kernel_w_;
  g.stride_h = stride_h_;
  g.stride_w = stride_w_;
  g.Validate();
  return g;
}

Tensor Pool2d::Forward(const Tensor& x, bool /*training*/) {
  if (x.rank() != 4) {
    throw std::invalid_argument("Pool2d::Forward: expected [N, C, H, W]");
  }
  geom_ = GeometryFor({x.dim(1), x.dim(2), x.dim(3)});
  cached_batch_ = x.dim(0);
  cached_channels_ = x.dim(1);
  const std::int64_t oh = geom_.OutH(), ow = geom_.OutW();
  const std::int64_t planes = cached_batch_ * cached_channels_;
  Tensor y({cached_batch_, cached_channels_, oh, ow});
  if (kind_ == PoolKind::kMax) argmax_.assign(planes * oh * ow, -1);

  const float inv_area =
      1.0f / static_cast<float>(kernel_h_ * kernel_w_);
  for (std::int64_t p = 0; p < planes; ++p) {
    const float* plane = x.data() + p * geom_.in_h * geom_.in_w;
    float* out = y.data() + p * oh * ow;
    for (std::int64_t oy = 0; oy < oh; ++oy) {
      for (std::int64_t ox = 0; ox < ow; ++ox) {
        if (kind_ == PoolKind::kMax) {
          float best = -std::numeric_limits<float>::infinity();
          std::int64_t best_idx = -1;
          for (std::int64_t ky = 0; ky < kernel_h_; ++ky) {
            const std::int64_t iy = oy * stride_h_ + ky;
            for (std::int64_t kx = 0; kx < kernel_w_; ++kx) {
              const std::int64_t ix = ox * stride_w_ + kx;
              const float v = plane[iy * geom_.in_w + ix];
              if (v > best) {
                best = v;
                best_idx = iy * geom_.in_w + ix;
              }
            }
          }
          out[oy * ow + ox] = best;
          argmax_[p * oh * ow + oy * ow + ox] = best_idx;
        } else {
          float acc = 0.0f;
          for (std::int64_t ky = 0; ky < kernel_h_; ++ky) {
            const std::int64_t iy = oy * stride_h_ + ky;
            for (std::int64_t kx = 0; kx < kernel_w_; ++kx) {
              const std::int64_t ix = ox * stride_w_ + kx;
              acc += plane[iy * geom_.in_w + ix];
            }
          }
          out[oy * ow + ox] = acc * inv_area;
        }
      }
    }
  }
  return y;
}

Tensor Pool2d::Infer(const Tensor& x) const {
  if (x.rank() != 4) {
    throw std::invalid_argument("Pool2d::Infer: expected [N, C, H, W]");
  }
  const ConvGeometry geom = GeometryFor({x.dim(1), x.dim(2), x.dim(3)});
  const std::int64_t oh = geom.OutH(), ow = geom.OutW(), q = oh * ow;
  const std::int64_t planes = x.dim(0) * x.dim(1);
  const std::int64_t in_w = geom.in_w, row_step = stride_h_ * in_w;
  Tensor y({x.dim(0), x.dim(1), oh, ow});
  const float* in = x.data();
  float* out = y.data();

  // Folds the window into whole output planes one tap at a time, so the
  // inner loops run across independent outputs; every output still takes
  // its taps in (ky, kx) order, exactly as in Forward.
  auto fold_taps = [&](float init, auto op) {
    std::fill(out, out + planes * q, init);
    for (std::int64_t p = 0; p < planes; ++p) {
      const float* plane = in + p * geom.in_h * in_w;
      float* o = out + p * q;
      for (std::int64_t ky = 0; ky < kernel_h_; ++ky) {
        for (std::int64_t kx = 0; kx < kernel_w_; ++kx) {
          const float* tap = plane + ky * in_w + kx;
          if (ow == 1) {  // ECG/EEG time pooling: one output per row
            for (std::int64_t oy = 0; oy < oh; ++oy) {
              o[oy] = op(o[oy], tap[oy * row_step]);
            }
            continue;
          }
          for (std::int64_t oy = 0; oy < oh; ++oy) {
            const float* src = tap + oy * row_step;
            float* dst = o + oy * ow;
            for (std::int64_t ox = 0; ox < ow; ++ox) {
              dst[ox] = op(dst[ox], src[ox * stride_w_]);
            }
          }
        }
      }
    }
  };
  if (kind_ == PoolKind::kMax) {
    fold_taps(-std::numeric_limits<float>::infinity(),
              [](float best, float v) { return v > best ? v : best; });
  } else {
    fold_taps(0.0f, [](float acc, float v) { return acc + v; });
    const float inv_area = 1.0f / static_cast<float>(kernel_h_ * kernel_w_);
    for (std::int64_t i = 0; i < planes * q; ++i) out[i] *= inv_area;
  }
  return y;
}

Tensor Pool2d::Backward(const Tensor& grad_out) {
  const std::int64_t oh = geom_.OutH(), ow = geom_.OutW();
  const std::int64_t planes = cached_batch_ * cached_channels_;
  if (grad_out.size() != planes * oh * ow) {
    throw std::invalid_argument("Pool2d::Backward: gradient size mismatch");
  }
  Tensor grad_in({cached_batch_, cached_channels_, geom_.in_h, geom_.in_w});
  const float inv_area = 1.0f / static_cast<float>(kernel_h_ * kernel_w_);
  for (std::int64_t p = 0; p < planes; ++p) {
    const float* gy = grad_out.data() + p * oh * ow;
    float* gx = grad_in.data() + p * geom_.in_h * geom_.in_w;
    for (std::int64_t o = 0; o < oh * ow; ++o) {
      if (kind_ == PoolKind::kMax) {
        gx[argmax_[p * oh * ow + o]] += gy[o];
      } else {
        const std::int64_t oy = o / ow, ox = o % ow;
        for (std::int64_t ky = 0; ky < kernel_h_; ++ky) {
          const std::int64_t iy = oy * stride_h_ + ky;
          for (std::int64_t kx = 0; kx < kernel_w_; ++kx) {
            const std::int64_t ix = ox * stride_w_ + kx;
            gx[iy * geom_.in_w + ix] += gy[o] * inv_area;
          }
        }
      }
    }
  }
  return grad_in;
}

Shape Pool2d::OutputShape(const Shape& in) const {
  const ConvGeometry g = GeometryFor(in);
  return {in[0], g.OutH(), g.OutW()};
}

std::string Pool2d::Describe() const {
  return Name() + " k=" + std::to_string(kernel_h_) + "x" +
         std::to_string(kernel_w_) + " s=" + std::to_string(stride_h_) + "x" +
         std::to_string(stride_w_);
}

Tensor GlobalAvgPool::Forward(const Tensor& x, bool /*training*/) {
  if (x.rank() != 4) {
    throw std::invalid_argument("GlobalAvgPool: expected [N, C, H, W]");
  }
  cached_shape_ = x.shape();
  const std::int64_t n = x.dim(0), c = x.dim(1), hw = x.dim(2) * x.dim(3);
  Tensor y({n, c});
  for (std::int64_t p = 0; p < n * c; ++p) {
    const float* plane = x.data() + p * hw;
    float acc = 0.0f;
    for (std::int64_t i = 0; i < hw; ++i) acc += plane[i];
    y[p] = acc / static_cast<float>(hw);
  }
  return y;
}

Tensor GlobalAvgPool::Infer(const Tensor& x) const {
  if (x.rank() != 4) {
    throw std::invalid_argument("GlobalAvgPool: expected [N, C, H, W]");
  }
  const std::int64_t n = x.dim(0), c = x.dim(1), hw = x.dim(2) * x.dim(3);
  Tensor y({n, c});
  for (std::int64_t p = 0; p < n * c; ++p) {
    const float* plane = x.data() + p * hw;
    float acc = 0.0f;
    for (std::int64_t i = 0; i < hw; ++i) acc += plane[i];
    y[p] = acc / static_cast<float>(hw);
  }
  return y;
}

Tensor GlobalAvgPool::Backward(const Tensor& grad_out) {
  const std::int64_t n = cached_shape_[0], c = cached_shape_[1],
                     hw = cached_shape_[2] * cached_shape_[3];
  if (grad_out.rank() != 2 || grad_out.dim(0) != n || grad_out.dim(1) != c) {
    throw std::invalid_argument("GlobalAvgPool::Backward: shape mismatch");
  }
  Tensor grad_in(cached_shape_);
  const float inv = 1.0f / static_cast<float>(hw);
  for (std::int64_t p = 0; p < n * c; ++p) {
    float* gx = grad_in.data() + p * hw;
    const float g = grad_out[p] * inv;
    for (std::int64_t i = 0; i < hw; ++i) gx[i] = g;
  }
  return grad_in;
}

Shape GlobalAvgPool::OutputShape(const Shape& in) const {
  if (in.size() != 3) {
    throw std::invalid_argument("GlobalAvgPool: expected [C, H, W]");
  }
  return {in[0]};
}

}  // namespace rrambnn::nn
