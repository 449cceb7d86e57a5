#include "nn/batchnorm.h"

#include <cmath>
#include <stdexcept>

namespace rrambnn::nn {

namespace {

// Iterates a [N, F] or [N, C, H, W] tensor as (feature, element) pairs.
// For [N, F]: feature j has N elements with stride F.
// For [N, C, H, W]: channel c has N*H*W elements.
struct Reduction {
  std::int64_t features;
  std::int64_t batch;
  std::int64_t spatial;  // H*W for rank 4, 1 for rank 2

  std::int64_t Count() const { return batch * spatial; }
  std::int64_t Index(std::int64_t f, std::int64_t n, std::int64_t s) const {
    return (n * features + f) * spatial + s;
  }
};

Reduction MakeReduction(const Shape& shape, std::int64_t num_features) {
  if (shape.size() == 2) {
    if (shape[1] != num_features) {
      throw std::invalid_argument("BatchNorm: feature dim mismatch");
    }
    return {num_features, shape[0], 1};
  }
  if (shape.size() == 4) {
    if (shape[1] != num_features) {
      throw std::invalid_argument("BatchNorm: channel dim mismatch");
    }
    return {num_features, shape[0], shape[2] * shape[3]};
  }
  throw std::invalid_argument("BatchNorm: expected rank 2 or 4 input, got " +
                              ShapeToString(shape));
}

}  // namespace

BatchNorm::BatchNorm(std::int64_t num_features, BatchNormOptions options)
    : num_features_(num_features), options_(options) {
  if (num_features <= 0) {
    throw std::invalid_argument("BatchNorm: non-positive feature count");
  }
  gamma_.value = Tensor({num_features_}, 1.0f);
  gamma_.grad = Tensor({num_features_});
  beta_.value = Tensor({num_features_});
  beta_.grad = Tensor({num_features_});
  running_mean_ = Tensor({num_features_});
  running_var_ = Tensor({num_features_}, 1.0f);
}

Tensor BatchNorm::Forward(const Tensor& x, bool training) {
  const Reduction r = MakeReduction(x.shape(), num_features_);
  cached_training_ = training;
  cached_shape_ = x.shape();
  Tensor y(x.shape());

  if (!training) {
    cached_xhat_ = Tensor(x.shape());
    for (std::int64_t f = 0; f < r.features; ++f) {
      const float inv_std =
          1.0f / std::sqrt(running_var_[f] + options_.eps);
      const float g = gamma_.value[f], b = beta_.value[f],
                  m = running_mean_[f];
      for (std::int64_t n = 0; n < r.batch; ++n) {
        for (std::int64_t s = 0; s < r.spatial; ++s) {
          const std::int64_t i = r.Index(f, n, s);
          const float xhat = (x[i] - m) * inv_std;
          cached_xhat_[i] = xhat;
          y[i] = g * xhat + b;
        }
      }
    }
    return y;
  }

  cached_xhat_ = Tensor(x.shape());
  cached_x_minus_mean_ = Tensor(x.shape());
  cached_inv_std_.assign(static_cast<std::size_t>(r.features), 0.0f);
  const auto count = static_cast<float>(r.Count());
  if (r.Count() < 2) {
    throw std::invalid_argument(
        "BatchNorm: training forward needs at least 2 elements per feature");
  }
  for (std::int64_t f = 0; f < r.features; ++f) {
    double mean = 0.0;
    for (std::int64_t n = 0; n < r.batch; ++n) {
      for (std::int64_t s = 0; s < r.spatial; ++s) {
        mean += x[r.Index(f, n, s)];
      }
    }
    mean /= count;
    double var = 0.0;
    for (std::int64_t n = 0; n < r.batch; ++n) {
      for (std::int64_t s = 0; s < r.spatial; ++s) {
        const double d = x[r.Index(f, n, s)] - mean;
        var += d * d;
      }
    }
    var /= count;  // biased variance, used consistently for running stats
    const float inv_std =
        1.0f / std::sqrt(static_cast<float>(var) + options_.eps);
    cached_inv_std_[static_cast<std::size_t>(f)] = inv_std;
    const float g = gamma_.value[f], b = beta_.value[f];
    for (std::int64_t n = 0; n < r.batch; ++n) {
      for (std::int64_t s = 0; s < r.spatial; ++s) {
        const std::int64_t i = r.Index(f, n, s);
        const float xm = x[i] - static_cast<float>(mean);
        cached_x_minus_mean_[i] = xm;
        const float xhat = xm * inv_std;
        cached_xhat_[i] = xhat;
        y[i] = g * xhat + b;
      }
    }
    running_mean_[f] = (1.0f - options_.momentum) * running_mean_[f] +
                       options_.momentum * static_cast<float>(mean);
    running_var_[f] = (1.0f - options_.momentum) * running_var_[f] +
                      options_.momentum * static_cast<float>(var);
  }
  return y;
}

Tensor BatchNorm::Infer(const Tensor& x) const {
  const Reduction r = MakeReduction(x.shape(), num_features_);
  Tensor y(x.shape());
  const float* src = x.data();
  float* dst = y.data();
  // Same arithmetic (and evaluation order) as the eval branch of Forward so
  // the outputs are bit-identical — only the Backward caches are skipped.
  // The statistics stay unfolded: g * ((x - m) * inv_std) + b, not a
  // precomputed scale and shift, which would round differently.
  for (std::int64_t f = 0; f < r.features; ++f) {
    const float inv_std = 1.0f / std::sqrt(running_var_[f] + options_.eps);
    const float g = gamma_.value[f], b = beta_.value[f], m = running_mean_[f];
    for (std::int64_t n = 0; n < r.batch; ++n) {
      const std::int64_t base = r.Index(f, n, 0);
      for (std::int64_t s = 0; s < r.spatial; ++s) {
        dst[base + s] = g * ((src[base + s] - m) * inv_std) + b;
      }
    }
  }
  return y;
}

Tensor BatchNorm::Backward(const Tensor& grad_out) {
  if (grad_out.shape() != cached_shape_) {
    throw std::invalid_argument("BatchNorm::Backward: shape mismatch");
  }
  const Reduction r = MakeReduction(cached_shape_, num_features_);
  Tensor grad_in(cached_shape_);

  if (!cached_training_) {
    // Inference mode: y is a fixed affine map of x.
    for (std::int64_t f = 0; f < r.features; ++f) {
      const float scale = gamma_.value[f] /
                          std::sqrt(running_var_[f] + options_.eps);
      for (std::int64_t n = 0; n < r.batch; ++n) {
        for (std::int64_t s = 0; s < r.spatial; ++s) {
          const std::int64_t i = r.Index(f, n, s);
          grad_in[i] = grad_out[i] * scale;
          gamma_.grad[f] += grad_out[i] * cached_xhat_[i];
          beta_.grad[f] += grad_out[i];
        }
      }
    }
    return grad_in;
  }

  const auto count = static_cast<float>(r.Count());
  for (std::int64_t f = 0; f < r.features; ++f) {
    const float inv_std = cached_inv_std_[static_cast<std::size_t>(f)];
    const float g = gamma_.value[f];
    double sum_dy = 0.0, sum_dy_xhat = 0.0;
    for (std::int64_t n = 0; n < r.batch; ++n) {
      for (std::int64_t s = 0; s < r.spatial; ++s) {
        const std::int64_t i = r.Index(f, n, s);
        sum_dy += grad_out[i];
        sum_dy_xhat += grad_out[i] * cached_xhat_[i];
      }
    }
    gamma_.grad[f] += static_cast<float>(sum_dy_xhat);
    beta_.grad[f] += static_cast<float>(sum_dy);
    // dx = (g * inv_std / M) * (M*dy - sum(dy) - xhat * sum(dy*xhat))
    for (std::int64_t n = 0; n < r.batch; ++n) {
      for (std::int64_t s = 0; s < r.spatial; ++s) {
        const std::int64_t i = r.Index(f, n, s);
        grad_in[i] = g * inv_std / count *
                     (count * grad_out[i] - static_cast<float>(sum_dy) -
                      cached_xhat_[i] * static_cast<float>(sum_dy_xhat));
      }
    }
  }
  return grad_in;
}

std::vector<Param*> BatchNorm::Params() { return {&gamma_, &beta_}; }

Shape BatchNorm::OutputShape(const Shape& in) const {
  // Per-sample shapes: [F] or [C, H, W]; the feature axis must match.
  if (in.empty() || in[0] != num_features_) {
    throw std::invalid_argument("BatchNorm::OutputShape: feature mismatch");
  }
  return in;
}

std::string BatchNorm::Describe() const {
  return "BatchNorm " + std::to_string(num_features_);
}

}  // namespace rrambnn::nn
