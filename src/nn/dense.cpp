#include "nn/dense.h"

#include <stdexcept>

#include "nn/gemm.h"
#include "nn/init.h"

namespace rrambnn::nn {

Dense::Dense(std::int64_t in_features, std::int64_t out_features, Rng& rng,
             DenseOptions options)
    : in_features_(in_features),
      out_features_(out_features),
      options_(options) {
  if (in_features <= 0 || out_features <= 0) {
    throw std::invalid_argument("Dense: non-positive feature counts");
  }
  weight_.value = Tensor({out_features_, in_features_});
  weight_.latent_binary = options_.binary;
  if (!options_.skip_init) {
    weight_.grad = Tensor({out_features_, in_features_});
    GlorotUniform(weight_.value, in_features_, out_features_, rng);
  }
  if (options_.use_bias) {
    bias_.value = Tensor({out_features_});
    if (!options_.skip_init) bias_.grad = Tensor({out_features_});
  }
}

Tensor Dense::EffectiveWeight() const {
  return options_.binary ? SignBinarize(weight_.value) : weight_.value;
}

Tensor Dense::Forward(const Tensor& x, bool /*training*/) {
  Tensor y = Infer(x);
  cached_input_ = x;
  return y;
}

Tensor Dense::Infer(const Tensor& x) const {
  if (x.rank() != 2 || x.dim(1) != in_features_) {
    throw std::invalid_argument("Dense: expected [N, " +
                                std::to_string(in_features_) + "], got " +
                                ShapeToString(x.shape()));
  }
  const std::int64_t n = x.dim(0);
  Tensor y({n, out_features_});
  const Tensor w_eff = EffectiveWeight();
  // y[N, out] = x[N, in] * W^T, W stored [out, in].
  GemmTransBAccumulate(x.data(), w_eff.data(), y.data(), n, in_features_,
                       out_features_);
  if (options_.use_bias) {
    const float* bias = bias_.value.data();
    for (std::int64_t i = 0; i < n; ++i) {
      float* row = y.data() + i * out_features_;
      for (std::int64_t j = 0; j < out_features_; ++j) row[j] += bias[j];
    }
  }
  return y;
}

Tensor Dense::Backward(const Tensor& grad_out) {
  const std::int64_t n = cached_input_.dim(0);
  if (grad_out.rank() != 2 || grad_out.dim(0) != n ||
      grad_out.dim(1) != out_features_) {
    throw std::invalid_argument("Dense::Backward: gradient shape mismatch");
  }
  // dW[out, in] += dY^T[out, N] * X[N, in]. With STE, dL/dW_latent equals
  // dL/dW_binary passed straight through.
  GemmTransAAccumulate(grad_out.data(), cached_input_.data(),
                       weight_.grad.data(), out_features_, n, in_features_);
  if (options_.use_bias) {
    for (std::int64_t i = 0; i < n; ++i) {
      const float* row = grad_out.data() + i * out_features_;
      for (std::int64_t j = 0; j < out_features_; ++j) {
        bias_.grad[j] += row[j];
      }
    }
  }
  // dX[N, in] = dY[N, out] * W_eff[out, in].
  Tensor grad_in({n, in_features_});
  const Tensor w_eff = EffectiveWeight();
  GemmAccumulate(grad_out.data(), w_eff.data(), grad_in.data(), n,
                 out_features_, in_features_);
  return grad_in;
}

std::vector<Param*> Dense::Params() {
  if (options_.use_bias) return {&weight_, &bias_};
  return {&weight_};
}

Shape Dense::OutputShape(const Shape& in) const {
  if (in.size() != 1 || in[0] != in_features_) {
    throw std::invalid_argument("Dense::OutputShape: expected [" +
                                std::to_string(in_features_) + "], got " +
                                ShapeToString(in));
  }
  return {out_features_};
}

std::string Dense::Describe() const {
  return Name() + " " + std::to_string(out_features_) + " (in " +
         std::to_string(in_features_) + ")";
}

}  // namespace rrambnn::nn
