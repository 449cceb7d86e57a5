#include "core/compile.h"

#include <cmath>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/depthwise_conv.h"
#include "nn/dropout.h"
#include "nn/pool.h"

namespace rrambnn::core {

namespace {

/// Per-neuron folded linear form: sign/score of (scale * dot + offset).
struct FoldedAffine {
  double scale = 1.0;
  double offset = 0.0;
};

FoldedAffine FoldNeuron(float bias, const nn::BatchNorm* bn, std::int64_t j) {
  FoldedAffine f;
  f.offset = bias;
  if (bn != nullptr) {
    const double sigma =
        std::sqrt(static_cast<double>(bn->running_var()[j]) + bn->eps());
    const double gamma = bn->gamma().value[j];
    const double beta = bn->beta().value[j];
    const double mu = bn->running_mean()[j];
    // gamma * (dot + bias - mu) / sigma + beta
    f.scale = gamma / sigma;
    f.offset = gamma * (f.offset - mu) / sigma + beta;
  }
  return f;
}

FoldedAffine FoldNeuron(const nn::Dense& dense, const nn::BatchNorm* bn,
                        std::int64_t j) {
  return FoldNeuron(dense.has_bias() ? dense.bias().value[j] : 0.0f, bn, j);
}

/// Converts "scale * dot + offset >= 0" into a popcount threshold over a
/// possibly row-flipped weight row. dot = 2p - L.
std::int32_t FoldThreshold(const FoldedAffine& f, std::int64_t width,
                           bool* flip_row) {
  const auto l = static_cast<double>(width);
  *flip_row = false;
  if (f.scale == 0.0) {
    // Constant neuron: always +1 when offset >= 0, else never.
    return f.offset >= 0.0 ? 0 : static_cast<std::int32_t>(width + 1);
  }
  // scale*dot + offset >= 0  <=>  dot >= t (scale>0) or dot <= t (scale<0),
  // with t = -offset/scale.
  const double t = -f.offset / f.scale;
  double theta;
  if (f.scale > 0.0) {
    theta = std::ceil((t + l) / 2.0);
  } else {
    // Flip the row so -dot becomes the stored dot: p' >= ceil((l - t) / 2).
    *flip_row = true;
    theta = std::ceil((l - t) / 2.0);
  }
  if (theta < 0.0) theta = 0.0;
  if (theta > l + 1.0) theta = l + 1.0;
  return static_cast<std::int32_t>(theta);
}

const nn::Dense* AsBinaryDense(const nn::Layer& layer, const char* who) {
  const auto* dense = dynamic_cast<const nn::Dense*>(&layer);
  if (dense == nullptr) return nullptr;
  if (!dense->binary()) {
    throw std::invalid_argument(
        std::string(who) + ": dense layer '" + layer.Describe() +
        "' is not binary; only binarized classifiers compile to RRAM");
  }
  return dense;
}

bool IsSkippableLead(const nn::Layer& layer) {
  return dynamic_cast<const nn::Flatten*>(&layer) != nullptr ||
         dynamic_cast<const nn::Dropout*>(&layer) != nullptr ||
         dynamic_cast<const nn::SignSte*>(&layer) != nullptr;
}

/// Lowers one binarized conv / depthwise block (weights + optional bias +
/// optional BN, trailing Sign already consumed) into a hidden GEMM stage.
///
/// Padding correction: the float reference zero-pads, while a packed patch
/// reads out-of-range taps as bit 0 = -1, so on the packed dot
///   dot_float = dot_packed + Pad(u, p),
/// Pad(u, p) = sum of unit u's original (pre-flip) effective weights over
/// the taps of output pixel p that fall outside the input — an
/// input-independent constant. It folds into the affine as
/// offset' = offset + scale * Pad(u, p), which makes thresholds per-pixel
/// exactly when the geometry is padded (pad == 0 reduces to the per-unit
/// dense fold).
PackedGemmStage LowerConvStage(GemmLowering lowering, const StageGeometry& g,
                               const Tensor& w_eff,
                               std::span<const float> bias,
                               const nn::BatchNorm* bn) {
  const std::int64_t units = w_eff.dim(0);
  const std::int64_t patch = w_eff.dim(1);
  const std::int64_t khkw = g.kernel_h * g.kernel_w;
  const std::int64_t channels = patch / khkw;  // C for conv, 1 for depthwise

  PackedGemmStage stage;
  stage.lowering = lowering;
  stage.geom = g;
  stage.weights = BitMatrix::FromSigns(
      std::span<const float>(w_eff.data(),
                             static_cast<std::size_t>(w_eff.size())),
      units, patch);
  stage.per_pixel_thresholds = g.padded();

  // Channel-summed original weights per kernel tap: padding cuts the same
  // (ky, kx) taps out of every channel of a patch.
  std::vector<double> tap(static_cast<std::size_t>(units * khkw), 0.0);
  for (std::int64_t u = 0; u < units; ++u) {
    for (std::int64_t c = 0; c < channels; ++c) {
      for (std::int64_t t = 0; t < khkw; ++t) {
        tap[static_cast<std::size_t>(u * khkw + t)] +=
            w_eff[u * patch + c * khkw + t] >= 0.0f ? 1.0 : -1.0;
      }
    }
  }

  const std::int64_t patches = g.NumPatches();
  const std::int64_t ow = g.OutW();
  stage.thresholds.resize(static_cast<std::size_t>(
      stage.per_pixel_thresholds ? units * patches : units));
  for (std::int64_t u = 0; u < units; ++u) {
    const FoldedAffine f =
        FoldNeuron(bias.empty() ? 0.0f : bias[static_cast<std::size_t>(u)], bn,
                   u);
    bool flip = false;
    if (!stage.per_pixel_thresholds) {
      stage.thresholds[static_cast<std::size_t>(u)] =
          FoldThreshold(f, patch, &flip);
    } else {
      for (std::int64_t p = 0; p < patches; ++p) {
        const std::int64_t y0 = (p / ow) * g.stride_h - g.pad_h;
        const std::int64_t x0 = (p % ow) * g.stride_w - g.pad_w;
        double pad = 0.0;
        for (std::int64_t ky = 0; ky < g.kernel_h; ++ky) {
          const std::int64_t iy = y0 + ky;
          for (std::int64_t kx = 0; kx < g.kernel_w; ++kx) {
            const std::int64_t ix = x0 + kx;
            if (iy < 0 || iy >= g.in_h || ix < 0 || ix >= g.in_w) {
              pad += tap[static_cast<std::size_t>(u * khkw + ky * g.kernel_w +
                                                  kx)];
            }
          }
        }
        const FoldedAffine fp{f.scale, f.offset + f.scale * pad};
        // flip depends only on sign(scale), identical for every pixel.
        stage.thresholds[static_cast<std::size_t>(u * patches + p)] =
            FoldThreshold(fp, patch, &flip);
      }
    }
    if (flip) stage.weights.FlipRow(u);
  }
  return stage;
}

}  // namespace

BnnProgram CompileProgram(const nn::Sequential& model, std::size_t start_layer,
                          StageShape input_shape) {
  if (start_layer >= model.size()) {
    throw std::invalid_argument("CompileProgram: start_layer out of range");
  }
  std::size_t i = start_layer;
  // Leading Flatten / Dropout / Sign layers are structural no-ops for the
  // compiled program (input arrives packed by sign, CHW bit order).
  while (i < model.size() && IsSkippableLead(model[i])) ++i;

  if (input_shape.bits() <= 0) {
    // Dense-leading grammars carry their own width; spatial grammars need
    // the caller to say what {C, H, W} enters the classifier.
    if (i < model.size()) {
      if (const auto* dense = dynamic_cast<const nn::Dense*>(&model[i])) {
        input_shape = {dense->in_features(), 1, 1};
      }
    }
    if (input_shape.bits() <= 0) {
      throw std::invalid_argument(
          "CompileProgram: classifier input shape required for "
          "convolutional grammars (pass the {C, H, W} entering "
          "start_layer)");
    }
  }

  BnnProgram program;
  program.SetInputShape(input_shape);
  StageShape shape = input_shape;
  bool has_output = false;

  while (i < model.size()) {
    const nn::Layer& layer = model[i];
    if (has_output) {
      throw std::invalid_argument(
          "CompileProgram: layers after the output dense layer");
    }
    if (dynamic_cast<const nn::Dropout*>(&layer) != nullptr) {
      ++i;
      continue;
    }
    if (dynamic_cast<const nn::Flatten*>(&layer) != nullptr) {
      ProgramStage stage;
      stage.kind = StageKind::kReshape;
      stage.out_shape = {shape.bits(), 1, 1};
      shape = stage.out_shape;
      program.AddStage(std::move(stage));
      ++i;
      continue;
    }
    if (dynamic_cast<const nn::SignSte*>(&layer) != nullptr) {
      // Sign over already-binary bits (e.g. after a pool) is the identity.
      ProgramStage stage;
      stage.kind = StageKind::kSign;
      stage.out_shape = shape;
      program.AddStage(std::move(stage));
      ++i;
      continue;
    }
    if (const auto* pool = dynamic_cast<const nn::Pool2d*>(&layer)) {
      if (pool->kind() != nn::PoolKind::kMax) {
        throw std::invalid_argument(
            "CompileProgram: '" + layer.Describe() + "' at position " +
            std::to_string(i) +
            ": average pooling produces non-binary activations and does not "
            "lower; keep it in the float prefix");
      }
      ProgramStage stage;
      stage.kind = StageKind::kPool;
      stage.pool.geom = {shape.c,         shape.h,        shape.w,
                         pool->kernel_h(), pool->kernel_w(),
                         pool->stride_h(), pool->stride_w(),
                         0,               0};
      stage.out_shape = {shape.c, stage.pool.geom.OutH(),
                         stage.pool.geom.OutW()};
      shape = stage.out_shape;
      program.AddStage(std::move(stage));
      ++i;
      continue;
    }
    if (dynamic_cast<const nn::GlobalAvgPool*>(&layer) != nullptr) {
      throw std::invalid_argument(
          "CompileProgram: GlobalAvgPool at position " + std::to_string(i) +
          " produces non-binary activations and does not lower; keep it in "
          "the float prefix or replace it with MaxPool + Flatten");
    }

    if (const nn::Dense* dense = AsBinaryDense(layer, "CompileProgram")) {
      ++i;
      const nn::BatchNorm* bn = nullptr;
      if (i < model.size()) {
        bn = dynamic_cast<const nn::BatchNorm*>(&model[i]);
        if (bn != nullptr) ++i;
      }
      bool is_hidden = false;
      if (i < model.size() &&
          dynamic_cast<const nn::SignSte*>(&model[i]) != nullptr) {
        is_hidden = true;
        ++i;
      }
      const std::int64_t out = dense->out_features();
      const std::int64_t in = dense->in_features();
      const Tensor w_eff = dense->EffectiveWeight();
      ProgramStage stage;
      stage.kind = StageKind::kPackedGemm;
      stage.gemm.lowering = GemmLowering::kDense;
      stage.gemm.weights = BitMatrix::FromSigns(
          std::span<const float>(w_eff.data(),
                                 static_cast<std::size_t>(w_eff.size())),
          out, in);
      if (is_hidden) {
        stage.gemm.thresholds.resize(static_cast<std::size_t>(out));
        for (std::int64_t j = 0; j < out; ++j) {
          bool flip = false;
          const FoldedAffine f = FoldNeuron(*dense, bn, j);
          stage.gemm.thresholds[static_cast<std::size_t>(j)] =
              FoldThreshold(f, in, &flip);
          if (flip) stage.gemm.weights.FlipRow(j);
        }
      } else {
        stage.gemm.is_output = true;
        stage.gemm.scale.resize(static_cast<std::size_t>(out));
        stage.gemm.offset.resize(static_cast<std::size_t>(out));
        for (std::int64_t j = 0; j < out; ++j) {
          const FoldedAffine f = FoldNeuron(*dense, bn, j);
          stage.gemm.scale[static_cast<std::size_t>(j)] =
              static_cast<float>(f.scale);
          stage.gemm.offset[static_cast<std::size_t>(j)] =
              static_cast<float>(f.offset);
        }
        has_output = true;
      }
      stage.out_shape = {out, 1, 1};
      shape = stage.out_shape;
      program.AddStage(std::move(stage));
      continue;
    }

    const auto* conv = dynamic_cast<const nn::Conv2d*>(&layer);
    const auto* dw = dynamic_cast<const nn::DepthwiseConv2d*>(&layer);
    if (conv != nullptr || dw != nullptr) {
      const bool binary = conv != nullptr ? conv->binary() : dw->binary();
      if (!binary) {
        throw std::invalid_argument(
            "CompileProgram: conv layer '" + layer.Describe() +
            "' is not binary; only binarized layers compile to RRAM");
      }
      const std::int64_t in_channels =
          conv != nullptr ? conv->in_channels() : dw->channels();
      if (in_channels != shape.c) {
        throw std::invalid_argument(
            "CompileProgram: conv layer at position " + std::to_string(i) +
            " expects " + std::to_string(in_channels) +
            " input channels, activation has " + std::to_string(shape.c));
      }
      StageGeometry geom;
      geom.in_channels = shape.c;
      geom.in_h = shape.h;
      geom.in_w = shape.w;
      if (conv != nullptr) {
        geom.kernel_h = conv->kernel_h();
        geom.kernel_w = conv->kernel_w();
        geom.stride_h = conv->options().stride_h;
        geom.stride_w = conv->options().stride_w;
        geom.pad_h = conv->options().pad_h;
        geom.pad_w = conv->options().pad_w;
      } else {
        geom.kernel_h = dw->kernel_h();
        geom.kernel_w = dw->kernel_w();
        geom.stride_h = dw->options().stride_h;
        geom.stride_w = dw->options().stride_w;
        geom.pad_h = dw->options().pad_h;
        geom.pad_w = dw->options().pad_w;
      }
      ++i;
      const nn::BatchNorm* bn = nullptr;
      if (i < model.size()) {
        bn = dynamic_cast<const nn::BatchNorm*>(&model[i]);
        if (bn != nullptr) ++i;
      }
      if (i >= model.size() ||
          dynamic_cast<const nn::SignSte*>(&model[i]) == nullptr) {
        throw std::invalid_argument(
            "CompileProgram: convolution '" + layer.Describe() +
            "' must be followed by Sign (the fabric emits binary "
            "activations); only the final dense layer may omit it");
      }
      ++i;  // consume the Sign

      const Tensor w_eff =
          conv != nullptr ? conv->EffectiveWeight() : dw->EffectiveWeight();
      const bool use_bias = conv != nullptr ? conv->options().use_bias
                                            : dw->options().use_bias;
      const Tensor* bias_t =
          conv != nullptr ? &conv->bias().value : &dw->bias().value;
      const std::span<const float> bias =
          use_bias ? std::span<const float>(
                         bias_t->data(), static_cast<std::size_t>(w_eff.dim(0)))
                   : std::span<const float>();

      ProgramStage stage;
      stage.kind = StageKind::kPackedGemm;
      stage.gemm = LowerConvStage(
          conv != nullptr ? GemmLowering::kConv : GemmLowering::kDepthwise,
          geom, w_eff, bias, bn);
      stage.out_shape = {stage.gemm.units(), geom.OutH(), geom.OutW()};
      shape = stage.out_shape;
      program.AddStage(std::move(stage));
      continue;
    }

    throw std::invalid_argument("CompileProgram: unsupported layer '" +
                                layer.Describe() + "' at position " +
                                std::to_string(i));
  }
  if (!has_output) {
    throw std::invalid_argument(
        "CompileProgram: model ended without an output dense layer");
  }
  program.Validate();
  return program;
}

Tensor ForwardPrefix(nn::Sequential& model, const Tensor& x,
                     std::size_t end_layer) {
  if (end_layer > model.size()) {
    throw std::invalid_argument("ForwardPrefix: end_layer out of range");
  }
  Tensor y = x;
  for (std::size_t i = 0; i < end_layer; ++i) {
    y = model[i].Forward(y, /*training=*/false);
  }
  return y;
}

Tensor InferPrefix(const nn::Sequential& model, const Tensor& x,
                   std::size_t end_layer) {
  if (end_layer > model.size()) {
    throw std::invalid_argument("InferPrefix: end_layer out of range");
  }
  Tensor y = x;
  for (std::size_t i = 0; i < end_layer; ++i) {
    y = model[i].Infer(y);
  }
  return y;
}

}  // namespace rrambnn::core
