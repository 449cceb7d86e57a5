// The Layer::Infer contract (nn/layer.h): for every layer type, Infer(x) is
// bit-identical to Forward(x, /*training=*/false). Serving runs Infer while
// in-process evaluation and the compiler may run Forward, so any divergence
// would make served predictions differ from evaluated ones.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/depthwise_conv.h"
#include "nn/pool.h"

namespace rrambnn::nn {
namespace {

/// Values in about [-3, 3] with exact +0 / -0 entries mixed in.
Tensor RandomTensor(const Shape& shape, Rng& rng) {
  Tensor t(shape);
  for (std::int64_t i = 0; i < t.size(); ++i) {
    const float u = rng.Uniform();
    t[i] = u < 0.05f ? 0.0f : u < 0.1f ? -0.0f : rng.Normal(0.0f, 1.5f);
  }
  return t;
}

/// Randomizes every parameter, and a BatchNorm's running statistics.
void RandomizeLayer(Layer& layer, Rng& rng) {
  for (Param* p : layer.Params()) p->value = RandomTensor(p->value.shape(), rng);
  if (auto* bn = dynamic_cast<BatchNorm*>(&layer)) {
    for (std::int64_t f = 0; f < bn->running_mean().size(); ++f) {
      bn->mutable_running_mean()[f] = rng.Normal(0.0f, 0.5f);
      bn->mutable_running_var()[f] = rng.Uniform(0.2f, 2.0f);
    }
  }
}

void ExpectInferMatchesForward(Layer& layer, const Shape& input_shape,
                               std::uint64_t seed) {
  Rng rng(seed);
  RandomizeLayer(layer, rng);
  const Tensor x = RandomTensor(input_shape, rng);
  const Tensor inferred = layer.Infer(x);
  const Tensor forward = layer.Forward(x, /*training=*/false);
  ASSERT_EQ(inferred.shape(), forward.shape()) << layer.Describe();
  EXPECT_EQ(std::memcmp(inferred.data(), forward.data(),
                        static_cast<std::size_t>(forward.size()) *
                            sizeof(float)),
            0)
      << layer.Describe();
}

TEST(InferContract, Conv2dMatchesForward) {
  Rng rng(1);
  Conv2d strided(3, 5, 3, 2, rng,
                 Conv2dOptions{.stride_h = 2, .pad_h = 1, .pad_w = 1});
  ExpectInferMatchesForward(strided, {2, 3, 9, 7}, 11);
  Conv2d temporal(4, 6, 5, 1, rng, Conv2dOptions{.pad_h = 2});
  ExpectInferMatchesForward(temporal, {3, 4, 30, 1}, 12);
  Conv2d binary(2, 3, 1, 5, rng,
                Conv2dOptions{.binary = true, .use_bias = false});
  ExpectInferMatchesForward(binary, {2, 2, 8, 5}, 13);
}

/// Stride-1 k x 1 kernels take Infer's in-place patch path; Forward's
/// Im2Col columns are the independent oracle.
TEST(InferContract, ColumnKernelConv2dMatchesForward) {
  Rng rng(7);
  // EEG temporal conv: one padded input channel, 192 x 16.
  Conv2d eeg_temporal(1, 8, 15, 1, rng, Conv2dOptions{.pad_h = 7});
  ExpectInferMatchesForward(eeg_temporal, {3, 1, 192, 16}, 71);
  // ECG first conv: 12 unpadded leads, 200 x 1.
  Conv2d ecg(12, 8, 13, 1, rng);
  ExpectInferMatchesForward(ecg, {3, 12, 200, 1}, 72);
  // W > 1 with padding, several channels.
  Conv2d wide(3, 5, 4, 1, rng, Conv2dOptions{.pad_h = 1});
  ExpectInferMatchesForward(wide, {2, 3, 11, 6}, 73);
  // pad_h >= kernel_h / 2, and a padded height beyond the kernel's reach.
  Conv2d half_pad(2, 3, 5, 1, rng, Conv2dOptions{.pad_h = 3});
  ExpectInferMatchesForward(half_pad, {2, 2, 9, 3}, 74);
  Conv2d over_pad(2, 4, 3, 1, rng,
                  Conv2dOptions{.pad_h = 4, .binary = true, .use_bias = false});
  ExpectInferMatchesForward(over_pad, {2, 2, 5, 2}, 75);
  // kernel_h == H: a single output row.
  Conv2d full_height(4, 6, 10, 1, rng);
  ExpectInferMatchesForward(full_height, {3, 4, 10, 5}, 76);
  Conv2d full_padded(1, 3, 7, 1, rng, Conv2dOptions{.pad_h = 2});
  ExpectInferMatchesForward(full_padded, {2, 1, 3, 4}, 77);
}

/// Exact +0 and -0 weights: both paths skip them, so a -0 product never
/// reaches an accumulator that holds +0.
TEST(InferContract, ColumnKernelConv2dSignedZeroWeights) {
  Rng rng(8);
  Conv2d conv(3, 5, 5, 1, rng, Conv2dOptions{.pad_h = 2});
  RandomizeLayer(conv, rng);
  Tensor& w = conv.weight().value;
  for (std::int64_t i = 0; i < w.size(); ++i) {
    if (i % 3 == 0) w[i] = 0.0f;
    if (i % 3 == 1) w[i] = -0.0f;
  }
  // Whole all-zero channel blocks and rows too.
  for (std::int64_t i = 0; i < 5; ++i) w[i] = -0.0f;
  for (std::int64_t i = 0; i < w.dim(1); ++i) w[2 * w.dim(1) + i] = 0.0f;
  const Tensor x = RandomTensor({2, 3, 17, 3}, rng);
  const Tensor inferred = conv.Infer(x);
  const Tensor forward = conv.Forward(x, /*training=*/false);
  ASSERT_EQ(inferred.shape(), forward.shape());
  EXPECT_EQ(std::memcmp(inferred.data(), forward.data(),
                        static_cast<std::size_t>(forward.size()) *
                            sizeof(float)),
            0);
}

TEST(InferContract, DepthwiseConv2dMatchesForward) {
  Rng rng(2);
  DepthwiseConv2d padded(
      3, 3, 3, rng,
      DepthwiseConv2dOptions{.stride_h = 2, .pad_h = 1, .pad_w = 1});
  ExpectInferMatchesForward(padded, {2, 3, 7, 6}, 21);
  DepthwiseConv2d binary(
      4, 2, 3, rng,
      DepthwiseConv2dOptions{.stride_w = 2, .pad_w = 2, .binary = true,
                             .use_bias = false});
  ExpectInferMatchesForward(binary, {3, 4, 5, 5}, 22);
}

TEST(InferContract, DenseMatchesForward) {
  Rng rng(3);
  Dense real(7, 5, rng);
  ExpectInferMatchesForward(real, {4, 7}, 31);
  Dense binary(9, 3, rng, DenseOptions{.binary = true, .use_bias = false});
  ExpectInferMatchesForward(binary, {5, 9}, 32);
}

TEST(InferContract, BatchNormMatchesForward) {
  BatchNorm features(6);
  ExpectInferMatchesForward(features, {5, 6}, 41);
  BatchNorm channels(3);
  ExpectInferMatchesForward(channels, {2, 3, 7, 4}, 42);
}

TEST(InferContract, PoolMatchesForward) {
  Pool2d max_pool(PoolKind::kMax, 2, 2);
  ExpectInferMatchesForward(max_pool, {2, 3, 8, 6}, 51);
  Pool2d max_strided(PoolKind::kMax, 3, 1,
                     Pool2dOptions{.stride_h = 2, .stride_w = 1});
  ExpectInferMatchesForward(max_strided, {2, 2, 11, 3}, 52);
  Pool2d avg_pool(PoolKind::kAverage, 15, 1,
                  Pool2dOptions{.stride_h = 8, .stride_w = 1});
  ExpectInferMatchesForward(avg_pool, {2, 4, 192, 1}, 53);
  Pool2d avg_square(PoolKind::kAverage, 2, 2);
  ExpectInferMatchesForward(avg_square, {1, 2, 6, 6}, 54);
}

TEST(InferContract, ActivationsMatchForward) {
  Relu relu;
  ExpectInferMatchesForward(relu, {3, 2, 5, 4}, 61);
  HardTanh hard_tanh;
  ExpectInferMatchesForward(hard_tanh, {4, 33}, 62);
  SignSte sign;
  ExpectInferMatchesForward(sign, {2, 3, 4, 5}, 63);
}

}  // namespace
}  // namespace rrambnn::nn
