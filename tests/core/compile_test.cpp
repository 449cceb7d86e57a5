// The central correctness property of deployment: the compiled XNOR-
// popcount-threshold network must agree *bit-exactly* with the trained
// float network evaluated in inference mode.
#include "core/compile.h"

#include <gtest/gtest.h>

#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/dense.h"
#include "nn/dropout.h"
#include "nn/optimizer.h"
#include "nn/trainer.h"

namespace rrambnn::core {
namespace {

/// Binarized classifier in the library's canonical grammar.
nn::Sequential MakeBinaryClassifier(std::int64_t in, std::int64_t hidden,
                                    std::int64_t classes, Rng& rng,
                                    bool with_hidden_bn = true,
                                    bool with_output_bn = true) {
  nn::Sequential net;
  net.Emplace<nn::SignSte>();
  net.Emplace<nn::Dense>(in, hidden, rng, nn::DenseOptions{.binary = true});
  if (with_hidden_bn) net.Emplace<nn::BatchNorm>(hidden);
  net.Emplace<nn::SignSte>();
  net.Emplace<nn::Dense>(hidden, classes, rng,
                         nn::DenseOptions{.binary = true});
  if (with_output_bn) net.Emplace<nn::BatchNorm>(classes);
  return net;
}

/// Runs a few training steps so BN statistics and weights are non-trivial.
void Warm(nn::Sequential& net, std::int64_t in, Rng& rng) {
  nn::SoftmaxCrossEntropy loss;
  nn::Adam opt(net.Params(), 1e-2f);
  for (int step = 0; step < 25; ++step) {
    Tensor x({16, in});
    rng.FillNormal(x, 0.0f, 1.0f);
    std::vector<std::int64_t> y;
    for (int i = 0; i < 16; ++i) {
      y.push_back(x[static_cast<std::int64_t>(i) * in] > 0 ? 1 : 0);
    }
    opt.ZeroGrad();
    const Tensor logits = net.Forward(x, true);
    (void)loss.Forward(logits, y);
    net.Backward(loss.Backward());
    opt.Step();
  }
}

TEST(Compile, BitExactAgainstFloatEval) {
  Rng rng(1);
  const std::int64_t in = 37, hidden = 19, classes = 3;
  nn::Sequential net = MakeBinaryClassifier(in, hidden, classes, rng);
  Warm(net, in, rng);
  const BnnProgram compiled = CompileProgram(net, 0);
  compiled.Validate();

  Tensor x({64, in});
  rng.FillNormal(x, 0.0f, 1.0f);
  const Tensor logits = net.Forward(x, false);
  const auto preds = compiled.PredictBatch(x);
  for (std::int64_t i = 0; i < 64; ++i) {
    Tensor row({1, in});
    row.SetRow(0, x.Row(i));
    EXPECT_EQ(preds[static_cast<std::size_t>(i)],
              net.Forward(row, false).Argmax())
        << "sample " << i;
  }
  (void)logits;
}

TEST(Compile, HiddenActivationsMatchExactly) {
  // Stronger than argmax equality: compare the hidden binary activations
  // against sign of the float net's intermediate output.
  Rng rng(2);
  const std::int64_t in = 24, hidden = 16;
  nn::Sequential net = MakeBinaryClassifier(in, hidden, 2, rng);
  Warm(net, in, rng);
  const BnnProgram compiled = CompileProgram(net, 0);
  ASSERT_EQ(compiled.stages()[0].gemm.units(), hidden);

  for (int trial = 0; trial < 50; ++trial) {
    Tensor x({1, in});
    rng.FillNormal(x, 0.0f, 1.0f);
    // Float path: layers 0..3 are Sign, Dense, BN, Sign.
    Tensor h = x;
    for (int l = 0; l < 4; ++l) h = net[static_cast<std::size_t>(l)].Forward(h, false);
    // Compiled path.
    const BitMatrix xb = BitMatrix::FromSignRows(
        std::span<const float>(x.data(), static_cast<std::size_t>(in)), 1, in);
    const BitMatrix hb = RunStageBatch(compiled.stages()[0], xb);
    for (std::int64_t j = 0; j < hidden; ++j) {
      EXPECT_EQ(hb.Get(0, j), h[j] >= 0 ? 1 : -1)
          << "trial " << trial << " unit " << j;
    }
  }
}

TEST(Compile, WithoutBatchNormUsesBiasThreshold) {
  Rng rng(3);
  nn::Sequential net;
  net.Emplace<nn::SignSte>();
  auto& d1 = net.Emplace<nn::Dense>(std::int64_t{8}, std::int64_t{4}, rng,
                                    nn::DenseOptions{.binary = true});
  net.Emplace<nn::SignSte>();
  net.Emplace<nn::Dense>(std::int64_t{4}, std::int64_t{2}, rng,
                         nn::DenseOptions{.binary = true});
  d1.bias().value = Tensor::FromList({0.5f, -0.5f, 3.0f, 0.0f});
  const BnnProgram compiled = CompileProgram(net, 0);
  Tensor x({20, 8});
  rng.FillNormal(x, 0.0f, 1.0f);
  const auto preds = compiled.PredictBatch(x);
  const Tensor logits = net.Forward(x, false);
  for (std::int64_t i = 0; i < 20; ++i) {
    Tensor row({1, 8});
    row.SetRow(0, x.Row(i));
    EXPECT_EQ(preds[static_cast<std::size_t>(i)],
              net.Forward(row, false).Argmax());
  }
  (void)logits;
}

TEST(Compile, DropoutAndFlattenAreTransparent) {
  Rng rng(4);
  nn::Sequential net;
  net.Emplace<nn::Flatten>();
  net.Emplace<nn::SignSte>();
  net.Emplace<nn::Dropout>(0.9f, rng);
  net.Emplace<nn::Dense>(std::int64_t{12}, std::int64_t{6}, rng,
                         nn::DenseOptions{.binary = true});
  net.Emplace<nn::BatchNorm>(6);
  net.Emplace<nn::SignSte>();
  net.Emplace<nn::Dropout>(0.9f, rng);
  net.Emplace<nn::Dense>(std::int64_t{6}, std::int64_t{2}, rng,
                         nn::DenseOptions{.binary = true});
  const BnnProgram compiled = CompileProgram(net, 0);
  // Leading Flatten / Sign / Dropout fold into the input packing and the
  // inner Dropout vanishes: one hidden and one output stage remain.
  EXPECT_EQ(compiled.num_stages(), 2u);
  EXPECT_TRUE(compiled.IsPureDense());
  EXPECT_EQ(compiled.input_size(), 12);
}

TEST(Compile, RejectsNonBinaryDense) {
  Rng rng(5);
  nn::Sequential net;
  net.Emplace<nn::Dense>(std::int64_t{4}, std::int64_t{2}, rng);
  EXPECT_THROW(CompileProgram(net, 0), std::invalid_argument);
}

TEST(Compile, RejectsUnsupportedLayer) {
  Rng rng(6);
  nn::Sequential net;
  net.Emplace<nn::Relu>();
  net.Emplace<nn::Dense>(std::int64_t{4}, std::int64_t{2}, rng,
                         nn::DenseOptions{.binary = true});
  EXPECT_THROW(CompileProgram(net, 0), std::invalid_argument);
  EXPECT_THROW(CompileProgram(net, 0, {4, 1, 1}), std::invalid_argument);
}

/// Compiles and returns the rejection message, failing if nothing throws.
/// The input shape is given, so the walk reaches the offending layer even
/// when it comes before any dense layer.
std::string RejectionMessage(const nn::Sequential& net,
                             std::size_t start_layer = 0) {
  try {
    (void)CompileProgram(net, start_layer, {4, 1, 1});
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  ADD_FAILURE() << "CompileProgram accepted an unsupported model";
  return "";
}

TEST(Compile, NonBinaryDenseMessageNamesTheLayer) {
  Rng rng(21);
  nn::Sequential net;
  net.Emplace<nn::Dense>(std::int64_t{4}, std::int64_t{2}, rng);
  const std::string message = RejectionMessage(net);
  EXPECT_NE(message.find("not binary"), std::string::npos) << message;
  EXPECT_NE(message.find("Dense"), std::string::npos) << message;
}

TEST(Compile, UnsupportedLayerMessageNamesLayerAndPosition) {
  Rng rng(22);
  nn::Sequential net;
  net.Emplace<nn::SignSte>();
  net.Emplace<nn::HardTanh>();
  net.Emplace<nn::Dense>(std::int64_t{4}, std::int64_t{2}, rng,
                         nn::DenseOptions{.binary = true});
  const std::string message = RejectionMessage(net);
  EXPECT_NE(message.find("unsupported layer"), std::string::npos) << message;
  EXPECT_NE(message.find("position 1"), std::string::npos) << message;
}

TEST(Compile, RejectsBatchNormBeforeAnyDense) {
  Rng rng(24);
  nn::Sequential net;
  net.Emplace<nn::BatchNorm>(4);
  net.Emplace<nn::Dense>(std::int64_t{4}, std::int64_t{2}, rng,
                         nn::DenseOptions{.binary = true});
  const std::string message = RejectionMessage(net);
  EXPECT_NE(message.find("position 0"), std::string::npos) << message;
}

TEST(Compile, RejectsTrailingLayersAfterOutput) {
  Rng rng(25);
  nn::Sequential net;
  net.Emplace<nn::Dense>(std::int64_t{4}, std::int64_t{4}, rng,
                         nn::DenseOptions{.binary = true});
  net.Emplace<nn::BatchNorm>(4);
  net.Emplace<nn::SignSte>();
  net.Emplace<nn::Dense>(std::int64_t{4}, std::int64_t{2}, rng,
                         nn::DenseOptions{.binary = true});
  net.Emplace<nn::BatchNorm>(2);
  net.Emplace<nn::Relu>();
  const std::string message = RejectionMessage(net);
  EXPECT_NE(message.find("after the output dense layer"), std::string::npos)
      << message;
}

TEST(Compile, RejectsHiddenChainWithoutOutputLayer) {
  Rng rng(26);
  nn::Sequential net;
  net.Emplace<nn::Dense>(std::int64_t{4}, std::int64_t{4}, rng,
                         nn::DenseOptions{.binary = true});
  net.Emplace<nn::BatchNorm>(4);
  net.Emplace<nn::SignSte>();
  const std::string message = RejectionMessage(net);
  EXPECT_NE(message.find("without an output dense layer"), std::string::npos)
      << message;
}

TEST(Compile, RejectsStartLayerOutOfRange) {
  Rng rng(27);
  nn::Sequential net;
  net.Emplace<nn::Dense>(std::int64_t{4}, std::int64_t{2}, rng,
                         nn::DenseOptions{.binary = true});
  const std::string message = RejectionMessage(net, 1);
  EXPECT_NE(message.find("start_layer"), std::string::npos) << message;
}

TEST(Compile, RejectsModelWithoutOutput) {
  Rng rng(7);
  nn::Sequential net;
  net.Emplace<nn::SignSte>();
  EXPECT_THROW(CompileProgram(net, 0), std::invalid_argument);
  EXPECT_THROW(CompileProgram(net, 0, {4, 1, 1}), std::invalid_argument);
  EXPECT_THROW(CompileProgram(net, 5), std::invalid_argument);
}

TEST(ForwardPrefix, RunsExactlyTheRequestedLayers) {
  Rng rng(8);
  nn::Sequential net;
  net.Emplace<nn::Dense>(std::int64_t{4}, std::int64_t{4}, rng);
  net.Emplace<nn::Relu>();
  net.Emplace<nn::Dense>(std::int64_t{4}, std::int64_t{2}, rng);
  Tensor x({3, 4});
  rng.FillNormal(x, 0.0f, 1.0f);
  const Tensor full = ForwardPrefix(net, x, 3);
  EXPECT_EQ(full.shape(), (Shape{3, 2}));
  const Tensor partial = ForwardPrefix(net, x, 1);
  EXPECT_EQ(partial.shape(), (Shape{3, 4}));
  EXPECT_THROW(ForwardPrefix(net, x, 4), std::invalid_argument);
}

}  // namespace
}  // namespace rrambnn::core
