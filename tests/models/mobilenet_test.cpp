// MobileNet V1 conformance: published parameter budget and the Sec. IV
// binarized two-layer classifier.
#include "models/mobilenet.h"

#include <gtest/gtest.h>

#include "core/compile.h"
#include "core/memory_analysis.h"

namespace rrambnn::models {
namespace {

TEST(MobileNet, PaperScaleParameterBudget) {
  Rng rng(1);
  auto built = BuildMobileNetV1(MobileNetConfig::PaperScale(), rng);
  // Howard et al. report 4.2 M parameters for MobileNet-224.
  EXPECT_NEAR(static_cast<double>(built.net.NumParams()), 4.2e6, 0.1e6);
  EXPECT_EQ(built.net.OutputShape({3, 224, 224}), (Shape{1000}));
}

TEST(MobileNet, ClassifierIsOneMillionParams) {
  Rng rng(2);
  auto built = BuildMobileNetV1(MobileNetConfig::PaperScale(), rng);
  const auto report = core::AnalyzeMemory(built.net, built.classifier_start);
  // 1024 x 1000 + 1000 bias = 1.025 M ("1M" in Table IV).
  EXPECT_EQ(report.classifier_params, 1024 * 1000 + 1000);
}

TEST(MobileNet, BinaryClassifierIs5P7MBits) {
  Rng rng(3);
  MobileNetConfig cfg = MobileNetConfig::PaperScale();
  cfg.binary_classifier = true;
  auto built = BuildMobileNetV1(cfg, rng);
  const core::BnnProgram compiled =
      core::CompileProgram(built.net, built.classifier_start);
  // Paper: two layers of 5.7 M binary parameters = 696 KB.
  EXPECT_NEAR(static_cast<double>(compiled.TotalWeightBits()), 5.7e6, 0.1e6);
  EXPECT_NEAR(static_cast<double>(compiled.TotalWeightBits()) / 8.0 / 1024.0,
              696.0, 10.0);
  EXPECT_EQ(compiled.num_gemm_stages(), 2u);  // one hidden, one output
  EXPECT_EQ(compiled.num_classes(), 1000);
}

TEST(MobileNet, WidthMultiplierShrinksModel) {
  Rng rng(4);
  MobileNetConfig half = MobileNetConfig::PaperScale();
  half.width_multiplier = 0.5;
  auto full = BuildMobileNetV1(MobileNetConfig::PaperScale(), rng);
  auto halved = BuildMobileNetV1(half, rng);
  EXPECT_LT(halved.net.NumParams(), full.net.NumParams() / 2);
}

TEST(MobileNet, BenchScaleTrainsForwardBackward) {
  Rng rng(5);
  const MobileNetConfig cfg = MobileNetConfig::BenchScale(8);
  auto built = BuildMobileNetV1(cfg, rng);
  Tensor x({2, 3, 32, 32});
  rng.FillNormal(x, 0.0f, 1.0f);
  const Tensor logits = built.net.Forward(x, true);
  EXPECT_EQ(logits.shape(), (Shape{2, 8}));
  const Tensor grad = built.net.Backward(Tensor({2, 8}, 0.1f));
  EXPECT_EQ(grad.shape(), x.shape());
}

TEST(MobileNet, BenchScaleBinaryClassifierCompiles) {
  Rng rng(6);
  MobileNetConfig cfg = MobileNetConfig::BenchScale(8);
  cfg.binary_classifier = true;
  auto built = BuildMobileNetV1(cfg, rng);
  const core::BnnProgram compiled =
      core::CompileProgram(built.net, built.classifier_start);
  compiled.Validate();
  EXPECT_EQ(compiled.num_classes(), 8);
}

TEST(MobileNet, RejectsEmptyBlockList) {
  Rng rng(7);
  MobileNetConfig cfg;
  cfg.blocks.clear();
  EXPECT_THROW(BuildMobileNetV1(cfg, rng), std::invalid_argument);
}

}  // namespace
}  // namespace rrambnn::models
