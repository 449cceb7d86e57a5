// Table I conformance: the full-scale EEG network's shapes and parameter
// counts must match the published architecture exactly.
#include "models/eeg_model.h"

#include <gtest/gtest.h>

#include "core/compile.h"
#include "core/memory_analysis.h"
#include "nn/conv2d.h"
#include "nn/dense.h"

namespace rrambnn::models {
namespace {

TEST(EegModel, TableIShapesAtPaperScale) {
  Rng rng(1);
  auto built = BuildEegNet(EegNetConfig::PaperScale(), rng);
  const Shape input{1, 960, 64};
  // Layer-by-layer shape walk (paper Table I).
  Shape s = input;
  // Conv 40 @ 30x1 pad 15 -> 961 x 64 x 40.
  s = built.net[0].OutputShape(s);
  EXPECT_EQ(s, (Shape{40, 961, 64}));
  // After conv-in-space (1x64): 961 x 1 x 40.
  Shape s2 = input;
  for (std::size_t l = 0; l <= 3; ++l) s2 = built.net[l].OutputShape(s2);
  EXPECT_EQ(s2, (Shape{40, 961, 1}));
  // Final logits.
  EXPECT_EQ(built.net.OutputShape(input), (Shape{2}));
}

TEST(EegModel, TableIFlattenIs2520) {
  Rng rng(2);
  auto built = BuildEegNet(EegNetConfig::PaperScale(), rng);
  Shape s{1, 960, 64};
  // Walk until just past the Flatten layer.
  for (std::size_t l = 0; l < built.net.size(); ++l) {
    s = built.net[l].OutputShape(s);
    if (built.net[l].Name() == "Flatten") break;
  }
  EXPECT_EQ(s, (Shape{2520}));  // 63 * 40
}

TEST(EegModel, PaperScaleParameterBudget) {
  Rng rng(3);
  auto built = BuildEegNet(EegNetConfig::PaperScale(), rng);
  const std::int64_t total = built.net.NumParams();
  // Paper: ~0.31 M total, ~0.2 M classifier, ~0.11 M features.
  EXPECT_NEAR(static_cast<double>(total), 0.31e6, 0.01e6);
  const auto report =
      core::AnalyzeMemory(built.net, built.classifier_start);
  EXPECT_NEAR(static_cast<double>(report.classifier_params), 0.2e6, 0.01e6);
  EXPECT_NEAR(static_cast<double>(report.feature_params), 0.11e6, 0.01e6);
}

TEST(EegModel, FilterAugmentationScalesConvs) {
  Rng rng(4);
  EegNetConfig cfg = EegNetConfig::BenchScale();
  cfg.filter_augmentation = 4;
  auto built = BuildEegNet(cfg, rng);
  const auto* conv = dynamic_cast<const nn::Conv2d*>(&built.net[0]);
  ASSERT_NE(conv, nullptr);
  EXPECT_EQ(conv->out_channels(), cfg.temporal_filters * 4);
  EXPECT_THROW(
      BuildEegNet([] {
        EegNetConfig c;
        c.filter_augmentation = 0;
        return c;
      }(), rng),
      std::invalid_argument);
}

TEST(EegModel, StrategySelectsLayerKinds) {
  Rng rng(5);
  for (const auto strategy : {core::BinarizationStrategy::kReal,
                              core::BinarizationStrategy::kFullBinary,
                              core::BinarizationStrategy::kBinaryClassifier}) {
    EegNetConfig cfg = EegNetConfig::BenchScale();
    cfg.strategy = strategy;
    auto built = BuildEegNet(cfg, rng);
    bool conv_binary = false, dense_binary = false;
    for (std::size_t l = 0; l < built.net.size(); ++l) {
      if (const auto* c = dynamic_cast<const nn::Conv2d*>(&built.net[l])) {
        conv_binary |= c->binary();
      }
      if (const auto* d = dynamic_cast<const nn::Dense*>(&built.net[l])) {
        dense_binary |= d->binary();
      }
    }
    EXPECT_EQ(conv_binary,
              strategy == core::BinarizationStrategy::kFullBinary);
    EXPECT_EQ(dense_binary, strategy != core::BinarizationStrategy::kReal);
  }
}

TEST(EegModel, BinarizedClassifierCompiles) {
  Rng rng(6);
  EegNetConfig cfg = EegNetConfig::BenchScale();
  cfg.strategy = core::BinarizationStrategy::kBinaryClassifier;
  auto built = BuildEegNet(cfg, rng);
  const core::BnnProgram compiled =
      core::CompileProgram(built.net, built.classifier_start);
  compiled.Validate();
  EXPECT_EQ(compiled.num_gemm_stages(), 2u);  // one hidden, one output
  EXPECT_EQ(compiled.num_classes(), 2);
}

TEST(EegModel, ForwardBackwardSmokeAtBenchScale) {
  Rng rng(7);
  EegNetConfig cfg = EegNetConfig::BenchScale();
  auto built = BuildEegNet(cfg, rng);
  Tensor x({2, 1, cfg.samples, cfg.channels});
  rng.FillNormal(x, 0.0f, 1.0f);
  const Tensor logits = built.net.Forward(x, true);
  EXPECT_EQ(logits.shape(), (Shape{2, 2}));
  const Tensor grad = built.net.Backward(Tensor({2, 2}, 0.1f));
  EXPECT_EQ(grad.shape(), x.shape());
}

}  // namespace
}  // namespace rrambnn::models
