// Table II conformance for the ECG architecture.
#include "models/ecg_model.h"

#include <gtest/gtest.h>

#include "core/compile.h"
#include "nn/conv2d.h"
#include "nn/dropout.h"

namespace rrambnn::models {
namespace {

TEST(EcgModel, TableIIShapeWalkAtPaperScale) {
  Rng rng(1);
  auto built = BuildEcgNet(EcgNetConfig::PaperScale(), rng);
  // Verify the published intermediate heights: 738, 369, 359, 179, 171,
  // 165, 161 and the 5152-wide flatten.
  Shape s{12, 750, 1};
  std::vector<std::int64_t> conv_pool_heights;
  std::int64_t flatten_width = 0;
  for (std::size_t l = 0; l < built.net.size(); ++l) {
    s = built.net[l].OutputShape(s);
    const std::string name = built.net[l].Name();
    if (name == "Conv2d" || name == "BinaryConv2d" || name == "MaxPool2d") {
      conv_pool_heights.push_back(s[1]);
    }
    if (name == "Flatten") flatten_width = s[0];
  }
  const std::vector<std::int64_t> expected{738, 369, 359, 179, 171, 165, 161};
  ASSERT_EQ(conv_pool_heights.size(), expected.size());
  EXPECT_EQ(conv_pool_heights, expected);
  EXPECT_EQ(flatten_width, 161 * 32);  // 5152
  EXPECT_EQ(built.net.OutputShape({12, 750, 1}), (Shape{2}));
}

TEST(EcgModel, DropoutFollowsPaperInRealModel) {
  Rng rng(2);
  auto built = BuildEcgNet(EcgNetConfig::PaperScale(), rng);
  int conv_dropouts = 0, fc_dropouts = 0;
  for (std::size_t l = 0; l < built.net.size(); ++l) {
    if (const auto* drop = dynamic_cast<const nn::Dropout*>(&built.net[l])) {
      if (drop->keep_prob() > 0.9f) {
        ++conv_dropouts;  // keep 0.95 in convolutions
      } else {
        ++fc_dropouts;  // keep 0.85 in the classifier
      }
    }
  }
  EXPECT_EQ(conv_dropouts, 5);
  EXPECT_EQ(fc_dropouts, 1);
}

TEST(EcgModel, FullBinaryOmitsDropout) {
  Rng rng(3);
  EcgNetConfig cfg = EcgNetConfig::PaperScale();
  cfg.strategy = core::BinarizationStrategy::kFullBinary;
  auto built = BuildEcgNet(cfg, rng);
  for (std::size_t l = 0; l < built.net.size(); ++l) {
    EXPECT_EQ(built.net[l].Name().find("Dropout"), std::string::npos);
  }
}

TEST(EcgModel, FilterAugmentationScalesAllConvs) {
  Rng rng(4);
  EcgNetConfig cfg = EcgNetConfig::BenchScale();
  cfg.filter_augmentation = 2;
  auto built = BuildEcgNet(cfg, rng);
  for (std::size_t l = 0; l < built.net.size(); ++l) {
    if (const auto* c = dynamic_cast<const nn::Conv2d*>(&built.net[l])) {
      EXPECT_EQ(c->out_channels(), cfg.base_filters * 2);
    }
  }
}

TEST(EcgModel, BinaryClassifierVariantCompiles) {
  Rng rng(5);
  EcgNetConfig cfg = EcgNetConfig::BenchScale();
  cfg.strategy = core::BinarizationStrategy::kBinaryClassifier;
  auto built = BuildEcgNet(cfg, rng);
  const core::BnnProgram compiled =
      core::CompileProgram(built.net, built.classifier_start);
  compiled.Validate();
  EXPECT_EQ(compiled.num_classes(), 2);
}

TEST(EcgModel, ForwardBackwardSmokeAtBenchScale) {
  Rng rng(6);
  const EcgNetConfig cfg = EcgNetConfig::BenchScale();
  auto built = BuildEcgNet(cfg, rng);
  Tensor x({2, cfg.leads, cfg.samples, 1});
  rng.FillNormal(x, 0.0f, 1.0f);
  const Tensor logits = built.net.Forward(x, true);
  EXPECT_EQ(logits.shape(), (Shape{2, 2}));
  const Tensor grad = built.net.Backward(Tensor({2, 2}, 0.1f));
  EXPECT_EQ(grad.shape(), x.shape());
}

}  // namespace
}  // namespace rrambnn::models
