#include "core/fault_injection.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace rrambnn::core {
namespace {

BnnProgram MakeProgram(std::int64_t in, std::int64_t hidden,
                       std::int64_t classes) {
  BnnProgram program;
  program.SetInputShape({in, 1, 1});
  program.AddStage(DenseHiddenStage(
      BitMatrix(hidden, in),
      std::vector<std::int32_t>(static_cast<std::size_t>(hidden), 0)));
  program.AddStage(DenseOutputStage(
      BitMatrix(classes, hidden),
      std::vector<float>(static_cast<std::size_t>(classes), 1.0f),
      std::vector<float>(static_cast<std::size_t>(classes), 0.0f)));
  program.Validate();
  return program;
}

TEST(FaultInjection, ZeroBerFlipsNothing) {
  BnnProgram program = MakeProgram(64, 32, 2);
  Rng rng(1);
  const FaultInjectionReport r = InjectWeightFaults(program, 0.0, rng);
  EXPECT_EQ(r.flipped_bits, 0);
  EXPECT_EQ(r.total_bits, 64 * 32 + 32 * 2);
}

TEST(FaultInjection, FlipCountTracksBer) {
  BnnProgram program = MakeProgram(256, 128, 4);
  Rng rng(2);
  const double ber = 0.05;
  const FaultInjectionReport r = InjectWeightFaults(program, ber, rng);
  const double expected = ber * static_cast<double>(r.total_bits);
  EXPECT_NEAR(static_cast<double>(r.flipped_bits), expected,
              4.0 * std::sqrt(expected));
}

TEST(FaultInjection, FlipsActuallyChangeWeights) {
  BitMatrix m(16, 16);  // all -1
  Rng rng(3);
  const std::int64_t flips = InjectFaults(m, 0.5, rng);
  std::int64_t plus = 0;
  for (std::int64_t r = 0; r < 16; ++r) {
    for (std::int64_t c = 0; c < 16; ++c) {
      if (m.Get(r, c) == +1) ++plus;
    }
  }
  EXPECT_EQ(plus, flips);
  EXPECT_GT(plus, 80);
  EXPECT_LT(plus, 176);
}

TEST(FaultInjection, BerOneFlipsEverything) {
  BitMatrix m(8, 8);
  Rng rng(4);
  EXPECT_EQ(InjectFaults(m, 1.0, rng), 64);
  for (std::int64_t r = 0; r < 8; ++r) {
    for (std::int64_t c = 0; c < 8; ++c) EXPECT_EQ(m.Get(r, c), +1);
  }
}

TEST(FaultInjection, Validation) {
  BitMatrix m(4, 4);
  Rng rng(5);
  EXPECT_THROW(InjectFaults(m, -0.1, rng), std::invalid_argument);
  EXPECT_THROW(InjectFaults(m, 1.5, rng), std::invalid_argument);
}

TEST(FaultInjection, SmallBerRarelyChangesPredictions) {
  // The BNN robustness property underpinning the paper's ECC-less design:
  // at 1e-4-class BER (2T2R territory), predictions are essentially stable.
  BnnProgram clean = MakeProgram(128, 64, 2);
  Rng wrng(6);
  // Random hidden weights for a nontrivial decision boundary.
  BitMatrix& hidden = clean.stages()[0].gemm.weights;
  for (std::int64_t r = 0; r < hidden.rows(); ++r) {
    for (std::int64_t c = 0; c < hidden.cols(); ++c) {
      hidden.Set(r, c, wrng.Bernoulli(0.5) ? +1 : -1);
    }
  }
  Tensor x({50, 128});
  wrng.FillNormal(x, 0.0f, 1.0f);
  const auto before = clean.PredictBatch(x);
  BnnProgram faulty = clean;
  Rng frng(7);
  (void)InjectWeightFaults(faulty, 1e-4, frng);
  const auto after = faulty.PredictBatch(x);
  std::int64_t changed = 0;
  for (std::size_t i = 0; i < before.size(); ++i) {
    if (before[i] != after[i]) ++changed;
  }
  EXPECT_LE(changed, 2);
}

}  // namespace
}  // namespace rrambnn::core
