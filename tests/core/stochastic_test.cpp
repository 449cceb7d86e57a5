#include "core/stochastic.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace rrambnn::core {
namespace {

TEST(StochasticEncoder, BitFrequencyTracksInputValue) {
  Rng rng(1);
  const std::vector<float> features{-1.0f, -0.5f, 0.0f, 0.5f, 1.0f};
  const auto streams = StochasticEncoder::Encode(features, 2000, rng);
  ASSERT_EQ(streams.size(), 2000u);
  for (std::size_t j = 0; j < features.size(); ++j) {
    std::int64_t plus = 0;
    for (const auto& s : streams) {
      if (s.Get(static_cast<std::int64_t>(j)) == +1) ++plus;
    }
    const double expect = (1.0 + features[j]) / 2.0;
    EXPECT_NEAR(plus / 2000.0, expect, 0.03) << "feature " << j;
  }
}

TEST(StochasticEncoder, ClampsOutOfRangeInputs) {
  Rng rng(2);
  const std::vector<float> features{-7.0f, 9.0f};
  const auto streams = StochasticEncoder::Encode(features, 200, rng);
  for (const auto& s : streams) {
    EXPECT_EQ(s.Get(0), -1);
    EXPECT_EQ(s.Get(1), +1);
  }
}

TEST(StochasticEncoder, Validation) {
  Rng rng(3);
  const std::vector<float> f{0.0f};
  EXPECT_THROW(StochasticEncoder::Encode(f, 0, rng), std::invalid_argument);
  BnnProgram empty;
  EXPECT_THROW(StochasticEncoder::AverageScores(empty, {}),
               std::invalid_argument);
}

TEST(StochasticEncoder, ManyStreamsApproachDeterministicDecision) {
  // A linear output layer over stochastic bits: with enough streams the
  // expected score ~ the analog dot product, so the prediction matches the
  // sign-based one for clearly separated inputs.
  BitMatrix weights(2, 8);
  for (std::int64_t c = 0; c < 8; ++c) weights.Set(0, c, +1);  // class 0: all +1
  BnnProgram program;
  program.SetInputShape({8, 1, 1});
  program.AddStage(
      DenseOutputStage(std::move(weights), {1.0f, 1.0f}, {0.0f, 0.0f}));
  program.Validate();

  Rng rng(4);
  const std::vector<float> strongly_positive(8, 0.8f);
  int class0 = 0;
  for (int t = 0; t < 20; ++t) {
    if (StochasticEncoder::Predict(program, strongly_positive, 64, rng) == 0) {
      ++class0;
    }
  }
  EXPECT_GE(class0, 18);
}

}  // namespace
}  // namespace rrambnn::core
