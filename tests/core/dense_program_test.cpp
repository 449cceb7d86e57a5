// The dense classifier as a BnnProgram: one hidden GEMM stage per binarized
// layer plus the output stage — threshold and affine semantics, chaining and
// threshold-range validation, and the batched prediction entry point.
#include <gtest/gtest.h>

#include <stdexcept>

#include "core/bnn_program.h"

namespace rrambnn::core {
namespace {

/// Hidden stage with all weights -1 (the default matrix).
ProgramStage MakeHidden(std::int64_t out, std::int64_t in,
                        std::int32_t threshold) {
  return DenseHiddenStage(
      BitMatrix(out, in),
      std::vector<std::int32_t>(static_cast<std::size_t>(out), threshold));
}

ProgramStage MakeOutput(std::int64_t classes, std::int64_t in) {
  return DenseOutputStage(
      BitMatrix(classes, in),
      std::vector<float>(static_cast<std::size_t>(classes), 1.0f),
      std::vector<float>(static_cast<std::size_t>(classes), 0.0f));
}

BnnProgram MakeProgram(std::int64_t in,
                       const std::vector<ProgramStage>& stages) {
  BnnProgram program;
  program.SetInputShape({in, 1, 1});
  for (const ProgramStage& stage : stages) program.AddStage(stage);
  return program;
}

TEST(DenseProgram, ThresholdSemantics) {
  // Weights all -1. Input all -1 -> popcount = in (all match). The
  // threshold decides the output bit.
  ProgramStage hidden = MakeHidden(2, 8, 8);
  hidden.gemm.thresholds[1] = 9;  // unreachable
  const BitMatrix x(1, 8);        // all -1
  const BitMatrix y = RunStageBatch(hidden, x);
  EXPECT_EQ(y.Get(0, 0), +1);  // popcount 8 >= 8
  EXPECT_EQ(y.Get(0, 1), -1);  // popcount 8 < 9

  // The single-row path through a whole program agrees: an output stage
  // whose row 0 matches unit 0 only scores its dot with the hidden bits.
  ProgramStage out = MakeOutput(1, 2);
  out.gemm.weights.Set(0, 0, +1);
  const BnnProgram program = MakeProgram(8, {hidden, out});
  program.Validate();
  // Hidden bits (+1, -1) against weights (+1, -1): dot = +2.
  EXPECT_EQ(program.Scores(BitVector(8)), std::vector<float>{2.0f});
}

TEST(DenseProgram, AffineScores) {
  ProgramStage out = MakeOutput(2, 4);
  out.gemm.scale = {0.5f, -1.0f};
  out.gemm.offset = {1.0f, 2.0f};
  const BnnProgram program = MakeProgram(4, {out});
  program.Validate();
  // Weights default -1; input all -1 -> dot = +4 for each row.
  const std::vector<float> s = program.Scores(BitVector(4));
  ASSERT_EQ(s.size(), 2u);
  EXPECT_FLOAT_EQ(s[0], 0.5f * 4 + 1.0f);
  EXPECT_FLOAT_EQ(s[1], -1.0f * 4 + 2.0f);
  EXPECT_EQ(program.ScoresBatch(BitMatrix(1, 4)), s);
}

TEST(DenseProgram, ValidateCatchesChainingErrors) {
  // 5 != 4: broken chain.
  EXPECT_THROW(MakeProgram(8, {MakeHidden(4, 8, 2), MakeOutput(2, 5)})
                   .Validate(),
               std::invalid_argument);
}

TEST(DenseProgram, ValidateCatchesThresholdRange) {
  for (const std::int32_t threshold : {42, 10, -1}) {
    ProgramStage bad = MakeHidden(2, 8, 2);
    bad.gemm.thresholds[0] = threshold;  // outside [0, in + 1]
    EXPECT_THROW(MakeProgram(8, {bad, MakeOutput(2, 2)}).Validate(),
                 std::invalid_argument)
        << threshold;
  }
  // Both ends of the range are legal: always on (0), never on (in + 1).
  ProgramStage edge = MakeHidden(2, 8, 0);
  edge.gemm.thresholds[1] = 9;
  EXPECT_NO_THROW(MakeProgram(8, {edge, MakeOutput(2, 2)}).Validate());
}

TEST(DenseProgram, PredictBatchShapesAndDeterminism) {
  const BnnProgram program =
      MakeProgram(4, {MakeHidden(6, 4, 2), MakeOutput(3, 6)});
  program.Validate();
  Tensor features({5, 4});
  for (std::int64_t i = 0; i < features.size(); ++i) {
    features[i] = (i % 3 == 0) ? 1.0f : -1.0f;
  }
  const auto p1 = program.PredictBatch(features);
  const auto p2 = program.PredictBatch(features);
  EXPECT_EQ(p1, p2);
  EXPECT_EQ(p1.size(), 5u);
  for (const auto c : p1) {
    EXPECT_GE(c, 0);
    EXPECT_LT(c, 3);
  }
  EXPECT_THROW(program.PredictBatch(Tensor({2, 9})), std::invalid_argument);
}

TEST(DenseProgram, TotalWeightBits) {
  const BnnProgram program = MakeProgram(
      2520, {MakeHidden(80, 2520, 0), MakeOutput(2, 80)});  // EEG FC-80, FC-2
  EXPECT_EQ(program.TotalWeightBits(), 80 * 2520 + 2 * 80);
}

TEST(DenseProgram, ConstructionValidation) {
  BnnProgram empty;
  EXPECT_THROW(empty.Validate(), std::invalid_argument);  // no input shape
  EXPECT_THROW(MakeProgram(4, {}).Validate(), std::invalid_argument);

  ProgramStage mismatched = MakeHidden(2, 4, 0);
  mismatched.gemm.thresholds.pop_back();
  EXPECT_THROW(MakeProgram(4, {mismatched, MakeOutput(2, 2)}).Validate(),
               std::invalid_argument);
}

}  // namespace
}  // namespace rrambnn::core
