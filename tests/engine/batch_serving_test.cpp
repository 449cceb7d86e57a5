// Batched serving contract of the engine: ScoresBatch/PredictPacked are
// bit-identical to the per-row path for every registered backend at zero
// device noise, on dense and conv programs; sharded-RRAM serving is
// deterministic and shard-count invariant under fixed seeds, and the
// engine's packed row sharding is thread-count invariant.
#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "core/bitgemm.h"
#include "core/compile.h"
#include "engine/engine.h"
#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/depthwise_conv.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/pool.h"

namespace rrambnn::engine {
namespace {

constexpr std::int64_t kIn = 70, kHidden = 24, kClasses = 3;

rram::DeviceParams IdealDevice() {
  rram::DeviceParams p;
  p.sense_offset_sigma = 0.0;
  p.weak_prob_ref = 0.0;
  return p;
}

/// Small trained binarized classifier (canonical compile grammar) with a
/// ragged input width so packed rows have tail words.
nn::Sequential WarmClassifier(Rng& rng) {
  nn::Sequential net;
  net.Emplace<nn::SignSte>();
  net.Emplace<nn::Dense>(kIn, kHidden, rng, nn::DenseOptions{.binary = true});
  net.Emplace<nn::BatchNorm>(kHidden);
  net.Emplace<nn::SignSte>();
  net.Emplace<nn::Dense>(kHidden, kClasses, rng,
                         nn::DenseOptions{.binary = true});
  net.Emplace<nn::BatchNorm>(kClasses);
  nn::SoftmaxCrossEntropy loss;
  nn::Adam opt(net.Params(), 1e-2f);
  for (int step = 0; step < 25; ++step) {
    Tensor x({16, kIn});
    rng.FillNormal(x, 0.0f, 1.0f);
    std::vector<std::int64_t> y;
    for (int i = 0; i < 16; ++i) {
      y.push_back(x[static_cast<std::int64_t>(i) * kIn] > 0 ? 1 : 0);
    }
    opt.ZeroGrad();
    (void)loss.Forward(net.Forward(x, true), y);
    net.Backward(loss.Backward());
    opt.Step();
  }
  return net;
}

core::BitMatrix RandomBits(std::int64_t rows, std::int64_t cols, Rng& rng) {
  core::BitMatrix m(rows, cols);
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t c = 0; c < cols; ++c) {
      m.Set(r, c, rng.Bernoulli(0.5) ? +1 : -1);
    }
  }
  return m;
}

class BatchServing : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(29);
    EngineConfig cfg;
    cfg.WithDevice(IdealDevice());
    engine_ = new Engine(
        Engine::FromTrained(cfg, WarmClassifier(rng), /*classifier_start=*/0));
    (void)engine_->Compile();
    features_ = new Tensor({kRows, kIn});
    rng.FillNormal(*features_, 0.0f, 1.0f);
  }

  static void TearDownTestSuite() {
    delete engine_;
    delete features_;
    engine_ = nullptr;
    features_ = nullptr;
  }

  static core::BitMatrix Packed() {
    return core::BitMatrix::FromSignRows(
        std::span<const float>(features_->data(),
                               static_cast<std::size_t>(kRows * kIn)),
        kRows, kIn);
  }

  static constexpr std::int64_t kRows = 37;
  static Engine* engine_;
  static Tensor* features_;
};

Engine* BatchServing::engine_ = nullptr;
Tensor* BatchServing::features_ = nullptr;

/// Batched scores equal per-row scores (float equality) and packed
/// predictions equal per-row argmax, on every registered backend. The
/// per-row path gathers each patch on its own (BnnProgram::ScoresWith), so
/// for conv programs this checks the fused batched stage executor,
/// including the mapper's readback substrates on the RRAM backends.
void ExpectBatchMatchesRow(const core::BnnProgram& program,
                           const core::BitMatrix& packed,
                           const BackendSpec& spec) {
  const std::int64_t rows = packed.rows(), classes = program.num_classes();
  for (const char* name : {"reference", "fault", "rram", "rram-sharded"}) {
    auto row_backend = MakeBackend(name, program, spec);
    auto batch_backend = MakeBackend(name, program, spec);
    const std::vector<float> batch_scores =
        batch_backend->ScoresBatch(packed);
    ASSERT_EQ(batch_scores.size(), static_cast<std::size_t>(rows * classes));
    core::BitVector x;
    for (std::int64_t i = 0; i < rows; ++i) {
      packed.ExtractRow(i, x);
      const std::vector<float> row_scores = row_backend->Scores(x);
      for (std::int64_t k = 0; k < classes; ++k) {
        EXPECT_EQ(batch_scores[static_cast<std::size_t>(i * classes + k)],
                  row_scores[static_cast<std::size_t>(k)])
            << name << " row " << i << " class " << k;
      }
    }
    // Predictions via the packed path equal per-row argmax.
    auto pred_row = MakeBackend(name, program, spec);
    auto pred_batch = MakeBackend(name, program, spec);
    const std::vector<std::int64_t> packed_preds =
        pred_batch->PredictPacked(packed);
    for (std::int64_t i = 0; i < rows; ++i) {
      packed.ExtractRow(i, x);
      EXPECT_EQ(packed_preds[static_cast<std::size_t>(i)],
                pred_row->Predict(x))
          << name << " row " << i;
    }
  }
}

/// Trained conv classifier with every batched stage kind: padded conv |
/// max-pool | padded depthwise | flatten | dense.
core::BnnProgram ConvProgram(Rng& rng) {
  constexpr std::int64_t c = 3, size = 8, conv_out = 6;
  nn::Sequential net;
  net.Emplace<nn::SignSte>();
  net.Emplace<nn::Conv2d>(
      c, conv_out, std::int64_t{3}, std::int64_t{3}, rng,
      nn::Conv2dOptions{
          .pad_h = 1, .pad_w = 1, .binary = true, .use_bias = false});
  net.Emplace<nn::BatchNorm>(conv_out);
  net.Emplace<nn::SignSte>();
  net.Emplace<nn::Pool2d>(nn::PoolKind::kMax, std::int64_t{2},
                          std::int64_t{2});
  net.Emplace<nn::DepthwiseConv2d>(
      conv_out, std::int64_t{3}, std::int64_t{3}, rng,
      nn::DepthwiseConv2dOptions{
          .pad_h = 1, .pad_w = 1, .binary = true, .use_bias = false});
  net.Emplace<nn::BatchNorm>(conv_out);
  net.Emplace<nn::SignSte>();
  net.Emplace<nn::Flatten>();
  net.Emplace<nn::Dense>(conv_out * (size / 2) * (size / 2), kClasses, rng,
                         nn::DenseOptions{.binary = true});
  net.Emplace<nn::BatchNorm>(kClasses);
  nn::SoftmaxCrossEntropy loss;
  nn::Adam opt(net.Params(), 1e-2f);
  for (int step = 0; step < 15; ++step) {
    Tensor x({8, c, size, size});
    rng.FillNormal(x, 0.0f, 1.0f);
    std::vector<std::int64_t> y;
    for (int i = 0; i < 8; ++i) {
      y.push_back(x[static_cast<std::int64_t>(i) * c * size * size] > 0 ? 1
                                                                       : 0);
    }
    opt.ZeroGrad();
    (void)loss.Forward(net.Forward(x, true), y);
    net.Backward(loss.Backward());
    opt.Step();
  }
  return core::CompileProgram(net, 0, core::StageShape{c, size, size});
}

TEST_F(BatchServing, BatchMatchesRowForEveryRegisteredBackend) {
  BackendSpec spec = engine_->config().backend;
  spec.fault_ber = 0.0;
  spec.rram_shards = 3;
  ExpectBatchMatchesRow(engine_->compiled_program(), Packed(), spec);

  Rng rng(31);
  const core::BnnProgram conv = ConvProgram(rng);
  ASSERT_FALSE(conv.IsPureDense());
  const core::BitMatrix conv_rows = RandomBits(kRows, conv.input_size(), rng);
  ExpectBatchMatchesRow(conv, conv_rows, spec);
}

TEST_F(BatchServing, ShardedRramInvariantToShardCountAtZeroNoise) {
  BackendSpec spec = engine_->config().backend;
  const core::BitMatrix packed = Packed();
  auto reference = MakeBackend("reference", engine_->compiled_program(), spec);
  const std::vector<std::int64_t> expected = reference->PredictPacked(packed);
  for (const int shards : {1, 2, 8}) {
    spec.rram_shards = shards;
    auto sharded =
        MakeBackend("rram-sharded", engine_->compiled_program(), spec);
    EXPECT_EQ(sharded->PredictPacked(packed), expected)
        << shards << " shard(s)";
    // Deterministic under a fixed seed: a second identical deployment
    // produces the same scores.
    auto again = MakeBackend("rram-sharded", engine_->compiled_program(), spec);
    EXPECT_EQ(again->ScoresBatch(packed), sharded->ScoresBatch(packed))
        << shards << " shard(s)";
  }
}

TEST_F(BatchServing, ShardedEnergyReportAggregatesAcrossChips) {
  BackendSpec spec = engine_->config().backend;
  spec.rram_shards = 1;
  auto one = MakeBackend("rram-sharded", engine_->compiled_program(), spec);
  spec.rram_shards = 4;
  auto four = MakeBackend("rram-sharded", engine_->compiled_program(), spec);
  const EnergyBreakdown e1 = one->EnergyReport();
  const EnergyBreakdown e4 = four->EnergyReport();
  EXPECT_TRUE(e4.available);
  EXPECT_EQ(e4.num_macros, 4 * e1.num_macros);
  EXPECT_DOUBLE_EQ(e4.area_mm2, 4.0 * e1.area_mm2);
  EXPECT_EQ(e4.programming.program_ops, 4 * e1.programming.program_ops);
  // Per-row inference runs on exactly one chip.
  EXPECT_DOUBLE_EQ(e4.per_inference.read_energy_pj,
                   e1.per_inference.read_energy_pj);
}

TEST_F(BatchServing, EngineEvaluateThreadCountInvariantOnPackedPath) {
  nn::Dataset data;
  data.x = *features_;
  data.num_classes = kClasses;
  for (std::int64_t i = 0; i < kRows; ++i) {
    data.y.push_back(i % kClasses);
  }
  engine_->config().backend.rram_shards = 2;
  for (const char* name : {"reference", "rram-sharded"}) {
    engine_->Deploy(name);
    engine_->config().threads = 1;
    const double acc1 = engine_->Evaluate(data);
    engine_->config().threads = 4;
    EXPECT_EQ(engine_->Evaluate(data), acc1) << name;
  }
  engine_->config().threads = 1;
}

TEST_F(BatchServing, ScalarKernelServesIdenticalScores) {
  // The whole serving stack is kernel-agnostic: forcing the scalar GEMM
  // changes nothing observable.
  BackendSpec spec = engine_->config().backend;
  const core::BitMatrix packed = Packed();
  auto backend = MakeBackend("reference", engine_->compiled_program(), spec);
  const std::vector<float> fast = backend->ScoresBatch(packed);
  const bool prev = core::SetXnorGemmForceScalar(true);
  const std::vector<float> scalar = backend->ScoresBatch(packed);
  core::SetXnorGemmForceScalar(prev);
  EXPECT_EQ(fast, scalar);
}

}  // namespace
}  // namespace rrambnn::engine
