// Engine facade and backend registry: lifecycle ordering, name-keyed
// backend selection, threading determinism, energy reporting.
#include "engine/engine.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "core/bitops.h"
#include "core/compile.h"
#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/dense.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "serve/demo_tasks.h"

namespace rrambnn::engine {
namespace {

constexpr std::int64_t kIn = 24, kHidden = 16, kClasses = 3;

/// Small binarized classifier in the canonical compile grammar, with a few
/// training steps so BN statistics and weights are non-trivial.
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

nn::Dataset RandomData(std::int64_t n, Rng& rng) {
  nn::Dataset data;
  data.x = Tensor({n, kIn});
  rng.FillNormal(data.x, 0.0f, 1.0f);
  for (std::int64_t i = 0; i < n; ++i) {
    data.y.push_back(data.x[i * kIn] > 0 ? 1 : 0);
  }
  data.num_classes = kClasses;
  return data;
}

Engine MakeTrainedEngine(EngineConfig cfg = {}) {
  Rng rng(1);
  return Engine::FromTrained(std::move(cfg), WarmClassifier(rng), 0);
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

TEST(BackendRegistry, BuiltInsRegisteredByName) {
  auto& registry = BackendRegistry::Instance();
  EXPECT_TRUE(registry.Contains("reference"));
  EXPECT_TRUE(registry.Contains("rram"));
  EXPECT_TRUE(registry.Contains("fault"));
  const auto names = registry.Names();
  EXPECT_GE(names.size(), 3u);
}

TEST(BackendRegistry, KindToStringMatchesRegistryKeys) {
  auto& registry = BackendRegistry::Instance();
  for (const BackendKind kind :
       {BackendKind::kReference, BackendKind::kRram,
        BackendKind::kFaultInjection}) {
    EXPECT_TRUE(registry.Contains(ToString(kind))) << ToString(kind);
  }
}

TEST(BackendRegistry, UnknownNameThrowsWithRegisteredList) {
  Engine eng = MakeTrainedEngine();
  eng.Compile();
  try {
    eng.Deploy("no-such-backend");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("no-such-backend"), std::string::npos) << message;
    EXPECT_NE(message.find("reference"), std::string::npos) << message;
  }
}

TEST(BackendRegistry, CustomBackendSelectableByName) {
  BackendRegistry::Instance().Register(
      "custom-reference",
      [](const core::BnnProgram& program, const BackendSpec& /*spec*/) {
        return std::make_unique<ReferenceBackend>(program);
      });
  Engine eng = MakeTrainedEngine();
  InferenceBackend& backend = eng.Deploy("custom-reference");
  EXPECT_EQ(backend.name(), "reference");  // wraps the reference substrate
  Rng rng(5);
  const nn::Dataset data = RandomData(10, rng);
  EXPECT_EQ(eng.Predict(data.x).size(), 10u);
}

// ---------------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------------

TEST(Engine, LifecycleOrderingEnforced) {
  EngineConfig cfg;
  Engine eng(cfg, [](const EngineConfig&, Rng& rng) {
    return ModelSpec{WarmClassifier(rng), 0};
  });
  EXPECT_FALSE(eng.trained());
  EXPECT_THROW(eng.Compile(), std::logic_error);
  EXPECT_THROW((void)eng.net(), std::logic_error);
  EXPECT_THROW((void)eng.compiled_program(), std::logic_error);
  EXPECT_THROW((void)eng.backend(), std::logic_error);
  EXPECT_THROW((void)eng.Predict(Tensor({1, kIn})), std::logic_error);
}

TEST(Engine, RealStrategyHasNothingToCompile) {
  EngineConfig cfg;
  cfg.WithStrategy(core::BinarizationStrategy::kReal);
  Engine eng = MakeTrainedEngine(cfg);
  EXPECT_THROW(eng.Compile(), std::logic_error);
}

TEST(Engine, FromTrainedCannotRetrain) {
  Engine eng = MakeTrainedEngine();
  Rng rng(2);
  const nn::Dataset data = RandomData(8, rng);
  EXPECT_THROW((void)eng.Train(data, data), std::logic_error);
  EXPECT_THROW((void)eng.CrossValidate(data, 2), std::logic_error);
}

TEST(Engine, DeployAutoCompilesAndEvaluateSwitchesPath) {
  Engine eng = MakeTrainedEngine();
  Rng rng(3);
  const nn::Dataset data = RandomData(40, rng);
  const double float_acc = eng.Evaluate(data);  // float path, not deployed
  EXPECT_FALSE(eng.compiled());
  eng.Deploy(BackendKind::kReference);  // compiles on demand
  EXPECT_TRUE(eng.compiled());
  EXPECT_TRUE(eng.deployed());
  // The compiled classifier is bit-exact against the float network.
  EXPECT_EQ(eng.Evaluate(data), float_acc);
}

TEST(Engine, EmptyBatchPredictReturnsEmpty) {
  Engine eng = MakeTrainedEngine();
  eng.Deploy("reference");
  EXPECT_TRUE(eng.Predict(Tensor({0, kIn})).empty());
  EXPECT_THROW((void)eng.Predict(Tensor()), std::invalid_argument);
}

/// Accuracy over zero samples is undefined; returning 0.0 would read as a
/// catastrophically broken model to a fleet health check. Covers both
/// orderings: the lifecycle error dominates on an untrained engine, the
/// argument error fires once the engine is trained.
TEST(Engine, EvaluateEmptyDatasetThrows) {
  nn::Dataset empty;
  empty.x = Tensor({0, kIn});
  empty.num_classes = kClasses;

  Engine trained = MakeTrainedEngine();
  EXPECT_THROW((void)trained.Evaluate(empty), std::invalid_argument);
  trained.Deploy("reference");  // deployed path validates identically
  EXPECT_THROW((void)trained.Evaluate(empty), std::invalid_argument);

  EngineConfig cfg;
  Engine untrained(cfg, [](const EngineConfig&, Rng& rng) {
    return ModelSpec{WarmClassifier(rng), 0};
  });
  EXPECT_THROW((void)untrained.Evaluate(empty), std::logic_error);
}

TEST(Engine, EnsureDeployedIsIdempotent) {
  Engine eng = MakeTrainedEngine();
  EXPECT_FALSE(eng.deployed());
  InferenceBackend& first = eng.EnsureDeployed();
  EXPECT_TRUE(eng.deployed());
  // A second call must hand back the same live backend, not re-program it.
  EXPECT_EQ(&eng.EnsureDeployed(), &first);
  // Explicit Deploy() still rebuilds.
  InferenceBackend& rebuilt = eng.Deploy("reference");
  EXPECT_EQ(&eng.EnsureDeployed(), &rebuilt);
}

TEST(Engine, DescribeReflectsState) {
  Engine eng = MakeTrainedEngine();
  eng.Deploy("rram");
  const std::string description = eng.Describe();
  EXPECT_NE(description.find("rram"), std::string::npos) << description;
  EXPECT_NE(description.find("compiled"), std::string::npos) << description;
}

// ---------------------------------------------------------------------------
// Config builder
// ---------------------------------------------------------------------------

TEST(EngineConfig, BuilderChainsAndValidates) {
  EngineConfig cfg;
  cfg.WithStrategy(core::BinarizationStrategy::kFullBinary)
      .WithBackend(BackendKind::kRram)
      .WithThreads(4)
      .WithBatchSize(128)
      .WithFaultBer(1e-3, 7)
      .WithModelSeed(11);
  EXPECT_EQ(cfg.strategy, core::BinarizationStrategy::kFullBinary);
  EXPECT_EQ(cfg.backend_name, "rram");
  EXPECT_EQ(cfg.threads, 4);
  EXPECT_EQ(cfg.batch_size, 128);
  EXPECT_EQ(cfg.backend.fault_ber, 1e-3);
  EXPECT_EQ(cfg.backend.fault_seed, 7u);
  EXPECT_EQ(cfg.model_seed, 11u);
  EXPECT_THROW(cfg.WithThreads(0), std::invalid_argument);
  EXPECT_THROW(cfg.WithBatchSize(0), std::invalid_argument);
}

/// Plain-struct configs bypass the With* checks, so every constructor checks
/// them itself: a zero chunk size would loop Features forever.
TEST(EngineConfig, ConstructorsRejectNonPositiveBatchSizeAndThreads) {
  const std::string path = ::testing::TempDir() + "engine_config_reject.rbnn";
  MakeTrainedEngine().SaveArtifact(path);
  EngineConfig zero_batch;
  zero_batch.batch_size = 0;
  EngineConfig zero_threads;
  zero_threads.threads = 0;
  EngineConfig negative_batch;
  negative_batch.batch_size = -3;
  for (const EngineConfig& bad : {zero_batch, zero_threads, negative_batch}) {
    const ModelFactory factory = [](const EngineConfig&, Rng& rng) {
      return ModelSpec{WarmClassifier(rng), 0};
    };
    EXPECT_THROW((void)Engine(bad, factory), std::invalid_argument);
    Rng rng(1);
    EXPECT_THROW(Engine::FromTrained(bad, WarmClassifier(rng), 0),
                 std::invalid_argument);
    EXPECT_THROW(Engine::FromArtifact(path, bad), std::invalid_argument);
  }
  Engine edited = Engine::FromArtifact(path, EngineConfig{});
  edited.config().batch_size = 0;  // after construction, past the check
  EXPECT_THROW((void)edited.Features(Tensor({2, kIn})), std::invalid_argument);
  Rng rng(2);
  EXPECT_THROW((void)edited.Evaluate(RandomData(4, rng)),
               std::invalid_argument);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Prefix chunking
// ---------------------------------------------------------------------------

/// Features runs the float prefix in config().batch_size chunks; every chunk
/// size, including one row and more rows than the batch holds, yields the
/// bytes of one InferPrefix call over the whole batch.
TEST(Engine, FeaturesIndependentOfChunkSize) {
  constexpr std::int64_t kRows = 70;
  for (const std::string name : {"ecg", "eeg", "image"}) {
    const serve::DemoTask task = serve::MakeDemoTask(name);
    Shape shape = task.train.x.shape();
    ASSERT_GE(shape[0], kRows) << name;
    const std::int64_t sample = task.train.x.size() / shape[0];
    shape[0] = kRows;
    const Tensor x(shape, std::vector<float>(task.train.x.data(),
                                             task.train.x.data() +
                                                 kRows * sample));
    Rng oracle_rng(5);
    const ModelSpec oracle_spec =
        task.factory(serve::DemoServingConfig(1), oracle_rng);
    Tensor expected =
        core::InferPrefix(oracle_spec.net, x, oracle_spec.classifier_start);
    expected = expected.Reshape({kRows, -1});
    for (const std::int64_t chunk : {std::int64_t{1}, std::int64_t{3},
                                     std::int64_t{8}, std::int64_t{64},
                                     kRows + 1}) {
      Rng rng(5);
      ModelSpec spec = task.factory(serve::DemoServingConfig(1), rng);
      EngineConfig cfg;
      cfg.batch_size = chunk;
      Engine eng = Engine::FromTrained(cfg, std::move(spec.net),
                                       spec.classifier_start);
      const Tensor features = eng.Features(x);
      ASSERT_EQ(features.shape(), expected.shape())
          << name << " batch_size=" << chunk;
      EXPECT_EQ(std::memcmp(features.data(), expected.data(),
                            static_cast<std::size_t>(expected.size()) *
                                sizeof(float)),
                0)
          << name << " batch_size=" << chunk;
    }
  }
}

// ---------------------------------------------------------------------------
// Threading determinism
// ---------------------------------------------------------------------------

TEST(Engine, MultiThreadedEvaluateMatchesSingleThreaded) {
  Rng rng(4);
  const nn::Dataset data = RandomData(101, rng);  // odd size: ragged shards
  for (const char* backend : {"reference", "fault"}) {
    Engine single = MakeTrainedEngine();
    single.config().WithThreads(1);
    single.Deploy(backend);
    const double acc1 = single.Evaluate(data);
    const auto preds1 = single.Predict(data.x);
    for (const int threads : {2, 4, 7}) {
      Engine multi = MakeTrainedEngine();
      multi.config().WithThreads(threads);
      multi.Deploy(backend);
      EXPECT_EQ(multi.Evaluate(data), acc1)
          << backend << " threads=" << threads;
      EXPECT_EQ(multi.Predict(data.x), preds1)
          << backend << " threads=" << threads;
    }
  }
}

/// Edge geometries of the sharded serving path: fewer rows than workers
/// (workers are clamped, no empty shard is ever dispatched), a single row,
/// and two rows over many threads (maximally ragged shards).
TEST(Engine, PredictRowsEdgeGeometriesMatchSingleThreaded) {
  Rng rng(9);
  for (const std::int64_t rows : {std::int64_t{1}, std::int64_t{2},
                                  std::int64_t{3}}) {
    const nn::Dataset data = RandomData(rows, rng);
    Engine single = MakeTrainedEngine();
    single.config().WithThreads(1);
    single.Deploy("reference");
    const auto preds1 = single.Predict(data.x);
    ASSERT_EQ(preds1.size(), static_cast<std::size_t>(rows));

    Engine multi = MakeTrainedEngine();
    multi.config().WithThreads(8);  // threads > rows
    multi.Deploy("reference");
    EXPECT_EQ(multi.Predict(data.x), preds1) << "rows=" << rows;
  }
}

/// An empty RowSlice(begin, begin) is a legal packed batch: backends answer
/// it with an empty prediction/score vector instead of tripping on zero-row
/// geometry.
TEST(Engine, EmptyRowSliceServesAsEmptyBatch) {
  Engine eng = MakeTrainedEngine();
  eng.Deploy("reference");
  Rng rng(10);
  const nn::Dataset data = RandomData(4, rng);
  const core::BitMatrix packed = core::BitMatrix::FromSignRows(
      std::span<const float>(data.x.data(),
                             static_cast<std::size_t>(data.x.size())),
      4, kIn);
  const core::BitMatrix empty = packed.RowSlice(2, 2);
  EXPECT_EQ(empty.rows(), 0);
  EXPECT_EQ(empty.cols(), kIn);
  EXPECT_TRUE(eng.backend().PredictPacked(empty).empty());
  EXPECT_TRUE(eng.backend().ScoresBatch(empty).empty());
}

TEST(Engine, RramBackendSerializedButThreadCountStillHarmless) {
  Rng rng(6);
  const nn::Dataset data = RandomData(30, rng);
  rram::DeviceParams ideal;
  ideal.sense_offset_sigma = 0.0;
  ideal.weak_prob_ref = 0.0;

  EngineConfig cfg;
  cfg.WithDevice(ideal);
  Engine single = MakeTrainedEngine(cfg);
  single.config().WithThreads(1);
  single.Deploy("rram");
  EXPECT_FALSE(single.backend().SupportsConcurrentInference());
  const double acc1 = single.Evaluate(data);

  Engine multi = MakeTrainedEngine(cfg);
  multi.config().WithThreads(8);
  multi.Deploy("rram");
  EXPECT_EQ(multi.Evaluate(data), acc1);
}

// ---------------------------------------------------------------------------
// Energy reporting
// ---------------------------------------------------------------------------

TEST(Engine, EnergyReportAvailabilityPerBackend) {
  Engine eng = MakeTrainedEngine();
  eng.Deploy("reference");
  EXPECT_FALSE(eng.EnergyReport().available);
  eng.Deploy("rram");
  const EnergyBreakdown report = eng.EnergyReport();
  EXPECT_TRUE(report.available);
  EXPECT_GT(report.num_macros, 0);
  EXPECT_GT(report.area_mm2, 0.0);
  EXPECT_GT(report.programming.program_energy_pj, 0.0);
  EXPECT_GT(report.per_inference.read_energy_pj, 0.0);
  EXPECT_LT(report.per_inference.read_energy_pj,
            report.programming.program_energy_pj);
}

}  // namespace
}  // namespace rrambnn::engine
