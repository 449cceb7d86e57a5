// Full-pipeline integration tests: synthetic data -> training -> BN-folded
// compilation -> RRAM mapping -> inference under device faults. These are
// the tests that tie the whole reproduction together.
#include <gtest/gtest.h>

#include "arch/bnn_mapper.h"
#include "core/compile.h"
#include "data/ecg_synth.h"
#include "data/eeg_synth.h"
#include "data/preprocess.h"
#include "engine/engine.h"
#include "models/ecg_model.h"
#include "models/eeg_model.h"
#include "nn/trainer.h"

namespace rrambnn {
namespace {

struct TrainedEcg {
  models::BuiltEcgNet built;
  nn::Dataset train;
  nn::Dataset val;
};

TrainedEcg TrainSmallEcgBinClassifier() {
  Rng rng(7);
  data::EcgSynthConfig dc;
  dc.samples = 120;
  dc.sample_rate_hz = 60.0;
  dc.noise_amplitude = 0.08;
  const nn::Dataset data = data::MakeEcgDataset(dc, 160, rng);
  std::vector<std::int64_t> tr, va;
  for (std::int64_t i = 0; i < 128; ++i) tr.push_back(i);
  for (std::int64_t i = 128; i < 160; ++i) va.push_back(i);

  models::EcgNetConfig cfg = models::EcgNetConfig::BenchScale();
  cfg.samples = 120;
  cfg.base_filters = 6;
  cfg.fc_units = 24;
  cfg.strategy = core::BinarizationStrategy::kBinaryClassifier;
  Rng mrng(3);
  TrainedEcg out{models::BuildEcgNet(cfg, mrng), data.Subset(tr),
                 data.Subset(va)};
  nn::TrainConfig tc;
  tc.epochs = 15;
  tc.batch_size = 16;
  tc.learning_rate = 2e-3f;
  (void)nn::Fit(out.built.net, out.train, out.val, tc);
  return out;
}

/// The hybrid pipeline (float prefix + compiled classifier) of a trained
/// network, as an engine that takes the network over: compiled, not yet
/// deployed.
engine::Engine HybridEngine(TrainedEcg& t) {
  engine::EngineConfig cfg;
  cfg.WithStrategy(core::BinarizationStrategy::kBinaryClassifier);
  engine::Engine eng = engine::Engine::FromTrained(
      cfg, std::move(t.built.net), t.built.classifier_start,
      {t.val.x.shape().begin() + 1, t.val.x.shape().end()});
  eng.Compile();
  return eng;
}

TEST(EndToEnd, EcgBinClassifierPipelineBitExactAndAccurate) {
  TrainedEcg t = TrainSmallEcgBinClassifier();
  const double nn_acc = nn::Evaluate(t.built.net, t.val);
  EXPECT_GT(nn_acc, 0.7) << "training failed to learn the task";

  // Compile and check the hybrid path reproduces the float-eval accuracy.
  engine::Engine eng = HybridEngine(t);
  eng.Deploy("reference");
  EXPECT_NEAR(eng.Evaluate(t.val), nn_acc, 1e-9)
      << "BN folding must be bit-exact against float eval";
  const core::BnnProgram& compiled = eng.compiled_program();

  // Map onto ideal RRAM arrays: still identical.
  arch::MapperConfig mc;
  mc.macro_rows = 64;
  mc.macro_cols = 64;
  mc.device.sense_offset_sigma = 0.0;
  mc.device.weak_prob_ref = 0.0;
  arch::MappedBnn mapped(compiled, mc);
  const Tensor features = eng.Features(t.val.x);
  const auto sw = compiled.PredictBatch(features);
  const auto hw = mapped.PredictBatch(features);
  EXPECT_EQ(sw, hw) << "mapped fabric must be bit-exact at zero error";
}

TEST(EndToEnd, FaultInjectionDegradesGracefullyAtRealisticBer) {
  TrainedEcg t = TrainSmallEcgBinClassifier();
  engine::Engine eng = HybridEngine(t);
  eng.Deploy("reference");
  const double base_acc = eng.Evaluate(t.val);

  // 2T2R-class BER (1e-4): accuracy within noise of the clean model.
  eng.config().WithFaultBer(1e-4, /*seed=*/5);
  eng.Deploy("fault");
  EXPECT_GE(eng.Evaluate(t.val), base_acc - 0.05);
  // Catastrophic BER (0.5 = random weights): near chance.
  eng.config().WithFaultBer(0.5, /*seed=*/6);
  eng.Deploy("fault");
  const double acc = eng.Evaluate(t.val);
  EXPECT_LT(acc, base_acc);
  EXPECT_GT(acc, 0.2);
}

TEST(EndToEnd, EegFullBinaryTrainsAboveChance) {
  Rng rng(11);
  data::EegSynthConfig dc;
  dc.channels = 8;
  dc.samples = 96;
  dc.sample_rate_hz = 48.0;
  dc.mu_freq_hz = 10.0;
  dc.erd_attenuation = 0.2;  // strong contrast for a fast test
  dc.noise_amplitude = 0.6;
  nn::Dataset data = data::MakeEegDataset(dc, 160, rng);
  data::NormalizePerChannel(data);
  std::vector<std::int64_t> tr, va;
  for (std::int64_t i = 0; i < 128; ++i) tr.push_back(i);
  for (std::int64_t i = 128; i < 160; ++i) va.push_back(i);

  models::EegNetConfig cfg = models::EegNetConfig::BenchScale();
  cfg.channels = 8;
  cfg.samples = 96;
  cfg.temporal_kernel = 9;
  cfg.temporal_pad = 4;
  cfg.pool_kernel = 9;
  cfg.pool_stride = 5;
  cfg.fc_units = 24;
  cfg.strategy = core::BinarizationStrategy::kFullBinary;
  Rng mrng(13);
  auto built = models::BuildEegNet(cfg, mrng);
  nn::TrainConfig tc;
  tc.epochs = 40;
  tc.batch_size = 16;
  tc.learning_rate = 2e-3f;
  const auto fit = nn::Fit(built.net, data.Subset(tr), data.Subset(va), tc);
  EXPECT_GT(fit.best_val_accuracy, 0.65);
}

TEST(EndToEnd, AgedFabricWithRefreshKeepsWorking) {
  TrainedEcg t = TrainSmallEcgBinClassifier();
  const core::BnnProgram compiled =
      core::CompileProgram(t.built.net, t.built.classifier_start);
  arch::MapperConfig mc;
  mc.device = rram::DeviceParams{};
  mc.pre_stress_cycles = static_cast<std::uint64_t>(3e8);
  arch::MappedBnn mapped(compiled, mc);
  Tensor features = core::ForwardPrefix(t.built.net, t.val.x,
                                        t.built.classifier_start);
  if (features.rank() > 2) features = features.Reshape({t.val.size(), -1});
  const auto preds = mapped.PredictBatch(features);
  std::int64_t hits = 0;
  for (std::size_t i = 0; i < preds.size(); ++i) {
    if (preds[i] == t.val.y[i]) ++hits;
  }
  // At 3e8 cycles the 2T2R BER is ~1e-5 -- accuracy should be preserved.
  const double acc = static_cast<double>(hits) / preds.size();
  EXPECT_GT(acc, 0.65);
}

}  // namespace
}  // namespace rrambnn
