// Backend-equivalence guarantee of the serving engine: with all device
// non-idealities off ("ideal" RRAM) and zero injected BER, every registered
// execution backend produces bit-identical class scores and predictions —
// the mapper bit-exactness property lifted to the whole Engine API, proven
// on a really trained ECG classifier rather than a synthetic weight matrix.
#include <gtest/gtest.h>

#include <span>

#include "core/compile.h"
#include "data/ecg_synth.h"
#include "engine/engine.h"
#include "models/ecg_model.h"

namespace rrambnn::engine {
namespace {

rram::DeviceParams IdealDevice() {
  rram::DeviceParams p;
  p.sense_offset_sigma = 0.0;
  p.weak_prob_ref = 0.0;
  return p;
}

/// Trains a small binarized-classifier ECG engine (few epochs: the test
/// needs a representative compiled model, not an accurate one).
class TrainedEcgEngine : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(7);
    data::EcgSynthConfig dc;
    dc.samples = 80;
    dc.sample_rate_hz = 100.0;
    data_ = new nn::Dataset(data::MakeEcgDataset(dc, 120, rng));

    nn::TrainConfig tc;
    tc.epochs = 3;
    tc.batch_size = 16;

    EngineConfig cfg;
    cfg.WithStrategy(core::BinarizationStrategy::kBinaryClassifier)
        .WithTrain(tc)
        .WithDevice(IdealDevice());
    engine_ = new Engine(cfg, [&dc](const EngineConfig& ec, Rng& mrng) {
      models::EcgNetConfig mc = models::EcgNetConfig::BenchScale();
      mc.samples = dc.samples;
      mc.strategy = ec.strategy;
      auto built = models::BuildEcgNet(mc, mrng);
      return ModelSpec{std::move(built.net), built.classifier_start};
    });
    (void)engine_->Train(*data_, *data_);
    (void)engine_->Compile();
  }

  static void TearDownTestSuite() {
    delete engine_;
    delete data_;
    engine_ = nullptr;
    data_ = nullptr;
  }

  /// Classifier-input feature rows of the trained network.
  static Tensor Features() {
    Tensor f = core::ForwardPrefix(engine_->net(), data_->x,
                                   engine_->classifier_start());
    if (f.rank() > 2) f = f.Reshape({data_->size(), -1});
    return f;
  }

  static Engine* engine_;
  static nn::Dataset* data_;
};

Engine* TrainedEcgEngine::engine_ = nullptr;
nn::Dataset* TrainedEcgEngine::data_ = nullptr;

TEST_F(TrainedEcgEngine, AllBackendsBitExactAtZeroErrorRate) {
  BackendSpec spec = engine_->config().backend;
  spec.fault_ber = 0.0;  // zero-BER fault injection flips nothing

  auto reference = MakeBackend("reference", engine_->compiled_program(), spec);
  auto rram = MakeBackend("rram", engine_->compiled_program(), spec);
  auto fault = MakeBackend("fault", engine_->compiled_program(), spec);

  const Tensor features = Features();
  const std::int64_t f = features.dim(1);
  for (std::int64_t i = 0; i < features.dim(0); ++i) {
    const core::BitVector x = core::BitVector::FromSigns(
        std::span<const float>(features.data() + i * f,
                               static_cast<std::size_t>(f)));
    const std::vector<float> ref = reference->Scores(x);
    const std::vector<float> hw = rram->Scores(x);
    const std::vector<float> sw = fault->Scores(x);
    ASSERT_EQ(ref.size(), hw.size());
    ASSERT_EQ(ref.size(), sw.size());
    for (std::size_t k = 0; k < ref.size(); ++k) {
      EXPECT_EQ(ref[k], hw[k]) << "rram score, row " << i << " class " << k;
      EXPECT_EQ(ref[k], sw[k]) << "fault score, row " << i << " class " << k;
    }
    EXPECT_EQ(reference->Predict(x), rram->Predict(x)) << "row " << i;
    EXPECT_EQ(reference->Predict(x), fault->Predict(x)) << "row " << i;
  }
}

TEST_F(TrainedEcgEngine, DeployedAccuracyIdenticalAcrossBackends) {
  engine_->config().backend.fault_ber = 0.0;
  engine_->Deploy("reference");
  const double ref_acc = engine_->Evaluate(*data_);
  engine_->Deploy("rram");
  EXPECT_EQ(engine_->Evaluate(*data_), ref_acc);
  engine_->Deploy("fault");
  EXPECT_EQ(engine_->Evaluate(*data_), ref_acc);
}

TEST_F(TrainedEcgEngine, ZeroBerFaultBackendFlipsNoBits) {
  BackendSpec spec;
  spec.fault_ber = 0.0;
  FaultInjectionBackend backend(engine_->compiled_program(), spec.fault_ber,
                                spec.fault_seed);
  EXPECT_EQ(backend.fault_report().flipped_bits, 0);
  EXPECT_EQ(backend.fault_report().total_bits,
            engine_->compiled_program().TotalWeightBits());
}

}  // namespace
}  // namespace rrambnn::engine
