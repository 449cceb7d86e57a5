// Healing-loop tests against the real backends: single-chip reprograms on
// the sharded RRAM fabric are bit-identical and sibling-preserving
// (derived per-chip seeds), the Engine exposes the health surface per
// backend, the serving daemon's drift/check hooks keep served digests
// invariant, and the ISSUE acceptance scenario holds — under a BER ramp
// that drives a chip sick, healing-on stays within 1% of the healthy
// baseline while healing-off measurably degrades.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/backends.h"
#include "engine/engine.h"
#include "health/aging.h"
#include "health/health.h"
#include "serve/demo_tasks.h"
#include "serve/model_server.h"

namespace rrambnn {
namespace {

namespace fs = std::filesystem;

core::BnnProgram MakeRandomProgram(std::int64_t in, std::int64_t hidden,
                                   std::int64_t classes, std::uint64_t seed) {
  core::BitMatrix h(hidden, in);
  core::BitMatrix out(classes, hidden);
  Rng rng(seed);
  for (core::BitMatrix* plane : {&h, &out}) {
    for (std::int64_t r = 0; r < plane->rows(); ++r) {
      for (std::int64_t c = 0; c < plane->cols(); ++c) {
        plane->Set(r, c, rng.Uniform() < 0.5 ? -1 : +1);
      }
    }
  }
  core::BnnProgram program;
  program.SetInputShape({in, 1, 1});
  program.AddStage(core::DenseHiddenStage(
      std::move(h),
      std::vector<std::int32_t>(static_cast<std::size_t>(hidden), 0)));
  program.AddStage(core::DenseOutputStage(
      std::move(out),
      std::vector<float>(static_cast<std::size_t>(classes), 1.0f),
      std::vector<float>(static_cast<std::size_t>(classes), 0.0f)));
  return program;
}

/// An aged device corner with deterministic senses: programming errors
/// exist (weak bits), so seed-derived fabric identity is a nontrivial
/// property, and readback snapshots are available.
arch::MapperConfig AgedDeterministicCorner() {
  arch::MapperConfig config;
  config.device.sense_offset_sigma = 0.0;
  config.pre_stress_cycles = 500000000;  // 5e8 cycles: some weak devices
  config.seed = 77;
  return config;
}

TEST(ShardedHealing, ReprogramRestoresTheChipBitIdentically) {
  const core::BnnProgram program = MakeRandomProgram(96, 64, 2, 20);
  engine::ShardedRramBackend backend(program, AgedDeterministicCorner(), 4);
  ASSERT_TRUE(backend.SupportsReadback());

  // Snapshot every chip's generation-0 readback (copies: the references
  // are invalidated by device-state changes).
  std::vector<core::BnnProgram> gen0;
  for (int chip = 0; chip < 4; ++chip) {
    gen0.push_back(backend.ChipReadback(chip));
  }

  backend.InjectChipDrift(1, 0.1, 91);
  EXPECT_GT(health::DiffBitErrors(gen0[1], backend.ChipReadback(1)).error_bits,
            0);

  // A default (same-seed) reprogram rebuilds the drifted chip exactly as
  // it was at generation 0 — the property the CI digest equality rides on.
  backend.ReprogramChip(1, /*reseed=*/false);
  EXPECT_EQ(backend.chip_generation(1), 0u);
  EXPECT_EQ(health::DiffBitErrors(gen0[1], backend.ChipReadback(1)).error_bits,
            0);

  // Siblings were never touched: each chip's programming noise is drawn
  // from its own derived seed stream.
  for (const int chip : {0, 2, 3}) {
    EXPECT_EQ(
        health::DiffBitErrors(gen0[static_cast<std::size_t>(chip)],
                              backend.ChipReadback(chip))
            .error_bits,
        0)
        << "sibling chip " << chip << " perturbed by reprogramming chip 1";
  }
}

TEST(ShardedHealing, ReseededReprogramIsAPhysicallyNewFabric) {
  const core::BnnProgram program = MakeRandomProgram(96, 64, 2, 21);
  engine::ShardedRramBackend backend(program, AgedDeterministicCorner(), 2);
  const core::BnnProgram gen0 = backend.ChipReadback(0);

  backend.ReprogramChip(0, /*reseed=*/true);
  EXPECT_EQ(backend.chip_generation(0), 1u);
  // Same golden weights, fresh device draws: at an aged corner the weak-bit
  // pattern differs between generations with overwhelming probability.
  EXPECT_GT(health::DiffBitErrors(gen0, backend.ChipReadback(0)).error_bits,
            0);

  // Reprogramming the reseeded chip without a new reseed reproduces
  // generation 1, not generation 0.
  const core::BnnProgram gen1 = backend.ChipReadback(0);
  backend.ReprogramChip(0, /*reseed=*/false);
  EXPECT_EQ(backend.chip_generation(0), 1u);
  EXPECT_EQ(health::DiffBitErrors(gen1, backend.ChipReadback(0)).error_bits,
            0);
}

TEST(ShardedHealing, RoutedOffChipServesNoRowsButFleetStillAnswers) {
  const core::BnnProgram program = MakeRandomProgram(96, 64, 2, 22);
  arch::MapperConfig config;
  config.device.sense_offset_sigma = 0.0;  // noiseless: all chips agree
  engine::ShardedRramBackend backend(program, config, 3);

  core::BitMatrix batch(8, program.input_size());
  Rng rng(5);
  for (std::int64_t r = 0; r < batch.rows(); ++r) {
    for (std::int64_t c = 0; c < batch.cols(); ++c) {
      batch.Set(r, c, rng.Uniform() < 0.5 ? -1 : +1);
    }
  }
  const std::vector<float> all_serving = backend.ScoresBatch(batch);

  // Wreck chip 1, then route it out: the remaining chips must reproduce
  // the full-fleet answer (zero-noise chips are interchangeable).
  backend.InjectChipDrift(1, 0.25, 92);
  backend.SetChipServing(1, false);
  EXPECT_EQ(backend.ScoresBatch(batch), all_serving);

  // Routing every chip out is refused loudly.
  backend.SetChipServing(0, false);
  backend.SetChipServing(2, false);
  EXPECT_THROW((void)backend.ScoresBatch(batch), std::runtime_error);
}

TEST(EngineHealth, SurfaceFollowsTheBackend) {
  serve::DemoTask task = serve::MakeDemoTask("ecg");
  engine::EngineConfig config = serve::DemoServingConfig(1);
  engine::Engine engine(config, task.factory);
  (void)engine.Train(task.train, task.val);
  engine.Compile();

  EXPECT_FALSE(engine.SupportsHealth());          // not deployed yet
  EXPECT_THROW((void)engine.Health(), std::logic_error);

  engine.Deploy("reference");
  EXPECT_FALSE(engine.SupportsHealth());          // exact software: no chips
  EXPECT_THROW((void)engine.Health(), std::logic_error);

  engine.Deploy("fault");
  ASSERT_TRUE(engine.SupportsHealth());
  EXPECT_EQ(engine.Health().scores().size(), 1u);

  engine.Deploy("rram-sharded");
  ASSERT_TRUE(engine.SupportsHealth());
  EXPECT_EQ(static_cast<int>(engine.Health().scores().size()),
            config.backend.rram_shards);
  // The manager is scoped to the deployed backend: redeploying resets it.
  engine.Health().CheckNow();
  EXPECT_EQ(engine.Health().sweeps(), 1u);
  engine.Deploy("rram-sharded");
  EXPECT_EQ(engine.Health().sweeps(), 0u);
}

TEST(Acceptance, HealingHoldsAccuracyUnderAgingWhileUnhealedDegrades) {
  // The ISSUE acceptance scenario: a 4-chip rram-sharded fleet lives
  // through a drift ramp plus one sudden-death chip. With healing on, end
  // accuracy stays within 1% of the healthy baseline; with healing off it
  // measurably degrades; at least one chip goes sick and is reprogrammed.
  serve::DemoTask task = serve::MakeDemoTask("ecg");
  const fs::path dir = fs::temp_directory_path() / "rrambnn_health_accept";
  fs::create_directories(dir);
  const std::string artifact = (dir / "ecg.rbnn").string();
  {
    engine::Engine trainer(serve::DemoServingConfig(1), task.factory);
    (void)trainer.Train(task.train, task.val);
    trainer.SaveArtifact(artifact);
  }

  const auto sharded_config = [&](const health::HealthPolicy& policy) {
    engine::EngineConfig config = serve::DemoServingConfig(1);
    config.WithBackend("rram-sharded").WithRramShards(4);
    config.WithHealthPolicy(policy);
    return config;
  };

  double baseline = 0.0;
  {
    engine::Engine engine =
        engine::Engine::FromArtifact(artifact, sharded_config({}));
    engine.Deploy();
    baseline = engine.Evaluate(task.val);
  }
  EXPECT_GT(baseline, 0.5) << "demo model failed to train above chance";

  health::AgingScenario scenario;
  scenario.base_ber_per_step = 0.004;
  scenario.ramp_per_step = 0.001;
  scenario.hot_chip = 2;
  scenario.hot_multiplier = 3.0;
  scenario.sudden_death_chip = 1;
  scenario.sudden_death_step = 2;
  scenario.sudden_death_ber = 0.25;
  constexpr int kSteps = 4;

  const auto live_one_lifetime = [&](const health::HealthPolicy& policy) {
    engine::Engine engine =
        engine::Engine::FromArtifact(artifact, sharded_config(policy));
    engine.Deploy();
    health::AgingSimulator aging(*engine.backend().health_adapter(),
                                 scenario);
    double accuracy = 0.0;
    for (int step = 0; step < kSteps; ++step) {
      aging.Step();
      engine.Health().CheckNow();
      accuracy = engine.Evaluate(task.val);
    }
    bool saw_sick = false;
    for (const health::HealthEvent& event : engine.Health().events()) {
      if (event.state == health::ChipState::kSick) saw_sick = true;
    }
    struct Outcome {
      double final_accuracy;
      std::uint64_t reprograms;
      bool saw_sick;
    };
    return Outcome{accuracy, engine.Health().total_reprograms(), saw_sick};
  };

  health::HealthPolicy healing_off;
  healing_off.auto_heal = false;
  healing_off.route_around_sick = false;

  const auto healed = live_one_lifetime(health::HealthPolicy{});
  const auto unhealed = live_one_lifetime(healing_off);

  EXPECT_GE(healed.final_accuracy, baseline - 0.01)
      << "healing-on fleet fell more than 1% below the healthy baseline";
  EXPECT_LE(unhealed.final_accuracy, baseline - 0.03)
      << "healing-off fleet did not measurably degrade (scenario too mild "
         "to demonstrate anything)";
  EXPECT_TRUE(healed.saw_sick) << "no chip ever went sick";
  EXPECT_GE(healed.reprograms, 1u);
  EXPECT_EQ(unhealed.reprograms, 0u);
}

TEST(ServingHealth, DriftAndHealHooksKeepServedDigestsInvariant) {
  // The serve-layer ordering contract: predicts are answered before drift
  // lands and after the previous check healed, so every response is
  // computed on a fabric bit-identical to generation 0 — even while the
  // daemon injects drift and reprograms chips between requests.
  serve::DemoTask task = serve::MakeDemoTask("ecg");
  const fs::path dir = fs::temp_directory_path() / "rrambnn_health_serve";
  fs::create_directories(dir);
  const std::string artifact = (dir / "ecg.rbnn").string();
  {
    engine::Engine trainer(serve::DemoServingConfig(1), task.factory);
    (void)trainer.Train(task.train, task.val);
    trainer.SaveArtifact(artifact);
  }

  serve::HealthServingConfig health;
  health.check_every_requests = 1;
  health.drift_ber = 0.02;  // degraded territory every interval
  health.drift_every_requests = 1;
  serve::RegistryConfig registry;
  registry.backend_override = "rram-sharded";  // a substrate with chips
  serve::ModelServer server(registry, health);
  server.registry().Register("ecg", artifact);

  serve::Request predict;
  predict.id = 1;
  predict.kind = serve::RequestKind::kPredict;
  predict.model = "ecg";
  predict.batch = task.val.x;

  const serve::Response first = server.Handle(predict);
  ASSERT_TRUE(first.ok) << first.error;
  const std::uint64_t digest = serve::PredictionDigest(first.predictions);
  for (int i = 0; i < 3; ++i) {
    const serve::Response next = server.Handle(predict);
    ASSERT_TRUE(next.ok) << next.error;
    EXPECT_EQ(serve::PredictionDigest(next.predictions), digest)
        << "served digest changed under drift+healing churn";
  }

  serve::Request health_request;
  health_request.id = 9;
  health_request.kind = serve::RequestKind::kHealth;
  const serve::Response report = server.Handle(health_request);
  ASSERT_TRUE(report.ok) << report.error;
  ASSERT_EQ(report.health.size(), 1u);
  const serve::ModelHealthWire& wire = report.health[0];
  EXPECT_EQ(wire.name, "ecg");
  EXPECT_TRUE(wire.supported);
  EXPECT_GE(wire.sweeps, 4u);
  EXPECT_GE(wire.reprograms, 1u) << "drift never triggered a healing "
                                    "reprogram";
  EXPECT_FALSE(wire.chips.empty());
  for (const serve::ChipHealthWire& chip : wire.chips) {
    EXPECT_TRUE(chip.serving);
    EXPECT_GT(chip.checks, 0u);
  }

  // An unknown single-model filter is a request-level error, not a crash.
  serve::Request unknown;
  unknown.id = 10;
  unknown.kind = serve::RequestKind::kHealth;
  unknown.model = "nope";
  EXPECT_FALSE(server.Handle(unknown).ok);
}

}  // namespace
}  // namespace rrambnn
