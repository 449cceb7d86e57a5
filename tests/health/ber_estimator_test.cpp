// Unit tests of the estimation half of the fleet health subsystem:
// readback-vs-golden diffing, EWMA scoring, state classification, the
// manager's routing/healing decisions (against a fake adapter), seed
// derivation of sharded chips and the aging scenario schedule.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/fault_injection.h"
#include "engine/backends.h"
#include "health/aging.h"
#include "health/health.h"
#include "health/manager.h"

namespace rrambnn::health {
namespace {

core::BnnProgram MakeProgram(std::int64_t in, std::int64_t hidden,
                             std::int64_t classes, std::uint64_t seed) {
  core::BitMatrix h(hidden, in);
  core::BitMatrix out(classes, hidden);
  // Random weight planes so diffs and drift hit a nontrivial pattern.
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

/// In-memory chip fleet: each chip is a compiled-program copy of the golden
/// one; drift is software weight-fault injection, reprogramming restores the
/// golden copy. Lets every manager decision be tested without hardware.
class FakeAdapter : public BackendHealthAdapter {
 public:
  FakeAdapter(const core::BnnProgram& golden, int chips)
      : golden_(golden),
        chips_(static_cast<std::size_t>(chips), golden_),
        serving_(static_cast<std::size_t>(chips), true),
        generations_(static_cast<std::size_t>(chips), 0) {}

  const core::BnnProgram& golden() const { return golden_; }

  int num_chips() const override { return static_cast<int>(chips_.size()); }
  bool SupportsReadback() const override { return readback_; }
  const core::BnnProgram& ChipReadback(int chip) override {
    return chips_[static_cast<std::size_t>(chip)];
  }
  void ReprogramChip(int chip, bool reseed) override {
    chips_[static_cast<std::size_t>(chip)] = golden_;
    if (reseed) ++generations_[static_cast<std::size_t>(chip)];
  }
  void SetChipServing(int chip, bool serving) override {
    serving_[static_cast<std::size_t>(chip)] = serving;
  }
  bool chip_serving(int chip) const override {
    return serving_[static_cast<std::size_t>(chip)];
  }
  std::uint64_t chip_generation(int chip) const override {
    return generations_[static_cast<std::size_t>(chip)];
  }
  void InjectChipDrift(int chip, double ber, std::uint64_t seed) override {
    Rng rng(seed);
    core::InjectWeightFaults(chips_[static_cast<std::size_t>(chip)], ber,
                             rng);
  }

  void set_readback(bool supported) { readback_ = supported; }
  /// Out-of-band repair (not via the manager): the chip silently recovers.
  void RestoreChip(int chip) {
    chips_[static_cast<std::size_t>(chip)] = golden_;
  }

 private:
  core::BnnProgram golden_;
  std::vector<core::BnnProgram> chips_;
  std::vector<bool> serving_;
  std::vector<std::uint64_t> generations_;
  bool readback_ = true;
};

TEST(DiffBitErrors, IdenticalProgramsAreClean) {
  const core::BnnProgram golden = MakeProgram(64, 32, 2, 1);
  const BerEstimate estimate = DiffBitErrors(golden, golden);
  EXPECT_EQ(estimate.error_bits, 0);
  EXPECT_EQ(estimate.checked_bits, 64 * 32 + 32 * 2);
  EXPECT_EQ(estimate.raw_ber(), 0.0);
}

TEST(DiffBitErrors, CountsExactFlips) {
  const core::BnnProgram golden = MakeProgram(64, 32, 2, 2);
  core::BnnProgram readback = golden;
  readback.stages()[0].gemm.weights.Flip(0, 0);
  readback.stages()[0].gemm.weights.Flip(31, 63);
  readback.stages()[1].gemm.weights.Flip(1, 7);
  const BerEstimate estimate = DiffBitErrors(golden, readback);
  EXPECT_EQ(estimate.error_bits, 3);
  EXPECT_EQ(estimate.checked_bits, 64 * 32 + 32 * 2);
  EXPECT_DOUBLE_EQ(estimate.raw_ber(), 3.0 / (64 * 32 + 32 * 2));
}

TEST(DiffBitErrors, GeometryMismatchThrows) {
  const core::BnnProgram golden = MakeProgram(64, 32, 2, 3);
  const core::BnnProgram other = MakeProgram(64, 16, 2, 3);
  EXPECT_THROW((void)DiffBitErrors(golden, other), std::invalid_argument);
}

TEST(Classify, ThresholdsAreInclusive) {
  HealthPolicy policy;  // degraded 2e-3, sick 1e-2
  EXPECT_EQ(Classify(0.0, policy), ChipState::kHealthy);
  EXPECT_EQ(Classify(1.9e-3, policy), ChipState::kHealthy);
  EXPECT_EQ(Classify(2e-3, policy), ChipState::kDegraded);
  EXPECT_EQ(Classify(9.9e-3, policy), ChipState::kDegraded);
  EXPECT_EQ(Classify(1e-2, policy), ChipState::kSick);
  EXPECT_EQ(Classify(0.5, policy), ChipState::kSick);
}

TEST(HealthManager, PolicyValidation) {
  const core::BnnProgram golden = MakeProgram(32, 16, 2, 4);
  FakeAdapter adapter(golden, 1);
  HealthPolicy bad_alpha;
  bad_alpha.ewma_alpha = 0.0;
  EXPECT_THROW(HealthManager(adapter.golden(), adapter, bad_alpha),
               std::invalid_argument);
  bad_alpha.ewma_alpha = 1.5;
  EXPECT_THROW(HealthManager(adapter.golden(), adapter, bad_alpha),
               std::invalid_argument);
  HealthPolicy crossed;
  crossed.degraded_ber = 0.1;
  crossed.sick_ber = 0.01;
  EXPECT_THROW(HealthManager(adapter.golden(), adapter, crossed),
               std::invalid_argument);
}

TEST(HealthManager, CheckNowRequiresReadback) {
  const core::BnnProgram golden = MakeProgram(32, 16, 2, 5);
  FakeAdapter adapter(golden, 1);
  adapter.set_readback(false);
  HealthManager manager(adapter.golden(), adapter, HealthPolicy{});
  EXPECT_THROW(manager.CheckNow(), std::logic_error);
}

TEST(HealthManager, EwmaSeedsOnFirstCheckThenSmooths) {
  const core::BnnProgram golden = MakeProgram(128, 64, 2, 6);
  FakeAdapter adapter(golden, 1);
  HealthPolicy policy;
  policy.auto_heal = false;
  policy.route_around_sick = false;
  HealthManager manager(adapter.golden(), adapter, policy);

  adapter.InjectChipDrift(0, 0.05, 11);
  const ChipHealthScore first = manager.CheckNow()[0];
  EXPECT_GT(first.last_raw_ber, 0.0);
  // The first observation seeds the EWMA instead of averaging with the
  // meaningless zero prior.
  EXPECT_DOUBLE_EQ(first.ewma_ber, first.last_raw_ber);
  EXPECT_EQ(first.checks, 1);

  adapter.InjectChipDrift(0, 0.05, 12);
  const ChipHealthScore second = manager.CheckNow()[0];
  EXPECT_EQ(second.checks, 2);
  EXPECT_DOUBLE_EQ(second.ewma_ber, policy.ewma_alpha * second.last_raw_ber +
                                        (1.0 - policy.ewma_alpha) *
                                            first.ewma_ber);
}

TEST(HealthManager, StateTransitionsAreRecorded) {
  const core::BnnProgram golden = MakeProgram(128, 64, 2, 7);
  FakeAdapter adapter(golden, 1);
  HealthPolicy policy;
  policy.auto_heal = false;
  policy.route_around_sick = false;
  HealthManager manager(adapter.golden(), adapter, policy);

  EXPECT_EQ(manager.CheckNow()[0].state, ChipState::kHealthy);
  adapter.InjectChipDrift(0, 0.2, 21);
  EXPECT_EQ(manager.CheckNow()[0].state, ChipState::kSick);
  EXPECT_EQ(manager.state_changes(), 1u);
  ASSERT_FALSE(manager.events().empty());
  const HealthEvent& event = manager.events().back();
  EXPECT_EQ(event.kind, HealthEvent::Kind::kStateChange);
  EXPECT_EQ(event.state, ChipState::kSick);
  EXPECT_EQ(event.sweep, 2u);
}

TEST(HealthManager, AutoHealReprogramsVerifiesAndResetsHistory) {
  const core::BnnProgram golden = MakeProgram(128, 64, 2, 8);
  FakeAdapter adapter(golden, 1);
  HealthManager manager(adapter.golden(), adapter, HealthPolicy{});

  adapter.InjectChipDrift(0, 0.05, 31);
  const ChipHealthScore score = manager.CheckNow()[0];
  EXPECT_EQ(score.reprograms, 1u);
  EXPECT_EQ(manager.total_reprograms(), 1u);
  // The verification readback of the healed (restored) chip is clean and
  // RESETS the EWMA — the drifted fabric's history must not bias the new
  // one.
  EXPECT_EQ(score.checks, 2);
  EXPECT_DOUBLE_EQ(score.ewma_ber, 0.0);
  EXPECT_EQ(score.state, ChipState::kHealthy);
  EXPECT_TRUE(score.serving);
  // Default heals reuse the chip's seed: generation stays 0.
  EXPECT_EQ(score.generation, 0u);

  bool saw_reprogram_event = false;
  for (const HealthEvent& event : manager.events()) {
    if (event.kind == HealthEvent::Kind::kReprogram) {
      saw_reprogram_event = true;
    }
  }
  EXPECT_TRUE(saw_reprogram_event);
}

TEST(HealthManager, ReseedingHealAdvancesGeneration) {
  const core::BnnProgram golden = MakeProgram(128, 64, 2, 9);
  FakeAdapter adapter(golden, 1);
  HealthPolicy policy;
  policy.reprogram_reseed = true;
  HealthManager manager(adapter.golden(), adapter, policy);
  adapter.InjectChipDrift(0, 0.05, 41);
  EXPECT_EQ(manager.CheckNow()[0].generation, 1u);
}

TEST(HealthManager, RoutesAroundSickAndRestoresAfterRecovery) {
  const core::BnnProgram golden = MakeProgram(128, 64, 2, 10);
  FakeAdapter adapter(golden, 2);
  HealthPolicy policy;
  policy.auto_heal = false;  // observe the route-around path in isolation
  policy.ewma_alpha = 1.0;   // no smoothing: state tracks the latest raw
  HealthManager manager(adapter.golden(), adapter, policy);

  adapter.InjectChipDrift(0, 0.2, 51);
  manager.CheckNow();
  EXPECT_FALSE(adapter.chip_serving(0));
  EXPECT_TRUE(adapter.chip_serving(1));
  EXPECT_EQ(manager.serving_chips(), 1);

  // Still sick next sweep: stays routed off.
  manager.CheckNow();
  EXPECT_FALSE(adapter.chip_serving(0));

  // The chip recovers out of band; the next sweep routes it back in.
  adapter.RestoreChip(0);
  manager.CheckNow();
  EXPECT_TRUE(adapter.chip_serving(0));
  bool saw_routed_on = false;
  for (const HealthEvent& event : manager.events()) {
    if (event.kind == HealthEvent::Kind::kRoutedOn) saw_routed_on = true;
  }
  EXPECT_TRUE(saw_routed_on);
}

TEST(HealthManager, NeverRoutesOffTheLastServingChip) {
  const core::BnnProgram golden = MakeProgram(128, 64, 2, 11);
  FakeAdapter adapter(golden, 2);
  HealthPolicy policy;
  policy.auto_heal = false;
  HealthManager manager(adapter.golden(), adapter, policy);

  // Both chips go sick: the first is routed off, the second must keep
  // serving — a fleet with zero serving chips answers nothing.
  adapter.InjectChipDrift(0, 0.2, 61);
  adapter.InjectChipDrift(1, 0.2, 62);
  manager.CheckNow();
  EXPECT_FALSE(adapter.chip_serving(0));
  EXPECT_TRUE(adapter.chip_serving(1));
  EXPECT_EQ(manager.serving_chips(), 1);
}

TEST(ShardSeed, DerivationProperties) {
  using engine::ShardedRramBackend;
  const std::uint64_t base = 12345;
  // Generation 0 of chip 0 is the base seed itself: a 1-shard deployment
  // reproduces the single-fabric backend bit for bit.
  EXPECT_EQ(ShardedRramBackend::ShardSeed(base, 0, 0), base);
  // Distinct chips draw from distinct streams.
  EXPECT_NE(ShardedRramBackend::ShardSeed(base, 0),
            ShardedRramBackend::ShardSeed(base, 1));
  EXPECT_NE(ShardedRramBackend::ShardSeed(base, 1),
            ShardedRramBackend::ShardSeed(base, 2));
  // A reseeded generation is a physically new fabric.
  EXPECT_NE(ShardedRramBackend::ShardSeed(base, 1, 0),
            ShardedRramBackend::ShardSeed(base, 1, 1));
  EXPECT_NE(ShardedRramBackend::ShardSeed(base, 1, 1),
            ShardedRramBackend::ShardSeed(base, 1, 2));
  // Deterministic: the same inputs always derive the same seed.
  EXPECT_EQ(ShardedRramBackend::ShardSeed(base, 3, 7),
            ShardedRramBackend::ShardSeed(base, 3, 7));
}

TEST(AgingScenario, ScheduleMatchesTheDocumentedFormula) {
  const core::BnnProgram golden = MakeProgram(64, 32, 2, 12);
  FakeAdapter adapter(golden, 3);
  AgingScenario scenario;
  scenario.base_ber_per_step = 0.01;
  scenario.ramp_per_step = 0.002;
  scenario.hot_chip = 1;
  scenario.hot_multiplier = 2.0;
  scenario.sudden_death_chip = 0;
  scenario.sudden_death_step = 2;
  scenario.sudden_death_ber = 0.25;
  AgingSimulator aging(adapter, scenario);

  EXPECT_DOUBLE_EQ(aging.ChipBerAtStep(2, 0), 0.01);
  EXPECT_DOUBLE_EQ(aging.ChipBerAtStep(2, 3), 0.01 + 0.002 * 3);
  EXPECT_DOUBLE_EQ(aging.ChipBerAtStep(1, 3), (0.01 + 0.002 * 3) * 2.0);
  EXPECT_DOUBLE_EQ(aging.ChipBerAtStep(0, 2), 0.01 + 0.002 * 2 + 0.25);
  EXPECT_DOUBLE_EQ(aging.ChipBerAtStep(0, 1), 0.01 + 0.002 * 1);
}

TEST(AgingScenario, ScheduleClampsToValidBer) {
  const core::BnnProgram golden = MakeProgram(64, 32, 2, 13);
  FakeAdapter adapter(golden, 1);
  AgingScenario scenario;
  scenario.base_ber_per_step = 0.9;
  scenario.sudden_death_chip = 0;
  scenario.sudden_death_step = 0;
  scenario.sudden_death_ber = 0.9;
  AgingSimulator aging(adapter, scenario);
  EXPECT_DOUBLE_EQ(aging.ChipBerAtStep(0, 0), 1.0);
  aging.Step();  // a clamped rate must inject without throwing
  EXPECT_EQ(aging.step(), 1);
}

TEST(AgingScenario, StepInjectsDriftIntoEveryChip) {
  const core::BnnProgram golden = MakeProgram(128, 64, 2, 14);
  FakeAdapter adapter(golden, 2);
  AgingScenario scenario;
  scenario.base_ber_per_step = 0.05;
  AgingSimulator aging(adapter, scenario);
  aging.Step();
  for (int chip = 0; chip < 2; ++chip) {
    EXPECT_GT(
        DiffBitErrors(adapter.golden(), adapter.ChipReadback(chip)).error_bits,
        0)
        << "chip " << chip;
  }
}

}  // namespace
}  // namespace rrambnn::health
