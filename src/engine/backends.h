// The four built-in execution backends (see engine/backend.h) and the
// parameter bundle the registry hands every factory. Every backend executes
// a compiled core::BnnProgram — dense classifiers and im2col-lowered conv
// networks run through the same substrates.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "arch/bnn_mapper.h"
#include "core/bnn_program.h"
#include "core/fault_injection.h"
#include "engine/backend.h"
#include "health/adapter.h"

namespace rrambnn::engine {

/// Construction parameters shared by all backend factories; each backend
/// reads the fields it cares about and ignores the rest.
struct BackendSpec {
  /// RRAM mapping geometry, device statistics, energy calibration and
  /// pre-deployment endurance stress (RramBackend, ShardedRramBackend).
  arch::MapperConfig mapper;
  /// Weight bit-error rate injected once at deployment
  /// (FaultInjectionBackend).
  double fault_ber = 0.0;
  /// Seed of the fault draw (FaultInjectionBackend).
  std::uint64_t fault_seed = 100;
  /// Number of independently programmed fabrics of the "rram-sharded"
  /// backend; each chip derives its programming-noise seed from
  /// mapper.seed through ShardedRramBackend::ShardSeed (chip 0 uses
  /// mapper.seed itself), so any single chip can be rebuilt bit-identically
  /// without touching its siblings.
  int rram_shards = 4;
};

/// Exact software execution of the compiled program — the golden reference
/// the other substrates are measured against.
class ReferenceBackend : public InferenceBackend {
 public:
  explicit ReferenceBackend(core::BnnProgram program);

  std::string name() const override { return "reference"; }
  std::int64_t input_size() const override { return program_.input_size(); }
  std::int64_t num_classes() const override { return program_.num_classes(); }
  std::vector<float> Scores(const core::BitVector& x) override;
  std::vector<float> ScoresBatch(const core::BitMatrix& batch) override;
  std::string Describe() const override;
  EnergyBreakdown EnergyReport() const override;
  bool SupportsConcurrentInference() const override { return true; }
  /// The program is immutable: serving is pure, readers never conflict.
  bool concurrent_readers() const override { return true; }

  const core::BnnProgram& program() const { return program_; }

 private:
  const core::BnnProgram program_;
};

/// Software program with independent weight-bit flips applied once at
/// construction — the ideal-BER sweep substrate of Sec. II-B. Between
/// health interventions (drift injection, healing reprograms) the faulted
/// program is immutable, so inference is pure. As a health "chip" it is its
/// own readback: the faulted program *is* what the substrate reads, drift is
/// further weight-fault injection, and a reprogram restores the golden
/// program and re-draws the construction-time faults (same seed unless
/// reseeded, so a default heal is bit-identical to generation 0).
class FaultInjectionBackend : public InferenceBackend,
                              public health::BackendHealthAdapter {
 public:
  FaultInjectionBackend(core::BnnProgram program, double ber,
                        std::uint64_t seed);

  std::string name() const override { return "fault"; }
  std::int64_t input_size() const override { return program_.input_size(); }
  std::int64_t num_classes() const override { return program_.num_classes(); }
  std::vector<float> Scores(const core::BitVector& x) override;
  std::vector<float> ScoresBatch(const core::BitMatrix& batch) override;
  std::string Describe() const override;
  EnergyBreakdown EnergyReport() const override;
  bool SupportsConcurrentInference() const override { return true; }
  /// Pure between health interventions; drift/reprogram mutate the program
  /// and must hold the exclusive serving lock (they do — see
  /// serve/model_server).
  bool concurrent_readers() const override { return true; }
  health::BackendHealthAdapter* health_adapter() override { return this; }

  // health::BackendHealthAdapter (the one software "chip"):
  int num_chips() const override { return 1; }
  bool SupportsReadback() const override { return true; }
  const core::BnnProgram& ChipReadback(int chip) override;
  void ReprogramChip(int chip, bool reseed) override;
  /// Single chip: there is nowhere to route to, so the flag is ignored.
  void SetChipServing(int chip, bool serving) override;
  bool chip_serving(int chip) const override;
  std::uint64_t chip_generation(int chip) const override;
  void InjectChipDrift(int chip, double ber, std::uint64_t seed) override;

  double ber() const { return ber_; }
  const core::FaultInjectionReport& fault_report() const { return report_; }

 private:
  void CheckChip(int chip) const;

  core::BnnProgram program_;
  core::BnnProgram golden_;  // pre-fault copy, the healing source
  double ber_ = 0.0;
  std::uint64_t seed_ = 0;
  std::uint64_t generation_ = 0;
  core::FaultInjectionReport report_;
};

/// Inference through the simulated 2T2R RRAM fabric of Fig. 5, with device
/// non-idealities and full energy/area accounting. The simulated chip is a
/// single stateful physical resource (per-read sense-offset draws advance
/// device RNG state), so concurrent inference is not supported; Engine
/// serializes rows through it regardless of its thread count.
class RramBackend : public InferenceBackend,
                    public health::BackendHealthAdapter {
 public:
  RramBackend(const core::BnnProgram& program,
              const arch::MapperConfig& config);

  std::string name() const override { return "rram"; }
  std::int64_t input_size() const override { return fabric_.input_size(); }
  std::int64_t num_classes() const override { return fabric_.num_classes(); }
  std::vector<float> Scores(const core::BitVector& x) override;
  /// With deterministic senses the batch is served through the fabric's
  /// packed readback snapshot (bit-plane GEMM, locals only); stochastic
  /// fabrics fall back to the per-row transactional path.
  std::vector<float> ScoresBatch(const core::BitMatrix& batch) override;
  std::string Describe() const override;
  EnergyBreakdown EnergyReport() const override;
  /// True for deterministic senses: the batch path reads the eagerly built
  /// readback planes and touches no per-call fabric state. A stochastic
  /// fabric advances device RNG on every read and stays exclusive.
  bool concurrent_readers() const override;
  health::BackendHealthAdapter* health_adapter() override { return this; }

  // health::BackendHealthAdapter (the one physical fabric):
  int num_chips() const override { return 1; }
  bool SupportsReadback() const override;
  const core::BnnProgram& ChipReadback(int chip) override;
  /// Rebuilds the fabric from the golden program; `reseed` false reuses the
  /// original mapper seed (bit-identical generation-0 fabric).
  void ReprogramChip(int chip, bool reseed) override;
  /// Single chip: there is nowhere to route to, so the flag is ignored.
  void SetChipServing(int chip, bool serving) override;
  bool chip_serving(int chip) const override;
  std::uint64_t chip_generation(int chip) const override;
  void InjectChipDrift(int chip, double ber, std::uint64_t seed) override;

  /// The underlying mapped fabric, for aging/refresh experiments.
  arch::MappedBnn& fabric() { return fabric_; }
  const arch::MappedBnn& fabric() const { return fabric_; }

 private:
  void CheckChip(int chip) const;

  core::BnnProgram golden_;  // healing source; must precede fabric_
  arch::MappedBnn fabric_;
  arch::MapperConfig config_;
  std::uint64_t generation_ = 0;
  /// Cached at construction: concurrent_readers() is read lock-free by the
  /// serving layer to pick its lock mode, while ReprogramChip (exclusive)
  /// replaces fabric_ — the capability must not dereference live fabric
  /// state. Determinism is a device-corner property and never changes.
  const bool concurrent_readers_;
};

/// A fleet of independently programmed RRAM fabrics serving one program —
/// the multi-macro parallelism of Yin et al.'s monolithic chip lifted to
/// chip level. Every shard is a full MappedBnn programmed under its own
/// programming-noise seed (derived from the base seed; chip 0 reproduces the
/// single-fabric RramBackend exactly). Batch rows are sharded across chips
/// in contiguous row ranges, and the chips serve their ranges in order on
/// the calling thread. With deterministic senses each chip serves its shard
/// through its packed readback snapshot and the bit-plane GEMM.
///
/// Accuracy semantics: chips differ in their programming-noise draws, so at
/// nonzero device error rates a row's scores depend on which chip served it
/// (deterministically: row i of an N-row batch over S shards always lands on
/// chip i / ceil(N/S)). At zero device noise all chips agree bit-for-bit and
/// results are independent of the shard count.
class ShardedRramBackend : public InferenceBackend,
                           public health::BackendHealthAdapter {
 public:
  ShardedRramBackend(const core::BnnProgram& program,
                     const arch::MapperConfig& config, int num_shards);

  std::string name() const override { return "rram-sharded"; }
  std::int64_t input_size() const override;
  std::int64_t num_classes() const override;
  /// Single-row inference is served by the first serving chip.
  std::vector<float> Scores(const core::BitVector& x) override;
  /// Shards rows across serving chips in contiguous ranges, served in chip
  /// order on the calling thread. Chips routed out by the health layer
  /// receive no rows. PredictPacked is inherited: argmax over this.
  std::vector<float> ScoresBatch(const core::BitMatrix& batch) override;
  std::string Describe() const override;
  /// Aggregated over chips: programming energy, area and macro count sum;
  /// per-inference cost is per chip (a row is served by exactly one chip).
  EnergyBreakdown EnergyReport() const override;
  /// Row -> chip routing depends on a row's position in the whole batch, so
  /// the engine must not split a batch across threads: each thread's slice
  /// would be routed as a batch of its own.
  bool SupportsConcurrentInference() const override { return false; }
  /// True when every shard has deterministic senses: each chip's batch path
  /// reads its eagerly built readback planes, so whole batches from several
  /// reader threads interleave safely. Routing/drift/reprogram still need
  /// the exclusive serving lock.
  bool concurrent_readers() const override;
  health::BackendHealthAdapter* health_adapter() override { return this; }

  // health::BackendHealthAdapter (one chip per shard):
  int num_chips() const override { return num_shards(); }
  bool SupportsReadback() const override;
  const core::BnnProgram& ChipReadback(int chip) override;
  /// Rebuilds one chip from the golden program without touching its siblings
  /// (each chip's seed is independently derived — see ShardSeed). `reseed`
  /// false reuses the chip's original seed, so the healed chip is
  /// bit-identical to its generation-0 self.
  void ReprogramChip(int chip, bool reseed) override;
  void SetChipServing(int chip, bool serving) override;
  bool chip_serving(int chip) const override;
  std::uint64_t chip_generation(int chip) const override;
  void InjectChipDrift(int chip, double ber, std::uint64_t seed) override;

  int num_shards() const { return static_cast<int>(shards_.size()); }
  arch::MappedBnn& shard(int i) { return *shards_[static_cast<std::size_t>(i)]; }

  /// Programming-noise seed of chip `shard` at reseed `generation`,
  /// derived from the base mapper seed. The derivation is the reason a
  /// single chip can be reprogrammed reproducibly: every (chip, generation)
  /// pair maps to its own fixed seed, so rebuilding chip k never perturbs
  /// chip j, and generation 0 of chip 0 is the base seed itself (a 1-shard
  /// deployment reproduces the single-fabric RramBackend bit for bit).
  static std::uint64_t ShardSeed(std::uint64_t base_seed, int shard,
                                 std::uint64_t generation = 0);

 private:
  void CheckChip(int chip) const;

  core::BnnProgram golden_;  // healing source
  std::vector<std::unique_ptr<arch::MappedBnn>> shards_;
  std::vector<std::uint8_t> serving_;       // routing mask, 1 = serving
  std::vector<std::uint64_t> generations_;  // reseed generation per chip
  arch::MapperConfig config_;
  /// Cached at construction: read lock-free by the serving layer while
  /// ReprogramChip (exclusive) swaps shard pointers — see RramBackend.
  const bool concurrent_readers_;
};

}  // namespace rrambnn::engine
