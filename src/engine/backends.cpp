#include "engine/backends.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "tensor/rng.h"

namespace rrambnn::engine {

namespace {

std::string ProgramShapeString(const core::BnnProgram& program) {
  return std::to_string(program.input_size()) + " inputs, [" +
         program.Describe() + "], " +
         std::to_string(program.TotalWeightBits()) + " weight bits";
}

}  // namespace

// ---------------------------------------------------------------------------
// ReferenceBackend
// ---------------------------------------------------------------------------

ReferenceBackend::ReferenceBackend(core::BnnProgram program)
    : program_(std::move(program)) {
  program_.Validate();
}

std::vector<float> ReferenceBackend::Scores(const core::BitVector& x) {
  return program_.Scores(x);
}

std::vector<float> ReferenceBackend::ScoresBatch(
    const core::BitMatrix& batch) {
  return program_.ScoresBatch(batch);
}

std::string ReferenceBackend::Describe() const {
  return "reference: exact XNOR-popcount software model (" +
         ProgramShapeString(program_) + ")";
}

EnergyBreakdown ReferenceBackend::EnergyReport() const {
  return EnergyBreakdown{};  // pure software: no hardware cost model
}

// ---------------------------------------------------------------------------
// FaultInjectionBackend
// ---------------------------------------------------------------------------

FaultInjectionBackend::FaultInjectionBackend(core::BnnProgram program,
                                             double ber, std::uint64_t seed)
    : program_(std::move(program)), ber_(ber), seed_(seed) {
  program_.Validate();
  golden_ = program_;  // pre-fault copy: the healing source
  Rng rng(seed_);
  report_ = core::InjectWeightFaults(program_, ber_, rng);
}

void FaultInjectionBackend::CheckChip(int chip) const {
  if (chip != 0) {
    throw std::out_of_range("FaultInjectionBackend: chip " +
                            std::to_string(chip) + " out of range (1 chip)");
  }
}

const core::BnnProgram& FaultInjectionBackend::ChipReadback(int chip) {
  CheckChip(chip);
  return program_;  // the faulted program is exactly what the substrate reads
}

void FaultInjectionBackend::ReprogramChip(int chip, bool reseed) {
  CheckChip(chip);
  if (reseed) ++generation_;
  program_ = golden_;
  Rng rng(ShardedRramBackend::ShardSeed(seed_, 0, generation_));
  report_ = core::InjectWeightFaults(program_, ber_, rng);
}

void FaultInjectionBackend::SetChipServing(int chip, bool serving) {
  CheckChip(chip);
  (void)serving;  // single chip: there is nowhere to route to
}

bool FaultInjectionBackend::chip_serving(int chip) const {
  CheckChip(chip);
  return true;
}

std::uint64_t FaultInjectionBackend::chip_generation(int chip) const {
  CheckChip(chip);
  return generation_;
}

void FaultInjectionBackend::InjectChipDrift(int chip, double ber,
                                            std::uint64_t seed) {
  CheckChip(chip);
  Rng rng(seed);
  core::InjectWeightFaults(program_, ber, rng);
}

std::vector<float> FaultInjectionBackend::Scores(const core::BitVector& x) {
  return program_.Scores(x);
}

std::vector<float> FaultInjectionBackend::ScoresBatch(
    const core::BitMatrix& batch) {
  return program_.ScoresBatch(batch);
}

std::string FaultInjectionBackend::Describe() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "fault: software model with i.i.d. weight flips, BER %.2e "
                "(%lld / %lld bits flipped)",
                ber_, static_cast<long long>(report_.flipped_bits),
                static_cast<long long>(report_.total_bits));
  return buf;
}

EnergyBreakdown FaultInjectionBackend::EnergyReport() const {
  return EnergyBreakdown{};  // pure software: no hardware cost model
}

// ---------------------------------------------------------------------------
// RramBackend
// ---------------------------------------------------------------------------

RramBackend::RramBackend(const core::BnnProgram& program,
                         const arch::MapperConfig& config)
    : golden_(program),
      fabric_(golden_, config),
      config_(config),
      concurrent_readers_(fabric_.DeterministicReads()) {
  // Build the readback planes now, while the fabric is held exclusively:
  // the first deterministic batch would otherwise build them lazily, which
  // mutates the fabric under what may be only a shared serving lock.
  fabric_.WarmReadback();
}

std::vector<float> RramBackend::Scores(const core::BitVector& x) {
  return fabric_.Scores(x);
}

std::vector<float> RramBackend::ScoresBatch(const core::BitMatrix& batch) {
  return fabric_.ScoresBatch(batch);
}

bool RramBackend::concurrent_readers() const { return concurrent_readers_; }

void RramBackend::CheckChip(int chip) const {
  if (chip != 0) {
    throw std::out_of_range("RramBackend: chip " + std::to_string(chip) +
                            " out of range (1 chip)");
  }
}

bool RramBackend::SupportsReadback() const {
  return fabric_.DeterministicReads();
}

const core::BnnProgram& RramBackend::ChipReadback(int chip) {
  CheckChip(chip);
  return fabric_.ReadbackSnapshot();
}

void RramBackend::ReprogramChip(int chip, bool reseed) {
  CheckChip(chip);
  if (reseed) ++generation_;
  arch::MapperConfig config = config_;
  config.seed = ShardedRramBackend::ShardSeed(config_.seed, 0, generation_);
  fabric_ = arch::MappedBnn(golden_, config);
  fabric_.WarmReadback();
}

void RramBackend::SetChipServing(int chip, bool serving) {
  CheckChip(chip);
  (void)serving;  // single chip: there is nowhere to route to
}

bool RramBackend::chip_serving(int chip) const {
  CheckChip(chip);
  return true;
}

std::uint64_t RramBackend::chip_generation(int chip) const {
  CheckChip(chip);
  return generation_;
}

void RramBackend::InjectChipDrift(int chip, double ber, std::uint64_t seed) {
  CheckChip(chip);
  Rng rng(seed);
  fabric_.InjectDrift(ber, rng);
  fabric_.WarmReadback();  // drift reset the planes; rebuild before serving
}

std::string RramBackend::Describe() const {
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "rram: simulated 2T2R fabric, %lld macro(s) of %lldx%lld, "
                "%.3f mm2, %.1f%% utilization, pre-stress %.1e cycles",
                static_cast<long long>(fabric_.num_macros()),
                static_cast<long long>(config_.macro_rows),
                static_cast<long long>(config_.macro_cols), fabric_.AreaMm2(),
                100.0 * fabric_.Utilization(),
                static_cast<double>(config_.pre_stress_cycles));
  return buf;
}

EnergyBreakdown RramBackend::EnergyReport() const {
  EnergyBreakdown report;
  report.available = true;
  report.programming = fabric_.ProgrammingCost();
  report.per_inference = fabric_.InferenceCost();
  report.area_mm2 = fabric_.AreaMm2();
  report.num_macros = fabric_.num_macros();
  return report;
}

// ---------------------------------------------------------------------------
// ShardedRramBackend
// ---------------------------------------------------------------------------

std::uint64_t ShardedRramBackend::ShardSeed(std::uint64_t base_seed,
                                            int shard,
                                            std::uint64_t generation) {
  // Chip 0 at generation 0 keeps the base seed so a 1-shard deployment
  // reproduces the single-fabric RramBackend bit for bit, and the per-chip
  // XOR keeps generation-0 seeds stable across releases (artifact digests
  // depend on them). Reseed generations (healing onto a "physically new"
  // fabric) mix through splitmix64 so every generation gets an independent
  // stream that no sibling chip can collide with.
  std::uint64_t seed =
      base_seed ^ (static_cast<std::uint64_t>(shard) * 0x9e3779b97f4a7c15ull);
  if (generation > 0) {
    std::uint64_t z = seed + generation * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    seed = z ^ (z >> 31);
  }
  return seed;
}

ShardedRramBackend::ShardedRramBackend(const core::BnnProgram& program,
                                       const arch::MapperConfig& config,
                                       int num_shards)
    : golden_(program),
      config_(config),
      // == MappedBnn::DeterministicReads() for every chip: the shards all
      // share this device config, and reprogramming only changes seeds.
      concurrent_readers_(config.device.sense_offset_sigma == 0.0) {
  if (num_shards < 1) {
    throw std::invalid_argument(
        "ShardedRramBackend: need >= 1 shard, got " +
        std::to_string(num_shards));
  }
  shards_.reserve(static_cast<std::size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    arch::MapperConfig chip = config;
    chip.seed = ShardSeed(config.seed, s);
    shards_.push_back(std::make_unique<arch::MappedBnn>(golden_, chip));
    shards_.back()->WarmReadback();  // see RramBackend: no lazy build later
  }
  serving_.assign(shards_.size(), 1);
  generations_.assign(shards_.size(), 0);
}

void ShardedRramBackend::CheckChip(int chip) const {
  if (chip < 0 || chip >= num_shards()) {
    throw std::out_of_range("ShardedRramBackend: chip " +
                            std::to_string(chip) + " out of range (" +
                            std::to_string(num_shards()) + " chips)");
  }
}

bool ShardedRramBackend::SupportsReadback() const {
  return shards_.front()->DeterministicReads();
}

bool ShardedRramBackend::concurrent_readers() const {
  // All shards share the device config, so the cached construction-time
  // answer speaks for the fleet across reprograms.
  return concurrent_readers_;
}

const core::BnnProgram& ShardedRramBackend::ChipReadback(int chip) {
  CheckChip(chip);
  return shards_[static_cast<std::size_t>(chip)]->ReadbackSnapshot();
}

void ShardedRramBackend::ReprogramChip(int chip, bool reseed) {
  CheckChip(chip);
  auto& generation = generations_[static_cast<std::size_t>(chip)];
  if (reseed) ++generation;
  arch::MapperConfig config = config_;
  config.seed = ShardSeed(config_.seed, chip, generation);
  shards_[static_cast<std::size_t>(chip)] =
      std::make_unique<arch::MappedBnn>(golden_, config);
  shards_[static_cast<std::size_t>(chip)]->WarmReadback();
}

void ShardedRramBackend::SetChipServing(int chip, bool serving) {
  CheckChip(chip);
  serving_[static_cast<std::size_t>(chip)] = serving ? 1 : 0;
}

bool ShardedRramBackend::chip_serving(int chip) const {
  CheckChip(chip);
  return serving_[static_cast<std::size_t>(chip)] != 0;
}

std::uint64_t ShardedRramBackend::chip_generation(int chip) const {
  CheckChip(chip);
  return generations_[static_cast<std::size_t>(chip)];
}

void ShardedRramBackend::InjectChipDrift(int chip, double ber,
                                         std::uint64_t seed) {
  CheckChip(chip);
  Rng rng(seed);
  shards_[static_cast<std::size_t>(chip)]->InjectDrift(ber, rng);
  shards_[static_cast<std::size_t>(chip)]->WarmReadback();
}

std::int64_t ShardedRramBackend::input_size() const {
  return shards_.front()->input_size();
}

std::int64_t ShardedRramBackend::num_classes() const {
  return shards_.front()->num_classes();
}

std::vector<float> ShardedRramBackend::Scores(const core::BitVector& x) {
  for (std::size_t chip = 0; chip < shards_.size(); ++chip) {
    if (serving_[chip] != 0) return shards_[chip]->Scores(x);
  }
  throw std::runtime_error(
      "rram-sharded: every chip is routed out of serving");
}

std::vector<float> ShardedRramBackend::ScoresBatch(
    const core::BitMatrix& batch) {
  if (batch.cols() != input_size()) {
    throw std::invalid_argument("ShardedRramBackend::ScoresBatch: width " +
                                std::to_string(batch.cols()) +
                                " != input size " +
                                std::to_string(input_size()));
  }
  // Rows route across serving chips only: chips the health layer marked
  // sick receive nothing until they are healed and routed back in.
  std::vector<std::size_t> active;
  active.reserve(shards_.size());
  for (std::size_t chip = 0; chip < shards_.size(); ++chip) {
    if (serving_[chip] != 0) active.push_back(chip);
  }
  if (active.empty()) {
    throw std::runtime_error(
        "rram-sharded: every chip is routed out of serving");
  }
  const std::int64_t rows = batch.rows();
  const std::int64_t m = num_classes();
  const std::int64_t s = static_cast<std::int64_t>(active.size());
  const std::int64_t chunk = (rows + s - 1) / s;
  std::vector<float> out(static_cast<std::size_t>(rows * m));
  // Row -> chip routing is fixed by the chunk arithmetic over the serving
  // set. The chips are served in order on the calling thread: a predict
  // already runs on a serving worker, and a thread per chip cost more than
  // the packed chip kernels it parallelized.
  for (std::int64_t c = 0; c * chunk < rows; ++c) {
    const std::int64_t begin = c * chunk;
    const std::vector<float> scores =
        shards_[active[static_cast<std::size_t>(c)]]->ScoresBatch(
            batch.RowSlice(begin, std::min(rows, begin + chunk)));
    std::copy(scores.begin(), scores.end(), out.begin() + begin * m);
  }
  return out;
}

std::string ShardedRramBackend::Describe() const {
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "rram-sharded: %d independently programmed 2T2R fabric(s), "
                "%lld macro(s) each of %lldx%lld, %.3f mm2 total, %s reads",
                num_shards(),
                static_cast<long long>(shards_.front()->num_macros()),
                static_cast<long long>(config_.macro_rows),
                static_cast<long long>(config_.macro_cols),
                static_cast<double>(num_shards()) *
                    shards_.front()->AreaMm2(),
                shards_.front()->DeterministicReads() ? "deterministic"
                                                      : "stochastic");
  return buf;
}

EnergyBreakdown ShardedRramBackend::EnergyReport() const {
  EnergyBreakdown report;
  report.available = true;
  for (const auto& shard : shards_) {
    report.programming += shard->ProgrammingCost();
    report.area_mm2 += shard->AreaMm2();
    report.num_macros += shard->num_macros();
  }
  // A batch row is served by exactly one chip, so the per-inference cost is
  // that of a single fabric.
  report.per_inference = shards_.front()->InferenceCost();
  return report;
}

}  // namespace rrambnn::engine
