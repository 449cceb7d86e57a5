// Online BER estimation and chip scoring: the observability half of the
// fleet health subsystem.
//
// The paper's serving story assumes every RRAM fabric keeps the bit-error
// rate it shipped with; a fleet of always-on monitors cannot. This module
// turns a chip's readback (adapter.h) into a number — diff the sensed
// weight planes against the golden compiled model, fold successive raw
// rates into an EWMA — and classifies each chip against configurable
// thresholds chosen from the paper's tolerance curve: `degraded` begins
// where accuracy measurably bends (around 1e-3..1e-2 BER for the bench
// models, see tests/health/ber_tolerance_test.cpp), `sick` where it
// collapses.
#pragma once

#include <cstdint>
#include <string>

#include "core/bnn_program.h"

namespace rrambnn::health {

/// Health classification of one chip.
enum class ChipState {
  kHealthy,
  kDegraded,  // above degraded_ber: accuracy is bending, heal opportunistically
  kSick,      // above sick_ber: accuracy is collapsing, stop serving on it
};

std::string ToString(ChipState state);

/// Knobs of the estimation/healing loop (engine::EngineConfig carries one;
/// it is a serving-side concern and is deliberately not stored in `.rbnn`
/// artifacts, like thread counts).
struct HealthPolicy {
  /// Weight of the newest raw observation in the EWMA (1.0 = no smoothing).
  double ewma_alpha = 0.5;
  /// EWMA BER at or above which a chip is degraded.
  double degraded_ber = 2e-3;
  /// EWMA BER at or above which a chip is sick.
  double sick_ber = 1e-2;
  /// Reprogram chips that a check classifies as needing healing.
  bool auto_heal = true;
  /// Heal degraded chips too (false: only sick chips are reprogrammed).
  bool heal_degraded = true;
  /// Stop routing batch rows to sick chips until they verify healthy again
  /// (never routes the last serving chip out).
  bool route_around_sick = true;
  /// Reprogram under a fresh generation seed (a physically new fabric)
  /// instead of the chip's original seed. The default false keeps healed
  /// fleets bit-identical to their generation-0 deployment, which is what
  /// the serving digests in CI assert.
  bool reprogram_reseed = false;
};

/// One readback-vs-golden plane diff.
struct BerEstimate {
  std::int64_t checked_bits = 0;
  std::int64_t error_bits = 0;

  double raw_ber() const {
    return checked_bits > 0
               ? static_cast<double>(error_bits) /
                     static_cast<double>(checked_bits)
               : 0.0;
  }
};

/// Bit-exact diff of the GEMM-stage weight planes of `readback` against
/// `golden`, in stage order (pooling / reshape / sign stages store no bits).
/// Throws std::invalid_argument when the two programs' plane geometries
/// differ — a readback can disagree bit-wise with the golden program, never
/// structurally.
BerEstimate DiffBitErrors(const core::BnnProgram& golden,
                          const core::BnnProgram& readback);

/// Classification of a smoothed BER under a policy's thresholds.
ChipState Classify(double ewma_ber, const HealthPolicy& policy);

/// Health score of one chip, maintained by health::HealthManager.
struct ChipHealthScore {
  int chip = 0;
  ChipState state = ChipState::kHealthy;
  /// Exponentially weighted BER over this chip's checks (seeded with the
  /// first raw observation; reset by a healing reprogram).
  double ewma_ber = 0.0;
  /// Raw BER of the most recent readback diff.
  double last_raw_ber = 0.0;
  /// Readback checks performed on this chip (verification reads included).
  std::int64_t checks = 0;
  /// Healing reprograms performed on this chip.
  std::uint64_t reprograms = 0;
  /// Reseed generation (adapter-side; 0 until the first reseeded heal).
  std::uint64_t generation = 0;
  /// Whether the router currently sends batch rows to this chip.
  bool serving = true;
};

}  // namespace rrambnn::health
