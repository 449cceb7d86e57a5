#include "health/health.h"

#include <stdexcept>

namespace rrambnn::health {

std::string ToString(ChipState state) {
  switch (state) {
    case ChipState::kHealthy: return "healthy";
    case ChipState::kDegraded: return "degraded";
    case ChipState::kSick: return "sick";
  }
  return "unknown";
}

namespace {

void DiffPlane(const core::BitMatrix& golden, const core::BitMatrix& readback,
               const char* what, BerEstimate& estimate) {
  if (golden.rows() != readback.rows() || golden.cols() != readback.cols()) {
    throw std::invalid_argument(
        std::string("DiffBitErrors: ") + what + " plane geometry mismatch (" +
        std::to_string(golden.rows()) + "x" + std::to_string(golden.cols()) +
        " vs " + std::to_string(readback.rows()) + "x" +
        std::to_string(readback.cols()) + ")");
  }
  estimate.checked_bits += golden.bits();
  for (std::int64_t r = 0; r < golden.rows(); ++r) {
    for (std::int64_t c = 0; c < golden.cols(); ++c) {
      if (golden.Get(r, c) != readback.Get(r, c)) ++estimate.error_bits;
    }
  }
}

}  // namespace

BerEstimate DiffBitErrors(const core::BnnProgram& golden,
                          const core::BnnProgram& readback) {
  const auto g = golden.GemmStages();
  const auto r = readback.GemmStages();
  if (g.size() != r.size()) {
    throw std::invalid_argument("DiffBitErrors: GEMM stage count mismatch (" +
                                std::to_string(g.size()) + " vs " +
                                std::to_string(r.size()) + ")");
  }
  BerEstimate estimate;
  for (std::size_t l = 0; l < g.size(); ++l) {
    DiffPlane(g[l]->weights, r[l]->weights, "stage", estimate);
  }
  return estimate;
}

ChipState Classify(double ewma_ber, const HealthPolicy& policy) {
  if (ewma_ber >= policy.sick_ber) return ChipState::kSick;
  if (ewma_ber >= policy.degraded_ber) return ChipState::kDegraded;
  return ChipState::kHealthy;
}

}  // namespace rrambnn::health
