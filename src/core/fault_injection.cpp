#include "core/fault_injection.h"

#include <stdexcept>

namespace rrambnn::core {

std::int64_t ForEachFaultSite(
    std::int64_t rows, std::int64_t cols, double ber, Rng& rng,
    const std::function<void(std::int64_t, std::int64_t)>& fault) {
  if (ber < 0.0 || ber > 1.0) {
    throw std::invalid_argument("ForEachFaultSite: ber outside [0, 1]");
  }
  if (ber == 0.0) return 0;
  std::int64_t faults = 0;
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t c = 0; c < cols; ++c) {
      if (rng.Bernoulli(ber)) {
        fault(r, c);
        ++faults;
      }
    }
  }
  return faults;
}

std::int64_t InjectFaults(BitMatrix& matrix, double ber, Rng& rng) {
  return ForEachFaultSite(
      matrix.rows(), matrix.cols(), ber, rng,
      [&matrix](std::int64_t r, std::int64_t c) { matrix.Flip(r, c); });
}

FaultInjectionReport InjectWeightFaults(BnnProgram& program, double ber,
                                        Rng& rng) {
  FaultInjectionReport report;
  for (auto& stage : program.stages()) {
    if (stage.kind != StageKind::kPackedGemm) continue;
    report.total_bits += stage.gemm.weights.bits();
    report.flipped_bits += InjectFaults(stage.gemm.weights, ber, rng);
  }
  return report;
}

}  // namespace rrambnn::core
