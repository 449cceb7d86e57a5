// Weight-bit fault injection: evaluates the BNN's tolerance to residual RRAM
// bit errors, the property that makes the paper's ECC-less 2T2R approach
// viable (Sec. II-B and its refs [15][16]). Each stored weight bit is
// flipped independently with probability `ber` — the same statistics the
// Fig. 4 device model produces at a given cycling age.
#pragma once

#include <cstdint>
#include <functional>

#include "core/bnn_program.h"
#include "tensor/rng.h"

namespace rrambnn::core {

struct FaultInjectionReport {
  std::int64_t total_bits = 0;
  std::int64_t flipped_bits = 0;
};

/// The fault-site sampler behind every error process in the library: visits
/// each (row, col) of a rows x cols grid whose independent Bernoulli(ber)
/// draw comes up true, in row-major order, and returns the visit count.
/// InjectFaults flips model weight bits through it; the arch-level drift
/// simulation (arch::MappedBnn::InjectDrift) swaps 2T2R pair resistances
/// through it — so software fault injection and physical drift share
/// identical statistics and draw order. Throws std::invalid_argument for
/// `ber` outside [0, 1].
std::int64_t ForEachFaultSite(
    std::int64_t rows, std::int64_t cols, double ber, Rng& rng,
    const std::function<void(std::int64_t, std::int64_t)>& fault);

/// Flips each weight bit of `matrix` independently with probability `ber`.
std::int64_t InjectFaults(BitMatrix& matrix, double ber, Rng& rng);

/// Applies InjectFaults to every GEMM stage of a compiled program, in stage
/// order (for a dense classifier: each hidden layer, then the output layer).
FaultInjectionReport InjectWeightFaults(BnnProgram& program, double ber,
                                        Rng& rng);

}  // namespace rrambnn::core
