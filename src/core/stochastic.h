// Stochastic input binarization (extension; the paper's ref [14], Hirtzlin
// et al. 2019): a real-valued input in [-1, 1] is encoded as T independent
// binary samples with P(+1) = (1 + x) / 2, letting a purely binary fabric
// consume analog-valued inputs by averaging over bit streams.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/bnn_program.h"
#include "tensor/rng.h"

namespace rrambnn::core {

class StochasticEncoder {
 public:
  /// Encodes a feature vector (values clamped to [-1, 1]) into `streams`
  /// independent BitVector samples.
  static std::vector<BitVector> Encode(std::span<const float> features,
                                       std::int64_t streams, Rng& rng);

  /// Mean class scores of `program` over the encoded streams.
  static std::vector<float> AverageScores(
      const BnnProgram& program, const std::vector<BitVector>& streams);

  /// Argmax over AverageScores: stochastic-input prediction.
  static std::int64_t Predict(const BnnProgram& program,
                              std::span<const float> features,
                              std::int64_t streams, Rng& rng);
};

}  // namespace rrambnn::core
