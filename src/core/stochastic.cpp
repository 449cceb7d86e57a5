#include "core/stochastic.h"

#include <algorithm>
#include <stdexcept>

namespace rrambnn::core {

std::vector<BitVector> StochasticEncoder::Encode(
    std::span<const float> features, std::int64_t streams, Rng& rng) {
  if (streams <= 0) {
    throw std::invalid_argument("StochasticEncoder: streams must be > 0");
  }
  std::vector<BitVector> out;
  out.reserve(static_cast<std::size_t>(streams));
  for (std::int64_t t = 0; t < streams; ++t) {
    BitVector v(static_cast<std::int64_t>(features.size()));
    for (std::size_t i = 0; i < features.size(); ++i) {
      const float x = std::clamp(features[i], -1.0f, 1.0f);
      const double p_plus = (1.0 + static_cast<double>(x)) / 2.0;
      v.Set(static_cast<std::int64_t>(i), rng.Bernoulli(p_plus) ? +1 : -1);
    }
    out.push_back(std::move(v));
  }
  return out;
}

std::vector<float> StochasticEncoder::AverageScores(
    const BnnProgram& program, const std::vector<BitVector>& streams) {
  if (streams.empty()) {
    throw std::invalid_argument("AverageScores: no streams");
  }
  std::vector<float> mean(static_cast<std::size_t>(program.num_classes()),
                          0.0f);
  for (const BitVector& s : streams) {
    const std::vector<float> scores = program.Scores(s);
    for (std::size_t k = 0; k < mean.size(); ++k) mean[k] += scores[k];
  }
  const float inv = 1.0f / static_cast<float>(streams.size());
  for (float& m : mean) m *= inv;
  return mean;
}

std::int64_t StochasticEncoder::Predict(const BnnProgram& program,
                                        std::span<const float> features,
                                        std::int64_t streams, Rng& rng) {
  const std::vector<BitVector> encoded = Encode(features, streams, rng);
  const std::vector<float> scores = AverageScores(program, encoded);
  return std::distance(scores.begin(),
                       std::max_element(scores.begin(), scores.end()));
}

}  // namespace rrambnn::core
