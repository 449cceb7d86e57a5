#include "engine/backend.h"

#include <algorithm>
#include <span>
#include <stdexcept>

#include "core/bnn_program.h"

namespace rrambnn::engine {

std::int64_t InferenceBackend::Predict(const core::BitVector& x) {
  const std::vector<float> scores = Scores(x);
  return std::distance(scores.begin(),
                       std::max_element(scores.begin(), scores.end()));
}

std::vector<float> InferenceBackend::ScoresBatch(
    const core::BitMatrix& batch) {
  if (batch.cols() != input_size()) {
    throw std::invalid_argument("InferenceBackend::ScoresBatch: batch width " +
                                std::to_string(batch.cols()) +
                                " != backend input size " +
                                std::to_string(input_size()));
  }
  const std::int64_t n = batch.rows();
  const std::int64_t m = num_classes();
  std::vector<float> out(static_cast<std::size_t>(n * m));
  core::BitVector x;  // row buffer reused across the batch
  for (std::int64_t i = 0; i < n; ++i) {
    batch.ExtractRow(i, x);
    const std::vector<float> scores = Scores(x);
    if (static_cast<std::int64_t>(scores.size()) != m) {
      throw std::logic_error(
          "InferenceBackend::ScoresBatch: Scores() returned " +
          std::to_string(scores.size()) + " classes, expected " +
          std::to_string(m));
    }
    std::copy(scores.begin(), scores.end(), out.begin() + i * m);
  }
  return out;
}

std::vector<std::int64_t> InferenceBackend::PredictPacked(
    const core::BitMatrix& batch) {
  return core::ArgmaxRows(ScoresBatch(batch), batch.rows(), num_classes());
}

std::vector<std::int64_t> InferenceBackend::PredictBatch(
    const Tensor& features) {
  if (features.rank() != 2) {
    throw std::invalid_argument("InferenceBackend::PredictBatch: features "
                                "must be rank 2, got " +
                                ShapeToString(features.shape()));
  }
  const std::int64_t n = features.dim(0);
  const std::int64_t f = features.dim(1);
  if (f != input_size()) {
    throw std::invalid_argument(
        "InferenceBackend::PredictBatch: feature width " + std::to_string(f) +
        " != backend input size " + std::to_string(input_size()));
  }
  const core::BitMatrix packed = core::BitMatrix::FromSignRows(
      std::span<const float>(features.data(), static_cast<std::size_t>(n * f)),
      n, f);
  return PredictPacked(packed);
}

}  // namespace rrambnn::engine
