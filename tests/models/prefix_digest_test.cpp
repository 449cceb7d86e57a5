// Golden digests of the float feature prefix that serving runs on the host.
//
// core::InferPrefix over seeded, untrained ECG/EEG BenchScale networks
// (binary-classifier strategy) and the image demo stem must reproduce these
// FNV-1a digests of its output bytes exactly. The constants were recorded
// from the straightforward scalar layer loops; every build (portable or
// -march=native) and both GEMM kernels must match them bit for bit, so
// fixtures, served digests and accuracies never depend on the host ISA.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>

#include "core/compile.h"
#include "engine/engine.h"
#include "models/ecg_model.h"
#include "models/eeg_model.h"
#include "nn/batchnorm.h"
#include "nn/gemm.h"
#include "serve/demo_tasks.h"

namespace rrambnn::models {
namespace {

constexpr std::int64_t kRows = 5;

std::uint64_t Fnv1a(const Tensor& t) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::int64_t i = 0; i < t.size(); ++i) {
    const float v = t[i];
    unsigned char bytes[sizeof(float)];
    std::memcpy(bytes, &v, sizeof(float));
    for (const unsigned char b : bytes) {
      h ^= b;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

/// Gives every BatchNorm seeded non-trivial statistics and affine terms, so
/// the digest covers BN arithmetic rather than a near-identity map.
void RandomizeBatchNorms(nn::Sequential& net, Rng& rng) {
  for (std::size_t i = 0; i < net.size(); ++i) {
    auto* bn = dynamic_cast<nn::BatchNorm*>(&net[i]);
    if (bn == nullptr) continue;
    Tensor& mean = bn->mutable_running_mean();
    Tensor& var = bn->mutable_running_var();
    for (std::int64_t f = 0; f < mean.size(); ++f) {
      mean[f] = rng.Normal(0.0f, 0.5f);
      var[f] = rng.Uniform(0.2f, 2.0f);
    }
    for (nn::Param* p : bn->Params()) {
      for (std::int64_t f = 0; f < p->value.size(); ++f) {
        p->value[f] = rng.Normal(0.0f, 1.0f);
      }
    }
  }
}

/// Seeded normal input with a sprinkling of exact +0 / -0 values.
Tensor RandomInput(const Shape& shape, Rng& rng) {
  Tensor x(shape);
  for (std::int64_t i = 0; i < x.size(); ++i) {
    x[i] = i % 97 == 0 ? 0.0f : i % 89 == 0 ? -0.0f : rng.Normal(0.0f, 1.0f);
  }
  return x;
}

std::uint64_t PrefixDigest(nn::Sequential& net, std::size_t classifier_start,
                           const Shape& sample_shape, std::uint64_t seed) {
  Rng rng(seed);
  RandomizeBatchNorms(net, rng);
  Shape shape{kRows};
  shape.insert(shape.end(), sample_shape.begin(), sample_shape.end());
  const Tensor x = RandomInput(shape, rng);
  return Fnv1a(core::InferPrefix(net, x, classifier_start));
}

std::uint64_t EcgDigest() {
  Rng rng(21);
  EcgNetConfig c = EcgNetConfig::BenchScale();
  c.strategy = core::BinarizationStrategy::kBinaryClassifier;
  BuiltEcgNet built = BuildEcgNet(c, rng);
  return PrefixDigest(built.net, built.classifier_start,
                      {c.leads, c.samples, 1}, 31);
}

std::uint64_t EegDigest() {
  Rng rng(22);
  EegNetConfig c = EegNetConfig::BenchScale();
  c.strategy = core::BinarizationStrategy::kBinaryClassifier;
  BuiltEegNet built = BuildEegNet(c, rng);
  return PrefixDigest(built.net, built.classifier_start,
                      {1, c.samples, c.channels}, 32);
}

std::uint64_t ImageDigest() {
  const serve::DemoTask task = serve::MakeDemoTask("image");
  Rng rng(23);
  engine::ModelSpec spec = task.factory(serve::DemoServingConfig(1), rng);
  return PrefixDigest(spec.net, spec.classifier_start, {2, 12, 12}, 33);
}

constexpr std::uint64_t kEcgDigest = 0xffe5dda11bf58da0ull;
constexpr std::uint64_t kEegDigest = 0xe5f13184f97b00b7ull;
constexpr std::uint64_t kImageDigest = 0xbd762feb8050d3a7ull;

TEST(PrefixDigest, MatchesGoldenWithDispatchedGemm) {
  EXPECT_EQ(EcgDigest(), kEcgDigest);
  EXPECT_EQ(EegDigest(), kEegDigest);
  EXPECT_EQ(ImageDigest(), kImageDigest);
}

TEST(PrefixDigest, MatchesGoldenWithScalarGemm) {
  const bool prev = nn::SetGemmForceScalar(true);
  EXPECT_STREQ(nn::GemmKernelName(), "scalar");
  EXPECT_EQ(EcgDigest(), kEcgDigest);
  EXPECT_EQ(EegDigest(), kEegDigest);
  EXPECT_EQ(ImageDigest(), kImageDigest);
  nn::SetGemmForceScalar(prev);
}

}  // namespace
}  // namespace rrambnn::models
