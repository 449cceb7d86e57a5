#include "inputs.h"

#include <stdexcept>
#include <unordered_set>

#include "data/ecg_synth.h"
#include "data/eeg_synth.h"
#include "data/image_synth.h"
#include "data/preprocess.h"
#include "serve/demo_tasks.h"

namespace servebench {

using namespace rrambnn;

namespace {

std::uint64_t Mix(std::uint64_t x) {  // splitmix64 finalizer
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t Fnv(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

std::uint64_t RowHash(const Tensor& x, std::int64_t row) {
  const std::int64_t width = x.size() / x.dim(0);
  return Fnv(kFnvBasis, x.data() + row * width,
             static_cast<std::size_t>(width) * sizeof(float));
}

}  // namespace

nn::Dataset MakeRequestRows(const std::string& task, std::uint64_t seed,
                            std::int64_t rows) {
  // A task salt keeps the ECG and EEG streams of one seed independent.
  std::uint64_t salt = 0;
  for (const char c : task) salt = salt * 131 + static_cast<unsigned char>(c);
  Rng rng(Mix(seed ^ Mix(salt)));
  // Generator settings are those of serve::MakeDemoTask; main.cpp checks the
  // resulting per-row shape against the demo task's before serving.
  if (task == "ecg") {
    data::EcgSynthConfig dc;
    dc.samples = 200;
    dc.sample_rate_hz = 100.0;
    return data::MakeEcgDataset(dc, rows, rng);
  }
  if (task == "eeg") {
    data::EegSynthConfig dc;
    dc.channels = 16;
    dc.samples = 192;
    dc.sample_rate_hz = 80.0;
    dc.erd_attenuation = 0.5;
    dc.noise_amplitude = 1.2;
    nn::Dataset data = data::MakeEegDataset(dc, rows, rng);
    data::NormalizePerChannel(data);
    return data;
  }
  if (task == "image") {
    data::ImageSynthConfig dc;
    dc.size = 12;
    dc.channels = 2;
    dc.num_classes = 4;
    return data::MakeImageDataset(dc, rows, rng);
  }
  throw std::invalid_argument("unknown task '" + task + "'");
}

std::uint64_t InputDigest(const nn::Dataset& data) {
  std::uint64_t h = kFnvBasis;
  for (const std::int64_t d : data.x.shape()) h = Fnv(h, &d, sizeof(d));
  h = Fnv(h, data.x.data(), static_cast<std::size_t>(data.x.size()) *
                                sizeof(float));
  for (const std::int64_t y : data.y) h = Fnv(h, &y, sizeof(y));
  return h;
}

void CheckDisjointFromTraining(const std::string& task,
                               const nn::Dataset& requests) {
  const serve::DemoTask demo = serve::MakeDemoTask(task);
  std::unordered_set<std::uint64_t> seen;
  for (const nn::Dataset* d : {&demo.train, &demo.val}) {
    for (std::int64_t i = 0; i < d->size(); ++i) seen.insert(RowHash(d->x, i));
  }
  for (std::int64_t i = 0; i < requests.size(); ++i) {
    if (seen.count(RowHash(requests.x, i)) != 0) {
      throw std::runtime_error("request row " + std::to_string(i) + " of " +
                               task + " duplicates a training row");
    }
  }
}

}  // namespace servebench
