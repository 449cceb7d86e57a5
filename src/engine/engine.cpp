#include "engine/engine.h"

#include <algorithm>
#include <exception>
#include <span>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "io/artifact.h"
#include "tensor/stats.h"

namespace rrambnn::engine {

// ---------------------------------------------------------------------------
// EngineConfig builder setters
// ---------------------------------------------------------------------------

EngineConfig& EngineConfig::WithStrategy(core::BinarizationStrategy s) {
  strategy = s;
  return *this;
}

EngineConfig& EngineConfig::WithTrain(const nn::TrainConfig& t) {
  train = t;
  return *this;
}

EngineConfig& EngineConfig::WithMapper(const arch::MapperConfig& m) {
  backend.mapper = m;
  return *this;
}

EngineConfig& EngineConfig::WithDevice(const rram::DeviceParams& d) {
  backend.mapper.device = d;
  return *this;
}

EngineConfig& EngineConfig::WithEnergy(const arch::EnergyParams& e) {
  backend.mapper.energy = e;
  return *this;
}

EngineConfig& EngineConfig::WithFaultBer(double ber, std::uint64_t seed) {
  backend.fault_ber = ber;
  backend.fault_seed = seed;
  return *this;
}

EngineConfig& EngineConfig::WithRramShards(int shards) {
  if (shards < 1) {
    throw std::invalid_argument("EngineConfig::WithRramShards: need >= 1");
  }
  backend.rram_shards = shards;
  return *this;
}

EngineConfig& EngineConfig::WithBackend(const std::string& name) {
  backend_name = name;
  return *this;
}

EngineConfig& EngineConfig::WithBackend(BackendKind kind) {
  backend_name = ToString(kind);
  return *this;
}

EngineConfig& EngineConfig::WithThreads(int n) {
  if (n < 1) {
    throw std::invalid_argument("EngineConfig::WithThreads: need >= 1 thread");
  }
  threads = n;
  return *this;
}

EngineConfig& EngineConfig::WithBatchSize(std::int64_t n) {
  if (n < 1) {
    throw std::invalid_argument("EngineConfig::WithBatchSize: need >= 1");
  }
  batch_size = n;
  return *this;
}

EngineConfig& EngineConfig::WithModelSeed(std::uint64_t seed) {
  model_seed = seed;
  return *this;
}

EngineConfig& EngineConfig::WithHealthPolicy(const health::HealthPolicy& p) {
  health = p;
  return *this;
}

// ---------------------------------------------------------------------------
// Engine lifecycle
// ---------------------------------------------------------------------------

namespace {

/// EngineConfig is also filled as a plain struct, or edited through
/// Engine::config(), which bypasses the With* checks; a zero chunk size
/// would loop Features forever.
void ValidateConfig(const EngineConfig& config) {
  if (config.threads < 1 || config.batch_size < 1) {
    throw std::invalid_argument(
        "Engine: need threads >= 1 and batch_size >= 1, got threads=" +
        std::to_string(config.threads) +
        " batch_size=" + std::to_string(config.batch_size));
  }
}

}  // namespace

Engine::Engine(EngineConfig config, ModelFactory factory)
    : config_(std::move(config)), factory_(std::move(factory)) {
  ValidateConfig(config_);
  if (!factory_) {
    throw std::invalid_argument("Engine: null ModelFactory");
  }
}

Engine Engine::FromTrained(EngineConfig config, nn::Sequential net,
                           std::size_t classifier_start,
                           std::vector<std::int64_t> sample_shape) {
  if (classifier_start > net.size()) {
    throw std::invalid_argument(
        "Engine::FromTrained: classifier_start " +
        std::to_string(classifier_start) + " > network size " +
        std::to_string(net.size()));
  }
  Engine engine(std::move(config), std::move(net), classifier_start);
  engine.sample_shape_ = std::move(sample_shape);
  return engine;
}

Engine::Engine(EngineConfig config, nn::Sequential net,
               std::size_t classifier_start)
    : config_(std::move(config)),
      net_(std::move(net)),
      classifier_start_(classifier_start),
      trained_(true) {
  ValidateConfig(config_);
}

Engine Engine::FromArtifact(const std::string& path) {
  return FromArtifact(path, io::LoadArtifactOptions{});
}

Engine Engine::FromArtifact(const std::string& path, EngineConfig config) {
  return FromArtifact(path, std::move(config), io::LoadArtifactOptions{});
}

Engine Engine::FromArtifact(const std::string& path,
                            const io::LoadArtifactOptions& options) {
  io::LoadedArtifact artifact = io::LoadEngineArtifact(path, options);
  Engine engine(std::move(artifact.config), std::move(artifact.net),
                artifact.classifier_start);
  engine.compiled_ =
      std::make_unique<core::BnnProgram>(std::move(artifact.program));
  engine.artifact_load_info_ = artifact.info;
  return engine;
}

Engine Engine::FromArtifact(const std::string& path, EngineConfig config,
                            const io::LoadArtifactOptions& options) {
  io::LoadedArtifact artifact = io::LoadEngineArtifact(path, options);
  Engine engine(std::move(config), std::move(artifact.net),
                artifact.classifier_start);
  engine.compiled_ =
      std::make_unique<core::BnnProgram>(std::move(artifact.program));
  engine.artifact_load_info_ = artifact.info;
  return engine;
}

void Engine::SaveArtifact(const std::string& path,
                          const io::ArtifactWriteOptions& options) {
  RequireTrained("SaveArtifact");
  if (!compiled_) Compile();
  io::SaveEngineArtifact(path, config_, net_, classifier_start_, *compiled_,
                         options);
}

nn::FitResult Engine::Train(const nn::Dataset& train, const nn::Dataset& val) {
  if (!factory_) {
    throw std::logic_error(
        "Engine::Train: engine was built FromTrained (no ModelFactory); "
        "construct with a factory to retrain");
  }
  Rng rng(config_.model_seed);
  ModelSpec spec = factory_(config_, rng);
  net_ = std::move(spec.net);
  classifier_start_ = spec.classifier_start;
  sample_shape_.assign(train.x.shape().begin() + 1, train.x.shape().end());
  compiled_.reset();
  health_.reset();  // scoped to the backend it watched
  backend_.reset();
  const nn::FitResult fit = nn::Fit(net_, train, val, config_.train);
  trained_ = true;
  return fit;
}

const core::BnnProgram& Engine::Compile() {
  RequireTrained("Compile");
  if (config_.strategy == core::BinarizationStrategy::kReal) {
    throw std::logic_error(
        "Engine::Compile: strategy kReal has no binarized classifier to "
        "compile; use Evaluate() on the float network instead");
  }
  // The per-operator walk needs the activation shape entering the classifier
  // (conv stages carry spatial extent). Fold a zero probe sample through the
  // float prefix: shapes are data-independent and Infer mutates nothing.
  core::StageShape input_shape{};
  if (!sample_shape_.empty()) {
    Shape probe_shape;
    probe_shape.push_back(1);
    probe_shape.insert(probe_shape.end(), sample_shape_.begin(),
                       sample_shape_.end());
    const Tensor out = core::InferPrefix(net_, Tensor(probe_shape),
                                         classifier_start_);
    input_shape = out.rank() == 4
                      ? core::StageShape{out.dim(1), out.dim(2), out.dim(3)}
                      : core::StageShape{out.size(), 1, 1};
  }
  compiled_ = std::make_unique<core::BnnProgram>(
      core::CompileProgram(net_, classifier_start_, input_shape));
  health_.reset();
  backend_.reset();
  return *compiled_;
}

InferenceBackend& Engine::Deploy() { return Deploy(config_.backend_name); }

InferenceBackend& Engine::Deploy(BackendKind kind) {
  return Deploy(ToString(kind));
}

InferenceBackend& Engine::Deploy(const std::string& backend_name) {
  if (!compiled_) Compile();
  health_.reset();  // the manager's scores describe the old backend
  backend_ = MakeBackend(backend_name, *compiled_, config_.backend);
  return *backend_;
}

InferenceBackend& Engine::EnsureDeployed() {
  if (!backend_) Deploy();
  return *backend_;
}

// ---------------------------------------------------------------------------
// Serving
// ---------------------------------------------------------------------------

Tensor Engine::Features(const Tensor& x) {
  ValidateConfig(config_);
  const std::int64_t n = x.dim(0);
  const std::int64_t sample_elems = n > 0 ? x.size() / n : 0;
  Tensor features({n, 0});
  for (std::int64_t start = 0; start < n; start += config_.batch_size) {
    const std::int64_t stop = std::min(n, start + config_.batch_size);
    Shape batch_shape = x.shape();
    batch_shape[0] = stop - start;
    // Rows of a row-major tensor are one contiguous block: slice in bulk.
    Tensor batch(batch_shape,
                 std::vector<float>(x.data() + start * sample_elems,
                                    x.data() + stop * sample_elems));
    Tensor out = core::InferPrefix(net_, batch, classifier_start_);
    if (out.rank() > 2) out = out.Reshape({stop - start, -1});
    if (features.dim(1) == 0) {
      features = Tensor({n, out.dim(1)});
    }
    std::copy(out.data(), out.data() + out.size(),
              features.data() + start * out.dim(1));
  }
  return features;
}

std::vector<std::int64_t> Engine::PredictRows(const Tensor& features) {
  const std::int64_t n = features.dim(0);
  const std::int64_t f = features.dim(1);
  if (f != backend_->input_size()) {
    throw std::invalid_argument(
        "Engine: feature width " + std::to_string(f) +
        " != backend input size " + std::to_string(backend_->input_size()));
  }
  // Pack the whole feature set once (it used to be re-packed row by row on
  // every prediction call); every downstream path works on packed batches.
  const core::BitMatrix packed = core::BitMatrix::FromSignRows(
      std::span<const float>(features.data(), static_cast<std::size_t>(n * f)),
      n, f);

  std::int64_t workers = config_.threads;
  if (!backend_->SupportsConcurrentInference()) workers = 1;
  workers = std::clamp<std::int64_t>(workers, 1, std::max<std::int64_t>(n, 1));

  if (workers == 1) {
    return backend_->PredictPacked(packed);
  }

  // Each row's prediction is a pure function of the row for concurrent-safe
  // backends, and workers own disjoint contiguous shards served as one
  // packed batch each, so the result is identical for any worker count.
  std::vector<std::int64_t> preds(static_cast<std::size_t>(n));
  const std::int64_t chunk = (n + workers - 1) / workers;
  std::vector<std::thread> pool;
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(workers));
  for (std::int64_t w = 0; w < workers; ++w) {
    const std::int64_t begin = w * chunk;
    const std::int64_t end = std::min(n, begin + chunk);
    if (begin >= end) break;
    pool.emplace_back([&, w, begin, end] {
      try {
        const std::vector<std::int64_t> shard =
            backend_->PredictPacked(packed.RowSlice(begin, end));
        std::copy(shard.begin(), shard.end(), preds.begin() + begin);
      } catch (...) {
        errors[static_cast<std::size_t>(w)] = std::current_exception();
      }
    });
  }
  for (auto& t : pool) t.join();
  for (const auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  return preds;
}

std::vector<std::int64_t> Engine::Predict(const Tensor& batch) {
  if (!backend_) {
    throw std::logic_error("Engine::Predict: no deployed backend; call "
                           "Deploy() first");
  }
  if (batch.rank() < 1) {
    throw std::invalid_argument("Engine::Predict: batch must have a sample "
                                "axis, got " + ShapeToString(batch.shape()));
  }
  if (batch.dim(0) == 0) return {};
  return PredictRows(Features(batch));
}

double Engine::Evaluate(const nn::Dataset& data) {
  RequireTrained("Evaluate");
  data.Validate();
  if (data.size() == 0) {
    // Returning 0.0 here would read as "catastrophically broken model" to a
    // fleet health check; an empty evaluation set is a caller bug, rejected
    // like Predict rejects malformed batches.
    throw std::invalid_argument(
        "Engine::Evaluate: empty dataset (accuracy is undefined over zero "
        "samples)");
  }
  if (!backend_) {
    ValidateConfig(config_);
    return nn::Evaluate(net_, data, config_.batch_size);
  }
  const std::vector<std::int64_t> preds = PredictRows(Features(data.x));
  std::int64_t hits = 0;
  for (std::size_t i = 0; i < preds.size(); ++i) {
    if (preds[i] == data.y[i]) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(data.size());
}

CvStats Engine::CrossValidate(const nn::Dataset& data, std::int64_t folds) {
  if (!factory_) {
    throw std::logic_error("Engine::CrossValidate: needs a ModelFactory");
  }
  Rng fold_rng(config_.fold_seed);
  const auto fold_idx = nn::StratifiedKFold(data.y, folds, fold_rng);
  CvStats stats;
  for (std::int64_t f = 0; f < folds; ++f) {
    const nn::FoldSplit split = nn::MakeFold(data, fold_idx, f);
    Rng model_rng(config_.model_seed + static_cast<std::uint64_t>(f));
    ModelSpec spec = factory_(config_, model_rng);
    nn::TrainConfig tc = config_.train;
    tc.seed = config_.train.seed + static_cast<std::uint64_t>(f);
    const nn::FitResult fit =
        nn::Fit(spec.net, split.train, split.validation, tc);
    stats.per_fold.push_back(fit.final_val_accuracy);
  }
  stats.mean = Mean(stats.per_fold);
  stats.stddev = StdDev(stats.per_fold);
  return stats;
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

nn::Sequential& Engine::net() {
  RequireTrained("net");
  return net_;
}

const nn::Sequential& Engine::net() const {
  RequireTrained("net");
  return net_;
}

const core::BnnProgram& Engine::compiled_program() const {
  if (!compiled_) {
    throw std::logic_error("Engine: no compiled program; call Compile() first");
  }
  return *compiled_;
}

InferenceBackend& Engine::backend() const {
  if (!backend_) {
    throw std::logic_error("Engine: no deployed backend; call Deploy() first");
  }
  return *backend_;
}

bool Engine::SupportsHealth() const {
  return backend_ != nullptr && backend_->health_adapter() != nullptr;
}

health::HealthManager& Engine::Health() {
  if (!backend_) {
    throw std::logic_error("Engine::Health: no deployed backend; call "
                           "Deploy() first");
  }
  health::BackendHealthAdapter* adapter = backend_->health_adapter();
  if (adapter == nullptr) {
    throw std::logic_error("Engine::Health: backend '" + backend_->name() +
                           "' has no health surface (pure software "
                           "reference)");
  }
  if (!health_) {
    health_ = std::make_unique<health::HealthManager>(*compiled_, *adapter,
                                                      config_.health);
  }
  return *health_;
}

EnergyBreakdown Engine::EnergyReport() const {
  return backend().EnergyReport();
}

std::string Engine::Describe() const {
  std::ostringstream os;
  os << "Engine[" << core::ToString(config_.strategy) << "]";
  os << " trained=" << (trained_ ? "yes" : "no");
  if (compiled_) {
    os << ", compiled: [" << compiled_->Describe() << "], "
       << compiled_->TotalWeightBits() << " weight bits";
  }
  if (backend_) {
    os << "\n  backend: " << backend_->Describe();
    os << "\n  threads: " << config_.threads
       << (backend_->SupportsConcurrentInference() ? "" : " (serialized)");
  }
  return os.str();
}

void Engine::RequireTrained(const char* what) const {
  if (!trained_) {
    throw std::logic_error(std::string("Engine::") + what +
                           ": no trained model; call Train() first");
  }
}

}  // namespace rrambnn::engine
