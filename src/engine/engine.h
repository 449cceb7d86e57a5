// Engine: the one front door to the paper's whole workflow.
//
//   train -> compile -> deploy -> serve
//
// An Engine owns a (partially) binarized network, compiles its classifier
// into XNOR-popcount form (BN folded into integer thresholds), deploys the
// compiled model onto a pluggable execution backend selected by name from
// the BackendRegistry, and serves batched predictions, sharding feature rows
// across worker threads when the backend allows concurrent inference.
//
//   engine::EngineConfig cfg;
//   cfg.WithStrategy(core::BinarizationStrategy::kBinaryClassifier)
//      .WithTrain(tc)
//      .WithBackend("rram")
//      .WithThreads(4);
//   engine::Engine eng(cfg, MakeEcgModel);
//   eng.Train(train, val);
//   eng.Compile();
//   eng.Deploy();
//   double acc = eng.Evaluate(val);
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/bnn_program.h"
#include "core/compile.h"
#include "core/strategy.h"
#include "engine/registry.h"
#include "health/manager.h"
#include "io/artifact_info.h"
#include "nn/dataset.h"
#include "nn/sequential.h"
#include "nn/trainer.h"

namespace rrambnn::engine {

/// Builder-style configuration of the full pipeline. Plain-struct access
/// works too; the With* setters exist for fluent call sites and check their
/// argument, and every Engine constructor checks threads and batch_size.
struct EngineConfig {
  /// Which parts of the network are binarized (decides whether Compile()
  /// has a classifier to fold).
  core::BinarizationStrategy strategy =
      core::BinarizationStrategy::kBinaryClassifier;
  /// Training recipe forwarded to nn::Fit.
  nn::TrainConfig train;
  /// Backend construction parameters (mapper geometry, device statistics,
  /// energy calibration, fault-injection BER/seed).
  BackendSpec backend;
  /// Registry key used by Deploy() with no argument.
  std::string backend_name = "reference";
  /// Worker threads for Evaluate/Predict row sharding. Backends that do not
  /// support concurrent inference are served by one worker regardless.
  /// Engine construction rejects values below 1.
  int threads = 1;
  /// Rows per chunk of the float feature-extractor prefix (Features). Small
  /// enough that a chunk's activations stay in L2 (8 EEG demo rows are about
  /// 0.8 MB). Engine construction rejects values below 1.
  std::int64_t batch_size = 8;
  /// Seed of the model-building Rng (weight init).
  std::uint64_t model_seed = 3;
  /// Seed of the cross-validation fold split.
  std::uint64_t fold_seed = 1234;
  /// Fleet health estimation/healing policy of the deployed backend (see
  /// health/health.h). A serving-side concern like `threads`: deliberately
  /// not stored in `.rbnn` artifacts.
  health::HealthPolicy health;

  EngineConfig& WithStrategy(core::BinarizationStrategy s);
  EngineConfig& WithTrain(const nn::TrainConfig& t);
  EngineConfig& WithMapper(const arch::MapperConfig& m);
  EngineConfig& WithDevice(const rram::DeviceParams& d);
  EngineConfig& WithEnergy(const arch::EnergyParams& e);
  EngineConfig& WithFaultBer(double ber, std::uint64_t seed = 100);
  EngineConfig& WithRramShards(int shards);
  EngineConfig& WithBackend(const std::string& name);
  EngineConfig& WithBackend(BackendKind kind);
  EngineConfig& WithThreads(int n);
  EngineConfig& WithBatchSize(std::int64_t n);
  EngineConfig& WithModelSeed(std::uint64_t seed);
  EngineConfig& WithHealthPolicy(const health::HealthPolicy& p);
};

/// A freshly built (untrained) network plus the index of its first
/// classifier layer — what a ModelFactory returns.
struct ModelSpec {
  nn::Sequential net;
  std::size_t classifier_start = 0;
};

/// Builds a model for the configured strategy. Called once by Train() and
/// once per fold by CrossValidate().
using ModelFactory = std::function<ModelSpec(const EngineConfig&, Rng&)>;

/// Cross-validation summary (per-fold final validation accuracies).
struct CvStats {
  double mean = 0.0;
  double stddev = 0.0;
  std::vector<double> per_fold;
};

class Engine {
 public:
  /// Engine that builds its own model through `factory`.
  Engine(EngineConfig config, ModelFactory factory);

  /// Engine around an externally trained network (skips Train()).
  /// `sample_shape` is the per-sample input shape (the dims after the batch
  /// axis, e.g. {C, H, W} for image nets); it lets Compile() derive the
  /// spatial extent entering the classifier. Omit it for dense classifiers,
  /// whose input width is read off the first BinaryDense layer.
  static Engine FromTrained(EngineConfig config, nn::Sequential net,
                            std::size_t classifier_start,
                            std::vector<std::int64_t> sample_shape = {});

  /// Engine rebuilt from a saved artifact (see io/artifact.h): trained and
  /// compiled on arrival, so Deploy()/Evaluate()/Predict() work with no
  /// Train() or Compile() in the process — the serve half of the
  /// train-once / serve-anywhere lifecycle. The first overload serves under
  /// the configuration stored in the artifact; the second replaces it with
  /// `config` (e.g. a server's thread count or backend choice) while keeping
  /// the stored network and compiled model. Throws std::runtime_error for
  /// missing/corrupt/version-mismatched files. The overloads taking
  /// io::LoadArtifactOptions control the zero-copy path: a v2 artifact is
  /// mmap-ed by default (the model's bulk data stays shared page cache);
  /// options.allow_mmap = false forces private copies, options.verify =
  /// false defers per-chunk CRC checks to first access. v1 artifacts always
  /// copy. Inspect what happened through artifact_load_info().
  static Engine FromArtifact(const std::string& path);
  static Engine FromArtifact(const std::string& path, EngineConfig config);
  static Engine FromArtifact(const std::string& path,
                             const io::LoadArtifactOptions& options);
  static Engine FromArtifact(const std::string& path, EngineConfig config,
                             const io::LoadArtifactOptions& options);

  Engine(Engine&&) = default;
  Engine& operator=(Engine&&) = default;

  // -- Lifecycle ------------------------------------------------------------

  /// Builds the model (ModelFactory) and trains it. Invalidates any earlier
  /// Compile()/Deploy() state.
  nn::FitResult Train(const nn::Dataset& train, const nn::Dataset& val);

  /// Compiles the trained classifier into the deployable multi-stage packed
  /// program (conv/depthwise stages lowered through packed im2col, BN folded
  /// into integer thresholds; a dense-only classifier yields the one-GEMM
  /// special case). Throws std::logic_error before Train() and for the kReal
  /// strategy (nothing is binarized).
  const core::BnnProgram& Compile();

  /// Writes the trained-and-compiled pipeline to a versioned, checksummed
  /// artifact file (compiling first if needed — so kReal strategies throw,
  /// as in Compile()). The artifact is everything a serving process needs;
  /// load it with Engine::FromArtifact. `options` picks the container
  /// version and cold-storage compression (default: v2, uncompressed).
  void SaveArtifact(const std::string& path,
                    const io::ArtifactWriteOptions& options = {});

  /// Instantiates the configured (or named) backend for the compiled model.
  /// Compiles first if needed. Returns the live backend.
  InferenceBackend& Deploy();
  InferenceBackend& Deploy(const std::string& backend_name);
  InferenceBackend& Deploy(BackendKind kind);

  /// Idempotent Deploy(): returns the live backend, deploying the configured
  /// one only when none exists yet. Deploy() always rebuilds the backend
  /// (re-programming an RRAM fabric re-draws its noise), which a model
  /// registry serving many requests must not do per lookup — this is the
  /// registry-friendly entry point.
  InferenceBackend& EnsureDeployed();

  // -- Serving --------------------------------------------------------------

  /// Class predictions for a batch of raw inputs (same layout the network
  /// was trained on). Runs the float prefix in minibatches, then shards
  /// classifier rows across worker threads. Requires Deploy().
  std::vector<std::int64_t> Predict(const Tensor& batch);

  /// Float feature rows [N, F] of the prefix [0, classifier_start): the
  /// Layer::Infer chain run over config().batch_size rows at a time, the
  /// host half of Predict(). The bytes do not depend on the chunk size.
  Tensor Features(const Tensor& x);

  /// Argmax accuracy over a dataset. After Deploy() this measures the
  /// deployed pipeline (prefix + backend); before Deploy() it measures the
  /// trained float network. Thread count never changes the result.
  double Evaluate(const nn::Dataset& data);

  /// Trains a fresh model per fold (stratified k-fold) and reports the
  /// final float validation accuracies. Does not disturb the engine's own
  /// trained model.
  CvStats CrossValidate(const nn::Dataset& data, std::int64_t folds);

  // -- Introspection --------------------------------------------------------

  bool trained() const { return trained_; }
  bool compiled() const { return compiled_ != nullptr; }
  bool deployed() const { return backend_ != nullptr; }

  nn::Sequential& net();
  const nn::Sequential& net() const;
  std::size_t classifier_start() const { return classifier_start_; }
  /// The compiled multi-stage program. Throws std::logic_error before
  /// Compile().
  const core::BnnProgram& compiled_program() const;
  InferenceBackend& backend() const;

  /// True when the deployed backend exposes a health surface (every
  /// substrate except the exact software reference). False before Deploy().
  bool SupportsHealth() const;

  /// True when Predict() on this deployed engine is a pure read — the
  /// backend's serving path mutates nothing (see
  /// InferenceBackend::concurrent_readers) and the float feature prefix runs
  /// through the side-effect-free Layer::Infer chain — so many threads may
  /// Predict() at once under a shared lock. False before Deploy().
  bool SupportsConcurrentPredict() const {
    return backend_ != nullptr && backend_->concurrent_readers();
  }

  /// The fleet health manager of the deployed backend, created lazily over
  /// its adapter under this config's health policy and reset whenever the
  /// backend is rebuilt (Deploy re-programs fabrics, so old scores would
  /// describe hardware that no longer exists). Throws std::logic_error
  /// before Deploy() and for backends with no health surface.
  health::HealthManager& Health();

  /// Deployment cost figures of the live backend.
  EnergyBreakdown EnergyReport() const;

  /// Multi-line summary of the pipeline state.
  std::string Describe() const;

  const EngineConfig& config() const { return config_; }
  EngineConfig& config() { return config_; }

  /// How FromArtifact materialized this engine (format version, load mode,
  /// resident vs mapped bytes). Default-constructed (version 0) for engines
  /// not built from an artifact.
  const io::ArtifactLoadInfo& artifact_load_info() const {
    return artifact_load_info_;
  }

 private:
  /// FromTrained delegate: pre-trained network, no factory.
  Engine(EngineConfig config, nn::Sequential net, std::size_t classifier_start);

  /// Backend predictions for feature rows: the whole feature set is
  /// sign-packed once, then served in packed batches — sharded across
  /// threads when the backend supports concurrent inference.
  std::vector<std::int64_t> PredictRows(const Tensor& features);

  void RequireTrained(const char* what) const;

  EngineConfig config_;
  ModelFactory factory_;
  nn::Sequential net_;
  std::size_t classifier_start_ = 0;
  /// Per-sample input dims (shape minus the batch axis), captured by Train()
  /// from the training set or passed to FromTrained; Compile() folds them
  /// through the float prefix to learn the classifier's input StageShape.
  /// Empty means "unknown": fine for dense classifiers, fatal for conv.
  std::vector<std::int64_t> sample_shape_;
  bool trained_ = false;
  std::unique_ptr<core::BnnProgram> compiled_;
  std::unique_ptr<InferenceBackend> backend_;
  std::unique_ptr<health::HealthManager> health_;  // scoped to backend_
  io::ArtifactLoadInfo artifact_load_info_;
};

}  // namespace rrambnn::engine
