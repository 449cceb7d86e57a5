// Execution-backend interface of the serving engine: one trained-and-compiled
// binarized classifier, many possible execution substrates. A backend answers
// class scores for packed binary inputs; everything upstream (float feature
// extractor, batching, threading) is owned by engine::Engine.
//
// Implementations (see engine/backends.h):
//   ReferenceBackend       exact bit-packed software execution of the
//                          compiled core::BnnProgram
//   RramBackend            simulated 2T2R RRAM fabric (arch::MappedBnn) with
//                          device non-idealities and energy accounting
//   ShardedRramBackend     several independently programmed RRAM fabrics
//                          serving one program, rows sharded across chips
//   FaultInjectionBackend  software model with i.i.d. weight-bit flips at a
//                          configurable BER (core::fault_injection)
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "arch/energy_model.h"
#include "core/bitops.h"
#include "tensor/tensor.h"

namespace rrambnn::health {
class BackendHealthAdapter;
}  // namespace rrambnn::health

namespace rrambnn::engine {

/// Deployment-cost summary of a backend. Pure software backends report
/// `available = false` and zeroed figures; hardware-model backends fill in
/// the arch-level energy/area accounting.
struct EnergyBreakdown {
  bool available = false;
  arch::CostReport programming;    // one-time weight programming
  arch::CostReport per_inference;  // each Scores() call
  double area_mm2 = 0.0;
  std::int64_t num_macros = 0;
};

/// An execution substrate for a compiled binarized classifier.
class InferenceBackend {
 public:
  virtual ~InferenceBackend() = default;

  /// Registry key of this backend ("reference", "rram", "rram-sharded",
  /// "fault").
  virtual std::string name() const = 0;

  virtual std::int64_t input_size() const = 0;
  virtual std::int64_t num_classes() const = 0;

  /// Class scores for one packed binary input.
  virtual std::vector<float> Scores(const core::BitVector& x) = 0;

  /// Class scores for a packed batch [N, input_size], row-major
  /// [N, num_classes]. The default runs Scores() per row in order.
  /// Contract: at zero device noise every backend's batch path is
  /// bit-identical to its per-row path (enforced by
  /// tests/engine/batch_serving_test.cpp). Backends with per-resource
  /// stochasticity may route batch rows differently from repeated
  /// single-row calls — ShardedRramBackend serves Scores() on chip 0 but
  /// shards a batch across all chips, so at nonzero device noise the two
  /// paths sample different chips (see its class comment).
  virtual std::vector<float> ScoresBatch(const core::BitMatrix& batch);

  /// Argmax class for one packed input. Default: argmax of Scores().
  virtual std::int64_t Predict(const core::BitVector& x);

  /// Argmax class per row of a packed batch (first maximum wins, exactly
  /// as Predict). Default: argmax over ScoresBatch().
  virtual std::vector<std::int64_t> PredictPacked(
      const core::BitMatrix& batch);

  /// Batch prediction over real-valued feature rows [N, F]: the whole batch
  /// is sign-packed in one pass, then dispatched through PredictPacked().
  virtual std::vector<std::int64_t> PredictBatch(const Tensor& features);

  /// One-line human-readable description (substrate, key parameters).
  virtual std::string Describe() const = 0;

  /// Deployment/inference cost figures (see EnergyBreakdown).
  virtual EnergyBreakdown EnergyReport() const = 0;

  /// True when Scores() is safe to call from several threads at once and
  /// each result depends only on the input (no hidden per-call state).
  /// Engine::Evaluate shards rows across threads only for such backends, so
  /// the multi-threaded result is identical to the single-threaded one.
  virtual bool SupportsConcurrentInference() const { return false; }

  /// True when the whole serving path (ScoresBatch/PredictPacked) is
  /// read-only: concurrent callers holding only a *shared* lock on the model
  /// observe bit-identical results with no internal mutation — every scratch
  /// buffer is per-call and every readback plane/snapshot is built eagerly,
  /// never lazily under the reader lock. The serving daemon uses this to run
  /// many predicts on one model in parallel; mutating operations (drift
  /// injection, reprogramming, hot reload) still require the exclusive lock.
  /// Distinct from SupportsConcurrentInference: that one only promises
  /// per-row Scores() purity for the engine's own worker sharding.
  virtual bool concurrent_readers() const { return false; }

  /// Health introspection/healing surface of this backend's physical
  /// substrate (see health/adapter.h), or null when the substrate has no
  /// notion of device health (the exact software reference). The adapter is
  /// owned by the backend and shares its lifetime.
  virtual health::BackendHealthAdapter* health_adapter() { return nullptr; }
};

}  // namespace rrambnn::engine
