// Maps a compiled core::BnnProgram onto a fleet of XNOR macros and runs
// bit-true inference through the simulated RRAM arrays — the full Fig. 5
// execution model: weights programmed once by the memory controller, then
// inference = row activations + in-sense-amplifier XNOR + popcount +
// threshold, with partial popcounts of column tiles accumulated in shared
// logic.
//
// Every GEMM stage of the program (dense layer, im2col-lowered convolution,
// depthwise convolution) becomes one fabric region of tiled macros, mapped
// in stage order; pooling / reshape / sign stages run in the digital
// periphery. A conv stage's region is read once per output pixel (the patch
// gather feeds the row drivers), a depthwise stage reads one row per
// (channel, pixel) — InferenceCost accounts for the re-reads.
//
// At zero device error the mapped engine is bit-exact against
// core::BnnProgram (enforced by tests); with device non-idealities enabled
// it exhibits exactly the Fig. 4 error statistics.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "arch/energy_model.h"
#include "arch/xnor_macro.h"
#include "core/bnn_program.h"

namespace rrambnn::arch {

struct MapperConfig {
  std::int64_t macro_rows = 64;
  std::int64_t macro_cols = 64;
  rram::DeviceParams device;
  EnergyParams energy;
  std::uint64_t seed = 1;
  /// Endurance age (cycles) applied to every device before programming:
  /// set to e.g. 7e8 to deploy on a heavily cycled chip.
  std::uint64_t pre_stress_cycles = 0;
};

/// A BnnProgram deployed on simulated RRAM macros.
class MappedBnn {
 public:
  MappedBnn(const core::BnnProgram& program, const MapperConfig& config);

  std::int64_t num_classes() const { return program_.num_classes(); }
  std::int64_t input_size() const { return program_.input_size(); }

  /// The deployed program's digital periphery (thresholds / affine / stage
  /// dataflow). Weights in here are the *intended* bits; what the fabric
  /// actually senses is ReadbackSnapshot().
  const core::BnnProgram& program() const { return program_; }

  /// Class scores computed entirely through array reads.
  std::vector<float> Scores(const core::BitVector& x);

  /// Argmax prediction through the arrays.
  std::int64_t Predict(const core::BitVector& x);

  /// Class scores for a packed batch [N, input_size], row-major
  /// [N, num_classes]. With deterministic senses (DeterministicReads())
  /// this serves through the packed readback snapshot and the bit-plane
  /// GEMM; otherwise it falls back to the per-row transaction-level
  /// simulation. Either way the result is bit-identical to calling
  /// Scores() row by row.
  std::vector<float> ScoresBatch(const core::BitMatrix& batch);

  /// Argmax per row of a packed batch (first maximum wins, as Predict).
  std::vector<std::int64_t> PredictPacked(const core::BitMatrix& batch);

  /// Batch prediction over real feature rows [N, F] (binarized by sign).
  std::vector<std::int64_t> PredictBatch(const Tensor& features);

  /// True when every PCSA sense is deterministic (zero sense offset), so
  /// the fabric's read behaviour can be snapshotted into packed bit planes.
  bool DeterministicReads() const;

  /// Packed bit-plane snapshot of what the chip's PCSAs return for every
  /// programmed synapse: the deployed program *as the hardware reads it*,
  /// including programming errors — an introspection/export view. Read
  /// errors on padding cells are folded into the thresholds (hidden
  /// stages, exact integer fold; per-pixel thresholds absorb the same
  /// per-row term at every pixel) and offsets (output stage, a float fold
  /// that is algebraically equivalent but can differ from the fabric in
  /// the last ulp when padding read errors exist). ScoresBatch() does NOT
  /// serve through this program — it uses the internal planes with integer
  /// popcount biases, which are bit-exact in every case. Requires
  /// DeterministicReads(); rebuilt lazily after Stress().
  const core::BnnProgram& ReadbackSnapshot();

  /// Eagerly builds the readback planes when reads are deterministic (no-op
  /// on a stochastic fabric). The planes are otherwise built lazily on the
  /// first batch, which mutates the fabric — callers that will serve batches
  /// from several threads under a shared lock must warm them first, while
  /// they still hold the fabric exclusively (construction, reprogram, drift).
  void WarmReadback();

  /// Ages all devices, then optionally reprograms (refresh).
  void Stress(std::uint64_t cycles, bool reprogram_after);

  /// Conductance-drift event over the whole fabric (fleet health aging
  /// simulation): each cell — padding included, drift does not know which
  /// synapses carry weights — flips its sensed value with probability `ber`
  /// by swapping its 2T2R pair resistances. Fault sites are drawn through
  /// core::ForEachFaultSite, so the statistics match software fault
  /// injection at the same rate. Invalidates the readback planes.
  void InjectDrift(double ber, Rng& rng);

  /// Total number of macros across all stages.
  std::int64_t num_macros() const;

  /// Fraction of programmed synapses that carry model weights (vs padding).
  double Utilization() const;

  /// Cost of the one-time weight programming phase.
  CostReport ProgrammingCost() const;

  /// Cost of a single inference (all row reads + popcounts), using the
  /// analytic energy model; independent of input values. Conv / depthwise
  /// regions charge one full read per output pixel.
  CostReport InferenceCost() const;

  /// Total fabric area.
  double AreaMm2() const;

 private:
  class FabricOracle;  // core::StagePopcounter over the mapped regions

  struct MappedLayer {
    std::int64_t in_features = 0;
    std::int64_t out_features = 0;
    std::int64_t row_tiles = 0;
    std::int64_t col_tiles = 0;
    /// Fabric reads of this region per inference: 1 for dense, the number
    /// of output pixels for conv / depthwise stages.
    std::int64_t reads_per_inference = 1;
    // Tile (rt, ct) at index rt * col_tiles + ct.
    std::vector<std::unique_ptr<XnorMacro>> macros;
  };

  /// Computes popcount(XNOR(w_r, x)) for rows [row_begin, row_end) of a
  /// mapped region by accumulating per-tile partial popcounts into
  /// out[r - row_begin]. Tiles are visited (rt, ct, r) — the historical
  /// order, so stochastic sense draws stay reproducible.
  void LayerPopcounts(MappedLayer& layer, const core::BitVector& x,
                      std::int64_t row_begin, std::int64_t row_end,
                      std::int64_t* out);

  MappedLayer MapMatrix(const core::BitMatrix& weights);

  /// Deterministic readback of the whole fabric: per mapped region, the
  /// packed bit plane of sensed logical weights plus the per-row count of
  /// padding cells that read back -1 (each contributes +1 to every popcount
  /// of that row, independent of the input). Keeping the padding term as an
  /// integer keeps the batched path bit-exact against the transaction-level
  /// simulation even when padding cells carry programming errors.
  struct ReadbackPlanes {
    std::vector<core::BitMatrix> weights;
    std::vector<std::vector<std::int32_t>> pad_errors;
  };

  /// Lazily builds (and caches) the readback planes; requires
  /// DeterministicReads().
  const ReadbackPlanes& Planes();

  core::BnnProgram program_;  // thresholds/affine/dataflow (digital periphery)
  MapperConfig config_;
  std::vector<MappedLayer> layers_;  // one region per GEMM stage, in order
  std::uint64_t seed_counter_ = 0;

  // Lazily built readback state (DeterministicReads() only); invalidated
  // whenever device state changes.
  std::unique_ptr<ReadbackPlanes> planes_;
  std::unique_ptr<core::BnnProgram> snapshot_;

  // Scratch hoisted out of the per-row hot loop, reused across the rows of
  // a batch (the fabric is a serialized resource, so member scratch is safe).
  std::vector<std::vector<int>> tile_input_scratch_;
};

}  // namespace rrambnn::arch
