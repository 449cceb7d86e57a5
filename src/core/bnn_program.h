// Compiled multi-stage binarized program, the one compiled form every
// backend, the RRAM mapper, health and serde execute: an ordered list of
// packed stages, so the paper's dense medical classifiers and binarized
// convolutional networks (MobileNet-class) run on the same XNOR-popcount
// substrate. A dense classifier is the one-GEMM-stage-per-layer case.
//
// A BnnProgram is a chain of stages over packed {-1,+1} activations laid out
// in CHW bit order (channel-major, then rows, then columns — exactly the
// flattened order of a float [C, H, W] tensor, so Flatten is a packing
// no-op):
//
//   kPackedGemm  one weight matrix executed by XNOR-popcount.
//                kDense:      weights [units, in_bits]
//                kConv:       weights [units, C*kh*kw]   — each output pixel
//                             gathers an im2col patch of the input bits and
//                             multiplies it against every unit row
//                kDepthwise:  weights [C, kh*kw] — channel c's patch meets
//                             only weight row c
//                Hidden stages binarize through folded-BN integer popcount
//                thresholds; the single output stage (dense, always last)
//                keeps the per-class float affine over the integer dot.
//   kPool        max pooling over {-1,+1} bits == bitwise OR of the window
//                (pooling carries no padding here, see compile.h).
//   kReshape     Flatten marker: bits unchanged, shape becomes {bits,1,1}.
//   kSign        Sign over already-binary bits: the identity, kept so the
//                stage list mirrors the source grammar.
//
// Padding note (kConv/kDepthwise): out-of-range taps of a padded patch are
// packed as bit 0, i.e. they read as -1 through XNOR-popcount while the
// float reference pads with 0.0. Compilation absorbs the difference into
// *per-pixel* thresholds (see FoldThresholdPadded in compile.cpp), so
// per_pixel_thresholds is true exactly for padded conv stages.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/bitops.h"
#include "tensor/tensor.h"

namespace rrambnn::core {

/// Argmax per row of a row-major [rows, classes] score matrix; the first
/// maximum wins, matching single-row Predict() everywhere.
std::vector<std::int64_t> ArgmaxRows(std::span<const float> scores,
                                     std::int64_t rows, std::int64_t classes);

/// Activation shape between stages. Dense activations are {bits, 1, 1}.
struct StageShape {
  std::int64_t c = 0;
  std::int64_t h = 0;
  std::int64_t w = 0;

  std::int64_t bits() const { return c * h * w; }
  bool operator==(const StageShape&) const = default;
};

/// Spatial geometry of a conv / depthwise / pool stage over its input shape.
struct StageGeometry {
  std::int64_t in_channels = 0;
  std::int64_t in_h = 0;
  std::int64_t in_w = 0;
  std::int64_t kernel_h = 0;
  std::int64_t kernel_w = 0;
  std::int64_t stride_h = 1;
  std::int64_t stride_w = 1;
  std::int64_t pad_h = 0;
  std::int64_t pad_w = 0;

  std::int64_t OutH() const {
    return (in_h + 2 * pad_h - kernel_h) / stride_h + 1;
  }
  std::int64_t OutW() const {
    return (in_w + 2 * pad_w - kernel_w) / stride_w + 1;
  }
  /// Output pixels per channel/unit.
  std::int64_t NumPatches() const { return OutH() * OutW(); }
  /// im2col patch width of a full-input conv stage.
  std::int64_t PatchSize() const { return in_channels * kernel_h * kernel_w; }
  /// Patch width of one channel (the depthwise patch).
  std::int64_t ChannelPatchSize() const { return kernel_h * kernel_w; }
  bool padded() const { return pad_h > 0 || pad_w > 0; }

  bool operator==(const StageGeometry&) const = default;
};

enum class GemmLowering : std::uint8_t {
  kDense = 0,
  kConv = 1,
  kDepthwise = 2,
};

/// One XNOR-popcount weight matrix plus its folded-BN decision parameters.
struct PackedGemmStage {
  GemmLowering lowering = GemmLowering::kDense;
  /// Spatial geometry; meaningful only for kConv / kDepthwise.
  StageGeometry geom;
  /// kDense [units, in_bits]; kConv [units, C*kh*kw]; kDepthwise [C, kh*kw].
  BitMatrix weights;
  /// Hidden stages: popcount thresholds — one per unit, or one per
  /// (unit, output pixel) at index u * NumPatches() + p when
  /// per_pixel_thresholds (padded conv stages; the per-pixel padding
  /// correction cannot fold into a single per-unit integer).
  std::vector<std::int32_t> thresholds;
  bool per_pixel_thresholds = false;
  /// True for the final dense stage: produce affine class scores instead of
  /// binarized activations.
  bool is_output = false;
  std::vector<float> scale;   // output stage: per-class multiplier on the dot
  std::vector<float> offset;  // output stage: per-class additive term

  /// Weight rows: dense units, conv output channels, or depthwise channels.
  std::int64_t units() const { return weights.rows(); }
  std::int64_t num_patches() const {
    return lowering == GemmLowering::kDense ? 1 : geom.NumPatches();
  }
  std::int64_t in_bits() const {
    return lowering == GemmLowering::kDense
               ? weights.cols()
               : geom.in_channels * geom.in_h * geom.in_w;
  }
  std::int64_t out_bits() const { return units() * num_patches(); }
};

/// Max pooling window; geom.pad_* must be zero.
struct PoolStage {
  StageGeometry geom;
};

enum class StageKind : std::uint8_t {
  kPackedGemm = 0,
  kPool = 1,
  kReshape = 2,
  kSign = 3,
};

struct ProgramStage {
  StageKind kind = StageKind::kPackedGemm;
  PackedGemmStage gemm;  // kind == kPackedGemm
  PoolStage pool;        // kind == kPool
  /// Activation shape this stage produces.
  StageShape out_shape;
};

/// Popcount oracle for the single-row transactional execution path: how a
/// substrate answers popcount(XNOR(weight row r of GEMM stage g, x)) for
/// rows [row_begin, row_end). The default executor reads the program's own
/// weight matrices; arch::MappedBnn implements it with simulated fabric
/// reads so device non-idealities flow through unchanged. The returned
/// popcounts are directly comparable against the stage thresholds — any
/// substrate-level bias (padding cells, sense offsets) is the
/// implementation's to fold in.
class StagePopcounter {
 public:
  virtual ~StagePopcounter() = default;
  virtual void StagePopcounts(std::size_t gemm_index, const BitVector& x,
                              std::int64_t row_begin, std::int64_t row_end,
                              std::int64_t* out) = 0;
};

/// Per-GEMM-stage weight substitution for the batched execution path: run
/// the program's dataflow over somebody else's bit planes (an RRAM readback
/// snapshot). `pop_bias` (nullable) is added to every raw popcount of the
/// stage before thresholds/dot — the mapper's input-independent padding-cell
/// correction, one entry per weight row.
struct StageSubstrate {
  const BitMatrix* weights = nullptr;
  const std::int32_t* pop_bias = nullptr;
};

/// Dense hidden stage: weights [units, in], one popcount threshold per unit.
ProgramStage DenseHiddenStage(BitMatrix weights,
                              std::vector<std::int32_t> thresholds);

/// Dense output stage: weights [classes, in] and the per-class affine over
/// the +/-1 dot.
ProgramStage DenseOutputStage(BitMatrix weights, std::vector<float> scale,
                              std::vector<float> offset);

/// The compiled multi-stage program. Construction: SetInputShape, then
/// AddStage in execution order, then Validate (compile.cpp does all three).
class BnnProgram {
 public:
  BnnProgram() = default;

  /// True when every stage is a dense GEMM — a dense classifier (serialized
  /// as the "compiled-bnn" chunk, so dense artifacts stay byte-stable).
  bool IsPureDense() const;

  void SetInputShape(StageShape shape) { input_shape_ = shape; }
  void AddStage(ProgramStage stage);

  const StageShape& input_shape() const { return input_shape_; }
  std::int64_t input_size() const { return input_shape_.bits(); }
  std::int64_t num_classes() const;

  const std::vector<ProgramStage>& stages() const { return stages_; }
  std::vector<ProgramStage>& stages() { return stages_; }
  std::size_t num_stages() const { return stages_.size(); }
  std::size_t num_gemm_stages() const;

  /// GEMM stages in execution order (the mapper programs one fabric region
  /// per entry, in this order).
  std::vector<const PackedGemmStage*> GemmStages() const;

  /// Class scores for one packed input through the program's own weights.
  std::vector<float> Scores(const BitVector& x) const;

  /// Class scores for one packed input with every GEMM popcount answered by
  /// `pop` — the transactional substrate path.
  std::vector<float> ScoresWith(const BitVector& x, StagePopcounter& pop) const;

  /// Class scores for a packed batch [N, input_size], row-major
  /// [N, num_classes]: every hidden stage through RunStageBatch, the output
  /// stage through the bit-plane GEMM. Bit-identical to Scores() per row.
  /// `substrates`, when non-empty, must hold one entry per GEMM stage and
  /// substitutes that stage's weights (+ popcount bias).
  std::vector<float> ScoresBatch(
      const BitMatrix& batch,
      std::span<const StageSubstrate> substrates = {}) const;

  std::int64_t Predict(const BitVector& x) const;
  std::vector<std::int64_t> PredictPacked(const BitMatrix& batch) const;
  /// Batch prediction over real-valued feature rows [N, input_size]
  /// (CHW-flattened for conv programs): sign-packed in one pass, then
  /// executed through the batched kernels.
  std::vector<std::int64_t> PredictBatch(const Tensor& features) const;

  /// Total weight bits across all GEMM stages (Table IV accounting).
  std::int64_t TotalWeightBits() const;

  /// Structural validation: stage chaining over shapes, geometry sanity
  /// (kernel_w <= 64 — the word-level patch gather's contract), threshold /
  /// affine sizes, every hidden threshold in [0, row width + 1], exactly
  /// one output stage and it is dense and last. Shapes, padding and derived
  /// counts are bounded by INT32_MAX and checked without overflowing, so
  /// this is safe on programs read from untrusted bytes. Throws
  /// std::invalid_argument on inconsistency.
  void Validate() const;

  /// One-line stage summary, e.g.
  /// "conv 8x12x12->16 3x3/s1 p1 | pool 2x2 | dense 2304->4 (output)".
  std::string Describe() const;

 private:
  StageShape input_shape_;
  std::vector<ProgramStage> stages_;
};

/// One hidden stage of the batched executor: packed activations
/// [N, in_bits] -> [N, out_bits]. ScoresBatch chains these calls. GEMM
/// stages fuse their work into one pass that writes output words. kConv /
/// kDepthwise stage each sample's zero-padded input rows, gather every
/// (channel, kernel row) field for all output pixels at once into a
/// pixel-planar patch block (one word per pixel per patch word), then
/// XNOR-popcount four pixels per vector against each broadcast unit row and
/// append the threshold bits u * patches + p in order as whole words.
/// Max-pool stages OR each window with word-parallel shifts. Popcounts equal
/// those of the reference kernels (BuildPatchMatrix + XnorPopcountGemm), so
/// every bit is identical.
/// `substrate` substitutes a GEMM stage's weights (+ popcount bias); reshape
/// and sign stages return the batch unchanged; the output stage throws
/// std::invalid_argument (it produces scores, not bits).
BitMatrix RunStageBatch(const ProgramStage& stage, const BitMatrix& batch,
                        const StageSubstrate& substrate = {});

/// Reference im2col: builds the patch matrix of one packed activation batch
/// — row n * NumPatches + p holds the patch of sample n's output pixel p
/// (out-of-range padded taps are bit 0 = -1). Channel range
/// [c_begin, c_end) selects full-input conv patches ([0, C)) or one
/// depthwise channel ([c, c+1)). The executor does not materialize it; tests
/// and benchmarks compare against it.
BitMatrix BuildPatchMatrix(const BitMatrix& batch, const StageGeometry& geom,
                           std::int64_t c_begin, std::int64_t c_end);

}  // namespace rrambnn::core
