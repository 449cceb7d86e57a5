#include "arch/bnn_mapper.h"

#include <algorithm>
#include <stdexcept>

#include "core/bitgemm.h"
#include "core/fault_injection.h"

namespace rrambnn::arch {

namespace {
std::int64_t CeilDiv(std::int64_t a, std::int64_t b) {
  return (a + b - 1) / b;
}
}  // namespace

/// Answers the program's popcount requests with fabric reads, so device
/// non-idealities flow through every stage kind unchanged.
class MappedBnn::FabricOracle final : public core::StagePopcounter {
 public:
  explicit FabricOracle(MappedBnn& self) : self_(self) {}

  void StagePopcounts(std::size_t gemm_index, const core::BitVector& x,
                      std::int64_t row_begin, std::int64_t row_end,
                      std::int64_t* out) override {
    self_.LayerPopcounts(self_.layers_[gemm_index], x, row_begin, row_end,
                         out);
  }

 private:
  MappedBnn& self_;
};

MappedBnn::MappedBnn(const core::BnnProgram& program,
                     const MapperConfig& config)
    : program_(program), config_(config) {
  program_.Validate();
  if (config.macro_rows <= 0 || config.macro_cols <= 0) {
    throw std::invalid_argument("MappedBnn: non-positive macro geometry");
  }
  for (const core::PackedGemmStage* gemm : program_.GemmStages()) {
    MappedLayer layer = MapMatrix(gemm->weights);
    layer.reads_per_inference = gemm->num_patches();
    layers_.push_back(std::move(layer));
  }
}

MappedBnn::MappedLayer MappedBnn::MapMatrix(const core::BitMatrix& weights) {
  MappedLayer layer;
  layer.in_features = weights.cols();
  layer.out_features = weights.rows();
  layer.row_tiles = CeilDiv(layer.out_features, config_.macro_rows);
  layer.col_tiles = CeilDiv(layer.in_features, config_.macro_cols);
  layer.macros.reserve(
      static_cast<std::size_t>(layer.row_tiles * layer.col_tiles));
  for (std::int64_t rt = 0; rt < layer.row_tiles; ++rt) {
    for (std::int64_t ct = 0; ct < layer.col_tiles; ++ct) {
      auto macro = std::make_unique<XnorMacro>(
          config_.macro_rows, config_.macro_cols, config_.device,
          config_.seed + (++seed_counter_) * 0x9e3779b9ull);
      if (config_.pre_stress_cycles > 0) {
        macro->Stress(config_.pre_stress_cycles);
      }
      const std::int64_t rows_here =
          std::min(config_.macro_rows,
                   layer.out_features - rt * config_.macro_rows);
      const std::int64_t cols_here =
          std::min(config_.macro_cols,
                   layer.in_features - ct * config_.macro_cols);
      std::vector<int> row_weights(static_cast<std::size_t>(cols_here));
      for (std::int64_t r = 0; r < rows_here; ++r) {
        const std::int64_t global_row = rt * config_.macro_rows + r;
        for (std::int64_t c = 0; c < cols_here; ++c) {
          row_weights[static_cast<std::size_t>(c)] =
              weights.Get(global_row, ct * config_.macro_cols + c);
        }
        macro->ProgramRow(r, row_weights);
      }
      layer.macros.push_back(std::move(macro));
    }
  }
  return layer;
}

void MappedBnn::LayerPopcounts(MappedLayer& layer, const core::BitVector& x,
                               std::int64_t row_begin, std::int64_t row_end,
                               std::int64_t* out) {
  if (x.size() != layer.in_features) {
    throw std::invalid_argument("MappedBnn: input width mismatch");
  }
  if (row_begin < 0 || row_end > layer.out_features || row_begin >= row_end) {
    throw std::invalid_argument("MappedBnn: row range out of bounds");
  }
  // Slice the input into per-column-tile {-1,+1} segments once. The segment
  // buffers are member scratch reused across the reads of a batch.
  if (tile_input_scratch_.size() < static_cast<std::size_t>(layer.col_tiles)) {
    tile_input_scratch_.resize(static_cast<std::size_t>(layer.col_tiles));
  }
  for (std::int64_t ct = 0; ct < layer.col_tiles; ++ct) {
    const std::int64_t begin = ct * config_.macro_cols;
    const std::int64_t end =
        std::min(layer.in_features, begin + config_.macro_cols);
    auto& seg = tile_input_scratch_[static_cast<std::size_t>(ct)];
    seg.resize(static_cast<std::size_t>(end - begin));
    for (std::int64_t c = begin; c < end; ++c) {
      seg[static_cast<std::size_t>(c - begin)] = x.Get(c);
    }
  }
  std::fill(out, out + (row_end - row_begin), std::int64_t{0});
  const std::int64_t rt0 = row_begin / config_.macro_rows;
  const std::int64_t rt1 = (row_end - 1) / config_.macro_rows;
  for (std::int64_t rt = rt0; rt <= rt1; ++rt) {
    const std::int64_t tile_begin = rt * config_.macro_rows;
    const std::int64_t rows_here =
        std::min(config_.macro_rows, layer.out_features - tile_begin);
    const std::int64_t lo = std::max(row_begin, tile_begin);
    const std::int64_t hi = std::min(row_end, tile_begin + rows_here);
    for (std::int64_t ct = 0; ct < layer.col_tiles; ++ct) {
      XnorMacro& macro =
          *layer.macros[static_cast<std::size_t>(rt * layer.col_tiles + ct)];
      const auto& seg = tile_input_scratch_[static_cast<std::size_t>(ct)];
      for (std::int64_t row = lo; row < hi; ++row) {
        out[row - row_begin] += macro.RowXnorPopcount(row - tile_begin, seg);
      }
    }
  }
}

std::vector<float> MappedBnn::Scores(const core::BitVector& x) {
  FabricOracle oracle(*this);
  return program_.ScoresWith(x, oracle);
}

std::int64_t MappedBnn::Predict(const core::BitVector& x) {
  const std::vector<float> s = Scores(x);
  return std::distance(s.begin(), std::max_element(s.begin(), s.end()));
}

bool MappedBnn::DeterministicReads() const {
  return config_.device.sense_offset_sigma == 0.0;
}

const MappedBnn::ReadbackPlanes& MappedBnn::Planes() {
  if (!DeterministicReads()) {
    throw std::logic_error(
        "MappedBnn: senses are stochastic (sense_offset_sigma > 0); the "
        "fabric's reads cannot be snapshotted into bit planes");
  }
  if (planes_) return *planes_;

  // One full read of every programmed synapse through the PCSAs. With a
  // deterministic sense path each cell always reads the same value, so the
  // planes below are exactly what every future inference would sense —
  // programming errors (weak devices crossing their partner) included.
  auto planes = std::make_unique<ReadbackPlanes>();
  for (auto& layer : layers_) {
    core::BitMatrix readback(layer.out_features, layer.in_features);
    // Padding cells are programmed to +1 and driven with -1 inputs, so a
    // padding cell only contributes to a row's popcount when it reads back
    // -1 (a programming error): XNOR(-1, -1) = +1. That contribution is
    // input-independent, so it is tallied per row.
    std::vector<std::int32_t> pad_errors(
        static_cast<std::size_t>(layer.out_features), 0);
    for (std::int64_t rt = 0; rt < layer.row_tiles; ++rt) {
      const std::int64_t rows_here = std::min(
          config_.macro_rows, layer.out_features - rt * config_.macro_rows);
      for (std::int64_t ct = 0; ct < layer.col_tiles; ++ct) {
        XnorMacro& macro =
            *layer.macros[static_cast<std::size_t>(rt * layer.col_tiles + ct)];
        const std::int64_t cols_here = std::min(
            config_.macro_cols, layer.in_features - ct * config_.macro_cols);
        for (std::int64_t r = 0; r < rows_here; ++r) {
          const std::int64_t global_row = rt * config_.macro_rows + r;
          for (std::int64_t c = 0; c < config_.macro_cols; ++c) {
            const int sensed = macro.array().ReadWeight(r, c);
            if (c < cols_here) {
              readback.Set(global_row, ct * config_.macro_cols + c, sensed);
            } else if (sensed == -1) {
              ++pad_errors[static_cast<std::size_t>(global_row)];
            }
          }
        }
      }
    }
    planes->weights.push_back(std::move(readback));
    planes->pad_errors.push_back(std::move(pad_errors));
  }
  planes_ = std::move(planes);
  return *planes_;
}

const core::BnnProgram& MappedBnn::ReadbackSnapshot() {
  if (snapshot_) return *snapshot_;
  const ReadbackPlanes& planes = Planes();
  auto snapshot = std::make_unique<core::BnnProgram>(program_);
  std::size_t gi = 0;
  for (core::ProgramStage& stage : snapshot->stages()) {
    if (stage.kind != core::StageKind::kPackedGemm) continue;
    core::PackedGemmStage& g = stage.gemm;
    g.weights = planes.weights[gi];
    const std::vector<std::int32_t>& pad = planes.pad_errors[gi];
    if (g.is_output) {
      for (std::size_t k = 0; k < g.offset.size(); ++k) {
        g.offset[k] += g.scale[k] * 2.0f * static_cast<float>(pad[k]);
      }
    } else if (g.per_pixel_thresholds) {
      // The padding term is a property of the weight row, so it shifts the
      // threshold of every output pixel of that unit equally.
      const std::int64_t patches = g.num_patches();
      for (std::int64_t u = 0; u < g.units(); ++u) {
        for (std::int64_t p = 0; p < patches; ++p) {
          g.thresholds[static_cast<std::size_t>(u * patches + p)] -=
              pad[static_cast<std::size_t>(u)];
        }
      }
    } else {
      for (std::size_t j = 0; j < g.thresholds.size(); ++j) {
        g.thresholds[j] -= pad[j];
      }
    }
    ++gi;
  }
  snapshot_ = std::move(snapshot);
  return *snapshot_;
}

std::vector<float> MappedBnn::ScoresBatch(const core::BitMatrix& batch) {
  if (batch.cols() != input_size()) {
    throw std::invalid_argument("MappedBnn::ScoresBatch: width mismatch");
  }
  if (!DeterministicReads()) {
    // Stochastic senses: serve the batch through the per-row transaction-
    // level simulation (same RNG draw order as repeated Scores() calls).
    const std::int64_t n = batch.rows();
    const std::int64_t m = num_classes();
    std::vector<float> out(static_cast<std::size_t>(n * m));
    core::BitVector x;
    for (std::int64_t i = 0; i < n; ++i) {
      batch.ExtractRow(i, x);
      const std::vector<float> scores = Scores(x);
      std::copy(scores.begin(), scores.end(), out.begin() + i * m);
    }
    return out;
  }

  // Deterministic senses: serve through the readback planes and the packed
  // bit-plane GEMM. Padding read errors are applied as integer popcount
  // biases, so every comparison and float expression matches the
  // transaction-level path bit for bit.
  const ReadbackPlanes& planes = Planes();
  std::vector<core::StageSubstrate> substrates(planes.weights.size());
  for (std::size_t l = 0; l < planes.weights.size(); ++l) {
    substrates[l] = {&planes.weights[l], planes.pad_errors[l].data()};
  }
  return program_.ScoresBatch(batch, substrates);
}

std::vector<std::int64_t> MappedBnn::PredictPacked(
    const core::BitMatrix& batch) {
  return core::ArgmaxRows(ScoresBatch(batch), batch.rows(), num_classes());
}

std::vector<std::int64_t> MappedBnn::PredictBatch(const Tensor& features) {
  if (features.rank() != 2) {
    throw std::invalid_argument("MappedBnn::PredictBatch: expected [N, F]");
  }
  const std::int64_t n = features.dim(0), f = features.dim(1);
  if (f != input_size()) {
    throw std::invalid_argument("MappedBnn::PredictBatch: width mismatch");
  }
  std::vector<std::int64_t> preds(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    const auto x = core::BitVector::FromSigns(std::span<const float>(
        features.data() + i * f, static_cast<std::size_t>(f)));
    preds[static_cast<std::size_t>(i)] = Predict(x);
  }
  return preds;
}

void MappedBnn::WarmReadback() {
  if (DeterministicReads()) Planes();
}

void MappedBnn::InjectDrift(double ber, Rng& rng) {
  planes_.reset();  // device state changes: the readback planes are stale
  snapshot_.reset();
  for (auto& layer : layers_) {
    for (auto& macro : layer.macros) {
      rram::RramArray& array = macro->array();
      core::ForEachFaultSite(
          array.rows(), array.cols(), ber, rng,
          [&array](std::int64_t r, std::int64_t c) {
            array.cell(r, c).DriftFlip();
          });
    }
  }
}

void MappedBnn::Stress(std::uint64_t cycles, bool reprogram_after) {
  planes_.reset();  // device state changes: the readback planes are stale
  snapshot_.reset();
  for (auto& layer : layers_) {
    for (auto& macro : layer.macros) {
      macro->Stress(cycles);
      if (reprogram_after) macro->Reprogram();
    }
  }
}

std::int64_t MappedBnn::num_macros() const {
  std::int64_t n = 0;
  for (const auto& layer : layers_) {
    n += static_cast<std::int64_t>(layer.macros.size());
  }
  return n;
}

double MappedBnn::Utilization() const {
  double used = 0.0, total = 0.0;
  for (const auto& layer : layers_) {
    for (const auto& macro : layer.macros) {
      used += static_cast<double>(macro->used_synapses());
      total += static_cast<double>(macro->rows() * macro->cols());
    }
  }
  return total > 0.0 ? used / total : 0.0;
}

CostReport MappedBnn::ProgrammingCost() const {
  CostReport cost;
  const double per_synapse = SynapseProgramEnergyPj(config_.energy);
  for (const auto& layer : layers_) {
    for (const auto& macro : layer.macros) {
      cost.program_ops += macro->array().program_ops();
    }
  }
  cost.program_energy_pj = per_synapse * static_cast<double>(cost.program_ops);
  cost.latency_us = config_.energy.program_latency_ns * 1e-3 *
                    static_cast<double>(cost.program_ops);
  return cost;
}

CostReport MappedBnn::InferenceCost() const {
  CostReport cost;
  for (const auto& layer : layers_) {
    // One fabric read activates every row of every macro once; conv /
    // depthwise regions are read once per output pixel.
    const double reads = static_cast<double>(layer.reads_per_inference);
    const double row_energy =
        RowReadEnergyPj(config_.energy, config_.macro_cols);
    const double rows =
        static_cast<double>(layer.macros.size()) *
        static_cast<double>(config_.macro_rows) * reads;
    cost.read_energy_pj += row_energy * rows;
    cost.sense_ops += static_cast<std::uint64_t>(
        rows * static_cast<double>(config_.macro_cols));
    // Row tiles of one region read in parallel across macros; rows within a
    // macro (and successive pixel reads) are sequential.
    cost.latency_us += config_.energy.sense_latency_ns * 1e-3 *
                       static_cast<double>(config_.macro_rows) * reads;
  }
  return cost;
}

double MappedBnn::AreaMm2() const {
  double area = 0.0;
  for (const auto& layer : layers_) {
    area += static_cast<double>(layer.macros.size()) *
            MacroArea(config_.energy, config_.macro_rows, config_.macro_cols);
  }
  return area;
}

}  // namespace rrambnn::arch
