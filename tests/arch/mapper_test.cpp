// The hardware-mapped engine must be bit-exact against the software
// BnnProgram at zero device error, across tiling geometries.
#include "arch/bnn_mapper.h"

#include <gtest/gtest.h>

#include <string>

#include "arch/xnor_macro.h"
#include "tensor/rng.h"

namespace rrambnn::arch {
namespace {

rram::DeviceParams IdealDevice() {
  rram::DeviceParams p;
  p.sense_offset_sigma = 0.0;
  p.weak_prob_ref = 0.0;
  return p;
}

core::BnnProgram RandomProgram(std::int64_t in, std::int64_t hidden,
                               std::int64_t classes, Rng& rng) {
  core::BitMatrix h(hidden, in);
  for (std::int64_t r = 0; r < hidden; ++r) {
    for (std::int64_t c = 0; c < in; ++c) {
      h.Set(r, c, rng.Bernoulli(0.5) ? +1 : -1);
    }
  }
  std::vector<std::int32_t> thresholds(static_cast<std::size_t>(hidden));
  for (auto& t : thresholds) {
    t = static_cast<std::int32_t>(in / 2 + rng.UniformInt(9) - 4);
  }
  core::BitMatrix out(classes, hidden);
  for (std::int64_t r = 0; r < classes; ++r) {
    for (std::int64_t c = 0; c < hidden; ++c) {
      out.Set(r, c, rng.Bernoulli(0.5) ? +1 : -1);
    }
  }
  std::vector<float> offset(static_cast<std::size_t>(classes));
  for (auto& o : offset) o = rng.Normal(0.0f, 0.3f);
  core::BnnProgram program;
  program.SetInputShape({in, 1, 1});
  program.AddStage(core::DenseHiddenStage(std::move(h), std::move(thresholds)));
  program.AddStage(core::DenseOutputStage(
      std::move(out), std::vector<float>(static_cast<std::size_t>(classes), 1.0f),
      std::move(offset)));
  program.Validate();
  return program;
}

TEST(XnorMacro, PaddingContributesNothing) {
  XnorMacro macro(4, 64, IdealDevice(), 1);
  const std::vector<int> w{+1, -1, +1};
  macro.ProgramRow(0, w);
  const std::vector<int> x{+1, -1, -1};
  // Matches: +1*+1 agree, -1*-1 agree, +1 vs -1 disagree -> popcount 2.
  EXPECT_EQ(macro.RowXnorPopcount(0, x), 2);
  EXPECT_EQ(macro.used_synapses(), 3);
  EXPECT_THROW(macro.ProgramRow(0, std::vector<int>(65, 1)),
               std::invalid_argument);
}

struct TileGeometry {
  std::int64_t rows;
  std::int64_t cols;
};

class MapperTiling : public ::testing::TestWithParam<TileGeometry> {};

TEST_P(MapperTiling, BitExactAtZeroError) {
  Rng rng(42);
  const core::BnnProgram program = RandomProgram(150, 70, 4, rng);
  MapperConfig cfg;
  cfg.macro_rows = GetParam().rows;
  cfg.macro_cols = GetParam().cols;
  cfg.device = IdealDevice();
  MappedBnn mapped(program, cfg);
  for (int trial = 0; trial < 30; ++trial) {
    core::BitVector x(150);
    for (std::int64_t i = 0; i < 150; ++i) {
      x.Set(i, rng.Bernoulli(0.5) ? +1 : -1);
    }
    const auto sw = program.Scores(x);
    const auto hw = mapped.Scores(x);
    ASSERT_EQ(sw.size(), hw.size());
    for (std::size_t k = 0; k < sw.size(); ++k) {
      EXPECT_FLOAT_EQ(sw[k], hw[k]) << "tile " << GetParam().rows << "x"
                                    << GetParam().cols << " trial " << trial;
    }
    EXPECT_EQ(program.Predict(x), mapped.Predict(x));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, MapperTiling,
    ::testing::Values(TileGeometry{32, 32}, TileGeometry{64, 64},
                      TileGeometry{16, 128}, TileGeometry{128, 16},
                      TileGeometry{256, 256}, TileGeometry{13, 17}));

TEST(MappedBnn, MacroCountMatchesTiling) {
  Rng rng(7);
  const core::BnnProgram program = RandomProgram(100, 50, 2, rng);
  MapperConfig cfg;
  cfg.macro_rows = 32;
  cfg.macro_cols = 32;
  cfg.device = IdealDevice();
  const MappedBnn mapped(program, cfg);
  // Hidden: ceil(50/32)*ceil(100/32) = 2*4 = 8; output: 1*2 = 2.
  EXPECT_EQ(mapped.num_macros(), 10);
  EXPECT_GT(mapped.Utilization(), 0.3);
  EXPECT_LE(mapped.Utilization(), 1.0);
}

TEST(MappedBnn, CostsArePositiveAndConsistent) {
  Rng rng(8);
  const core::BnnProgram program = RandomProgram(64, 32, 2, rng);
  MapperConfig cfg;
  cfg.macro_rows = 32;
  cfg.macro_cols = 64;
  cfg.device = IdealDevice();
  const MappedBnn mapped(program, cfg);
  const CostReport prog = mapped.ProgrammingCost();
  const CostReport inf = mapped.InferenceCost();
  EXPECT_GT(prog.program_energy_pj, 0.0);
  // Hidden 32x64 fills one macro (32 rows x 64 padded cols); the 2x32
  // output layer programs only its 2 used rows (again padded to 64 cols).
  EXPECT_EQ(prog.program_ops, 32u * 64u + 2u * 64u);
  EXPECT_GT(inf.read_energy_pj, 0.0);
  // Per-inference read energy must be far below one-time programming.
  EXPECT_LT(inf.read_energy_pj, prog.program_energy_pj);
  EXPECT_GT(mapped.AreaMm2(), 0.0);
}

TEST(MappedBnn, AgedUnrefreshedFabricDegradesGracefully) {
  Rng rng(9);
  const core::BnnProgram program = RandomProgram(128, 64, 2, rng);
  MapperConfig cfg;
  cfg.macro_rows = 64;
  cfg.macro_cols = 64;
  cfg.device = rram::DeviceParams{};  // real device statistics
  cfg.device.weak_prob_ref = 0.02;    // exaggerated aging
  cfg.pre_stress_cycles = static_cast<std::uint64_t>(7e8);
  MappedBnn mapped(program, cfg);
  // With elevated weak probability, some scores will deviate from the
  // software model, but outputs stay within the legal range.
  core::BitVector x(128);
  for (std::int64_t i = 0; i < 128; ++i) {
    x.Set(i, rng.Bernoulli(0.5) ? +1 : -1);
  }
  const std::int64_t pred = mapped.Predict(x);
  EXPECT_GE(pred, 0);
  EXPECT_LT(pred, 2);
}

core::BitMatrix RandomBits(std::int64_t rows, std::int64_t cols, Rng& rng) {
  core::BitMatrix m(rows, cols);
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t c = 0; c < cols; ++c) {
      m.Set(r, c, rng.Bernoulli(0.5) ? +1 : -1);
    }
  }
  return m;
}

/// Random conv program: conv 8x6x6->6 3x3 p1 (per-pixel thresholds, 72-bit
/// patches) | max-pool 2x2 | depthwise 3x3 p1 | reshape | dense output.
/// Rows of 72 and 9 weights leave padding cells in every 64-column tile
/// row, so programming errors there give nonzero popcount biases.
core::BnnProgram RandomConvProgram(Rng& rng) {
  auto thresholds = [&](std::int64_t count, std::int64_t bits) {
    std::vector<std::int32_t> t(static_cast<std::size_t>(count));
    for (auto& v : t) {
      v = static_cast<std::int32_t>(bits / 2 + rng.UniformInt(5) - 2);
    }
    return t;
  };
  core::BnnProgram program;
  program.SetInputShape({8, 6, 6});
  core::ProgramStage conv;
  conv.gemm.lowering = core::GemmLowering::kConv;
  conv.gemm.geom = {8, 6, 6, 3, 3, 1, 1, 1, 1};
  conv.gemm.weights = RandomBits(6, 72, rng);
  conv.gemm.per_pixel_thresholds = true;
  conv.gemm.thresholds = thresholds(6 * 36, 72);
  conv.out_shape = {6, 6, 6};
  program.AddStage(std::move(conv));
  core::ProgramStage pool;
  pool.kind = core::StageKind::kPool;
  pool.pool.geom = {6, 6, 6, 2, 2, 2, 2, 0, 0};
  pool.out_shape = {6, 3, 3};
  program.AddStage(std::move(pool));
  core::ProgramStage dw;
  dw.gemm.lowering = core::GemmLowering::kDepthwise;
  dw.gemm.geom = {6, 3, 3, 3, 3, 1, 1, 1, 1};
  dw.gemm.weights = RandomBits(6, 9, rng);
  dw.gemm.per_pixel_thresholds = true;
  dw.gemm.thresholds = thresholds(6 * 9, 9);
  dw.out_shape = {6, 3, 3};
  program.AddStage(std::move(dw));
  core::ProgramStage flat;
  flat.kind = core::StageKind::kReshape;
  flat.out_shape = {54, 1, 1};
  program.AddStage(std::move(flat));
  core::ProgramStage out;
  out.gemm.weights = RandomBits(3, 54, rng);
  out.gemm.is_output = true;
  out.gemm.scale.assign(3, 1.0f);
  for (int k = 0; k < 3; ++k) out.gemm.offset.push_back(rng.Normal(0.0f, 0.3f));
  out.out_shape = {3, 1, 1};
  program.AddStage(std::move(out));
  program.Validate();
  return program;
}

/// The packed readback-snapshot path must reproduce the transaction-level
/// simulation bit for bit even when programming errors are present (heavy
/// pre-deployment stress), including errors on padding cells — those fold
/// into integer popcount biases. Runs on a dense classifier and on a conv
/// program (fused conv / pool / depthwise stages over readback substrates).
TEST(MappedBnn, BatchedSnapshotExactUnderProgrammingErrors) {
  Rng rng(31);
  const core::BnnProgram programs[] = {
      RandomProgram(150, 40, 4, rng),
      RandomConvProgram(rng)};
  for (const core::BnnProgram& program : programs) {
    const std::string kind = program.IsPureDense() ? "dense" : "conv";
    MapperConfig config;
    config.macro_rows = 32;
    config.macro_cols = 64;
    config.device = IdealDevice();
    // Deterministic senses, but devices cycled to weak-probability
    // saturation: cells where both devices land weak (padding included)
    // read back wrong about half the time.
    config.device.weak_prob_ref = 4.0e-5;
    config.pre_stress_cycles = 3000000000ull;
    config.seed = 5;
    MappedBnn row_fabric(program, config);
    MappedBnn batch_fabric(program, config);
    ASSERT_TRUE(batch_fabric.DeterministicReads());

    const std::int64_t rows = 24, classes = program.num_classes();
    const core::BitMatrix batch = RandomBits(rows, program.input_size(), rng);
    const std::vector<float> batched = batch_fabric.ScoresBatch(batch);
    for (std::int64_t i = 0; i < rows; ++i) {
      const std::vector<float> per_row = row_fabric.Scores(batch.Row(i));
      for (std::int64_t k = 0; k < classes; ++k) {
        ASSERT_EQ(batched[static_cast<std::size_t>(i * classes + k)],
                  per_row[static_cast<std::size_t>(k)])
            << kind << " row " << i << " class " << k;
      }
    }
    // Sanity: the stress level actually produced readback errors — on
    // weight cells, and on padding cells of the first stage (the snapshot
    // folds those into its thresholds) — so the equality above exercised
    // the substrate weights and the popcount bias.
    const core::BnnProgram& snapshot = batch_fabric.ReadbackSnapshot();
    std::int64_t errors = 0;
    for (std::size_t s = 0; s < program.num_stages(); ++s) {
      const core::ProgramStage& stage = program.stages()[s];
      if (stage.kind != core::StageKind::kPackedGemm) continue;
      const core::BitMatrix& want = stage.gemm.weights;
      const core::BitMatrix& got = snapshot.stages()[s].gemm.weights;
      for (std::int64_t r = 0; r < want.rows(); ++r) {
        for (std::int64_t c = 0; c < want.cols(); ++c) {
          if (got.Get(r, c) != want.Get(r, c)) ++errors;
        }
      }
    }
    EXPECT_GT(errors, 0) << kind << ": stress produced no programming "
                                    "errors; the snapshot equality was trivial";
    EXPECT_NE(snapshot.stages()[0].gemm.thresholds,
              program.stages()[0].gemm.thresholds)
        << kind << ": no padding-cell errors, so every popcount bias was 0";
  }
}

TEST(MappedBnn, SnapshotInvalidatedByStress) {
  Rng rng(37);
  const core::BnnProgram program = RandomProgram(70, 20, 3, rng);
  MapperConfig config;
  config.device = IdealDevice();
  config.device.weak_prob_ref = 4.0e-5;  // refresh on worn devices can fail
  config.seed = 2;
  MappedBnn fabric(program, config);
  core::BitMatrix batch(4, 70);
  for (std::int64_t r = 0; r < 4; ++r) {
    for (std::int64_t c = 0; c < 70; ++c) {
      batch.Set(r, c, rng.Bernoulli(0.5) ? +1 : -1);
    }
  }
  const std::vector<float> before = fabric.ScoresBatch(batch);
  // Heavy aging plus refresh: weights are re-programmed on worn devices, so
  // the cached snapshot is stale and must be rebuilt; the per-row path must
  // agree with the rebuilt snapshot afterwards.
  fabric.Stress(2000000000ull, /*reprogram_after=*/true);
  const std::vector<float> after = fabric.ScoresBatch(batch);
  for (std::int64_t i = 0; i < 4; ++i) {
    const std::vector<float> per_row = fabric.Scores(batch.Row(i));
    for (std::int64_t k = 0; k < 3; ++k) {
      EXPECT_EQ(after[static_cast<std::size_t>(i * 3 + k)],
                per_row[static_cast<std::size_t>(k)])
          << "row " << i << " class " << k;
    }
  }
  (void)before;
}

TEST(MappedBnn, SnapshotRequiresDeterministicSenses) {
  Rng rng(41);
  const core::BnnProgram program = RandomProgram(40, 12, 2, rng);
  MapperConfig config;  // default device: sense_offset_sigma > 0
  MappedBnn fabric(program, config);
  EXPECT_FALSE(fabric.DeterministicReads());
  EXPECT_THROW(fabric.ReadbackSnapshot(), std::logic_error);
  // The stochastic fallback still serves batches (per-row simulation).
  core::BitMatrix batch(2, 40);
  EXPECT_EQ(fabric.ScoresBatch(batch).size(), 4u);
}

TEST(MappedBnn, InputWidthValidated) {
  Rng rng(10);
  const core::BnnProgram program = RandomProgram(64, 32, 2, rng);
  MapperConfig cfg;
  cfg.device = IdealDevice();
  MappedBnn mapped(program, cfg);
  EXPECT_THROW(mapped.Scores(core::BitVector(63)), std::invalid_argument);
  EXPECT_THROW(mapped.PredictBatch(Tensor({2, 63})), std::invalid_argument);
}

}  // namespace
}  // namespace rrambnn::arch
