// The conv generalization of the compile_test property: a binarized conv /
// depthwise / pool classifier compiled into a multi-stage BnnProgram must
// agree *bit-exactly* with the trained float network evaluated in inference
// mode, across kernel / stride / padding / channel geometries — including
// the padded case where the float zero-pad vs packed -1-pad difference must
// fold into per-pixel thresholds.
#include "core/bnn_program.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "core/bitgemm.h"
#include "core/compile.h"
#include "io/tensor_serde.h"
#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/depthwise_conv.h"
#include "nn/optimizer.h"
#include "nn/pool.h"
#include "nn/trainer.h"

namespace rrambnn::core {
namespace {

constexpr std::int64_t kClasses = 3;

struct GeomCase {
  const char* name;
  std::int64_t c_in, h, w;
  std::int64_t c_out;  // ignored for depthwise (channels preserved)
  std::int64_t kh, kw;
  std::int64_t stride;
  std::int64_t pad;
  bool depthwise;
};

std::int64_t OutDim(std::int64_t size, std::int64_t k, std::int64_t pad,
                    std::int64_t stride) {
  return (size + 2 * pad - k) / stride + 1;
}

/// Single-conv-stage classifier in the canonical binarized grammar:
/// Sign | conv/dw | BN | Sign | Flatten | Dense | BN.
nn::Sequential MakeConvClassifier(const GeomCase& g, Rng& rng) {
  nn::Sequential net;
  net.Emplace<nn::SignSte>();
  std::int64_t out_ch;
  if (g.depthwise) {
    out_ch = g.c_in;
    net.Emplace<nn::DepthwiseConv2d>(
        g.c_in, g.kh, g.kw, rng,
        nn::DepthwiseConv2dOptions{.stride_h = g.stride,
                                   .stride_w = g.stride,
                                   .pad_h = g.pad,
                                   .pad_w = g.pad,
                                   .binary = true,
                                   .use_bias = false});
  } else {
    out_ch = g.c_out;
    net.Emplace<nn::Conv2d>(g.c_in, g.c_out, g.kh, g.kw, rng,
                            nn::Conv2dOptions{.stride_h = g.stride,
                                              .stride_w = g.stride,
                                              .pad_h = g.pad,
                                              .pad_w = g.pad,
                                              .binary = true,
                                              .use_bias = false});
  }
  net.Emplace<nn::BatchNorm>(out_ch);
  net.Emplace<nn::SignSte>();
  net.Emplace<nn::Flatten>();
  const std::int64_t flat =
      out_ch * OutDim(g.h, g.kh, g.pad, g.stride) *
      OutDim(g.w, g.kw, g.pad, g.stride);
  net.Emplace<nn::Dense>(flat, kClasses, rng,
                         nn::DenseOptions{.binary = true});
  net.Emplace<nn::BatchNorm>(kClasses);
  return net;
}

/// Runs a few training steps on 4-D input so BN statistics and weights are
/// non-trivial (fresh BN running stats would make thresholds degenerate).
void Warm(nn::Sequential& net, std::int64_t c, std::int64_t h, std::int64_t w,
          Rng& rng) {
  nn::SoftmaxCrossEntropy loss;
  nn::Adam opt(net.Params(), 1e-2f);
  for (int step = 0; step < 15; ++step) {
    Tensor x({8, c, h, w});
    rng.FillNormal(x, 0.0f, 1.0f);
    std::vector<std::int64_t> y;
    for (int i = 0; i < 8; ++i) {
      y.push_back(x[static_cast<std::int64_t>(i) * c * h * w] > 0 ? 1 : 0);
    }
    opt.ZeroGrad();
    const Tensor logits = net.Forward(x, true);
    (void)loss.Forward(logits, y);
    net.Backward(loss.Backward());
    opt.Step();
  }
}

/// CHW-flattened copy of a [N, C, H, W] batch — the feature-row layout the
/// packed program consumes.
Tensor Flattened(const Tensor& x) {
  Tensor flat({x.dim(0), x.size() / x.dim(0)});
  std::memcpy(flat.data(), x.data(),
              sizeof(float) * static_cast<std::size_t>(x.size()));
  return flat;
}

std::vector<std::int64_t> ArgmaxRows(const Tensor& logits) {
  std::vector<std::int64_t> out;
  const std::int64_t n = logits.dim(0), c = logits.dim(1);
  for (std::int64_t i = 0; i < n; ++i) {
    std::int64_t best = 0;
    for (std::int64_t j = 1; j < c; ++j) {
      if (logits[i * c + j] > logits[i * c + best]) best = j;
    }
    out.push_back(best);
  }
  return out;
}

class ProgramGeometry : public ::testing::TestWithParam<GeomCase> {};

TEST_P(ProgramGeometry, BitExactAgainstFloatEval) {
  const GeomCase& g = GetParam();
  Rng rng(7);
  nn::Sequential net = MakeConvClassifier(g, rng);
  Warm(net, g.c_in, g.h, g.w, rng);

  const BnnProgram program =
      CompileProgram(net, 0, StageShape{g.c_in, g.h, g.w});
  program.Validate();
  EXPECT_FALSE(program.IsPureDense());

  // The conv stage's lowering and padding mode must match the geometry.
  const auto gemms = program.GemmStages();
  ASSERT_EQ(gemms.size(), 2u);
  EXPECT_EQ(gemms[0]->lowering, g.depthwise ? GemmLowering::kDepthwise
                                            : GemmLowering::kConv);
  EXPECT_EQ(gemms[0]->per_pixel_thresholds, g.pad > 0)
      << "per-pixel thresholds exactly when the stage is padded";

  Tensor x({48, g.c_in, g.h, g.w});
  rng.FillNormal(x, 0.0f, 1.0f);
  const auto expected = ArgmaxRows(net.Infer(x));
  const auto got = program.PredictBatch(Flattened(x));
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(got[i], expected[i]) << g.name << " sample " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ProgramGeometry,
    ::testing::Values(
        GeomCase{"conv3x3", 3, 8, 8, 5, 3, 3, 1, 0, false},
        GeomCase{"conv3x3_padded", 2, 9, 9, 4, 3, 3, 1, 1, false},
        GeomCase{"conv1x1_pointwise", 6, 7, 7, 8, 1, 1, 1, 0, false},
        GeomCase{"conv3x3_stride2_padded", 3, 12, 12, 6, 3, 3, 2, 1, false},
        GeomCase{"conv5x5_padded2", 2, 11, 11, 4, 5, 5, 1, 2, false},
        GeomCase{"conv_asym_kernel", 4, 10, 6, 5, 1, 5, 1, 0, false},
        GeomCase{"depthwise3x3", 5, 8, 8, 0, 3, 3, 1, 0, true},
        GeomCase{"depthwise3x3_padded", 4, 9, 9, 0, 3, 3, 1, 1, true},
        GeomCase{"depthwise3x3_stride2_padded", 6, 12, 12, 0, 3, 3, 2, 1,
                 true},
        // Padded rows wider than one 64-bit word (72 bits here), patches
        // wider than one word through the channels (8x3x3 = 72 bits) and
        // through the kernel (9x9 = 81 bits), and a strided wide row.
        GeomCase{"conv3x3_padded_wide_row", 2, 5, 70, 4, 3, 3, 1, 1, false},
        GeomCase{"conv3x3_patch_over_one_word", 8, 6, 6, 5, 3, 3, 1, 1,
                 false},
        GeomCase{"depthwise9x9_patch_over_one_word", 3, 12, 12, 0, 9, 9, 1,
                 1, true},
        GeomCase{"conv3x3_stride2_wide_row", 3, 6, 130, 4, 3, 3, 2, 1,
                 false}),
    [](const ::testing::TestParamInfo<GeomCase>& info) {
      return std::string(info.param.name);
    });

/// The full multi-stage grammar (the image demo / MobileNet shape): conv,
/// max-pool, depthwise, flatten, two dense stages — end-to-end bit equality.
// Executes the compiled conv/depthwise stage *by hand* — patch gather +
// XNOR-popcount + threshold at the per-pixel index — and bit-compares every
// output activation against the float chain's sign outputs
// (Sign(BN(Conv2d::Infer(Sign(x))))), not just the end-to-end argmax.
TEST(Program, ConvStageOutputBitsMatchFloatSignActivations) {
  const GeomCase cases[] = {
      {"conv3x3_padded", 3, 7, 7, 5, 3, 3, 1, 1, false},
      {"depthwise3x3_padded", 4, 6, 6, 0, 3, 3, 1, 1, true},
  };
  for (const GeomCase& g : cases) {
    Rng rng(21);
    nn::Sequential net = MakeConvClassifier(g, rng);
    Warm(net, g.c_in, g.h, g.w, rng);
    const BnnProgram program =
        CompileProgram(net, 0, StageShape{g.c_in, g.h, g.w});
    const PackedGemmStage& gemm = *program.GemmStages()[0];
    const StageGeometry& geom = gemm.geom;
    const std::int64_t num_p = geom.NumPatches();
    const std::int64_t units = gemm.units();

    constexpr std::int64_t n = 16;
    Tensor x({n, g.c_in, g.h, g.w});
    rng.FillNormal(x, 0.0f, 1.0f);

    // Float side: layers [0..3] are Sign | conv/dw | BN | Sign — the sign
    // activations the compiled stage must reproduce bit-for-bit.
    Tensor f = net[0].Infer(x);
    f = net[1].Infer(f);
    f = net[2].Infer(f);
    f = net[3].Infer(f);
    ASSERT_EQ(f.size(), n * units * num_p);

    // Packed side, by hand.
    const Tensor flat = Flattened(x);
    const BitMatrix packed = BitMatrix::FromSignRows(
        std::span<const float>(flat.data(),
                               static_cast<std::size_t>(flat.size())),
        n, g.c_in * g.h * g.w);
    std::vector<std::int32_t> pops;
    std::int64_t checked = 0;
    if (gemm.lowering == GemmLowering::kConv) {
      const BitMatrix patches =
          BuildPatchMatrix(packed, geom, 0, geom.in_channels);
      XnorPopcountGemm(patches, gemm.weights, pops);
      for (std::int64_t i = 0; i < n; ++i) {
        for (std::int64_t u = 0; u < units; ++u) {
          for (std::int64_t p = 0; p < num_p; ++p) {
            const std::int32_t pop = pops[(i * num_p + p) * units + u];
            const std::size_t t_idx = static_cast<std::size_t>(
                gemm.per_pixel_thresholds ? u * num_p + p : u);
            const int bit = pop >= gemm.thresholds[t_idx] ? +1 : -1;
            const float want = f[(i * units + u) * num_p + p];
            ASSERT_EQ(bit, want >= 0.0f ? +1 : -1)
                << g.name << " sample " << i << " unit " << u << " pixel "
                << p;
            ++checked;
          }
        }
      }
    } else {
      for (std::int64_t c = 0; c < geom.in_channels; ++c) {
        const BitMatrix patches = BuildPatchMatrix(packed, geom, c, c + 1);
        XnorPopcountGemm(patches, gemm.weights, pops);
        for (std::int64_t i = 0; i < n; ++i) {
          for (std::int64_t p = 0; p < num_p; ++p) {
            const std::int32_t pop =
                pops[(i * num_p + p) * geom.in_channels + c];
            const std::size_t t_idx = static_cast<std::size_t>(
                gemm.per_pixel_thresholds ? c * num_p + p : c);
            const int bit = pop >= gemm.thresholds[t_idx] ? +1 : -1;
            const float want = f[(i * geom.in_channels + c) * num_p + p];
            ASSERT_EQ(bit, want >= 0.0f ? +1 : -1)
                << g.name << " sample " << i << " channel " << c << " pixel "
                << p;
            ++checked;
          }
        }
      }
    }
    EXPECT_EQ(checked, n * units * num_p) << g.name;
  }
}

BitMatrix RandomBits(std::int64_t rows, std::int64_t cols, Rng& rng) {
  BitMatrix m(rows, cols);
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t c = 0; c < cols; ++c) {
      m.Set(r, c, rng.Bernoulli(0.5) ? +1 : -1);
    }
  }
  return m;
}

/// The fused stage executor against the reference kernels it replaces:
/// BuildPatchMatrix + XnorPopcountGemm + the threshold at (unit, pixel),
/// with random weights, thresholds and a substrate popcount bias. Covers
/// kernel_w = 64, pads wider than a kernel row, odd strides and multi-word
/// rows and patches, on both lowerings and both threshold layouts.
TEST(Program, FusedStageMatchesReferenceKernels) {
  struct Case {
    std::int64_t c, h, w, units, kh, kw, sh, sw, ph, pw;
    bool depthwise;
  };
  const Case cases[] = {
      {3, 7, 9, 5, 3, 3, 1, 1, 1, 1, false},
      {2, 4, 100, 3, 2, 64, 1, 3, 0, 5, false},
      {4, 6, 70, 6, 3, 5, 2, 3, 2, 2, false},
      {1, 3, 200, 2, 3, 3, 1, 1, 1, 1, false},
      {5, 9, 9, 5, 9, 9, 1, 1, 4, 4, true},
      {3, 5, 130, 3, 3, 33, 2, 7, 1, 20, true},
      {2, 2, 2, 2, 1, 1, 1, 1, 0, 0, true},
  };
  Rng rng(43);
  for (const Case& k : cases) {
    for (const bool per_pixel : {false, true}) {
      ProgramStage stage;
      PackedGemmStage& g = stage.gemm;
      g.lowering = k.depthwise ? GemmLowering::kDepthwise : GemmLowering::kConv;
      g.geom = {k.c, k.h, k.w, k.kh, k.kw, k.sh, k.sw, k.ph, k.pw};
      const std::int64_t units = k.depthwise ? k.c : k.units;
      const std::int64_t patch_bits =
          k.depthwise ? g.geom.ChannelPatchSize() : g.geom.PatchSize();
      g.weights = RandomBits(units, patch_bits, rng);
      const std::int64_t num_p = g.geom.NumPatches();
      g.per_pixel_thresholds = per_pixel;
      g.thresholds.resize(static_cast<std::size_t>(per_pixel ? units * num_p
                                                             : units));
      for (auto& t : g.thresholds) {
        t = static_cast<std::int32_t>(patch_bits / 2 + rng.UniformInt(7) - 3);
      }
      std::vector<std::int32_t> bias(static_cast<std::size_t>(units));
      for (auto& b : bias) b = static_cast<std::int32_t>(rng.UniformInt(5)) - 2;
      const BitMatrix substrate = RandomBits(units, patch_bits, rng);
      const BitMatrix in = RandomBits(5, k.c * k.h * k.w, rng);

      const BitMatrix got =
          RunStageBatch(stage, in, StageSubstrate{&substrate, bias.data()});
      ASSERT_EQ(got.rows(), in.rows());
      ASSERT_EQ(got.cols(), units * num_p);
      std::vector<std::int32_t> pops;
      for (std::int64_t c0 = 0; c0 < (k.depthwise ? k.c : 1); ++c0) {
        const std::int64_t c1 = k.depthwise ? c0 + 1 : k.c;
        XnorPopcountGemm(BuildPatchMatrix(in, g.geom, c0, c1), substrate,
                         pops);
        for (std::int64_t i = 0; i < in.rows(); ++i) {
          for (std::int64_t p = 0; p < num_p; ++p) {
            for (std::int64_t u = k.depthwise ? c0 : 0;
                 u < (k.depthwise ? c0 + 1 : units); ++u) {
              const std::int32_t pop = pops[static_cast<std::size_t>(
                  (i * num_p + p) * units + u)];
              const std::int32_t t = g.thresholds[static_cast<std::size_t>(
                  per_pixel ? u * num_p + p : u)];
              ASSERT_EQ(got.Get(i, u * num_p + p),
                        pop + bias[static_cast<std::size_t>(u)] >= t ? +1 : -1)
                  << "case " << (&k - cases) << " per_pixel " << per_pixel
                  << " sample " << i << " unit " << u << " pixel " << p;
            }
          }
        }
      }
    }
  }
}

/// The fused max-pool stage against a per-bit window maximum.
TEST(Program, FusedPoolMatchesPerBitMaximum) {
  struct Case {
    std::int64_t c, h, w, kh, kw, sh, sw;
  };
  const Case cases[] = {
      {3, 8, 8, 2, 2, 2, 2}, {2, 5, 140, 3, 64, 1, 5}, {4, 7, 9, 3, 2, 2, 3}};
  Rng rng(47);
  for (const Case& k : cases) {
    ProgramStage stage;
    stage.kind = StageKind::kPool;
    stage.pool.geom = {k.c, k.h, k.w, k.kh, k.kw, k.sh, k.sw, 0, 0};
    const StageGeometry& g = stage.pool.geom;
    // Sparse +1 bits so that windows are not all saturated.
    BitMatrix in(4, k.c * k.h * k.w);
    for (std::int64_t i = 0; i < in.rows(); ++i) {
      for (std::int64_t j = 0; j < in.cols(); ++j) {
        if (rng.Bernoulli(0.1)) in.Set(i, j, +1);
      }
    }
    const BitMatrix got = RunStageBatch(stage, in);
    ASSERT_EQ(got.cols(), k.c * g.OutH() * g.OutW());
    for (std::int64_t i = 0; i < in.rows(); ++i) {
      for (std::int64_t c = 0; c < k.c; ++c) {
        for (std::int64_t oy = 0; oy < g.OutH(); ++oy) {
          for (std::int64_t ox = 0; ox < g.OutW(); ++ox) {
            int want = -1;
            for (std::int64_t ky = 0; ky < k.kh; ++ky) {
              for (std::int64_t kx = 0; kx < k.kw; ++kx) {
                want = std::max(want, in.Get(i, (c * k.h + oy * k.sh + ky) *
                                                        k.w +
                                                    ox * k.sw + kx));
              }
            }
            ASSERT_EQ(got.Get(i, (c * g.OutH() + oy) * g.OutW() + ox), want)
                << "sample " << i << " channel " << c << " at " << oy << ","
                << ox;
          }
        }
      }
    }
  }
}

/// Substrates of the wrong shape and the output stage are rejected instead
/// of being indexed out of bounds.
TEST(Program, StageExecutorRejectsMismatchedOperands) {
  Rng rng(53);
  ProgramStage stage;
  PackedGemmStage& g = stage.gemm;
  g.lowering = GemmLowering::kConv;
  g.geom = {2, 5, 5, 3, 3, 1, 1, 1, 1};
  g.weights = RandomBits(4, g.geom.PatchSize(), rng);
  g.thresholds.assign(4, 9);
  const BitMatrix in = RandomBits(2, 50, rng);
  EXPECT_NO_THROW(RunStageBatch(stage, in));
  EXPECT_THROW(RunStageBatch(stage, RandomBits(2, 49, rng)),
               std::invalid_argument);
  const BitMatrix narrow = RandomBits(3, g.geom.PatchSize(), rng);
  EXPECT_THROW(RunStageBatch(stage, in, StageSubstrate{&narrow, nullptr}),
               std::invalid_argument);
  g.thresholds.pop_back();
  EXPECT_THROW(RunStageBatch(stage, in), std::invalid_argument);
  g.thresholds.push_back(9);
  g.geom.kernel_w = 65;
  EXPECT_THROW(RunStageBatch(stage, in), std::invalid_argument);
  g.geom.kernel_w = 3;
  g.is_output = true;
  EXPECT_THROW(RunStageBatch(stage, in), std::invalid_argument);
}

TEST(Program, MultiStagePipelineBitExact) {
  Rng rng(11);
  const std::int64_t c = 3, h = 10, w = 10;
  nn::Sequential net;
  net.Emplace<nn::SignSte>();
  net.Emplace<nn::Conv2d>(
      c, std::int64_t{8}, std::int64_t{3}, std::int64_t{3}, rng,
      nn::Conv2dOptions{
          .pad_h = 1, .pad_w = 1, .binary = true, .use_bias = false});
  net.Emplace<nn::BatchNorm>(std::int64_t{8});
  net.Emplace<nn::SignSte>();
  net.Emplace<nn::Pool2d>(nn::PoolKind::kMax, std::int64_t{2},
                          std::int64_t{2});
  net.Emplace<nn::DepthwiseConv2d>(
      std::int64_t{8}, std::int64_t{3}, std::int64_t{3}, rng,
      nn::DepthwiseConv2dOptions{
          .pad_h = 1, .pad_w = 1, .binary = true, .use_bias = false});
  net.Emplace<nn::BatchNorm>(std::int64_t{8});
  net.Emplace<nn::SignSte>();
  net.Emplace<nn::Flatten>();
  net.Emplace<nn::Dense>(std::int64_t{8 * 5 * 5}, std::int64_t{32}, rng,
                         nn::DenseOptions{.binary = true});
  net.Emplace<nn::BatchNorm>(std::int64_t{32});
  net.Emplace<nn::SignSte>();
  net.Emplace<nn::Dense>(std::int64_t{32}, kClasses, rng,
                         nn::DenseOptions{.binary = true});
  net.Emplace<nn::BatchNorm>(kClasses);
  Warm(net, c, h, w, rng);

  const BnnProgram program = CompileProgram(net, 0, StageShape{c, h, w});
  program.Validate();
  EXPECT_EQ(program.num_gemm_stages(), 4u);

  Tensor x({40, c, h, w});
  rng.FillNormal(x, 0.0f, 1.0f);
  const auto expected = ArgmaxRows(net.Infer(x));
  const auto got = program.PredictBatch(Flattened(x));
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(got[i], expected[i]) << "sample " << i;
  }
}

/// Sign-convention edge rows: -0.0 packs as +1 (same bit as +0.0) and NaN
/// packs as -1 — the batched tensor path, the per-row BitVector path and a
/// clean-value control must all agree on a padded conv program.
TEST(Program, NanAndNegativeZeroRowsFollowSignConvention) {
  Rng rng(5);
  const GeomCase g{"edge", 2, 6, 6, 4, 3, 3, 1, 1, false};
  nn::Sequential net = MakeConvClassifier(g, rng);
  Warm(net, g.c_in, g.h, g.w, rng);
  const BnnProgram program =
      CompileProgram(net, 0, StageShape{g.c_in, g.h, g.w});

  const std::int64_t f = g.c_in * g.h * g.w;
  Tensor features({3, f});
  rng.FillNormal(features, 0.0f, 1.0f);
  // Row 1 = row 0 with some positives flipped to -0.0; row 2 = row 0 with
  // the same positions set to NaN.
  for (std::int64_t j = 0; j < f; ++j) {
    const float v = features[j];
    features[f + j] = (j % 5 == 0 && v > 0) ? -0.0f : v;
    features[2 * f + j] = (j % 5 == 0) ? std::nanf("") : v;
  }
  // Control rows with the convention applied by hand: -0.0 -> +1 keeps the
  // value positive, NaN -> -1.
  Tensor control({2, f});
  for (std::int64_t j = 0; j < f; ++j) {
    control[j] = features[j] == 0.0f ? 1.0f : features[j];
    control[f + j] = (j % 5 == 0) ? -1.0f : features[j];
  }

  const auto batch_preds = program.PredictBatch(features);
  const auto control_preds = program.PredictBatch(control);
  EXPECT_EQ(batch_preds[1], control_preds[0]) << "-0.0 must predict as +1";
  EXPECT_EQ(batch_preds[2], control_preds[1]) << "NaN must predict as -1";

  // The per-row packed path answers identically to the batched path.
  for (std::int64_t i = 0; i < 3; ++i) {
    const BitVector xb = BitVector::FromSigns(std::span<const float>(
        features.data() + i * f, static_cast<std::size_t>(f)));
    EXPECT_EQ(program.Predict(xb), batch_preds[static_cast<std::size_t>(i)])
        << "row " << i;
  }
}

/// A dense grammar compiles to the pure-dense one-GEMM-per-layer program,
/// argmax-identical to the float network, and the dense "compiled-bnn"
/// serde layout round-trips it losslessly.
TEST(Program, DenseGrammarIsPureDenseSpecialCase) {
  Rng rng(3);
  nn::Sequential net;
  net.Emplace<nn::SignSte>();
  net.Emplace<nn::Dense>(std::int64_t{20}, std::int64_t{12}, rng,
                         nn::DenseOptions{.binary = true});
  net.Emplace<nn::BatchNorm>(std::int64_t{12});
  net.Emplace<nn::SignSte>();
  net.Emplace<nn::Dense>(std::int64_t{12}, kClasses, rng,
                         nn::DenseOptions{.binary = true});
  net.Emplace<nn::BatchNorm>(kClasses);
  {  // 2-D warm (Dense rejects 4-D input).
    nn::SoftmaxCrossEntropy loss;
    nn::Adam opt(net.Params(), 1e-2f);
    for (int step = 0; step < 15; ++step) {
      Tensor x({8, 20});
      rng.FillNormal(x, 0.0f, 1.0f);
      std::vector<std::int64_t> y;
      for (int i = 0; i < 8; ++i) {
        y.push_back(x[static_cast<std::int64_t>(i) * 20] > 0 ? 1 : 0);
      }
      opt.ZeroGrad();
      const Tensor logits = net.Forward(x, true);
      (void)loss.Forward(logits, y);
      net.Backward(loss.Backward());
      opt.Step();
    }
  }

  const BnnProgram program = CompileProgram(net, 0);
  EXPECT_TRUE(program.IsPureDense());
  EXPECT_EQ(program.num_stages(), 2u);

  Tensor x({32, 20});
  rng.FillNormal(x, 0.0f, 1.0f);
  EXPECT_EQ(program.PredictBatch(x), ArgmaxRows(net.Infer(x)));

  io::ByteWriter w;
  io::SaveDenseProgram(program, w);
  const std::vector<std::uint8_t> bytes = w.TakeBytes();
  io::ByteReader r(bytes, "dense program");
  const BnnProgram loaded = io::LoadDenseProgram(r);
  r.ExpectExhausted();
  ASSERT_EQ(loaded.num_stages(), program.num_stages());
  for (std::size_t i = 0; i < program.num_stages(); ++i) {
    const PackedGemmStage& a = program.stages()[i].gemm;
    const PackedGemmStage& b = loaded.stages()[i].gemm;
    EXPECT_TRUE(std::ranges::equal(a.weights.words(), b.weights.words()))
        << "stage " << i;
    EXPECT_EQ(a.thresholds, b.thresholds) << "stage " << i;
    EXPECT_EQ(a.scale, b.scale) << "stage " << i;
    EXPECT_EQ(a.offset, b.offset) << "stage " << i;
    EXPECT_EQ(a.is_output, b.is_output) << "stage " << i;
  }
  EXPECT_EQ(loaded.input_shape(), program.input_shape());
  EXPECT_EQ(loaded.PredictBatch(x), program.PredictBatch(x));
}

/// Threshold range applies to every hidden GEMM stage, with the stage's row
/// width: a conv threshold of 42 on an 8-bit patch row can never come out of
/// BN folding, so Validate rejects it like a dense one.
TEST(Program, ValidateRejectsConvThresholdOutOfRange) {
  const auto make = [](std::int32_t threshold) {
    ProgramStage conv;
    conv.gemm.lowering = GemmLowering::kConv;
    conv.gemm.geom = {2, 3, 3, 2, 2, 1, 1, 0, 0};
    conv.gemm.weights = BitMatrix(2, conv.gemm.geom.PatchSize());  // 2 x 8
    conv.gemm.thresholds = {threshold, 3};
    conv.out_shape = {2, 2, 2};
    BnnProgram program;
    program.SetInputShape({2, 3, 3});
    program.AddStage(std::move(conv));
    program.AddStage(DenseOutputStage(BitMatrix(2, 8), {1.0f, 1.0f},
                                      {0.0f, 0.0f}));
    return program;
  };
  EXPECT_NO_THROW(make(9).Validate());  // in + 1: never fires, still legal
  EXPECT_THROW(make(42).Validate(), std::invalid_argument);
  EXPECT_THROW(make(-1).Validate(), std::invalid_argument);
}

/// Serialization round trip of a multi-stage program (the
/// "compiled-program" chunk payload): structure and scores survive exactly,
/// including per-pixel thresholds of padded stages.
TEST(Program, SerdeRoundTripPreservesStagesAndScores) {
  Rng rng(9);
  const GeomCase g{"serde", 3, 8, 8, 5, 3, 3, 2, 1, false};
  nn::Sequential net = MakeConvClassifier(g, rng);
  Warm(net, g.c_in, g.h, g.w, rng);
  const BnnProgram program =
      CompileProgram(net, 0, StageShape{g.c_in, g.h, g.w});

  io::ByteWriter w;
  io::SaveBnnProgram(program, w);
  const std::vector<std::uint8_t> bytes = w.TakeBytes();
  io::ByteReader r(bytes, "program_test");
  const BnnProgram loaded = io::LoadBnnProgram(r);

  ASSERT_EQ(loaded.num_stages(), program.num_stages());
  EXPECT_EQ(loaded.input_shape(), program.input_shape());
  EXPECT_EQ(loaded.Describe(), program.Describe());
  const auto a = program.GemmStages(), b = loaded.GemmStages();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i]->thresholds, b[i]->thresholds) << "stage " << i;
    EXPECT_EQ(a[i]->per_pixel_thresholds, b[i]->per_pixel_thresholds);
    EXPECT_EQ(a[i]->geom, b[i]->geom);
  }

  Tensor x({16, g.c_in, g.h, g.w});
  rng.FillNormal(x, 0.0f, 1.0f);
  EXPECT_EQ(loaded.PredictBatch(Flattened(x)),
            program.PredictBatch(Flattened(x)));
}

}  // namespace
}  // namespace rrambnn::core
