// Conv-program throughput driver: rows/sec of the packed multi-stage
// BnnProgram (binary conv + depthwise + max-pool lowered through packed
// im2col) against the float nn::Sequential inference of the *same*
// classifier — the number that justifies compiling conv networks instead of
// serving them through the float layer chain. Also times each packed GEMM
// and pool stage in isolation through the stage executor the program runs
// (core::RunStageBatch) so the per-stage breakdown shows where conv serving
// time goes. Emits machine-readable
// BENCH_conv.json so the conv-serving trajectory is tracked from PR to PR.
//
// Usage: bench_throughput_conv [--smoke] [--out PATH]
//   --smoke   small row counts / short timing windows (CI smoke test)
//   --out     output path of the JSON report (default BENCH_conv.json)
//
// The classifier is the binary backbone shape of the image demo task at a
// larger spatial extent: Sign | conv 3x3 (pad 1) | BN | Sign | maxpool 2x2 |
// depthwise 3x3 (pad 1) | BN | Sign | flatten | dense | BN | Sign | dense.
// Weights are random (+1/-1 after sign) — throughput does not depend on
// training, and both paths run the identical network.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/bitgemm.h"
#include "core/bitops.h"
#include "core/bnn_program.h"
#include "core/compile.h"
#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/depthwise_conv.h"
#include "nn/pool.h"
#include "nn/sequential.h"
#include "tensor/rng.h"

namespace {

using namespace rrambnn;

constexpr std::int64_t kChannels = 8, kSize = 16, kConvOut = 32;
constexpr std::int64_t kHidden = 128, kClasses = 4;

nn::Sequential BuildConvClassifier(Rng& rng) {
  nn::Sequential net;
  net.Emplace<nn::SignSte>();
  net.Emplace<nn::Conv2d>(
      kChannels, kConvOut, std::int64_t{3}, std::int64_t{3}, rng,
      nn::Conv2dOptions{
          .pad_h = 1, .pad_w = 1, .binary = true, .use_bias = false});
  net.Emplace<nn::BatchNorm>(kConvOut);
  net.Emplace<nn::SignSte>();
  net.Emplace<nn::Pool2d>(nn::PoolKind::kMax, std::int64_t{2},
                          std::int64_t{2});
  net.Emplace<nn::DepthwiseConv2d>(
      kConvOut, std::int64_t{3}, std::int64_t{3}, rng,
      nn::DepthwiseConv2dOptions{
          .pad_h = 1, .pad_w = 1, .binary = true, .use_bias = false});
  net.Emplace<nn::BatchNorm>(kConvOut);
  net.Emplace<nn::SignSte>();
  net.Emplace<nn::Flatten>();
  const std::int64_t features = kConvOut * (kSize / 2) * (kSize / 2);
  net.Emplace<nn::Dense>(features, kHidden, rng,
                         nn::DenseOptions{.binary = true});
  net.Emplace<nn::BatchNorm>(kHidden);
  net.Emplace<nn::SignSte>();
  net.Emplace<nn::Dense>(kHidden, kClasses, rng,
                         nn::DenseOptions{.binary = true});
  net.Emplace<nn::BatchNorm>(kClasses);
  return net;
}

struct Result {
  std::string path;
  std::int64_t batch_rows;
  double rows_per_sec;
};

/// Runs `serve` (which processes `rows` rows per call) repeatedly for at
/// least `min_seconds` after one untimed warmup call and reports rows/sec.
template <typename Fn>
double MeasureRowsPerSec(std::int64_t rows, double min_seconds, Fn&& serve) {
  serve();  // warmup
  const auto start = std::chrono::steady_clock::now();
  std::int64_t served = 0;
  double elapsed = 0.0;
  do {
    serve();
    served += rows;
    elapsed = std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - start)
                  .count();
  } while (elapsed < min_seconds);
  return static_cast<double>(served) / elapsed;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_conv.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    }
  }
  const std::int64_t n = smoke ? 32 : 256;
  const double min_seconds = smoke ? 0.05 : 0.4;

  Rng rng(1);
  nn::Sequential net = BuildConvClassifier(rng);
  const core::BnnProgram program =
      core::CompileProgram(net, 0, core::StageShape{kChannels, kSize, kSize});
  std::printf("program: %s\n", program.Describe().c_str());

  // One batch of real-valued classifier inputs; both paths see the same
  // rows (the float chain signs them in its leading SignSte, the packed
  // paths sign-pack them).
  Tensor batch({n, kChannels, kSize, kSize});
  rng.FillNormal(batch, 0.0f, 1.0f);
  Tensor features({n, kChannels * kSize * kSize});
  std::memcpy(features.data(), batch.data(),
              sizeof(float) * static_cast<std::size_t>(features.size()));

  std::vector<Result> results;

  // -- float layer chain (the pre-compile serving path) ---------------------
  {
    const double rps = MeasureRowsPerSec(n, min_seconds,
                                         [&] { (void)net.Infer(batch); });
    results.push_back({"float-conv", n, rps});
    std::printf("%-20s batch %5lld  %12.0f rows/s\n", "float-conv",
                static_cast<long long>(n), rps);
  }

  // -- packed program, sign-pack included per call --------------------------
  {
    const double rps = MeasureRowsPerSec(
        n, min_seconds, [&] { (void)program.PredictBatch(features); });
    results.push_back({"program-batch", n, rps});
    std::printf("%-20s batch %5lld  %12.0f rows/s\n", "program-batch",
                static_cast<long long>(n), rps);
  }

  // -- packed program, pre-packed rows (steady-state serving) ---------------
  {
    const core::BitMatrix packed = core::BitMatrix::FromSignRows(
        std::span<const float>(features.data(),
                               static_cast<std::size_t>(features.size())),
        n, kChannels * kSize * kSize);
    const double rps = MeasureRowsPerSec(
        n, min_seconds, [&] { (void)program.PredictPacked(packed); });
    results.push_back({"program-packed", n, rps});
    std::printf("%-20s batch %5lld  %12.0f rows/s\n", "program-packed",
                static_cast<long long>(n), rps);
  }

  // -- per-stage breakdown: the stage executor ScoresBatch runs -------------
  // Hidden GEMM and pool stages through core::RunStageBatch (the fused
  // gather + XNOR-popcount + threshold pass); the output stage through the
  // XNOR-popcount GEMM that precedes its float affine. Reshape/sign stages
  // move no bits.
  struct StageResult {
    std::string label;
    double rows_per_sec;
  };
  std::vector<StageResult> stage_results;
  for (const core::ProgramStage& stage : program.stages()) {
    if (stage.kind != core::StageKind::kPackedGemm &&
        stage.kind != core::StageKind::kPool) {
      continue;
    }
    const bool pool = stage.kind == core::StageKind::kPool;
    const core::PackedGemmStage& gemm = stage.gemm;
    const core::StageGeometry& g = pool ? stage.pool.geom : gemm.geom;
    const std::int64_t in_bits =
        pool ? g.in_channels * g.in_h * g.in_w : gemm.in_bits();
    // Random packed input batch of this stage's input width.
    core::BitMatrix stage_in(n, in_bits);
    for (std::int64_t i = 0; i < n; ++i) {
      for (std::int64_t j = 0; j < in_bits; ++j) {
        stage_in.Set(i, j, rng.Bernoulli(0.5) ? +1 : -1);
      }
    }
    std::vector<std::int32_t> pops;
    double rps = 0.0;
    if (!pool && gemm.is_output) {
      rps = MeasureRowsPerSec(n, min_seconds, [&] {
        core::XnorPopcountGemm(stage_in, gemm.weights, pops);
      });
    } else {
      rps = MeasureRowsPerSec(n, min_seconds, [&] {
        (void)core::RunStageBatch(stage, stage_in);
      });
    }
    std::string label = "stage:";
    if (pool) {
      label += "pool";
    } else {
      switch (gemm.lowering) {
        case core::GemmLowering::kConv:
          label += "conv";
          break;
        case core::GemmLowering::kDepthwise:
          label += "depthwise";
          break;
        case core::GemmLowering::kDense:
          label += "dense";
          break;
      }
    }
    char dims[64];
    std::snprintf(dims, sizeof(dims), " %lld->%lld",
                  static_cast<long long>(in_bits),
                  static_cast<long long>(stage.out_shape.bits()));
    label += dims;
    stage_results.push_back({label, rps});
    std::printf("%-28s          %12.0f rows/s\n", label.c_str(), rps);
  }

  const double speedup = results[1].rows_per_sec / results[0].rows_per_sec;
  std::printf("\npacked program vs float conv:  %.2fx (target >= 1x)\n",
              speedup);

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out,
               "  \"geometry\": {\"channels\": %lld, \"size\": %lld, "
               "\"conv_out\": %lld, \"hidden\": %lld, \"classes\": %lld},\n",
               static_cast<long long>(kChannels),
               static_cast<long long>(kSize),
               static_cast<long long>(kConvOut),
               static_cast<long long>(kHidden),
               static_cast<long long>(kClasses));
  std::fprintf(out, "  \"kernel\": \"%s\",\n", core::XnorGemmKernelName());
  std::fprintf(out, "  \"hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(out, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(out, "  \"results\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    std::fprintf(out,
                 "    {\"path\": \"%s\", \"batch_rows\": %lld, "
                 "\"rows_per_sec\": %.1f}%s\n",
                 r.path.c_str(), static_cast<long long>(r.batch_rows),
                 r.rows_per_sec, i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"stages\": [\n");
  for (std::size_t i = 0; i < stage_results.size(); ++i) {
    const StageResult& s = stage_results[i];
    std::fprintf(out, "    {\"stage\": \"%s\", \"rows_per_sec\": %.1f}%s\n",
                 s.label.c_str(), s.rows_per_sec,
                 i + 1 < stage_results.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"speedups\": {\"program_vs_float\": %.2f}\n",
              speedup);
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
