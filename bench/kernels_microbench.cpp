// Google-benchmark microbenchmarks of the deployment-path kernels: packed
// XNOR-popcount layers versus float dense products (the Eq. (3) speedup),
// the batched bit-plane GEMM versus the per-row loop, plus simulated RRAM
// array transactions.
#include <benchmark/benchmark.h>

#include "core/bitgemm.h"
#include "core/bitops.h"
#include "core/bnn_program.h"
#include "nn/gemm.h"
#include "rram/array.h"
#include "tensor/rng.h"

namespace {

using namespace rrambnn;

/// Float dense layer y = W x for the EEG classifier geometry.
void BM_FloatDense2520x80(benchmark::State& state) {
  Rng rng(1);
  Tensor w({80, 2520}), x({1, 2520}), y({1, 80});
  rng.FillNormal(w, 0.0f, 1.0f);
  rng.FillNormal(x, 0.0f, 1.0f);
  for (auto _ : state) {
    y.Fill(0.0f);
    nn::GemmTransBAccumulate(x.data(), w.data(), y.data(), 1, 2520, 80);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * 2520 * 80);
}
BENCHMARK(BM_FloatDense2520x80);

/// Packed XNOR-popcount for the same geometry (deployed BNN inference).
void BM_XnorPopcount2520x80(benchmark::State& state) {
  Rng rng(2);
  std::vector<float> wf(80 * 2520), xf(2520);
  for (auto& v : wf) v = rng.Normal(0.0f, 1.0f);
  for (auto& v : xf) v = rng.Normal(0.0f, 1.0f);
  const core::BitMatrix w = core::BitMatrix::FromSigns(wf, 80, 2520);
  const core::BitVector x = core::BitVector::FromSigns(xf);
  std::vector<std::int64_t> pops(80);
  for (auto _ : state) {
    for (std::int64_t j = 0; j < 80; ++j) {
      pops[static_cast<std::size_t>(j)] = w.RowXnorPopcount(j, x);
    }
    benchmark::DoNotOptimize(pops.data());
  }
  state.SetItemsProcessed(state.iterations() * 2520 * 80);
}
BENCHMARK(BM_XnorPopcount2520x80);

/// Full compiled dense program inference (hidden + output stage).
void BM_DenseProgramPredict(benchmark::State& state) {
  Rng rng(3);
  core::BnnProgram program;
  program.SetInputShape({2520, 1, 1});
  program.AddStage(core::DenseHiddenStage(core::BitMatrix(80, 2520),
                                          std::vector<std::int32_t>(80, 1260)));
  program.AddStage(core::DenseOutputStage(core::BitMatrix(2, 80), {1.0f, 1.0f},
                                          {0.0f, 0.0f}));
  program.Validate();
  std::vector<float> xf(2520);
  for (auto& v : xf) v = rng.Normal(0.0f, 1.0f);
  const core::BitVector x = core::BitVector::FromSigns(xf);
  for (auto _ : state) {
    benchmark::DoNotOptimize(program.Predict(x));
  }
}
BENCHMARK(BM_DenseProgramPredict);

/// Random packed matrix for the GEMM benchmarks.
core::BitMatrix RandomBits(std::int64_t rows, std::int64_t cols,
                           std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> values(static_cast<std::size_t>(rows * cols));
  for (auto& v : values) v = rng.Normal(0.0f, 1.0f);
  return core::BitMatrix::FromSignRows(values, rows, cols);
}

/// Batched bit-plane GEMM on the EEG geometry: an N-row activation batch
/// against the 80x2520 weight plane in one fused kernel.
void BM_XnorGemmBatch2520x80(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  const core::BitMatrix x = RandomBits(n, 2520, 5);
  const core::BitMatrix w = RandomBits(80, 2520, 6);
  std::vector<std::int32_t> pops;
  for (auto _ : state) {
    core::XnorPopcountGemm(x, w, pops);
    benchmark::DoNotOptimize(pops.data());
  }
  state.SetItemsProcessed(state.iterations() * n * 2520 * 80);
}
BENCHMARK(BM_XnorGemmBatch2520x80)->Arg(16)->Arg(64)->Arg(256);

/// Same work through the per-row kernel loop (the pre-batching path).
void BM_XnorRowLoopBatch2520x80(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  const core::BitMatrix x = RandomBits(n, 2520, 5);
  const core::BitMatrix w = RandomBits(80, 2520, 6);
  std::vector<std::int64_t> pops(static_cast<std::size_t>(n * 80));
  core::BitVector row;
  for (auto _ : state) {
    for (std::int64_t i = 0; i < n; ++i) {
      x.ExtractRow(i, row);
      for (std::int64_t j = 0; j < 80; ++j) {
        pops[static_cast<std::size_t>(i * 80 + j)] = w.RowXnorPopcount(j, row);
      }
    }
    benchmark::DoNotOptimize(pops.data());
  }
  state.SetItemsProcessed(state.iterations() * n * 2520 * 80);
}
BENCHMARK(BM_XnorRowLoopBatch2520x80)->Arg(16)->Arg(64)->Arg(256);

/// The scalar GEMM kernel, for the AVX2-vs-scalar ratio on this host.
void BM_XnorGemmBatchScalar2520x80(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  const core::BitMatrix x = RandomBits(n, 2520, 5);
  const core::BitMatrix w = RandomBits(80, 2520, 6);
  std::vector<std::int32_t> pops;
  const bool prev = core::SetXnorGemmForceScalar(true);
  for (auto _ : state) {
    core::XnorPopcountGemm(x, w, pops);
    benchmark::DoNotOptimize(pops.data());
  }
  core::SetXnorGemmForceScalar(prev);
  state.SetItemsProcessed(state.iterations() * n * 2520 * 80);
}
BENCHMARK(BM_XnorGemmBatchScalar2520x80)->Arg(64);

/// Float dense batch on the same geometry, for the Eq. (3) speedup context.
void BM_FloatDenseBatch2520x80(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Rng rng(7);
  Tensor w({80, 2520}), x({n, 2520}), y({n, 80});
  rng.FillNormal(w, 0.0f, 1.0f);
  rng.FillNormal(x, 0.0f, 1.0f);
  for (auto _ : state) {
    y.Fill(0.0f);
    nn::GemmTransBAccumulate(x.data(), w.data(), y.data(), n, 2520, 80);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * n * 2520 * 80);
}
BENCHMARK(BM_FloatDenseBatch2520x80)->Arg(16)->Arg(64);

/// Feature packing on the EEG serving geometry — ROADMAP named it the
/// dominant batched-serving cost (~3x the GEMM time); this tracks the
/// runtime-dispatched (AVX2 where available) sign-packer.
void BM_FromSignRows2520(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Rng rng(8);
  std::vector<float> values(static_cast<std::size_t>(n * 2520));
  for (auto& v : values) v = rng.Normal(0.0f, 1.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::BitMatrix::FromSignRows(values, n, 2520));
  }
  state.SetItemsProcessed(state.iterations() * n * 2520);
}
BENCHMARK(BM_FromSignRows2520)->Arg(16)->Arg(64)->Arg(256);

/// The scalar packing kernel, for the AVX2-vs-scalar ratio on this host.
void BM_FromSignRowsScalar2520(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Rng rng(8);
  std::vector<float> values(static_cast<std::size_t>(n * 2520));
  for (auto& v : values) v = rng.Normal(0.0f, 1.0f);
  const bool prev = core::SetSignPackForceScalar(true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::BitMatrix::FromSignRows(values, n, 2520));
  }
  core::SetSignPackForceScalar(prev);
  state.SetItemsProcessed(state.iterations() * n * 2520);
}
BENCHMARK(BM_FromSignRowsScalar2520)->Arg(64);

/// Simulated RRAM row read with XNOR (32 columns, the fabricated die's
/// word width).
void BM_RramRowXnorRead(benchmark::State& state) {
  rram::DeviceParams params;
  rram::RramArray array(32, 32, params, 7);
  Rng rng(4);
  std::vector<int> weights(32), inputs(32);
  for (auto& w : weights) w = rng.Bernoulli(0.5) ? +1 : -1;
  for (auto& i : inputs) i = rng.Bernoulli(0.5) ? +1 : -1;
  array.ProgramRow(0, weights);
  for (auto _ : state) {
    benchmark::DoNotOptimize(array.RowXnorPopcount(0, inputs));
  }
}
BENCHMARK(BM_RramRowXnorRead);

/// Device programming transaction (SET/RESET sampling + aging update).
void BM_RramProgramSynapse(benchmark::State& state) {
  rram::DeviceParams params;
  rram::RramArray array(8, 8, params, 9);
  int w = +1;
  for (auto _ : state) {
    array.ProgramWeight(0, 0, w);
    w = -w;
  }
}
BENCHMARK(BM_RramProgramSynapse);

}  // namespace

BENCHMARK_MAIN();
