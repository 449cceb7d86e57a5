// Serving-throughput driver: rows/sec per execution backend on the paper's
// EEG deployment geometry (2520 -> 80 -> 2), with a batch-size sweep over
// the packed batch API and a shard sweep over the multi-fabric RRAM backend.
// Emits machine-readable BENCH_serving.json so the serving-performance
// trajectory is tracked from PR to PR.
//
// Usage: bench_throughput_serving [--smoke] [--out PATH]
//   --smoke   small row counts / short timing windows (CI smoke test)
//   --out     output path of the JSON report (default BENCH_serving.json)
//
// The RRAM backends run with zero sense offset (deterministic reads): that
// is the deployment-serving regime in which the sharded backend snapshots
// each chip's readback planes. The single-fabric "rram" backend always
// serves through the per-row transaction-level simulation — it is the
// fidelity substrate the sharded deployment is measured against.
#include <algorithm>
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
#include "engine/registry.h"
#include "tensor/rng.h"

namespace {

using namespace rrambnn;

constexpr std::int64_t kIn = 2520, kHidden = 80, kClasses = 2;

core::BitMatrix RandomBits(std::int64_t rows, std::int64_t cols, Rng& rng) {
  core::BitMatrix m(rows, cols);
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t c = 0; c < cols; ++c) {
      m.Set(r, c, rng.Bernoulli(0.5) ? +1 : -1);
    }
  }
  return m;
}

core::BnnProgram EegGeometryProgram(Rng& rng) {
  core::BnnProgram program;
  program.SetInputShape({kIn, 1, 1});
  core::BitMatrix hidden = RandomBits(kHidden, kIn, rng);
  program.AddStage(core::DenseHiddenStage(
      std::move(hidden),
      std::vector<std::int32_t>(kHidden, static_cast<std::int32_t>(kIn / 2))));
  program.AddStage(core::DenseOutputStage(
      RandomBits(kClasses, kHidden, rng), std::vector<float>(kClasses, 1.0f),
      std::vector<float>(kClasses, 0.0f)));
  program.Validate();
  return program;
}

struct Result {
  std::string backend;
  int shards = 0;           // 0 = not a sharded backend
  std::int64_t batch_rows;  // rows per serving call
  double rows_per_sec;
};

/// Runs `serve` (which processes `rows` rows per call) repeatedly for at
/// least `min_seconds` after one untimed warmup call and reports rows/sec.
template <typename Fn>
double MeasureRowsPerSec(std::int64_t rows, double min_seconds, Fn&& serve) {
  serve();  // warmup: backend lazy state (readback snapshots), caches
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
  std::string out_path = "BENCH_serving.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    }
  }
  const std::int64_t n = smoke ? 256 : 2048;   // software-backend rows
  // Rows per sharded serving call: large enough that per-chip routing
  // overhead amortizes (the single-fabric transaction sim serves the same
  // count for a like-for-like rows/sec comparison).
  const std::int64_t n_rram = smoke ? 8 : 128;
  const double min_seconds = smoke ? 0.05 : 0.4;

  Rng rng(1);
  const core::BnnProgram program = EegGeometryProgram(rng);
  Tensor features({n, kIn});
  rng.FillNormal(features, 0.0f, 1.0f);

  engine::BackendSpec spec;
  spec.mapper.device.sense_offset_sigma = 0.0;  // deterministic reads
  spec.mapper.device.weak_prob_ref = 0.0;

  std::vector<Result> results;
  const auto row_span = [&](std::int64_t i) {
    return std::span<const float>(features.data() + i * kIn,
                                  static_cast<std::size_t>(kIn));
  };

  // -- reference, legacy per-row serving loop (the pre-batching path) -------
  {
    auto backend = engine::MakeBackend("reference", program, spec);
    std::vector<std::int64_t> preds(static_cast<std::size_t>(n));
    const double rps = MeasureRowsPerSec(n, min_seconds, [&] {
      for (std::int64_t i = 0; i < n; ++i) {
        const core::BitVector x = core::BitVector::FromSigns(row_span(i));
        preds[static_cast<std::size_t>(i)] = backend->Predict(x);
      }
    });
    results.push_back({"reference-row", 0, 1, rps});
    std::printf("%-24s batch %5lld  %12.0f rows/s\n", "reference-row", 1LL,
                rps);
  }

  // -- reference, packed batch API, batch-size sweep ------------------------
  for (const std::int64_t batch : {std::int64_t{1}, std::int64_t{16},
                                   std::int64_t{64}, std::int64_t{256}, n}) {
    auto backend = engine::MakeBackend("reference", program, spec);
    const double rps = MeasureRowsPerSec(n, min_seconds, [&] {
      for (std::int64_t start = 0; start < n; start += batch) {
        const std::int64_t stop = std::min(n, start + batch);
        const core::BitMatrix packed = core::BitMatrix::FromSignRows(
            std::span<const float>(features.data() + start * kIn,
                                   static_cast<std::size_t>((stop - start) *
                                                            kIn)),
            stop - start, kIn);
        (void)backend->PredictPacked(packed);
      }
    });
    results.push_back({"reference-batch", 0, batch, rps});
    std::printf("%-24s batch %5lld  %12.0f rows/s\n", "reference-batch",
                static_cast<long long>(batch), rps);
  }

  // -- fault backend through the batched path -------------------------------
  {
    auto backend = engine::MakeBackend("fault", program, spec);
    const core::BitMatrix packed = core::BitMatrix::FromSignRows(
        std::span<const float>(features.data(),
                               static_cast<std::size_t>(n * kIn)),
        n, kIn);
    const double rps = MeasureRowsPerSec(
        n, min_seconds, [&] { (void)backend->PredictPacked(packed); });
    results.push_back({"fault-batch", 0, n, rps});
    std::printf("%-24s batch %5lld  %12.0f rows/s\n", "fault-batch",
                static_cast<long long>(n), rps);
  }

  // -- single-fabric rram: per-row transaction-level simulation -------------
  {
    auto backend = engine::MakeBackend("rram", program, spec);
    std::vector<std::int64_t> preds(static_cast<std::size_t>(n_rram));
    const double rps = MeasureRowsPerSec(n_rram, min_seconds, [&] {
      for (std::int64_t i = 0; i < n_rram; ++i) {
        const core::BitVector x = core::BitVector::FromSigns(row_span(i));
        preds[static_cast<std::size_t>(i)] = backend->Predict(x);
      }
    });
    results.push_back({"rram", 0, 1, rps});
    std::printf("%-24s batch %5lld  %12.0f rows/s\n", "rram", 1LL, rps);
  }

  // -- sharded multi-fabric rram, shard sweep -------------------------------
  for (const int shards : {1, 2, 4, 8}) {
    spec.rram_shards = shards;
    auto backend = engine::MakeBackend("rram-sharded", program, spec);
    const core::BitMatrix packed = core::BitMatrix::FromSignRows(
        std::span<const float>(features.data(),
                               static_cast<std::size_t>(n_rram * kIn)),
        n_rram, kIn);
    const double rps = MeasureRowsPerSec(
        n_rram, min_seconds, [&] { (void)backend->PredictPacked(packed); });
    results.push_back({"rram-sharded", shards, n_rram, rps});
    std::printf("%-24s shards %4d  %12.0f rows/s\n", "rram-sharded", shards,
                rps);
  }

  // -- speedup summary and JSON ---------------------------------------------
  const auto find = [&](const std::string& name, int shards,
                        std::int64_t batch) -> const Result* {
    const Result* best = nullptr;
    for (const auto& r : results) {
      if (r.backend != name || r.shards != shards) continue;
      if (batch >= 0 && r.batch_rows != batch) continue;
      if (!best || r.rows_per_sec > best->rows_per_sec) best = &r;
    }
    return best;
  };
  const Result* ref_row = find("reference-row", 0, -1);
  const Result* ref_batch = find("reference-batch", 0, -1);  // best batch
  const Result* rram1 = find("rram", 0, -1);
  const Result* sharded1 = find("rram-sharded", 1, -1);
  const Result* sharded8 = find("rram-sharded", 8, -1);
  const double batch_speedup =
      ref_batch && ref_row ? ref_batch->rows_per_sec / ref_row->rows_per_sec
                           : 0.0;
  const double shard_speedup =
      sharded8 && rram1 ? sharded8->rows_per_sec / rram1->rows_per_sec : 0.0;
  // What splitting a batch across chips costs on top of the snapshot
  // serving mode (sharded-1 already has the snapshot GEMM). Chips serve
  // their ranges in order on the calling thread, so this stays at or below
  // 1 on any host.
  const double shard_routing =
      sharded8 && sharded1 ? sharded8->rows_per_sec / sharded1->rows_per_sec
                           : 0.0;
  std::printf("\nbatched reference vs per-row:  %.2fx (target >= 3x)\n",
              batch_speedup);
  std::printf("rram-sharded x8 vs rram:       %.2fx (target >= 4x)\n",
              shard_speedup);
  std::printf("rram-sharded x8 vs x1:         %.2fx (per-chip routing; chips "
              "serve inline)\n",
              shard_routing);

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out,
               "  \"geometry\": {\"inputs\": %lld, \"hidden\": %lld, "
               "\"classes\": %lld},\n",
               static_cast<long long>(kIn), static_cast<long long>(kHidden),
               static_cast<long long>(kClasses));
  std::fprintf(out, "  \"kernel\": \"%s\",\n", core::XnorGemmKernelName());
  std::fprintf(out, "  \"hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(out, "  \"sense_offset_sigma\": 0.0,\n");
  std::fprintf(out, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(out, "  \"results\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    std::fprintf(out,
                 "    {\"backend\": \"%s\", \"shards\": %d, \"batch_rows\": "
                 "%lld, \"rows_per_sec\": %.1f}%s\n",
                 r.backend.c_str(), r.shards,
                 static_cast<long long>(r.batch_rows), r.rows_per_sec,
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"speedups\": {\n");
  std::fprintf(out,
               "    \"reference_batch_vs_row\": %.2f,\n"
               "    \"rram_sharded8_vs_rram\": %.2f,\n"
               "    \"rram_sharded8_vs_sharded1_routing\": %.2f\n",
               batch_speedup, shard_speedup, shard_routing);
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"criteria\": {\n");
  std::fprintf(out, "    \"reference_batch_ge_3x\": %s,\n",
               batch_speedup >= 3.0 ? "true" : "false");
  std::fprintf(out, "    \"rram_sharded8_ge_4x\": %s\n",
               shard_speedup >= 4.0 ? "true" : "false");
  std::fprintf(out, "  }\n");
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
