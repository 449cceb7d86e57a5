// Reproduces the Fig. 5 architecture study: maps the EEG and ECG binarized
// classifiers onto 64x64 XNOR macros (RRAM array + XNOR-PCSA + popcount)
// and reports the tiling, utilization, area, programming cost and
// per-inference read energy of the resulting in-memory fabric.
#include <cstdio>

#include "arch/bnn_mapper.h"
#include "bench_common.h"
#include "core/compile.h"

using namespace rrambnn;

namespace {

void Report(const char* name, const core::BnnProgram& program) {
  arch::MapperConfig mc;
  mc.macro_rows = 64;
  mc.macro_cols = 64;
  mc.device.sense_offset_sigma = 0.0;
  mc.device.weak_prob_ref = 0.0;
  arch::MappedBnn mapped(program, mc);
  const arch::CostReport prog = mapped.ProgrammingCost();
  const arch::CostReport inf = mapped.InferenceCost();
  std::printf("%-18s %8lld bits  %5lld macros  util %5.1f%%  "
              "area %7.3f mm2\n", name,
              static_cast<long long>(program.TotalWeightBits()),
              static_cast<long long>(mapped.num_macros()),
              100.0 * mapped.Utilization(), mapped.AreaMm2());
  std::printf("%-18s program: %8.1f nJ (%llu ops)   inference: %8.1f pJ, "
              "%6.2f us\n", "",
              prog.program_energy_pj * 1e-3,
              static_cast<unsigned long long>(prog.program_ops),
              inf.read_energy_pj, inf.latency_us);
}

}  // namespace

int main() {
  std::printf("Fig. 5 architecture reproduction: binarized classifiers "
              "mapped onto 64x64\nXNOR macros (2T2R array + XNOR-PCSA + "
              "popcount), 130nm-class energy model\n\n");

  // Train tiny binarized classifiers so BN thresholds are realistic.
  {
    Rng rng(7);
    nn::Dataset ecg = data::MakeEcgDataset(bench::EcgDataConfig(), 200, rng);
    auto cfg = models::EcgNetConfig::BenchScale();
    cfg.strategy = core::BinarizationStrategy::kBinaryClassifier;
    Rng mrng(3);
    auto built = models::BuildEcgNet(cfg, mrng);
    nn::TrainConfig tc = bench::EcgTrainConfig(cfg.strategy);
    tc.epochs = 10;
    std::vector<std::int64_t> tr, va;
    for (std::int64_t i = 0; i < 160; ++i) tr.push_back(i);
    for (std::int64_t i = 160; i < 200; ++i) va.push_back(i);
    (void)nn::Fit(built.net, ecg.Subset(tr), ecg.Subset(va), tc);
    const auto compiled =
        core::CompileProgram(built.net, built.classifier_start);
    Report("ECG classifier", compiled);
  }
  {
    Rng rng(9);
    auto cfg = models::EegNetConfig::BenchScale();
    cfg.strategy = core::BinarizationStrategy::kBinaryClassifier;
    Rng mrng(5);
    auto built = models::BuildEegNet(cfg, mrng);
    // Shape-only mapping (untrained BN running stats are valid thresholds).
    const auto compiled =
        core::CompileProgram(built.net, built.classifier_start);
    Report("EEG classifier", compiled);
  }

  // Paper-scale EEG classifier (2520 -> 80 -> 2): the Fig. 5 design point.
  {
    Rng mrng(13);
    auto cfg = models::EegNetConfig::PaperScale();
    cfg.strategy = core::BinarizationStrategy::kBinaryClassifier;
    auto built = models::BuildEegNet(cfg, mrng);
    const auto compiled =
        core::CompileProgram(built.net, built.classifier_start);
    Report("EEG paper-scale", compiled);
  }
  std::printf("\n(The fabricated die of Fig. 2 holds one 32x32 macro = 1K "
              "synapses / 2K RRAM cells;\nthe paper-scale EEG classifier "
              "needs ~50 such kilobit arrays, matching its Sec. II\n"
              "architecture discussion.)\n");
  return 0;
}
