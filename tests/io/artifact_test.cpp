// The train-once / serve-anywhere guarantee: an Engine saved to an artifact
// and reloaded (as a serving process would) produces bit-identical
// predictions on every built-in backend with no Train()/Compile() call, and
// damaged artifacts are rejected loudly. Uses a really trained ECG
// classifier on a device corner with programming noise (weak bits) but
// deterministic senses, so the RRAM backends exercise real non-idealities
// while staying reproducible.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "data/ecg_synth.h"
#include "engine/engine.h"
#include "io/artifact.h"
#include "io/chunk_file.h"
#include "models/ecg_model.h"
#include "nn/batchnorm.h"
#include "nn/dense.h"

namespace rrambnn::engine {
namespace {

namespace fs = std::filesystem;

class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_((fs::temp_directory_path() /
               ("rrambnn_artifact_test_" + name)).string()) {
    std::remove(path_.c_str());
  }
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Programming noise on, sense offsets off: the fabric makes real weak-bit
/// errors at deployment but every read is deterministic.
rram::DeviceParams NoisyDeterministicDevice() {
  rram::DeviceParams p;
  p.weak_prob_ref = 5e-3;
  p.sense_offset_sigma = 0.0;
  return p;
}

/// One trained-and-saved engine shared by all round-trip tests.
class SavedEcgArtifact : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    file_ = new TempFile("roundtrip.rbnn");

    Rng rng(7);
    data::EcgSynthConfig dc;
    dc.samples = 80;
    dc.sample_rate_hz = 100.0;
    data_ = new nn::Dataset(data::MakeEcgDataset(dc, 120, rng));

    nn::TrainConfig tc;
    tc.epochs = 3;
    tc.batch_size = 16;

    EngineConfig cfg;
    cfg.WithStrategy(core::BinarizationStrategy::kBinaryClassifier)
        .WithTrain(tc)
        .WithDevice(NoisyDeterministicDevice())
        .WithFaultBer(1e-3, /*seed=*/55)
        .WithRramShards(2);
    // Capture dc by value: the factory lives as long as engine_, well past
    // this stack frame (it fires again on any future Train call).
    engine_ = new Engine(cfg, [dc](const EngineConfig& ec, Rng& mrng) {
      models::EcgNetConfig mc = models::EcgNetConfig::BenchScale();
      mc.samples = dc.samples;
      mc.strategy = ec.strategy;
      auto built = models::BuildEcgNet(mc, mrng);
      return ModelSpec{std::move(built.net), built.classifier_start};
    });
    (void)engine_->Train(*data_, *data_);
    engine_->SaveArtifact(file_->path());
  }

  static void TearDownTestSuite() {
    delete engine_;
    delete data_;
    delete file_;
    engine_ = nullptr;
    data_ = nullptr;
    file_ = nullptr;
  }

  static TempFile* file_;
  static Engine* engine_;
  static nn::Dataset* data_;
};

TempFile* SavedEcgArtifact::file_ = nullptr;
Engine* SavedEcgArtifact::engine_ = nullptr;
nn::Dataset* SavedEcgArtifact::data_ = nullptr;

TEST_F(SavedEcgArtifact, LoadedEngineIsTrainedAndCompiled) {
  Engine loaded = Engine::FromArtifact(file_->path());
  EXPECT_TRUE(loaded.trained());
  EXPECT_TRUE(loaded.compiled());
  EXPECT_FALSE(loaded.deployed());
  EXPECT_EQ(loaded.classifier_start(), engine_->classifier_start());
  EXPECT_EQ(loaded.net().size(), engine_->net().size());
  EXPECT_EQ(loaded.compiled_program().TotalWeightBits(),
            engine_->compiled_program().TotalWeightBits());
  // A loaded engine has no ModelFactory: retraining needs an explicit one.
  EXPECT_THROW((void)loaded.Train(*data_, *data_), std::logic_error);
}

TEST_F(SavedEcgArtifact, ConfigFieldsRoundTrip) {
  Engine loaded = Engine::FromArtifact(file_->path());
  const EngineConfig& cfg = loaded.config();
  EXPECT_EQ(cfg.strategy, core::BinarizationStrategy::kBinaryClassifier);
  EXPECT_EQ(cfg.backend_name, engine_->config().backend_name);
  EXPECT_EQ(cfg.threads, engine_->config().threads);
  EXPECT_EQ(cfg.batch_size, engine_->config().batch_size);
  EXPECT_EQ(cfg.backend.rram_shards, 2);
  EXPECT_EQ(cfg.backend.fault_ber, 1e-3);
  EXPECT_EQ(cfg.backend.fault_seed, 55u);
  EXPECT_EQ(cfg.backend.mapper.device.weak_prob_ref, 5e-3);
  EXPECT_EQ(cfg.backend.mapper.device.sense_offset_sigma, 0.0);
  EXPECT_EQ(cfg.backend.mapper.macro_rows, engine_->config().backend.mapper.macro_rows);
  EXPECT_EQ(cfg.backend.mapper.seed, engine_->config().backend.mapper.seed);
}

/// The acceptance property: per backend, deploy the in-process engine and a
/// freshly loaded engine and compare predictions element-wise. Programming
/// noise, fault injection and sharding are all in play; determinism comes
/// from the seeds stored in the artifact.
TEST_F(SavedEcgArtifact, PredictionsBitIdenticalOnAllBackends) {
  for (const std::string backend :
       {"reference", "fault", "rram", "rram-sharded"}) {
    engine_->Deploy(backend);
    const std::vector<std::int64_t> expected = engine_->Predict(data_->x);

    Engine loaded = Engine::FromArtifact(file_->path());
    loaded.Deploy(backend);
    const std::vector<std::int64_t> actual = loaded.Predict(data_->x);
    ASSERT_EQ(actual.size(), expected.size()) << backend;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(actual[i], expected[i])
          << "backend " << backend << ", row " << i;
    }
    EXPECT_EQ(loaded.Evaluate(*data_), engine_->Evaluate(*data_)) << backend;
  }
}

/// Container format is a storage decision, never a numerical one: the same
/// trained pipeline stored as v1 (copied), v2 (mmap-ed zero-copy, plus the
/// forced-copy and lazy-verify variants) and v2c (RLZ cold storage) must
/// predict bit-identically on every backend.
TEST_F(SavedEcgArtifact, AllFormatsBitIdenticalOnAllBackends) {
  struct Variant {
    const char* name;
    io::ArtifactWriteOptions write;
    io::LoadArtifactOptions load;
    io::ArtifactLoadMode expect_mode;
  };
  const Variant variants[] = {
      {"v1", {io::kFormatVersion, false}, {true, true},
       io::ArtifactLoadMode::kCopied},
      {"v2-mmap", {io::kFormatVersionV2, false}, {true, true},
       io::ArtifactLoadMode::kMapped},
      {"v2-copy", {io::kFormatVersionV2, false}, {false, true},
       io::ArtifactLoadMode::kCopied},
      {"v2-lazy", {io::kFormatVersionV2, false}, {true, false},
       io::ArtifactLoadMode::kMapped},
      {"v2c", {io::kFormatVersionV2, true}, {true, true},
       io::ArtifactLoadMode::kDecompressed},
  };
  for (const std::string backend :
       {"reference", "fault", "rram", "rram-sharded"}) {
    engine_->Deploy(backend);
    const std::vector<std::int64_t> expected = engine_->Predict(data_->x);
    for (const Variant& v : variants) {
      TempFile file(std::string("fmt_") + v.name + ".rbnn");
      engine_->SaveArtifact(file.path(), v.write);
      Engine loaded = Engine::FromArtifact(file.path(), v.load);
      EXPECT_EQ(loaded.artifact_load_info().mode, v.expect_mode) << v.name;
      loaded.Deploy(backend);
      EXPECT_EQ(loaded.Predict(data_->x), expected)
          << v.name << " on " << backend;
    }
  }
}

/// The memory story behind the fleet mode: a mapped engine's private bytes
/// are the structural chunks only; its bulk bit-planes stay attributed to
/// the shared file mapping.
TEST_F(SavedEcgArtifact, LoadInfoAccountsResidentAndMappedBytes) {
  TempFile v2(std::string("info.rbnn"));
  engine_->SaveArtifact(v2.path(),
                        {io::kFormatVersionV2, /*compress=*/false});

  Engine mapped = Engine::FromArtifact(v2.path());
  const io::ArtifactLoadInfo& mi = mapped.artifact_load_info();
  EXPECT_EQ(mi.format_version, io::kFormatVersionV2);
  EXPECT_EQ(mi.mode, io::ArtifactLoadMode::kMapped);
  EXPECT_GT(mi.mapped_bytes, 0u);
  EXPECT_LT(mi.resident_bytes, mi.mapped_bytes);

  Engine copied = Engine::FromArtifact(v2.path(), io::LoadArtifactOptions{
                                                      /*allow_mmap=*/false,
                                                      /*verify=*/true});
  const io::ArtifactLoadInfo& ci = copied.artifact_load_info();
  EXPECT_EQ(ci.mode, io::ArtifactLoadMode::kCopied);
  EXPECT_EQ(ci.mapped_bytes, 0u);
  // The copy privatizes what the mapped load shares.
  EXPECT_GT(ci.resident_bytes, mi.resident_bytes);
}

/// Migration rewrites the container, never the model: v1 -> v2 -> v2c and
/// back to v1 keeps predictions bit-identical, and each hop lands in the
/// requested container version.
TEST_F(SavedEcgArtifact, MigrationChainPreservesPredictions) {
  engine_->Deploy("reference");
  const std::vector<std::int64_t> expected = engine_->Predict(data_->x);

  TempFile v1("mig_v1.rbnn"), v2("mig_v2.rbnn"), v2c("mig_v2c.rbnn"),
      back("mig_back.rbnn");
  engine_->SaveArtifact(v1.path(), {io::kFormatVersion, false});
  io::MigrateArtifact(v1.path(), v2.path(), {io::kFormatVersionV2, false});
  io::MigrateArtifact(v2.path(), v2c.path(), {io::kFormatVersionV2, true});
  io::MigrateArtifact(v2c.path(), back.path(), {io::kFormatVersion, false});

  EXPECT_EQ(io::ProbeArtifactVersion(v2.path()), io::kFormatVersionV2);
  EXPECT_EQ(io::ProbeArtifactVersion(v2c.path()), io::kFormatVersionV2);
  EXPECT_EQ(io::ProbeArtifactVersion(back.path()), io::kFormatVersion);
  for (const std::string& path :
       {v2.path(), v2c.path(), back.path()}) {
    Engine loaded = Engine::FromArtifact(path);
    loaded.Deploy("reference");
    EXPECT_EQ(loaded.Predict(data_->x), expected) << path;
  }
}

/// A multi-model server loads artifacts from several request threads at
/// once; concurrent FromArtifact calls on the same file must each stand up
/// an independent, fully correct engine.
TEST_F(SavedEcgArtifact, ConcurrentLoadsServeIdenticalPredictions) {
  engine_->Deploy("reference");
  const std::vector<std::int64_t> expected = engine_->Predict(data_->x);

  constexpr int kThreads = 8;
  std::vector<std::vector<std::int64_t>> results(kThreads);
  std::vector<std::exception_ptr> errors(kThreads);
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      try {
        Engine loaded = Engine::FromArtifact(file_->path());
        loaded.Deploy("reference");
        results[static_cast<std::size_t>(t)] = loaded.Predict(data_->x);
      } catch (...) {
        errors[static_cast<std::size_t>(t)] = std::current_exception();
      }
    });
  }
  for (auto& thread : pool) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    if (errors[static_cast<std::size_t>(t)]) {
      std::rethrow_exception(errors[static_cast<std::size_t>(t)]);
    }
    EXPECT_EQ(results[static_cast<std::size_t>(t)], expected)
        << "thread " << t;
  }
}

TEST_F(SavedEcgArtifact, ThreadCountNeverChangesLoadedResults) {
  Engine loaded1 = Engine::FromArtifact(file_->path());
  loaded1.Deploy("reference");
  const std::vector<std::int64_t> preds1 = loaded1.Predict(data_->x);

  EngineConfig cfg = loaded1.config();
  cfg.WithThreads(3);
  Engine loaded3 = Engine::FromArtifact(file_->path(), cfg);
  loaded3.Deploy("reference");
  EXPECT_EQ(loaded3.Predict(data_->x), preds1);
}

TEST_F(SavedEcgArtifact, ConfigOverrideControlsServing) {
  EngineConfig cfg = Engine::FromArtifact(file_->path()).config();
  cfg.WithBackend("fault").WithThreads(2);
  Engine loaded = Engine::FromArtifact(file_->path(), cfg);
  EXPECT_EQ(loaded.Deploy().name(), "fault");
}

TEST_F(SavedEcgArtifact, DescribeArtifactMentionsStructure) {
  const std::string report = io::DescribeArtifact(file_->path());
  EXPECT_NE(report.find("engine-config"), std::string::npos);
  EXPECT_NE(report.find("network"), std::string::npos);
  EXPECT_NE(report.find("compiled-bnn"), std::string::npos);
  EXPECT_NE(report.find("classifier starts at"), std::string::npos);
}

TEST_F(SavedEcgArtifact, CorruptedArtifactRejected) {
  std::vector<char> bytes;
  {
    std::ifstream in(file_->path(), std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  TempFile corrupt("corrupt.rbnn");
  bytes[bytes.size() / 2] ^= 0x10;  // flip one bit mid-payload
  {
    std::ofstream out(corrupt.path(), std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_THROW(Engine::FromArtifact(corrupt.path()), std::runtime_error);
}

TEST_F(SavedEcgArtifact, TruncatedArtifactRejected) {
  std::vector<char> bytes;
  {
    std::ifstream in(file_->path(), std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  TempFile truncated("truncated.rbnn");
  bytes.resize(bytes.size() * 2 / 3);
  {
    std::ofstream out(truncated.path(), std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_THROW(Engine::FromArtifact(truncated.path()), std::runtime_error);
}

TEST_F(SavedEcgArtifact, VersionBumpedArtifactRejected) {
  std::vector<char> bytes;
  {
    std::ifstream in(file_->path(), std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  TempFile bumped("bumped.rbnn");
  bytes[8] = 0x7F;  // a version no build has ever emitted
  {
    std::ofstream out(bumped.path(), std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  try {
    Engine::FromArtifact(bumped.path());
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
}

std::uint64_t Fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::vector<std::uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), {}};
}

/// Dense GEMM stage filled from raw mt19937_64 words (fully specified by the
/// standard, unlike the distributions), so the bytes are toolchain-stable.
core::ProgramStage PinnedDenseStage(std::int64_t units, std::int64_t in,
                                    bool is_output, std::mt19937_64& bits) {
  core::BitMatrix weights(units, in);
  for (std::int64_t r = 0; r < units; ++r) {
    for (std::int64_t c = 0; c < in; ++c) {
      weights.Set(r, c, (bits() & 1u) != 0 ? +1 : -1);
    }
  }
  if (!is_output) {
    std::vector<std::int32_t> thresholds;
    for (std::int64_t r = 0; r < units; ++r) {
      thresholds.push_back(static_cast<std::int32_t>(
          bits() % static_cast<std::uint64_t>(in + 2)));
    }
    return core::DenseHiddenStage(std::move(weights), std::move(thresholds));
  }
  std::vector<float> scale, offset;
  for (std::int64_t r = 0; r < units; ++r) {
    scale.push_back(static_cast<float>(bits() % 512) / 64.0f);
    offset.push_back(static_cast<float>(bits() % 512) / 64.0f - 4.0f);
  }
  return core::DenseOutputStage(std::move(weights), std::move(scale),
                                std::move(offset));
}

/// Dense artifacts are byte-stable: a fixed, seeded pure-dense program
/// saved as v1 and as v2 must reproduce these FNV-1a digests of the
/// "compiled-bnn" payload and of the whole file. A change to either
/// constant means dense artifacts already on disk no longer match what this
/// build writes.
TEST(ArtifactBytesTest, DenseProgramBytesArePinned) {
  std::mt19937_64 bits(2024);
  core::BnnProgram program;
  program.SetInputShape({70, 1, 1});
  program.AddStage(PinnedDenseStage(24, 70, false, bits));
  program.AddStage(PinnedDenseStage(10, 24, false, bits));
  program.AddStage(PinnedDenseStage(3, 10, true, bits));
  program.Validate();
  ASSERT_TRUE(program.IsPureDense());

  nn::Sequential net;
  net.Emplace<nn::BatchNorm>(std::int64_t{70});
  EngineConfig cfg;
  cfg.WithStrategy(core::BinarizationStrategy::kBinaryClassifier);

  struct Pinned {
    std::uint32_t version;
    std::uint64_t payload;
    std::uint64_t file;
  };
  const Pinned pinned[] = {
      {io::kFormatVersion, 0x1c614341b7e475eeull, 0x952416491c744874ull},
      {io::kFormatVersionV2, 0xb50c083959a980f6ull, 0x50b10b8218fe53a9ull},
  };
  for (const Pinned& p : pinned) {
    TempFile file("pinned_v" + std::to_string(p.version) + ".rbnn");
    io::SaveEngineArtifact(file.path(), cfg, net, /*classifier_start=*/1,
                           program, {p.version, /*compress=*/false});
    const std::vector<io::Chunk> chunks = io::ReadChunkFile(file.path());
    const io::Chunk* compiled = nullptr;
    for (const io::Chunk& chunk : chunks) {
      if (chunk.tag == "compiled-bnn") compiled = &chunk;
    }
    ASSERT_NE(compiled, nullptr) << "v" << p.version;
    EXPECT_EQ(Fnv1a(compiled->payload), p.payload) << "v" << p.version;
    EXPECT_EQ(Fnv1a(ReadFileBytes(file.path())), p.file) << "v" << p.version;
  }
}

TEST(ArtifactLifecycleTest, SaveBeforeTrainThrows) {
  EngineConfig cfg;
  Engine engine(cfg, [](const EngineConfig&, Rng& rng) {
    nn::Sequential net;
    net.Emplace<nn::Dense>(std::int64_t{4}, std::int64_t{2}, rng,
                           nn::DenseOptions{.binary = true});
    net.Emplace<nn::BatchNorm>(std::int64_t{2});
    return ModelSpec{std::move(net), 0};
  });
  EXPECT_THROW(engine.SaveArtifact("/tmp/never-written.rbnn"),
               std::logic_error);
}

TEST(ArtifactLifecycleTest, MissingFileThrows) {
  EXPECT_THROW(Engine::FromArtifact("/nonexistent/model.rbnn"),
               std::runtime_error);
}

}  // namespace
}  // namespace rrambnn::engine
