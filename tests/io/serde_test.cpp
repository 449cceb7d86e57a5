// Byte-level and container-level properties of the artifact format:
// primitive round trips, the CRC-32 reference value, chunk-file framing,
// and — most importantly — that every corruption mode (truncation, bit
// flips, wrong magic, version bumps, trailing garbage, unknown layer tags)
// is rejected with a descriptive std::runtime_error instead of being read.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "io/chunk_file.h"
#include "io/layer_serde.h"
#include "io/serde.h"
#include "io/tensor_serde.h"
#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/dense.h"
#include "nn/dropout.h"
#include "nn/pool.h"
#include "tensor/rng.h"

namespace rrambnn::io {
namespace {

namespace fs = std::filesystem;

/// Unique temp file path, removed on destruction.
class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_((fs::temp_directory_path() /
               ("rrambnn_serde_test_" + name)).string()) {
    std::remove(path_.c_str());
  }
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::vector<std::uint8_t> ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), {}};
}

void WriteAll(const std::string& path, const std::vector<std::uint8_t>& b) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(b.data()),
            static_cast<std::streamsize>(b.size()));
}

TEST(Crc32Test, MatchesReferenceValue) {
  const std::string check = "123456789";
  EXPECT_EQ(Crc32(std::span<const std::uint8_t>(
                reinterpret_cast<const std::uint8_t*>(check.data()),
                check.size())),
            0xCBF43926u);
  EXPECT_EQ(Crc32({}), 0u);
}

TEST(ByteSerdeTest, PrimitivesRoundTrip) {
  ByteWriter w;
  w.WriteU8(0xAB);
  w.WriteU32(0xDEADBEEFu);
  w.WriteU64(0x0123456789ABCDEFull);
  w.WriteI32(-7);
  w.WriteI64(-1234567890123ll);
  w.WriteF32(-0.0f);
  w.WriteF64(3.141592653589793);
  w.WriteString("hello artifact");

  ByteReader r(w.bytes(), "test buffer");
  EXPECT_EQ(r.ReadU8(), 0xAB);
  EXPECT_EQ(r.ReadU32(), 0xDEADBEEFu);
  EXPECT_EQ(r.ReadU64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.ReadI32(), -7);
  EXPECT_EQ(r.ReadI64(), -1234567890123ll);
  const float f = r.ReadF32();
  EXPECT_EQ(f, 0.0f);
  EXPECT_TRUE(std::signbit(f));  // -0.0f round-trips bit-exactly
  EXPECT_EQ(r.ReadF64(), 3.141592653589793);
  EXPECT_EQ(r.ReadString(), "hello artifact");
  EXPECT_TRUE(r.exhausted());
  r.ExpectExhausted();
}

TEST(ByteSerdeTest, TruncatedReadThrowsWithContext) {
  ByteWriter w;
  w.WriteU32(1);
  ByteReader r(w.bytes(), "tiny structure");
  (void)r.ReadU32();
  try {
    (void)r.ReadU64();
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("tiny structure"), std::string::npos);
  }
}

TEST(ByteSerdeTest, TrailingBytesDetected) {
  ByteWriter w;
  w.WriteU32(1);
  w.WriteU8(9);
  ByteReader r(w.bytes(), "structure");
  (void)r.ReadU32();
  EXPECT_THROW(r.ExpectExhausted(), std::runtime_error);
}

TEST(TensorSerdeTest, RoundTripIsBitExact) {
  Rng rng(11);
  Tensor t({3, 4, 5});
  rng.FillNormal(t, 0.0f, 2.0f);
  t[0] = -0.0f;

  ByteWriter w;
  SaveTensor(t, w);
  ByteReader r(w.bytes(), "tensor");
  const Tensor back = LoadTensor(r);
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(back, t);  // operator== compares raw floats: bit-identity
}

TEST(TensorSerdeTest, DefaultTensorRoundTrips) {
  ByteWriter w;
  SaveTensor(Tensor(), w);
  ByteReader r(w.bytes(), "tensor");
  EXPECT_EQ(LoadTensor(r), Tensor());
}

TEST(BitMatrixSerdeTest, RoundTripIsBitExact) {
  Rng rng(13);
  std::vector<float> values(static_cast<std::size_t>(7 * 100));
  for (auto& v : values) v = rng.Normal(0.0f, 1.0f);
  const core::BitMatrix m = core::BitMatrix::FromSignRows(values, 7, 100);

  ByteWriter w;
  SaveBitMatrix(m, w);
  ByteReader r(w.bytes(), "bit matrix");
  EXPECT_EQ(LoadBitMatrix(r), m);
}

/// A crafted payload may carry any element count it likes (the container
/// CRC only proves the payload is what was written, not that it is sane);
/// loaders must reject counts that exceed the payload BEFORE allocating,
/// as std::runtime_error rather than std::bad_alloc.
TEST(TensorSerdeTest, HugeElementCountRejectedBeforeAllocation) {
  ByteWriter w;
  w.WriteU32(2);
  w.WriteI64(std::int64_t{1} << 40);
  w.WriteI64(std::int64_t{1} << 40);  // 2^80 elements: also overflows
  ByteReader r(w.bytes(), "tensor");
  EXPECT_THROW((void)LoadTensor(r), std::runtime_error);

  ByteWriter w2;
  w2.WriteU32(1);
  w2.WriteI64(std::int64_t{1} << 40);  // plausible product, absent payload
  ByteReader r2(w2.bytes(), "tensor");
  EXPECT_THROW((void)LoadTensor(r2), std::runtime_error);
}

TEST(BitMatrixSerdeTest, HugeWordCountRejectedBeforeAllocation) {
  ByteWriter w;
  w.WriteI64(std::int64_t{1} << 40);  // rows
  w.WriteI64(64);                     // cols -> 2^40 words, none present
  ByteReader r(w.bytes(), "bit matrix");
  EXPECT_THROW((void)LoadBitMatrix(r), std::runtime_error);
}

TEST(DenseProgramSerdeTest, HugeThresholdCountRejectedBeforeAllocation) {
  ByteWriter w;
  w.WriteU64(1);         // one hidden layer
  SaveBitMatrix(core::BitMatrix(2, 4), w);
  w.WriteU64(1ull << 60);  // threshold count far beyond the payload
  ByteReader r(w.bytes(), "dense program");
  EXPECT_THROW((void)LoadDenseProgram(r), std::runtime_error);
}

TEST(DenseProgramSerdeTest, OutOfRangeThresholdRejected) {
  core::BnnProgram program;
  program.SetInputShape({8, 1, 1});
  program.AddStage(core::DenseHiddenStage(core::BitMatrix(2, 8), {3, 42}));
  program.AddStage(
      core::DenseOutputStage(core::BitMatrix(2, 2), {1.0f, 1.0f}, {0.0f, 0.0f}));
  ByteWriter w;
  SaveDenseProgram(program, w);  // writes without validating
  ByteReader r(w.bytes(), "dense program");
  EXPECT_THROW((void)LoadDenseProgram(r), std::runtime_error);
}

/// Feeds a hand-built program through the "compiled-program" codec. The
/// writer does not validate, so this is exactly the byte stream a hostile
/// artifact can carry; the loader must answer std::runtime_error.
void ExpectProgramBytesRejected(const core::BnnProgram& program) {
  ByteWriter w;
  SaveBnnProgram(program, w);
  ByteReader r(w.bytes(), "program");
  EXPECT_THROW((void)LoadBnnProgram(r), std::runtime_error);
}

core::ProgramStage OutputStage(std::int64_t in) {
  return core::DenseOutputStage(core::BitMatrix(2, in), {1.0f, 1.0f},
                                {0.0f, 0.0f});
}

TEST(ProgramSerdeTest, InputShapeWhoseBitCountOverflowsRejected) {
  core::BnnProgram program;
  program.SetInputShape({std::int64_t{1} << 40, std::int64_t{1} << 40, 1});
  program.AddStage(OutputStage(8));
  ExpectProgramBytesRejected(program);
}

TEST(ProgramSerdeTest, PoolPaddingThatOverflowsOutputSizeRejected) {
  core::BnnProgram program;
  program.SetInputShape({1, 4, 4});
  core::ProgramStage pool;
  pool.kind = core::StageKind::kPool;
  pool.pool.geom = {1, 4, 4, 2, 2, 2, 2, std::int64_t{1} << 62, 0};
  pool.out_shape = {1, 2, 2};
  program.AddStage(std::move(pool));
  program.AddStage(OutputStage(4));
  ExpectProgramBytesRejected(program);
}

TEST(ProgramSerdeTest, ConvGeometryThatOverflowsRejected) {
  const auto conv_program = [](const core::StageGeometry& geom) {
    core::BnnProgram program;
    program.SetInputShape({geom.in_channels, geom.in_h, geom.in_w});
    core::ProgramStage conv;
    conv.gemm.lowering = core::GemmLowering::kConv;
    conv.gemm.geom = geom;
    conv.gemm.weights = core::BitMatrix(2, 1);
    conv.gemm.per_pixel_thresholds = true;
    conv.gemm.thresholds = {1, 1};
    conv.out_shape = {2, 1, 1};
    program.AddStage(std::move(conv));
    program.AddStage(OutputStage(2));
    return program;
  };
  constexpr std::int64_t k1 = 1;
  // in + 2 * pad overflows int64 outright.
  ExpectProgramBytesRejected(
      conv_program({1, 2, 2, 1, 1, 1, 1, k1 << 62, k1 << 62}));
  // Each output side fits, but patches x units (the per-pixel threshold
  // count) does not.
  ExpectProgramBytesRejected(
      conv_program({1, 2, 2, 1, 1, 1, 1, k1 << 30, k1 << 30}));
  // The kernel fits the padded input, but channels x kernel (the patch
  // width) overflows.
  ExpectProgramBytesRejected(
      conv_program({k1 << 20, 1, 1, k1 << 50, 1, 1, 1, k1 << 49, 0}));
}

TEST(BitMatrixSerdeTest, FromWordsRejectsBadShapes) {
  EXPECT_THROW(core::BitMatrix::FromWords(2, 100, std::vector<std::uint64_t>(3)),
               std::invalid_argument);
  // Nonzero padding bits (cols=100 -> 28 padding bits per row tail word).
  std::vector<std::uint64_t> words(4, 0);
  words[3] = 1ull << 63;
  EXPECT_THROW(core::BitMatrix::FromWords(2, 100, std::move(words)),
               std::invalid_argument);
}

TEST(ChunkFileTest, RoundTripPreservesTagsAndPayloads) {
  TempFile file("chunks.bin");
  std::vector<Chunk> chunks;
  chunks.push_back({"alpha", {1, 2, 3}});
  chunks.push_back({"beta", {}});
  WriteChunkFile(file.path(), chunks);

  const std::vector<Chunk> back = ReadChunkFile(file.path());
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].tag, "alpha");
  EXPECT_EQ(back[0].payload, (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_EQ(back[1].tag, "beta");
  EXPECT_TRUE(back[1].payload.empty());

  const ChunkFileInfo info = InspectChunkFile(file.path());
  EXPECT_EQ(info.version, kFormatVersion);
  ASSERT_EQ(info.chunks.size(), 2u);
  EXPECT_EQ(info.chunks[0].bytes, 3u);
}

TEST(ChunkFileTest, SuccessfulWriteLeavesNoTempFile) {
  TempFile file("atomic-clean.bin");
  WriteChunkFile(file.path(), {{"alpha", {1, 2, 3}}});
  EXPECT_TRUE(fs::exists(file.path()));
  EXPECT_FALSE(fs::exists(TempSavePath(file.path())));
}

/// The durable-save guarantee: when a save cannot complete, whatever
/// artifact already lived at the destination is byte-for-byte intact — a
/// serving process hot-loading that path never sees a truncated container.
TEST(ChunkFileTest, FailedSaveLeavesExistingArtifactIntact) {
  TempFile file("atomic-keep.bin");
  WriteChunkFile(file.path(), {{"alpha", {1, 2, 3}}});
  const std::vector<std::uint8_t> before = ReadAll(file.path());

  // Block the staging path with a directory so the temp open fails — the
  // same observable outcome as a full disk or a crash mid-write: the save
  // throws and the destination must be untouched.
  const std::string tmp = TempSavePath(file.path());
  fs::create_directory(tmp);
  EXPECT_THROW(WriteChunkFile(file.path(), {{"beta", {9, 9, 9, 9}}}),
               std::runtime_error);
  fs::remove(tmp);

  EXPECT_EQ(ReadAll(file.path()), before);
  const std::vector<Chunk> back = ReadChunkFile(file.path());
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].tag, "alpha");
}

/// A save over an existing artifact replaces it wholesale (rename, not
/// in-place truncate+write) and the replacement is fully valid.
TEST(ChunkFileTest, OverwriteReplacesArtifactAtomically) {
  TempFile file("atomic-replace.bin");
  WriteChunkFile(file.path(), {{"alpha", std::vector<std::uint8_t>(256, 1)}});
  WriteChunkFile(file.path(), {{"beta", {4, 5}}});
  const std::vector<Chunk> back = ReadChunkFile(file.path());
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].tag, "beta");
  EXPECT_EQ(back[0].payload, (std::vector<std::uint8_t>{4, 5}));
  EXPECT_FALSE(fs::exists(TempSavePath(file.path())));
}

TEST(ChunkFileTest, MissingFileThrows) {
  EXPECT_THROW(ReadChunkFile("/nonexistent/rrambnn-artifact.bin"),
               std::runtime_error);
}

TEST(ChunkFileTest, BadMagicRejected) {
  TempFile file("badmagic.bin");
  WriteChunkFile(file.path(), {{"alpha", {1, 2, 3}}});
  std::vector<std::uint8_t> bytes = ReadAll(file.path());
  bytes[0] = 'X';
  WriteAll(file.path(), bytes);
  try {
    ReadChunkFile(file.path());
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos);
  }
}

TEST(ChunkFileTest, VersionBumpRejected) {
  TempFile file("version.bin");
  WriteChunkFile(file.path(), {{"alpha", {1, 2, 3}}});
  std::vector<std::uint8_t> bytes = ReadAll(file.path());
  bytes[8] = 0x7F;  // LE u32 at 8: a version no build has ever emitted
  WriteAll(file.path(), bytes);
  try {
    ReadChunkFile(file.path());
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
}

TEST(ChunkFileTest, CorruptedPayloadFailsCrc) {
  TempFile file("corrupt.bin");
  WriteChunkFile(file.path(), {{"alpha", {1, 2, 3, 4, 5, 6, 7, 8}}});
  std::vector<std::uint8_t> bytes = ReadAll(file.path());
  bytes.back() ^= 0x40;  // flip a bit inside the last payload byte
  WriteAll(file.path(), bytes);
  try {
    ReadChunkFile(file.path());
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("CRC"), std::string::npos);
  }
}

TEST(ChunkFileTest, TruncatedFileRejected) {
  TempFile file("truncated.bin");
  WriteChunkFile(file.path(), {{"alpha", std::vector<std::uint8_t>(64, 7)}});
  std::vector<std::uint8_t> bytes = ReadAll(file.path());
  bytes.resize(bytes.size() - 10);
  WriteAll(file.path(), bytes);
  EXPECT_THROW(ReadChunkFile(file.path()), std::runtime_error);
}

TEST(ChunkFileTest, TrailingGarbageRejected) {
  TempFile file("trailing.bin");
  WriteChunkFile(file.path(), {{"alpha", {1}}});
  std::vector<std::uint8_t> bytes = ReadAll(file.path());
  bytes.push_back(0xEE);
  WriteAll(file.path(), bytes);
  EXPECT_THROW(ReadChunkFile(file.path()), std::runtime_error);
}

/// A network using every stateful layer kind plus activations round-trips
/// to an inference-identical copy.
TEST(SequentialSerdeTest, InferenceIsBitIdenticalAfterRoundTrip) {
  Rng rng(17);
  nn::Sequential net;
  net.Emplace<nn::BatchNorm>(std::int64_t{3});
  net.Emplace<nn::Dense>(std::int64_t{3}, std::int64_t{8}, rng);
  net.Emplace<nn::HardTanh>();
  net.Emplace<nn::Dropout>(0.9f, rng);
  net.Emplace<nn::Dense>(std::int64_t{8}, std::int64_t{4}, rng,
                         nn::DenseOptions{.binary = true, .use_bias = false});
  net.Emplace<nn::SignSte>();

  // Push some training batches through so BatchNorm accumulates non-trivial
  // running statistics — the part of layer state that is easy to forget.
  Rng data_rng(18);
  for (int step = 0; step < 4; ++step) {
    Tensor x({16, 3});
    data_rng.FillNormal(x, 0.5f, 2.0f);
    (void)net.Forward(x, /*training=*/true);
  }

  ByteWriter w;
  SaveSequential(net, w);
  ByteReader r(w.bytes(), "network");
  nn::Sequential loaded = LoadSequential(r);
  EXPECT_TRUE(r.exhausted());
  ASSERT_EQ(loaded.size(), net.size());
  for (std::size_t i = 0; i < net.size(); ++i) {
    EXPECT_EQ(loaded[i].Name(), net[i].Name()) << "layer " << i;
  }

  Tensor x({5, 3});
  data_rng.FillNormal(x, 0.0f, 1.0f);
  const Tensor y_orig = net.Forward(x, /*training=*/false);
  const Tensor y_load = loaded.Forward(x, /*training=*/false);
  EXPECT_EQ(y_orig, y_load);  // bit-identical floats
}

TEST(SequentialSerdeTest, UnknownLayerTagRejected) {
  ByteWriter w;
  w.WriteU64(1);
  w.WriteString("warp-drive");
  w.WriteU64(0);
  ByteReader r(w.bytes(), "network");
  try {
    (void)LoadSequential(r);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("warp-drive"), std::string::npos);
  }
}

TEST(SequentialSerdeTest, PoolLayersKeepGeometry) {
  nn::Sequential net;
  net.Emplace<nn::Pool2d>(nn::PoolKind::kAverage, std::int64_t{30},
                          std::int64_t{1},
                          nn::Pool2dOptions{.stride_h = 15, .stride_w = 1});
  ByteWriter w;
  SaveSequential(net, w);
  ByteReader r(w.bytes(), "network");
  nn::Sequential loaded = LoadSequential(r);
  const auto& pool = dynamic_cast<const nn::Pool2d&>(loaded[0]);
  EXPECT_EQ(pool.kind(), nn::PoolKind::kAverage);
  EXPECT_EQ(pool.kernel_h(), 30);
  EXPECT_EQ(pool.kernel_w(), 1);
  EXPECT_EQ(pool.stride_h(), 15);
  EXPECT_EQ(pool.stride_w(), 1);
}

}  // namespace
}  // namespace rrambnn::io
