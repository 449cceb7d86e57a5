#include "io/tensor_serde.h"

#include <bit>
#include <cstring>
#include <limits>
#include <stdexcept>

namespace rrambnn::io {

namespace {

/// Guards every allocation driven by a file-supplied element count: the
/// elements still have to be read out of this reader, so a count whose
/// encoded size exceeds the remaining payload is corrupt by construction.
/// Checking BEFORE allocating turns a crafted huge count into the
/// documented std::runtime_error instead of std::bad_alloc/OOM.
void CheckCountFitsPayload(const ByteReader& r, std::uint64_t count,
                           std::uint64_t elem_bytes, const char* what) {
  if (count > r.remaining() / elem_bytes) {
    throw std::runtime_error("artifact corrupt: " + std::string(what) +
                             " count " + std::to_string(count) +
                             " exceeds the remaining payload");
  }
}

// -- Blob arena routing (the v2 artifact layout) -----------------------------
//
// The on-disk blob encoding is little-endian elements back to back. On an LE
// host (every deployment target) that is exactly the in-memory layout, so
// writes are one memcpy-equivalent Append and reads can *borrow* the bytes
// in place — the zero-copy load path. A BE host converts element-wise on
// both sides and never borrows; bit-identity across hosts is preserved, only
// the zero-copy property is LE-only.

constexpr bool kHostIsLittleEndian =
    std::endian::native == std::endian::little;

template <typename T>
std::span<const std::uint8_t> AsBytes(std::span<const T> values) {
  return {reinterpret_cast<const std::uint8_t*>(values.data()),
          values.size() * sizeof(T)};
}

/// True when `p` may be reinterpreted as a T* (the blob arena aligns to 64,
/// so this only fails for a hand-corrupted directory).
template <typename T>
bool AlignedFor(const std::uint8_t* p) {
  return reinterpret_cast<std::uintptr_t>(p) % alignof(T) == 0;
}

BlobArena::Ref AppendF32Blob(BlobArena& arena, std::span<const float> values) {
  if constexpr (kHostIsLittleEndian) {
    return arena.Append(AsBytes(values));
  } else {
    ByteWriter tmp;
    for (const float v : values) tmp.WriteF32(v);
    return arena.Append(tmp.bytes());
  }
}

BlobArena::Ref AppendU64Blob(BlobArena& arena,
                             std::span<const std::uint64_t> values) {
  if constexpr (kHostIsLittleEndian) {
    return arena.Append(AsBytes(values));
  } else {
    ByteWriter tmp;
    for (const std::uint64_t v : values) tmp.WriteU64(v);
    return arena.Append(tmp.bytes());
  }
}

/// Resolves a blob reference of exactly `count` elements of width
/// `elem_bytes`, throwing on any size mismatch.
std::span<const std::uint8_t> ReadSizedBlob(ByteReader& r, std::uint64_t count,
                                            std::uint64_t elem_bytes,
                                            const char* what) {
  const std::span<const std::uint8_t> blob = r.ReadBlobRef();
  if (count > std::numeric_limits<std::uint64_t>::max() / elem_bytes ||
      blob.size() != count * elem_bytes) {
    throw std::runtime_error("artifact corrupt: " + std::string(what) +
                             " blob holds " + std::to_string(blob.size()) +
                             " byte(s), structure declares " +
                             std::to_string(count) + " element(s)");
  }
  return blob;
}

}  // namespace

void SaveTensor(const Tensor& t, ByteWriter& w) {
  w.WriteU32(static_cast<std::uint32_t>(t.rank()));
  for (const std::int64_t d : t.shape()) w.WriteI64(d);
  // Rank 0 is the default-constructed tensor and carries no elements; the
  // loader returns before reading any, so neither layout writes any.
  if (t.rank() == 0) return;
  if (BlobArena* arena = w.blob_arena()) {
    const BlobArena::Ref ref = AppendF32Blob(
        *arena, std::span<const float>(t.data(),
                                       static_cast<std::size_t>(t.size())));
    w.WriteU64(ref.offset);
    w.WriteU64(ref.bytes);
    return;
  }
  for (std::int64_t i = 0; i < t.size(); ++i) w.WriteF32(t[i]);
}

Tensor LoadTensor(ByteReader& r) {
  const std::uint32_t rank = r.ReadU32();
  if (rank > 8) {
    throw std::runtime_error("artifact corrupt: tensor rank " +
                             std::to_string(rank) + " is implausible");
  }
  // A default-constructed Tensor has empty shape AND empty data, which the
  // shape/data constructor rejects (NumElements({}) == 1); mirror it here.
  if (rank == 0) return Tensor();
  Shape shape(rank);
  std::uint64_t n = 1;
  for (auto& d : shape) {
    d = r.ReadI64();
    if (d < 0) {
      throw std::runtime_error("artifact corrupt: negative tensor dimension");
    }
    // Overflow-safe product: a dimension set that overflows u64 certainly
    // does not fit the payload either.
    if (d > 0 && n > std::numeric_limits<std::uint64_t>::max() /
                         static_cast<std::uint64_t>(d)) {
      throw std::runtime_error("artifact corrupt: tensor element count "
                               "overflows");
    }
    n *= static_cast<std::uint64_t>(d);
  }
  if (r.has_blob_source()) {
    const std::span<const std::uint8_t> blob =
        ReadSizedBlob(r, n, sizeof(float), "tensor element");
    if constexpr (kHostIsLittleEndian) {
      if (r.blob_borrow() && AlignedFor<float>(blob.data())) {
        return Tensor::FromBorrowed(
            std::move(shape),
            {reinterpret_cast<const float*>(blob.data()),
             static_cast<std::size_t>(n)},
            r.blob_keepalive());
      }
      std::vector<float> data(static_cast<std::size_t>(n));
      std::memcpy(data.data(), blob.data(), blob.size());
      return Tensor(std::move(shape), std::move(data));
    } else {
      ByteReader blob_reader(blob, "tensor element blob");
      std::vector<float> data(static_cast<std::size_t>(n));
      for (auto& v : data) v = blob_reader.ReadF32();
      return Tensor(std::move(shape), std::move(data));
    }
  }
  CheckCountFitsPayload(r, n, sizeof(float), "tensor element");
  std::vector<float> data(static_cast<std::size_t>(n));
  for (auto& v : data) v = r.ReadF32();
  return Tensor(std::move(shape), std::move(data));
}

void SaveBitMatrix(const core::BitMatrix& m, ByteWriter& w) {
  w.WriteI64(m.rows());
  w.WriteI64(m.cols());
  if (BlobArena* arena = w.blob_arena()) {
    const BlobArena::Ref ref = AppendU64Blob(*arena, m.words());
    w.WriteU64(ref.offset);
    w.WriteU64(ref.bytes);
    return;
  }
  for (const std::uint64_t word : m.words()) w.WriteU64(word);
}

core::BitMatrix LoadBitMatrix(ByteReader& r) {
  const std::int64_t rows = r.ReadI64();
  const std::int64_t cols = r.ReadI64();
  if (rows < 0 || cols < 0 ||
      cols > std::numeric_limits<std::int64_t>::max() - 63) {
    throw std::runtime_error("artifact corrupt: bad bit-matrix shape");
  }
  const std::uint64_t words_per_row = static_cast<std::uint64_t>(cols + 63) / 64;
  if (words_per_row != 0 &&
      static_cast<std::uint64_t>(rows) >
          std::numeric_limits<std::uint64_t>::max() / words_per_row) {
    throw std::runtime_error("artifact corrupt: bit-matrix word count "
                             "overflows");
  }
  const std::uint64_t word_count = static_cast<std::uint64_t>(rows) *
                                   words_per_row;
  if (r.has_blob_source()) {
    const std::span<const std::uint8_t> blob = ReadSizedBlob(
        r, word_count, sizeof(std::uint64_t), "bit-matrix word");
    try {
      if constexpr (kHostIsLittleEndian) {
        if (r.blob_borrow() && AlignedFor<std::uint64_t>(blob.data())) {
          return core::BitMatrix::FromBorrowedWords(
              rows, cols,
              {reinterpret_cast<const std::uint64_t*>(blob.data()),
               static_cast<std::size_t>(word_count)},
              r.blob_keepalive());
        }
        std::vector<std::uint64_t> words(static_cast<std::size_t>(word_count));
        std::memcpy(words.data(), blob.data(), blob.size());
        return core::BitMatrix::FromWords(rows, cols, std::move(words));
      } else {
        ByteReader blob_reader(blob, "bit-matrix word blob");
        std::vector<std::uint64_t> words(static_cast<std::size_t>(word_count));
        for (auto& word : words) word = blob_reader.ReadU64();
        return core::BitMatrix::FromWords(rows, cols, std::move(words));
      }
    } catch (const std::invalid_argument& e) {
      throw std::runtime_error(std::string("artifact corrupt: ") + e.what());
    }
  }
  CheckCountFitsPayload(r, word_count, sizeof(std::uint64_t),
                        "bit-matrix word");
  std::vector<std::uint64_t> words(static_cast<std::size_t>(word_count));
  for (auto& word : words) word = r.ReadU64();
  try {
    return core::BitMatrix::FromWords(rows, cols, std::move(words));
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error(std::string("artifact corrupt: ") + e.what());
  }
}

namespace {

// Count-prefixed threshold / affine arrays (inline, never blob-routed).

void SaveArray(const std::vector<std::int32_t>& values, ByteWriter& w) {
  w.WriteU64(values.size());
  for (const std::int32_t v : values) w.WriteI32(v);
}

void SaveArray(const std::vector<float>& values, ByteWriter& w) {
  w.WriteU64(values.size());
  for (const float v : values) w.WriteF32(v);
}

std::vector<std::int32_t> LoadI32Array(ByteReader& r, const char* what) {
  const std::uint64_t n = r.ReadU64();
  CheckCountFitsPayload(r, n, sizeof(std::int32_t), what);
  std::vector<std::int32_t> values(static_cast<std::size_t>(n));
  for (auto& v : values) v = r.ReadI32();
  return values;
}

std::vector<float> LoadF32Array(ByteReader& r, const char* what) {
  const std::uint64_t n = r.ReadU64();
  CheckCountFitsPayload(r, n, sizeof(float), what);
  std::vector<float> values(static_cast<std::size_t>(n));
  for (auto& v : values) v = r.ReadF32();
  return values;
}

core::BnnProgram ValidatedOrCorrupt(core::BnnProgram program) {
  try {
    program.Validate();
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error(std::string("artifact corrupt: ") + e.what());
  }
  return program;
}

}  // namespace

void SaveDenseProgram(const core::BnnProgram& program, ByteWriter& w) {
  const std::vector<core::ProgramStage>& stages = program.stages();
  if (!program.IsPureDense() || stages.empty() ||
      !stages.back().gemm.is_output) {
    throw std::invalid_argument(
        "SaveDenseProgram: not a dense classifier program");
  }
  w.WriteU64(stages.size() - 1);
  for (std::size_t i = 0; i + 1 < stages.size(); ++i) {
    SaveBitMatrix(stages[i].gemm.weights, w);
    SaveArray(stages[i].gemm.thresholds, w);
  }
  const core::PackedGemmStage& out = stages.back().gemm;
  SaveBitMatrix(out.weights, w);
  SaveArray(out.scale, w);
  SaveArray(out.offset, w);
}

core::BnnProgram LoadDenseProgram(ByteReader& r) {
  core::BnnProgram program;
  const std::uint64_t num_hidden = r.ReadU64();
  for (std::uint64_t i = 0; i < num_hidden; ++i) {
    core::BitMatrix weights = LoadBitMatrix(r);
    program.AddStage(core::DenseHiddenStage(std::move(weights),
                                            LoadI32Array(r, "threshold")));
  }
  core::BitMatrix weights = LoadBitMatrix(r);
  std::vector<float> scale = LoadF32Array(r, "output scale");
  program.AddStage(core::DenseOutputStage(
      std::move(weights), std::move(scale), LoadF32Array(r, "output offset")));
  program.SetInputShape({program.stages().front().gemm.weights.cols(), 1, 1});
  return ValidatedOrCorrupt(std::move(program));
}

namespace {

void SaveStageGeometry(const core::StageGeometry& g, ByteWriter& w) {
  w.WriteI64(g.in_channels);
  w.WriteI64(g.in_h);
  w.WriteI64(g.in_w);
  w.WriteI64(g.kernel_h);
  w.WriteI64(g.kernel_w);
  w.WriteI64(g.stride_h);
  w.WriteI64(g.stride_w);
  w.WriteI64(g.pad_h);
  w.WriteI64(g.pad_w);
}

core::StageGeometry LoadStageGeometry(ByteReader& r) {
  core::StageGeometry g;
  g.in_channels = r.ReadI64();
  g.in_h = r.ReadI64();
  g.in_w = r.ReadI64();
  g.kernel_h = r.ReadI64();
  g.kernel_w = r.ReadI64();
  g.stride_h = r.ReadI64();
  g.stride_w = r.ReadI64();
  g.pad_h = r.ReadI64();
  g.pad_w = r.ReadI64();
  return g;
}

void SaveStageShape(const core::StageShape& s, ByteWriter& w) {
  w.WriteI64(s.c);
  w.WriteI64(s.h);
  w.WriteI64(s.w);
}

core::StageShape LoadStageShape(ByteReader& r) {
  core::StageShape s;
  s.c = r.ReadI64();
  s.h = r.ReadI64();
  s.w = r.ReadI64();
  return s;
}

}  // namespace

void SaveBnnProgram(const core::BnnProgram& program, ByteWriter& w) {
  SaveStageShape(program.input_shape(), w);
  w.WriteU64(program.num_stages());
  for (const core::ProgramStage& stage : program.stages()) {
    w.WriteU8(static_cast<std::uint8_t>(stage.kind));
    switch (stage.kind) {
      case core::StageKind::kPackedGemm: {
        const core::PackedGemmStage& g = stage.gemm;
        w.WriteU8(static_cast<std::uint8_t>(g.lowering));
        w.WriteU8(g.is_output ? 1 : 0);
        w.WriteU8(g.per_pixel_thresholds ? 1 : 0);
        SaveStageGeometry(g.geom, w);
        SaveBitMatrix(g.weights, w);
        SaveArray(g.thresholds, w);
        SaveArray(g.scale, w);
        SaveArray(g.offset, w);
        break;
      }
      case core::StageKind::kPool:
        SaveStageGeometry(stage.pool.geom, w);
        break;
      case core::StageKind::kReshape:
      case core::StageKind::kSign:
        break;  // pure shape/identity markers: no payload
    }
    SaveStageShape(stage.out_shape, w);
  }
}

core::BnnProgram LoadBnnProgram(ByteReader& r) {
  core::BnnProgram program;
  program.SetInputShape(LoadStageShape(r));
  const std::uint64_t num_stages = r.ReadU64();
  for (std::uint64_t i = 0; i < num_stages; ++i) {
    core::ProgramStage stage;
    const std::uint8_t kind = r.ReadU8();
    if (kind > static_cast<std::uint8_t>(core::StageKind::kSign)) {
      throw std::runtime_error("artifact corrupt: unknown program stage kind " +
                               std::to_string(kind));
    }
    stage.kind = static_cast<core::StageKind>(kind);
    switch (stage.kind) {
      case core::StageKind::kPackedGemm: {
        core::PackedGemmStage& g = stage.gemm;
        const std::uint8_t lowering = r.ReadU8();
        if (lowering >
            static_cast<std::uint8_t>(core::GemmLowering::kDepthwise)) {
          throw std::runtime_error(
              "artifact corrupt: unknown GEMM stage lowering " +
              std::to_string(lowering));
        }
        g.lowering = static_cast<core::GemmLowering>(lowering);
        g.is_output = r.ReadU8() != 0;
        g.per_pixel_thresholds = r.ReadU8() != 0;
        g.geom = LoadStageGeometry(r);
        g.weights = LoadBitMatrix(r);
        g.thresholds = LoadI32Array(r, "stage threshold");
        g.scale = LoadF32Array(r, "stage scale");
        g.offset = LoadF32Array(r, "stage offset");
        break;
      }
      case core::StageKind::kPool:
        stage.pool.geom = LoadStageGeometry(r);
        break;
      case core::StageKind::kReshape:
      case core::StageKind::kSign:
        break;
    }
    stage.out_shape = LoadStageShape(r);
    program.AddStage(std::move(stage));
  }
  return ValidatedOrCorrupt(std::move(program));
}

}  // namespace rrambnn::io
