#include "io/artifact.h"

#include <sstream>
#include <stdexcept>
#include <utility>

#include "io/chunk_file.h"
#include "io/layer_serde.h"
#include "io/mapped_artifact.h"
#include "io/serde.h"
#include "io/tensor_serde.h"

namespace rrambnn::io {

namespace {

constexpr char kConfigTag[] = "engine-config";
constexpr char kNetworkTag[] = "network";
constexpr char kCompiledTag[] = "compiled-bnn";
constexpr char kProgramTag[] = "compiled-program";
constexpr char kBlobTag[] = "blob-data";

/// Encodes the compiled program under the tag that keeps dense artifacts
/// byte-stable: a pure-dense program writes the "compiled-bnn" layout
/// (identical to the pre-program writer), anything with conv/pool stages
/// writes the "compiled-program" stage list.
std::pair<const char*, std::vector<std::uint8_t>> BuildCompiledChunk(
    const core::BnnProgram& program, BlobArena* arena) {
  ByteWriter w;
  if (arena != nullptr) w.SetBlobArena(arena);
  if (program.IsPureDense()) {
    SaveDenseProgram(program, w);
    return {kCompiledTag, w.TakeBytes()};
  }
  SaveBnnProgram(program, w);
  return {kProgramTag, w.TakeBytes()};
}

void SaveDeviceParams(const rram::DeviceParams& d, ByteWriter& w) {
  w.WriteF64(d.lrs_log_mean);
  w.WriteF64(d.lrs_log_sigma);
  w.WriteF64(d.hrs_log_mean);
  w.WriteF64(d.hrs_log_sigma);
  w.WriteF64(d.weak_prob_ref);
  w.WriteF64(d.weak_exponent);
  w.WriteF64(d.cycles_ref);
  w.WriteF64(d.weak_prob_max);
  w.WriteF64(d.weak_log_mean);
  w.WriteF64(d.weak_log_sigma);
  w.WriteF64(d.bl_weak_scale);
  w.WriteF64(d.blb_weak_scale);
  w.WriteF64(d.read_reference_log);
  w.WriteF64(d.sense_offset_sigma);
}

rram::DeviceParams LoadDeviceParams(ByteReader& r) {
  rram::DeviceParams d;
  d.lrs_log_mean = r.ReadF64();
  d.lrs_log_sigma = r.ReadF64();
  d.hrs_log_mean = r.ReadF64();
  d.hrs_log_sigma = r.ReadF64();
  d.weak_prob_ref = r.ReadF64();
  d.weak_exponent = r.ReadF64();
  d.cycles_ref = r.ReadF64();
  d.weak_prob_max = r.ReadF64();
  d.weak_log_mean = r.ReadF64();
  d.weak_log_sigma = r.ReadF64();
  d.bl_weak_scale = r.ReadF64();
  d.blb_weak_scale = r.ReadF64();
  d.read_reference_log = r.ReadF64();
  d.sense_offset_sigma = r.ReadF64();
  return d;
}

void SaveEnergyParams(const arch::EnergyParams& e, ByteWriter& w) {
  w.WriteF64(e.pcsa_sense_energy_fj);
  w.WriteF64(e.xnor_overhead_fj);
  w.WriteF64(e.popcount_per_bit_fj);
  w.WriteF64(e.threshold_compare_fj);
  w.WriteF64(e.wordline_activation_fj);
  w.WriteF64(e.set_energy_pj);
  w.WriteF64(e.reset_energy_pj);
  w.WriteF64(e.cell_2t2r_area_um2);
  w.WriteF64(e.pcsa_area_um2);
  w.WriteF64(e.xnor_area_um2);
  w.WriteF64(e.popcount_area_per_bit_um2);
  w.WriteF64(e.decoder_area_per_line_um2);
  w.WriteF64(e.sense_latency_ns);
  w.WriteF64(e.program_latency_ns);
}

arch::EnergyParams LoadEnergyParams(ByteReader& r) {
  arch::EnergyParams e;
  e.pcsa_sense_energy_fj = r.ReadF64();
  e.xnor_overhead_fj = r.ReadF64();
  e.popcount_per_bit_fj = r.ReadF64();
  e.threshold_compare_fj = r.ReadF64();
  e.wordline_activation_fj = r.ReadF64();
  e.set_energy_pj = r.ReadF64();
  e.reset_energy_pj = r.ReadF64();
  e.cell_2t2r_area_um2 = r.ReadF64();
  e.pcsa_area_um2 = r.ReadF64();
  e.xnor_area_um2 = r.ReadF64();
  e.popcount_area_per_bit_um2 = r.ReadF64();
  e.decoder_area_per_line_um2 = r.ReadF64();
  e.sense_latency_ns = r.ReadF64();
  e.program_latency_ns = r.ReadF64();
  return e;
}

std::vector<std::uint8_t> BuildConfigChunk(const engine::EngineConfig& config,
                                           std::size_t classifier_start) {
  ByteWriter w;
  w.WriteU8(static_cast<std::uint8_t>(config.strategy));
  w.WriteString(config.backend_name);
  w.WriteI32(config.threads);
  w.WriteI64(config.batch_size);
  w.WriteU64(config.model_seed);
  w.WriteU64(config.fold_seed);
  w.WriteU64(classifier_start);
  // BackendSpec: mapper geometry, then the physical parameter blocks.
  w.WriteI64(config.backend.mapper.macro_rows);
  w.WriteI64(config.backend.mapper.macro_cols);
  w.WriteU64(config.backend.mapper.seed);
  w.WriteU64(config.backend.mapper.pre_stress_cycles);
  SaveDeviceParams(config.backend.mapper.device, w);
  SaveEnergyParams(config.backend.mapper.energy, w);
  w.WriteF64(config.backend.fault_ber);
  w.WriteU64(config.backend.fault_seed);
  w.WriteI32(config.backend.rram_shards);
  return w.TakeBytes();
}

void ParseConfigChunk(const std::vector<std::uint8_t>& payload,
                      engine::EngineConfig& config,
                      std::size_t& classifier_start) {
  ByteReader r(payload, std::string("chunk '") + kConfigTag + "'");
  const std::uint8_t strategy = r.ReadU8();
  if (strategy > static_cast<std::uint8_t>(
                     core::BinarizationStrategy::kBinaryClassifier)) {
    throw std::runtime_error("artifact corrupt: unknown binarization strategy " +
                             std::to_string(strategy));
  }
  config.strategy = static_cast<core::BinarizationStrategy>(strategy);
  config.backend_name = r.ReadString();
  config.threads = r.ReadI32();
  config.batch_size = r.ReadI64();
  config.model_seed = r.ReadU64();
  config.fold_seed = r.ReadU64();
  classifier_start = static_cast<std::size_t>(r.ReadU64());
  config.backend.mapper.macro_rows = r.ReadI64();
  config.backend.mapper.macro_cols = r.ReadI64();
  config.backend.mapper.seed = r.ReadU64();
  config.backend.mapper.pre_stress_cycles = r.ReadU64();
  config.backend.mapper.device = LoadDeviceParams(r);
  config.backend.mapper.energy = LoadEnergyParams(r);
  config.backend.fault_ber = r.ReadF64();
  config.backend.fault_seed = r.ReadU64();
  config.backend.rram_shards = r.ReadI32();
  if (config.threads < 1 || config.batch_size < 1 ||
      config.backend.rram_shards < 1) {
    throw std::runtime_error(
        "artifact corrupt: non-positive threads/batch_size/rram_shards");
  }
  r.ExpectExhausted();
}

const std::vector<std::uint8_t>& FindChunk(const std::vector<Chunk>& chunks,
                                           const std::string& tag,
                                           const std::string& path) {
  for (const Chunk& chunk : chunks) {
    if (chunk.tag == tag) return chunk.payload;
  }
  throw std::runtime_error("artifact: '" + path + "' has no '" + tag +
                           "' chunk (not an engine artifact?)");
}

}  // namespace

void SaveEngineArtifact(const std::string& path,
                        const engine::EngineConfig& config,
                        const nn::Sequential& net,
                        std::size_t classifier_start,
                        const core::BnnProgram& program,
                        const ArtifactWriteOptions& options) {
  if (classifier_start > net.size()) {
    throw std::invalid_argument("SaveEngineArtifact: classifier_start " +
                                std::to_string(classifier_start) +
                                " > network size " +
                                std::to_string(net.size()));
  }
  if (options.format_version == kFormatVersion) {
    std::vector<Chunk> chunks;
    chunks.push_back({kConfigTag, BuildConfigChunk(config, classifier_start)});
    ByteWriter net_writer;
    SaveSequential(net, net_writer);
    chunks.push_back({kNetworkTag, net_writer.TakeBytes()});
    auto [compiled_tag, compiled_bytes] =
        BuildCompiledChunk(program, /*arena=*/nullptr);
    chunks.push_back({compiled_tag, std::move(compiled_bytes)});
    WriteChunkFile(path, chunks);
    return;
  }
  if (options.format_version != kFormatVersionV2) {
    throw std::invalid_argument(
        "SaveEngineArtifact: unknown format version " +
        std::to_string(options.format_version) + " (this build writes " +
        std::to_string(kFormatVersion) + " and " +
        std::to_string(kFormatVersionV2) + ")");
  }
  // v2: both value streams share one blob arena; their bulk arrays land
  // there (64-byte aligned) and the streams carry only references. The
  // arena becomes the page-aligned blob-data chunk a server maps.
  BlobArena arena;
  ByteWriter net_writer;
  net_writer.SetBlobArena(&arena);
  SaveSequential(net, net_writer);
  auto [compiled_tag, compiled_bytes] = BuildCompiledChunk(program, &arena);

  std::vector<ChunkSpec> chunks;
  chunks.push_back({kConfigTag, BuildConfigChunk(config, classifier_start),
                    /*alignment=*/8, options.compress});
  chunks.push_back({kNetworkTag, net_writer.TakeBytes(), /*alignment=*/8,
                    options.compress});
  chunks.push_back({compiled_tag, std::move(compiled_bytes), /*alignment=*/8,
                    options.compress});
  chunks.push_back({kBlobTag, arena.TakeBytes(), kPageAlignment,
                    options.compress});
  WriteChunkFileV2(path, chunks);
}

namespace {

const std::vector<std::uint8_t>* FindChunkOrNull(
    const std::vector<Chunk>& chunks, const std::string& tag) {
  for (const Chunk& chunk : chunks) {
    if (chunk.tag == tag) return &chunk.payload;
  }
  return nullptr;
}

void CheckClassifierStart(const LoadedArtifact& artifact) {
  if (artifact.classifier_start > artifact.net.size()) {
    throw std::runtime_error("artifact corrupt: classifier_start " +
                             std::to_string(artifact.classifier_start) +
                             " > network size " +
                             std::to_string(artifact.net.size()));
  }
}

/// Decodes the value chunks of either version from in-memory payload
/// copies. A v2 chunk set carries a blob arena; it is attached copy-mode
/// (borrow=false), so the result owns every byte.
LoadedArtifact ArtifactFromChunks(const std::vector<Chunk>& chunks,
                                  const std::string& path) {
  LoadedArtifact artifact;
  ParseConfigChunk(FindChunk(chunks, kConfigTag, path), artifact.config,
                   artifact.classifier_start);
  const std::vector<std::uint8_t>* blob = FindChunkOrNull(chunks, kBlobTag);
  {
    ByteReader r(FindChunk(chunks, kNetworkTag, path),
                 std::string("chunk '") + kNetworkTag + "'");
    if (blob != nullptr) r.SetBlobSource(*blob, nullptr, /*borrow=*/false);
    artifact.net = LoadSequential(r);
    r.ExpectExhausted();
  }
  if (const std::vector<std::uint8_t>* program =
          FindChunkOrNull(chunks, kProgramTag)) {
    ByteReader r(*program, std::string("chunk '") + kProgramTag + "'");
    if (blob != nullptr) r.SetBlobSource(*blob, nullptr, /*borrow=*/false);
    artifact.program = LoadBnnProgram(r);
    r.ExpectExhausted();
  } else {
    ByteReader r(FindChunk(chunks, kCompiledTag, path),
                 std::string("chunk '") + kCompiledTag + "'");
    if (blob != nullptr) r.SetBlobSource(*blob, nullptr, /*borrow=*/false);
    artifact.program = LoadDenseProgram(r);
    r.ExpectExhausted();
  }
  CheckClassifierStart(artifact);
  return artifact;
}

/// Decodes a v2 artifact through its mapping: structural streams are parsed
/// (copied) out of the mapped chunks, bulk arrays resolve to borrowed views
/// of the blob chunk when `borrow` is set.
LoadedArtifact ArtifactFromMapped(MappedArtifact& mapped, bool borrow) {
  LoadedArtifact artifact;
  const MappedArtifact::ChunkView config = mapped.GetChunk(kConfigTag);
  ParseConfigChunk({config.bytes.begin(), config.bytes.end()}, artifact.config,
                   artifact.classifier_start);
  const MappedArtifact::ChunkView blob = mapped.GetChunk(kBlobTag);
  {
    const MappedArtifact::ChunkView net = mapped.GetChunk(kNetworkTag);
    ByteReader r(net.bytes, std::string("chunk '") + kNetworkTag + "'");
    r.SetBlobSource(blob.bytes, blob.keepalive, borrow);
    artifact.net = LoadSequential(r);
    r.ExpectExhausted();
  }
  if (mapped.HasChunk(kProgramTag)) {
    const MappedArtifact::ChunkView program = mapped.GetChunk(kProgramTag);
    ByteReader r(program.bytes, std::string("chunk '") + kProgramTag + "'");
    r.SetBlobSource(blob.bytes, blob.keepalive, borrow);
    artifact.program = LoadBnnProgram(r);
    r.ExpectExhausted();
  } else {
    const MappedArtifact::ChunkView model = mapped.GetChunk(kCompiledTag);
    ByteReader r(model.bytes, std::string("chunk '") + kCompiledTag + "'");
    r.SetBlobSource(blob.bytes, blob.keepalive, borrow);
    artifact.program = LoadDenseProgram(r);
    r.ExpectExhausted();
  }
  CheckClassifierStart(artifact);

  // Accounting: structural streams always become private heap objects;
  // the blob is heap only when it was copied or decompressed. When it is
  // borrowed straight from the mapping, its bytes are shared page cache.
  ArtifactLoadInfo& info = artifact.info;
  info.format_version = kFormatVersionV2;
  info.file_bytes = mapped.file_bytes();
  std::uint64_t structural = 0;
  std::uint64_t blob_raw = 0;
  for (const V2Directory::Entry& entry : mapped.directory().entries) {
    if (entry.tag == kBlobTag) {
      blob_raw = entry.raw_bytes;
    } else {
      structural += entry.raw_bytes;
    }
  }
  const bool blob_from_map =
      borrow && blob.codec == ChunkCodec::kRaw && mapped.mapped();
  if (blob_from_map) {
    info.mode = ArtifactLoadMode::kMapped;
    info.mapped_bytes = blob_raw;
    info.resident_bytes = structural;
  } else {
    info.mode = (borrow && blob.codec == ChunkCodec::kRlz)
                    ? ArtifactLoadMode::kDecompressed
                    : ArtifactLoadMode::kCopied;
    info.mapped_bytes = 0;
    info.resident_bytes = structural + blob_raw;
  }
  return artifact;
}

}  // namespace

LoadedArtifact LoadEngineArtifact(const std::string& path,
                                  const LoadArtifactOptions& options) {
  const std::uint32_t version = ProbeArtifactVersion(path);
  if (version == kFormatVersionV2) {
    MappedArtifact::Options open_options;
    open_options.verify = options.verify;
    const std::shared_ptr<MappedArtifact> mapped =
        MappedArtifact::Open(path, open_options);
    return ArtifactFromMapped(*mapped, options.allow_mmap);
  }
  // v1 (or any future version ReadChunkFile learns first): stream-copy.
  ChunkFileInfo file_info;
  LoadedArtifact artifact =
      ArtifactFromChunks(ReadChunkFile(path, &file_info), path);
  artifact.info.format_version = file_info.version;
  artifact.info.mode = ArtifactLoadMode::kCopied;
  artifact.info.file_bytes = file_info.file_bytes;
  for (const auto& chunk : file_info.chunks) {
    artifact.info.resident_bytes += chunk.bytes;
  }
  return artifact;
}

void MigrateArtifact(const std::string& src, const std::string& dst,
                     const ArtifactWriteOptions& options) {
  // Copy-load the source (no mapping to keep alive across the rewrite of
  // possibly the same path), then re-save under the requested container.
  LoadArtifactOptions load;
  load.allow_mmap = false;
  const LoadedArtifact artifact = LoadEngineArtifact(src, load);
  SaveEngineArtifact(dst, artifact.config, artifact.net,
                     artifact.classifier_start, artifact.program, options);
}

std::string DescribeArtifact(const std::string& path) {
  // One file read and CRC sweep serves both the directory listing and the
  // decoded contents.
  ChunkFileInfo info;
  const std::vector<Chunk> chunks = ReadChunkFile(path, &info);
  LoadedArtifact artifact = ArtifactFromChunks(chunks, path);
  std::ostringstream os;
  os << "artifact: " << path << "\n";
  os << "format version " << info.version << ", " << info.file_bytes
     << " bytes, " << info.chunks.size() << " chunk(s)\n";
  for (const auto& chunk : info.chunks) {
    os << "  chunk '" << chunk.tag << "': " << chunk.bytes << " bytes, crc32 "
       << chunk.crc32 << ", offset " << chunk.offset << ", align "
       << chunk.alignment;
    if (chunk.codec == static_cast<std::uint32_t>(ChunkCodec::kRlz)) {
      os << ", rlz-compressed to " << chunk.stored_bytes << " bytes";
    }
    os << "\n";
  }
  os << "config: strategy=" << core::ToString(artifact.config.strategy)
     << ", backend=" << artifact.config.backend_name
     << ", threads=" << artifact.config.threads
     << ", batch_size=" << artifact.config.batch_size
     << ", rram_shards=" << artifact.config.backend.rram_shards << "\n";
  os << "mapper: " << artifact.config.backend.mapper.macro_rows << "x"
     << artifact.config.backend.mapper.macro_cols
     << " macros, seed=" << artifact.config.backend.mapper.seed
     << ", pre_stress_cycles="
     << artifact.config.backend.mapper.pre_stress_cycles << "\n";
  os << "network: " << artifact.net.size() << " layer(s), classifier starts at "
     << artifact.classifier_start << "\n";
  for (std::size_t i = 0; i < artifact.net.size(); ++i) {
    os << "  [" << i << "] " << artifact.net[i].Describe()
       << (i == artifact.classifier_start ? "   <- classifier start" : "")
       << "\n";
  }
  const core::BnnProgram& program = artifact.program;
  const core::StageShape& in = program.input_shape();
  os << "compiled program: " << program.num_stages() << " stage(s) ("
     << program.num_gemm_stages() << " GEMM), input " << in.c << "x" << in.h
     << "x" << in.w << ", " << program.num_classes() << " classes, "
     << program.TotalWeightBits() << " weight bits\n";
  for (std::size_t i = 0; i < program.stages().size(); ++i) {
    const core::ProgramStage& stage = program.stages()[i];
    os << "  stage [" << i << "] ";
    switch (stage.kind) {
      case core::StageKind::kPackedGemm: {
        const core::PackedGemmStage& g = stage.gemm;
        switch (g.lowering) {
          case core::GemmLowering::kDense:
            os << "dense " << g.weights.cols() << "->" << g.units();
            break;
          case core::GemmLowering::kConv:
            os << "conv " << g.geom.in_channels << "x" << g.geom.in_h << "x"
               << g.geom.in_w << "->" << g.units() << " " << g.geom.kernel_h
               << "x" << g.geom.kernel_w << "/s" << g.geom.stride_h << " p"
               << g.geom.pad_h;
            break;
          case core::GemmLowering::kDepthwise:
            os << "depthwise " << g.geom.in_channels << "x" << g.geom.in_h
               << "x" << g.geom.in_w << " " << g.geom.kernel_h << "x"
               << g.geom.kernel_w << "/s" << g.geom.stride_h << " p"
               << g.geom.pad_h;
            break;
        }
        if (g.is_output) os << " (output)";
        os << ", " << g.weights.words().size() * sizeof(std::uint64_t)
           << " packed weight bytes, " << g.thresholds.size()
           << " threshold(s)"
           << (g.per_pixel_thresholds ? " (per-pixel)" : "");
        break;
      }
      case core::StageKind::kPool:
        os << "maxpool " << stage.pool.geom.kernel_h << "x"
           << stage.pool.geom.kernel_w << "/s" << stage.pool.geom.stride_h;
        break;
      case core::StageKind::kReshape:
        os << "flatten";
        break;
      case core::StageKind::kSign:
        os << "sign";
        break;
    }
    os << " -> " << stage.out_shape.c << "x" << stage.out_shape.h << "x"
       << stage.out_shape.w << "\n";
  }
  return os.str();
}

}  // namespace rrambnn::io
