// Versioned, checksummed engine artifacts: the train-once / serve-anywhere
// seam of the pipeline.
//
// An artifact bundles everything a serving process needs to stand up a
// deployed Engine without calling Train() or Compile():
//
//   chunk "engine-config"  serving-relevant EngineConfig fields: strategy,
//                          default backend name, threads, prefix batch size,
//                          the full BackendSpec (mapper geometry, device and
//                          energy parameters, fault BER/seed, shard count)
//                          and the classifier split index
//   chunk "network"        the trained nn::Sequential (layer-type registry;
//                          parameter tensors and BatchNorm running
//                          statistics round-trip bit-exactly)
//   chunk "compiled-bnn"   a pure-dense compiled core::BnnProgram (packed
//                          bit planes, integer thresholds, output affine),
//                          byte-for-byte as before the multi-stage compiler
//                          existed
//   chunk "compiled-program"  the compiled core::BnnProgram stage list —
//                          written instead of "compiled-bnn" when the
//                          classifier has conv/pool stages
//
// A v2 container adds a fourth chunk:
//
//   chunk "blob-data"      page-aligned bulk arena: every packed bit plane
//                          and float tensor of the other chunks, stored at
//                          64-byte boundaries and referenced by
//                          (offset, bytes). The structural streams above
//                          stay tiny; this chunk is what gets mmap-ed
//                          (or RLZ-compressed for cold storage).
//
// The training recipe (nn::TrainConfig) is deliberately NOT serialized: an
// artifact describes a deployable model, not an experiment; a loaded engine
// that should be retrained gets a fresh TrainConfig from its operator.
//
// Versioning policy: the container version is bumped whenever the meaning
// of an existing chunk changes; loaders accept every version they know
// (currently 1 and 2). New information ships as new chunks, which old
// loaders skip.
#pragma once

#include <cstddef>
#include <string>

#include "core/bnn_program.h"
#include "engine/engine.h"
#include "io/artifact_info.h"
#include "nn/sequential.h"

namespace rrambnn::io {

/// Writes a complete engine artifact. `classifier_start` is the index of the
/// first compiled classifier layer in `net` (the float prefix is
/// [0, classifier_start)). The default options write a v2 container;
/// round-tripping through any supported version/codec is bit-identical.
void SaveEngineArtifact(const std::string& path,
                        const engine::EngineConfig& config,
                        const nn::Sequential& net, std::size_t classifier_start,
                        const core::BnnProgram& program,
                        const ArtifactWriteOptions& options = {});

/// Everything SaveEngineArtifact wrote, reconstructed, plus where its bytes
/// live now (info). When info.mode is kMapped, the program's bit planes and
/// tensors are zero-copy views pinned to the file mapping; copying them
/// (backends do, by value) shares the mapping, and any mutation
/// materializes a private copy automatically. A "compiled-bnn" chunk loads
/// as the equivalent pure-dense program.
struct LoadedArtifact {
  engine::EngineConfig config;
  nn::Sequential net;
  std::size_t classifier_start = 0;
  core::BnnProgram program;
  ArtifactLoadInfo info;
};

/// Reads and validates an artifact of either version. Throws
/// std::runtime_error for missing files, bad magic, version mismatches, CRC
/// failures, truncation, misalignment and structurally invalid payloads.
LoadedArtifact LoadEngineArtifact(const std::string& path,
                                  const LoadArtifactOptions& options = {});

/// Rewrites the artifact at `src` to `dst` under `options` — the format
/// migration tool (v1 -> v2, v2 -> v2-compressed, any -> any). Model
/// contents are bit-identical across the rewrite; only the container
/// changes. `dst` may equal `src` (the write is atomic).
void MigrateArtifact(const std::string& src, const std::string& dst,
                     const ArtifactWriteOptions& options);

/// Human-readable report of an artifact (container directory, config,
/// network architecture, compiled-model statistics) — the `inspect` view of
/// examples/artifact_tool.cpp.
std::string DescribeArtifact(const std::string& path);

}  // namespace rrambnn::io
