// Binary serializers for the numeric value types of an artifact: dense
// float tensors, packed bit matrices, and the compiled core::BnnProgram.
// Float data is stored as raw IEEE-754 bits and bit matrices as their packed
// 64-bit words, so a round trip is bit-identical by construction — the
// property the artifact lifecycle (train once, serve anywhere) rests on.
#pragma once

#include "core/bnn_program.h"
#include "io/serde.h"
#include "tensor/tensor.h"

namespace rrambnn::io {

void SaveTensor(const Tensor& t, ByteWriter& w);
Tensor LoadTensor(ByteReader& r);

void SaveBitMatrix(const core::BitMatrix& m, ByteWriter& w);
core::BitMatrix LoadBitMatrix(ByteReader& r);

/// A dense classifier program (IsPureDense) in the "compiled-bnn" layout:
/// hidden-layer count, per hidden layer its weight plane and thresholds,
/// then the output plane, scale and offset. The layout predates the stage
/// list, so dense artifacts keep every byte. SaveDenseProgram throws
/// std::invalid_argument for any other program; LoadDenseProgram validates
/// the result (layer chaining, threshold ranges) before returning it.
void SaveDenseProgram(const core::BnnProgram& program, ByteWriter& w);
core::BnnProgram LoadDenseProgram(ByteReader& r);

/// The compiled multi-stage program: input shape plus the ordered stage
/// list (per-stage kind/lowering flags, spatial geometry, packed weight
/// planes, thresholds and the output affine). Stage weights route through
/// the blob arena like every other bit plane, so a v2 program artifact
/// stays mmap-consumable. LoadBnnProgram validates the result (stage
/// chaining, geometry, threshold ranges) before returning it.
void SaveBnnProgram(const core::BnnProgram& program, ByteWriter& w);
core::BnnProgram LoadBnnProgram(ByteReader& r);

}  // namespace rrambnn::io
