// Compilation of a trained nn::Sequential into the deployed program form:
// batch normalization folds into integer popcount thresholds, negative BN
// gains are absorbed by flipping row weights, dropout vanishes, and the
// output layer keeps a per-class affine so argmax matches training.
//
// CompileProgram is the per-operator walk, producing a core::BnnProgram of
// packed stages. Grammar, starting at `start_layer` (leading Flatten /
// Dropout / Sign are absorbed into the input packing; Dropout vanishes
// everywhere):
//
//   block := BinaryDense  [BatchNorm] Sign      -> dense hidden stage
//          | BinaryDense  [BatchNorm] <end>     -> dense output stage (last)
//          | BinaryConv2d [BatchNorm] Sign      -> conv GEMM stage (im2col)
//          | BinaryDepthwiseConv2d [BatchNorm] Sign -> depthwise GEMM stage
//          | MaxPool2d                          -> pool stage (OR window)
//          | Flatten                            -> reshape stage (bit no-op)
//          | Sign                               -> sign stage (identity)
//
// Lowering rules:
//   - Conv/depthwise weights pack row-per-unit ([units, C*kh*kw] resp.
//     [C, kh*kw]); each output pixel gathers an im2col patch of the packed
//     CHW activation bits and meets every row by XNOR-popcount.
//   - A conv/depthwise block MUST end in Sign (the fabric produces binary
//     activations); only the final dense block may omit it.
//   - Padded conv stages fold the zero-pad / -1-bit discrepancy into
//     per-(unit, pixel) thresholds (see FoldThreshold in compile.cpp):
//     float padding contributes 0 to the dot while a packed padded tap
//     reads as -1, an input-independent per-pixel constant.
//   - Max pooling over {-1,+1} is exact as a bitwise OR; average pooling
//     and GlobalAvgPool produce non-binary values and do not lower — split
//     the network so they stay in the float prefix.
//   - kernel_w <= 64 (the word-level patch gather's contract).
//   - A dense-only network (the paper's binarized classifiers) compiles to
//     one dense GEMM stage per layer, the last one the output stage.
//
// Artifact layout: a pure-dense program serializes as the legacy
// "compiled-bnn" chunk (byte-identical to pre-program artifacts); anything
// else as the "compiled-program" chunk — stage directory inline, packed
// stage weights routed through the v2 blob arena, so conv weights mmap in
// place exactly like dense ones (see io/artifact.cpp).
//
// Anything outside the grammar throws std::invalid_argument.
#pragma once

#include <cstddef>

#include "core/bnn_program.h"
#include "nn/sequential.h"

namespace rrambnn::core {

/// Compiles layers [start_layer, end) of `model` into a BnnProgram through
/// the per-operator walk above. `input_shape` is the per-sample activation
/// shape entering `start_layer` ({C, H, W}, or {F, 1, 1} for dense inputs);
/// a default-constructed shape is inferred from the first layer when it is
/// dense, and rejected otherwise (conv stages need the spatial extent).
BnnProgram CompileProgram(const nn::Sequential& model,
                          std::size_t start_layer = 0,
                          StageShape input_shape = {});

/// Runs layers [0, end_layer) in inference mode (the real-valued feature
/// extractor of a partially binarized network).
Tensor ForwardPrefix(nn::Sequential& model, const Tensor& x,
                     std::size_t end_layer);

/// Same prefix evaluation via the side-effect-free Layer::Infer path:
/// bit-identical to ForwardPrefix but writes nothing to the model, so many
/// threads may run it at once on a frozen network (the serving hot path).
Tensor InferPrefix(const nn::Sequential& model, const Tensor& x,
                   std::size_t end_layer);

}  // namespace rrambnn::core
