#include "core/bnn_program.h"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <stdexcept>
#include <utility>

#include "core/bitgemm.h"

namespace rrambnn::core {

namespace {

// -- Word-level bit-field gather ---------------------------------------------
//
// The im2col patch builder moves runs of contiguous input bits (the kx taps
// of one (channel, ky) kernel row are adjacent along W in CHW bit order)
// with one field extract + one field deposit per run instead of per-bit
// Get/Set. A run is at most kernel_w <= 64 bits, so it spans at most two
// source and two destination words.

/// Bits [bit, bit + len) of `words` as the low bits of a word; len in
/// [1, 64], bit + len must not exceed the array's bit capacity.
std::uint64_t ExtractField(const std::uint64_t* words, std::int64_t bit,
                           int len) {
  const auto w = static_cast<std::size_t>(bit >> 6);
  const int off = static_cast<int>(bit & 63);
  std::uint64_t v = words[w] >> off;
  if (off + len > 64) v |= words[w + 1] << (64 - off);
  return v & (~std::uint64_t{0} >> (64 - len));
}

/// ORs the low `len` bits of `value` into `words` at bit offset `bit`.
/// The destination bits must be zero (freshly zeroed patch buffer).
void DepositField(std::uint64_t* words, std::int64_t bit, int len,
                  std::uint64_t value) {
  const auto w = static_cast<std::size_t>(bit >> 6);
  const int off = static_cast<int>(bit & 63);
  words[w] |= value << off;
  if (off + len > 64) words[w + 1] |= value >> (64 - off);
}

/// Gathers the patch of output pixel (oy, ox) over channels
/// [c_begin, c_end) from one packed CHW activation row into `dst`
/// (pre-zeroed; patch bit layout (c - c_begin)*kh*kw + ky*kw + kx).
/// Out-of-range padded taps are left as bit 0 (-1).
void GatherPatch(const std::uint64_t* src, const StageGeometry& g,
                 std::int64_t c_begin, std::int64_t c_end, std::int64_t oy,
                 std::int64_t ox, std::uint64_t* dst) {
  const std::int64_t h = g.in_h, w = g.in_w;
  const std::int64_t kh = g.kernel_h, kw = g.kernel_w;
  const std::int64_t y0 = oy * g.stride_h - g.pad_h;
  const std::int64_t x0 = ox * g.stride_w - g.pad_w;
  for (std::int64_t c = c_begin; c < c_end; ++c) {
    const std::int64_t dst_base = (c - c_begin) * kh * kw;
    for (std::int64_t ky = 0; ky < kh; ++ky) {
      const std::int64_t iy = y0 + ky;
      if (iy < 0 || iy >= h) continue;
      const std::int64_t kx0 = x0 < 0 ? -x0 : 0;
      const std::int64_t kx1 = std::min(kw, w - x0);
      if (kx1 <= kx0) continue;
      const int len = static_cast<int>(kx1 - kx0);
      const std::uint64_t bits =
          ExtractField(src, c * h * w + iy * w + x0 + kx0, len);
      DepositField(dst, dst_base + ky * kw + kx0, len, bits);
    }
  }
}

std::int32_t StageThreshold(const PackedGemmStage& g, std::int64_t unit,
                            std::int64_t patch) {
  const std::size_t idx =
      g.per_pixel_thresholds
          ? static_cast<std::size_t>(unit * g.num_patches() + patch)
          : static_cast<std::size_t>(unit);
  return g.thresholds[idx];
}

BitVector PoolRow(const BitVector& x, const StageGeometry& g) {
  const std::int64_t c_n = g.in_channels, h = g.in_h, w = g.in_w;
  const std::int64_t oh = g.OutH(), ow = g.OutW();
  BitVector out(c_n * oh * ow);
  for (std::int64_t c = 0; c < c_n; ++c) {
    for (std::int64_t oy = 0; oy < oh; ++oy) {
      for (std::int64_t ox = 0; ox < ow; ++ox) {
        bool any = false;
        for (std::int64_t ky = 0; ky < g.kernel_h && !any; ++ky) {
          for (std::int64_t kx = 0; kx < g.kernel_w && !any; ++kx) {
            any = x.Get(c * h * w + (oy * g.stride_h + ky) * w +
                        ox * g.stride_w + kx) > 0;
          }
        }
        if (any) out.Set(c * oh * ow + oy * ow + ox, +1);
      }
    }
  }
  return out;
}

/// Patch of one packed activation vector as a BitVector (the transactional
/// single-row path's gather).
BitVector GatherPatchVector(const BitVector& x, const StageGeometry& g,
                            std::int64_t c_begin, std::int64_t c_end,
                            std::int64_t oy, std::int64_t ox) {
  const std::int64_t patch_bits =
      (c_end - c_begin) * g.kernel_h * g.kernel_w;
  std::vector<std::uint64_t> words(
      static_cast<std::size_t>((patch_bits + 63) / 64), 0);
  GatherPatch(x.words().data(), g, c_begin, c_end, oy, ox, words.data());
  return BitMatrix::FromWords(1, patch_bits, std::move(words)).Row(0);
}

/// Default popcount oracle: the program's own weight matrices.
class WeightPopcounter final : public StagePopcounter {
 public:
  explicit WeightPopcounter(const BnnProgram& program)
      : weights_([&program] {
          std::vector<const BitMatrix*> w;
          for (const PackedGemmStage* g : program.GemmStages()) {
            w.push_back(&g->weights);
          }
          return w;
        }()) {}

  void StagePopcounts(std::size_t gemm_index, const BitVector& x,
                      std::int64_t row_begin, std::int64_t row_end,
                      std::int64_t* out) override {
    const BitMatrix& w = *weights_[gemm_index];
    for (std::int64_t r = row_begin; r < row_end; ++r) {
      out[r - row_begin] = w.RowXnorPopcount(r, x);
    }
  }

 private:
  const std::vector<const BitMatrix*> weights_;
};

// -- Batched stage executor -------------------------------------------------
//
// ScoresBatch runs every hidden stage as one pass that builds packed output
// words directly: no per-bit BitMatrix::Set, no materialized patch matrix.
// Each stage produces exactly the popcounts of the reference kernels
// (BuildPatchMatrix + XnorPopcountGemm), so every output bit is unchanged.

/// Appends bit fields to a word array from low to high bits, holding the
/// partial word in a register. Every bit past the last Put is zero once
/// Flush has written the partial word.
class BitWriter {
 public:
  explicit BitWriter(std::uint64_t* out) : out_(out) {}

  /// Appends the low `len` bits of `v`; len in [1, 64] and no higher bit of
  /// `v` may be set.
  void Put(std::uint64_t v, int len) {
    cur_ |= v << fill_;
    fill_ += len;
    if (fill_ >= 64) {
      *out_++ = cur_;
      fill_ -= 64;
      cur_ = fill_ != 0 ? v >> (len - fill_) : 0;
    }
  }

  void PutZeros(std::int64_t len) {
    for (; len > 0; len -= 64) {
      Put(0, static_cast<int>(std::min<std::int64_t>(len, 64)));
    }
  }

  void Flush() {
    if (fill_ != 0) *out_++ = cur_;
    cur_ = 0;
    fill_ = 0;
  }

 private:
  std::uint64_t* out_;
  std::uint64_t cur_ = 0;
  int fill_ = 0;
};

/// Throws unless `in` and `w` have the shapes the stage's raw word indexing
/// assumes (a substrate of the wrong shape, or an unvalidated program).
void CheckStageOperands(const ProgramStage& stage, const BitMatrix& in,
                        const BitMatrix* w) {
  auto fail = [](const char* why) {
    throw std::invalid_argument(std::string("BnnProgram: ") + why);
  };
  const bool gemm = stage.kind == StageKind::kPackedGemm;
  const StageGeometry& g = gemm ? stage.gemm.geom : stage.pool.geom;
  const bool spatial = !gemm || stage.gemm.lowering != GemmLowering::kDense;
  if (spatial &&
      (g.kernel_h < 1 || g.kernel_w < 1 || g.kernel_w > 64 || g.stride_h < 1 ||
       g.stride_w < 1 || g.pad_h < 0 || g.pad_w < 0 || g.OutH() < 1 ||
       g.OutW() < 1 || (!gemm && g.padded()))) {
    fail("stage geometry is not executable");
  }
  if (!gemm) {
    if (in.cols() != g.in_channels * g.in_h * g.in_w) {
      fail("pool input width mismatch");
    }
    return;
  }
  const PackedGemmStage& s = stage.gemm;
  if (in.cols() != s.in_bits()) fail("stage input width mismatch");
  if (w->rows() != s.units() || w->cols() != s.weights.cols()) {
    fail("substrate weight shape mismatch");
  }
  if ((s.lowering == GemmLowering::kConv && w->cols() != g.PatchSize()) ||
      (s.lowering == GemmLowering::kDepthwise &&
       (s.units() != g.in_channels || w->cols() != g.ChannelPatchSize()))) {
    fail("stage weight shape does not match its geometry");
  }
  const std::int64_t thresholds =
      s.per_pixel_thresholds ? s.units() * s.num_patches() : s.units();
  if (static_cast<std::int64_t>(s.thresholds.size()) != thresholds) {
    fail("stage threshold count mismatch");
  }
}

/// Per weight row: the substrate bias minus the XNOR ones of the final
/// word's zero padding, so raw full-word counts compare against thresholds.
std::vector<std::int32_t> PopAdjust(std::int64_t units, const BitMatrix& w,
                                    const std::int32_t* bias) {
  const auto pad_ones =
      static_cast<std::int32_t>(w.words_per_row() * 64 - w.cols());
  std::vector<std::int32_t> adjust(static_cast<std::size_t>(units));
  for (std::int64_t u = 0; u < units; ++u) {
    adjust[static_cast<std::size_t>(u)] = (bias ? bias[u] : 0) - pad_ones;
  }
  return adjust;
}

/// Hidden dense stage: one XNOR-popcount GEMM, then each sample's threshold
/// bits ORed straight into its output words.
BitMatrix DenseStageBatch(const PackedGemmStage& g, const BitMatrix& in,
                          const BitMatrix& w, const std::int32_t* bias) {
  const std::int64_t n = in.rows(), units = g.units();
  const std::int64_t out_wpr = (units + 63) / 64;
  std::vector<std::int32_t> pops;
  XnorPopcountGemm(in, w, pops);
  std::vector<std::uint64_t> out(static_cast<std::size_t>(n * out_wpr), 0);
  const std::int32_t* thr = g.thresholds.data();
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int32_t* row = pops.data() + i * units;
    std::uint64_t* dst = out.data() + i * out_wpr;
    for (std::int64_t u = 0; u < units; ++u) {
      const std::int32_t count = row[u] + (bias ? bias[u] : 0);
      dst[u >> 6] |= std::uint64_t{count >= thr[u]} << (u & 63);
    }
  }
  return BitMatrix::FromWords(n, units, std::move(out));
}

/// Zero-padded copy of one packed CHW sample: padded row y of channel c
/// (pad_w zero bits, input row y - pad_h or zeros, pad_w zero bits) starts
/// at word (c * padded_h + y) * row_words, so every kernel-row field of
/// every output pixel is a shift and mask of one or two words, with no
/// bounds checks.
void StagePaddedPlanes(const std::uint64_t* src, const StageGeometry& g,
                       std::int64_t padded_h, std::int64_t row_words,
                       std::uint64_t* dst) {
  const std::int64_t h = g.in_h, w = g.in_w;
  for (std::int64_t c = 0; c < g.in_channels; ++c) {
    for (std::int64_t y = 0; y < padded_h; ++y, dst += row_words) {
      const std::int64_t iy = y - g.pad_h;
      if (iy < 0 || iy >= h) {
        std::fill(dst, dst + row_words, std::uint64_t{0});
        continue;
      }
      BitWriter row(dst);
      row.PutZeros(g.pad_w);
      const std::int64_t base = (c * h + iy) * w;
      for (std::int64_t x = 0; x < w; x += 64) {
        const int len = static_cast<int>(std::min<std::int64_t>(w - x, 64));
        row.Put(ExtractField(src, base + x, len), len);
      }
      row.PutZeros(g.pad_w);
      row.Flush();
    }
  }
}

/// Fused kConv / kDepthwise stage. Per sample the padded input planes are
/// staged once. Each output pixel's patches are then assembled in registers,
/// one field per channel and kernel row in BuildPatchMatrix's bit order
/// (c*kh*kw + ky*kw + kx): a conv pixel has one patch over all channels that
/// meets every weight row, a depthwise pixel one patch per channel that
/// meets only its own row. Each popcount is thresholded and ORed into the
/// output word of bit u * patches + p.
BitMatrix ConvStageBatch(const PackedGemmStage& g, const BitMatrix& in,
                         const BitMatrix& w, const std::int32_t* bias) {
  const StageGeometry& geo = g.geom;
  const bool depthwise = g.lowering == GemmLowering::kDepthwise;
  const std::int64_t n = in.rows(), units = g.units();
  const std::int64_t c_n = geo.in_channels, kh = geo.kernel_h;
  const std::int64_t groups = depthwise ? c_n : 1;
  const std::int64_t group_channels = depthwise ? 1 : c_n;
  const int kw = static_cast<int>(geo.kernel_w);
  const std::uint64_t field_mask = ~std::uint64_t{0} >> (64 - kw);
  const std::int64_t oh = geo.OutH(), ow = geo.OutW(), patches = oh * ow;
  const std::int64_t padded_h = geo.in_h + 2 * geo.pad_h;
  const std::int64_t row_words = (geo.in_w + 2 * geo.pad_w + 63) / 64;
  const std::int64_t plane_words = padded_h * row_words;
  const std::int64_t wpr = w.words_per_row();
  const std::int64_t out_wpr = (units * patches + 63) / 64;

  const std::vector<std::int32_t> adjust = PopAdjust(units, w, bias);
  // Threshold of (unit u, pixel p) at thr[u * thr_unit + p * thr_pixel].
  const std::int32_t* thr = g.thresholds.data();
  const std::int64_t thr_unit = g.per_pixel_thresholds ? patches : 1;
  const std::int64_t thr_pixel = g.per_pixel_thresholds ? 1 : 0;
  const std::uint64_t* weights = w.words().data();
  const XnorRowsKernel popcount = SelectXnorRowsKernel();

  std::vector<std::uint64_t> out(static_cast<std::size_t>(n * out_wpr), 0);
  std::vector<std::uint64_t> planes(
      static_cast<std::size_t>(c_n * plane_words));
  std::vector<std::uint64_t> patch(static_cast<std::size_t>(groups * wpr));
  std::vector<std::int32_t> pops(static_cast<std::size_t>(units));
  for (std::int64_t i = 0; i < n; ++i) {
    StagePaddedPlanes(in.RowWords(i).data(), geo, padded_h, row_words,
                      planes.data());
    std::uint64_t* dst = out.data() + i * out_wpr;
    for (std::int64_t oy = 0, p = 0; oy < oh; ++oy) {
      for (std::int64_t ox = 0; ox < ow; ++ox, ++p) {
        // Every field of this pixel starts at padded column x0 of its row,
        // so the word, bit offset and two-word straddle are shared.
        const std::int64_t x0 = ox * geo.stride_w;
        const std::uint64_t* top =
            planes.data() + oy * geo.stride_h * row_words + (x0 >> 6);
        const int off = static_cast<int>(x0 & 63);
        const bool straddles = off + kw > 64;
        for (std::int64_t grp = 0; grp < groups; ++grp) {
          BitWriter bits(patch.data() + grp * wpr);
          for (std::int64_t c = grp * group_channels;
               c < (grp + 1) * group_channels; ++c) {
            const std::uint64_t* row = top + c * plane_words;
            for (std::int64_t ky = 0; ky < kh; ++ky, row += row_words) {
              std::uint64_t v = row[0] >> off;
              if (straddles) v |= row[1] << (64 - off);
              bits.Put(v & field_mask, kw);
            }
          }
          bits.Flush();
        }
        popcount(patch.data(), depthwise ? wpr : 0, weights, units, wpr,
                 pops.data());
        const std::int32_t* t = thr + p * thr_pixel;
        for (std::int64_t u = 0, bit = p; u < units;
             ++u, bit += patches, t += thr_unit) {
          const std::int32_t count = pops[static_cast<std::size_t>(u)] +
                                     adjust[static_cast<std::size_t>(u)];
          dst[bit >> 6] |= std::uint64_t{count >= *t} << (bit & 63);
        }
      }
    }
  }
  return BitMatrix::FromWords(n, units * patches, std::move(out));
}

/// Max pooling over {-1,+1} bits: a window is +1 iff any of its bits is
/// set. Per output row the window's kernel_h input rows are ORed into one
/// word-aligned row, then each output bit tests one field of it. Pooling
/// has no padding, so every window lies inside the input; output bits are
/// appended in CHW order.
BitMatrix PoolStageBatch(const StageGeometry& g, const BitMatrix& in) {
  const std::int64_t c_n = g.in_channels, h = g.in_h, w = g.in_w;
  const std::int64_t oh = g.OutH(), ow = g.OutW();
  const int kw = static_cast<int>(g.kernel_w);
  const std::int64_t out_wpr = (c_n * oh * ow + 63) / 64;
  std::vector<std::uint64_t> out(static_cast<std::size_t>(in.rows() * out_wpr));
  std::vector<std::uint64_t> any(static_cast<std::size_t>((w + 63) / 64));
  for (std::int64_t i = 0; i < in.rows(); ++i) {
    const std::uint64_t* src = in.RowWords(i).data();
    BitWriter bits(out.data() + i * out_wpr);
    for (std::int64_t c = 0; c < c_n; ++c) {
      for (std::int64_t oy = 0; oy < oh; ++oy) {
        std::fill(any.begin(), any.end(), std::uint64_t{0});
        for (std::int64_t ky = 0; ky < g.kernel_h; ++ky) {
          const std::int64_t base = (c * h + oy * g.stride_h + ky) * w;
          for (std::int64_t x = 0; x < w; x += 64) {
            const int len = static_cast<int>(std::min<std::int64_t>(w - x, 64));
            any[static_cast<std::size_t>(x >> 6)] |=
                ExtractField(src, base + x, len);
          }
        }
        for (std::int64_t ox = 0; ox < ow; ++ox) {
          bits.Put(ExtractField(any.data(), ox * g.stride_w, kw) != 0, 1);
        }
      }
    }
    bits.Flush();
  }
  return BitMatrix::FromWords(in.rows(), c_n * oh * ow, std::move(out));
}

}  // namespace

BitMatrix BuildPatchMatrix(const BitMatrix& batch, const StageGeometry& geom,
                           std::int64_t c_begin, std::int64_t c_end) {
  if (c_begin < 0 || c_end <= c_begin || c_end > geom.in_channels) {
    throw std::invalid_argument("BuildPatchMatrix: bad channel range");
  }
  if (geom.kernel_w > 64) {
    throw std::invalid_argument(
        "BuildPatchMatrix: kernel_w > 64 exceeds the word-gather contract");
  }
  if (batch.cols() != geom.in_channels * geom.in_h * geom.in_w) {
    throw std::invalid_argument("BuildPatchMatrix: batch width mismatch");
  }
  const std::int64_t oh = geom.OutH(), ow = geom.OutW();
  const std::int64_t patches = oh * ow;
  const std::int64_t patch_bits =
      (c_end - c_begin) * geom.kernel_h * geom.kernel_w;
  const std::int64_t wpr = (patch_bits + 63) / 64;
  const std::int64_t n = batch.rows();
  std::vector<std::uint64_t> words(static_cast<std::size_t>(n * patches * wpr),
                                   0);
  for (std::int64_t i = 0; i < n; ++i) {
    const std::uint64_t* src = batch.RowWords(i).data();
    std::uint64_t* dst = words.data() + i * patches * wpr;
    for (std::int64_t oy = 0; oy < oh; ++oy) {
      for (std::int64_t ox = 0; ox < ow; ++ox, dst += wpr) {
        GatherPatch(src, geom, c_begin, c_end, oy, ox, dst);
      }
    }
  }
  return BitMatrix::FromWords(n * patches, patch_bits, std::move(words));
}

std::vector<std::int64_t> ArgmaxRows(std::span<const float> scores,
                                     std::int64_t rows,
                                     std::int64_t classes) {
  if (static_cast<std::int64_t>(scores.size()) != rows * classes) {
    throw std::invalid_argument("ArgmaxRows: score count mismatch");
  }
  std::vector<std::int64_t> preds(static_cast<std::size_t>(rows));
  for (std::int64_t i = 0; i < rows; ++i) {
    const float* row = scores.data() + i * classes;
    preds[static_cast<std::size_t>(i)] =
        std::distance(row, std::max_element(row, row + classes));
  }
  return preds;
}

ProgramStage DenseHiddenStage(BitMatrix weights,
                              std::vector<std::int32_t> thresholds) {
  ProgramStage stage;
  stage.out_shape = {weights.rows(), 1, 1};
  stage.gemm.weights = std::move(weights);
  stage.gemm.thresholds = std::move(thresholds);
  return stage;
}

ProgramStage DenseOutputStage(BitMatrix weights, std::vector<float> scale,
                              std::vector<float> offset) {
  ProgramStage stage;
  stage.out_shape = {weights.rows(), 1, 1};
  stage.gemm.weights = std::move(weights);
  stage.gemm.is_output = true;
  stage.gemm.scale = std::move(scale);
  stage.gemm.offset = std::move(offset);
  return stage;
}

bool BnnProgram::IsPureDense() const {
  return std::all_of(stages_.begin(), stages_.end(), [](const ProgramStage& s) {
    return s.kind == StageKind::kPackedGemm &&
           s.gemm.lowering == GemmLowering::kDense;
  });
}

void BnnProgram::AddStage(ProgramStage stage) {
  stages_.push_back(std::move(stage));
}

std::int64_t BnnProgram::num_classes() const {
  if (stages_.empty() || stages_.back().kind != StageKind::kPackedGemm) {
    return 0;
  }
  return stages_.back().gemm.units();
}

std::size_t BnnProgram::num_gemm_stages() const {
  return static_cast<std::size_t>(
      std::count_if(stages_.begin(), stages_.end(), [](const ProgramStage& s) {
        return s.kind == StageKind::kPackedGemm;
      }));
}

std::vector<const PackedGemmStage*> BnnProgram::GemmStages() const {
  std::vector<const PackedGemmStage*> out;
  for (const ProgramStage& stage : stages_) {
    if (stage.kind == StageKind::kPackedGemm) out.push_back(&stage.gemm);
  }
  return out;
}

std::vector<float> BnnProgram::Scores(const BitVector& x) const {
  WeightPopcounter pop(*this);
  return ScoresWith(x, pop);
}

std::vector<float> BnnProgram::ScoresWith(const BitVector& x,
                                          StagePopcounter& pop) const {
  if (x.size() != input_size()) {
    throw std::invalid_argument("BnnProgram: input size mismatch");
  }
  BitVector act = x;
  std::size_t gi = 0;
  std::vector<std::int64_t> pops;
  for (const ProgramStage& stage : stages_) {
    switch (stage.kind) {
      case StageKind::kPackedGemm: {
        const PackedGemmStage& g = stage.gemm;
        const std::int64_t units = g.units();
        if (g.is_output) {
          pops.resize(static_cast<std::size_t>(units));
          pop.StagePopcounts(gi, act, 0, units, pops.data());
          std::vector<float> scores(static_cast<std::size_t>(units));
          for (std::int64_t k = 0; k < units; ++k) {
            const auto dot = static_cast<float>(2 * pops[k] - g.weights.cols());
            scores[static_cast<std::size_t>(k)] =
                g.scale[static_cast<std::size_t>(k)] * dot +
                g.offset[static_cast<std::size_t>(k)];
          }
          return scores;
        }
        BitVector next(g.out_bits());
        switch (g.lowering) {
          case GemmLowering::kDense: {
            pops.resize(static_cast<std::size_t>(units));
            pop.StagePopcounts(gi, act, 0, units, pops.data());
            for (std::int64_t u = 0; u < units; ++u) {
              if (pops[u] >= g.thresholds[static_cast<std::size_t>(u)]) {
                next.Set(u, +1);
              }
            }
            break;
          }
          case GemmLowering::kConv: {
            const std::int64_t patches = g.num_patches();
            const std::int64_t ow = g.geom.OutW();
            pops.resize(static_cast<std::size_t>(units));
            for (std::int64_t p = 0; p < patches; ++p) {
              const BitVector patch = GatherPatchVector(
                  act, g.geom, 0, g.geom.in_channels, p / ow, p % ow);
              pop.StagePopcounts(gi, patch, 0, units, pops.data());
              for (std::int64_t u = 0; u < units; ++u) {
                if (pops[u] >= StageThreshold(g, u, p)) {
                  next.Set(u * patches + p, +1);
                }
              }
            }
            break;
          }
          case GemmLowering::kDepthwise: {
            const std::int64_t patches = g.num_patches();
            const std::int64_t ow = g.geom.OutW();
            for (std::int64_t c = 0; c < units; ++c) {
              for (std::int64_t p = 0; p < patches; ++p) {
                const BitVector patch =
                    GatherPatchVector(act, g.geom, c, c + 1, p / ow, p % ow);
                std::int64_t count = 0;
                pop.StagePopcounts(gi, patch, c, c + 1, &count);
                if (count >= StageThreshold(g, c, p)) {
                  next.Set(c * patches + p, +1);
                }
              }
            }
            break;
          }
        }
        act = std::move(next);
        ++gi;
        break;
      }
      case StageKind::kPool:
        act = PoolRow(act, stage.pool.geom);
        break;
      case StageKind::kReshape:
      case StageKind::kSign:
        break;
    }
  }
  throw std::invalid_argument("BnnProgram: program has no output stage");
}

BitMatrix RunStageBatch(const ProgramStage& stage, const BitMatrix& batch,
                        const StageSubstrate& substrate) {
  switch (stage.kind) {
    case StageKind::kPackedGemm: {
      const PackedGemmStage& g = stage.gemm;
      if (g.is_output) {
        throw std::invalid_argument(
            "RunStageBatch: the output stage produces scores, not bits");
      }
      const BitMatrix& w = substrate.weights ? *substrate.weights : g.weights;
      CheckStageOperands(stage, batch, &w);
      return g.lowering == GemmLowering::kDense
                 ? DenseStageBatch(g, batch, w, substrate.pop_bias)
                 : ConvStageBatch(g, batch, w, substrate.pop_bias);
    }
    case StageKind::kPool:
      CheckStageOperands(stage, batch, nullptr);
      return PoolStageBatch(stage.pool.geom, batch);
    case StageKind::kReshape:
    case StageKind::kSign:
      break;
  }
  return batch;
}

std::vector<float> BnnProgram::ScoresBatch(
    const BitMatrix& batch, std::span<const StageSubstrate> substrates) const {
  if (batch.cols() != input_size()) {
    throw std::invalid_argument("BnnProgram: batch width mismatch");
  }
  if (!substrates.empty() && substrates.size() != num_gemm_stages()) {
    throw std::invalid_argument("BnnProgram: substrate count mismatch");
  }
  const std::int64_t n = batch.rows();
  const BitMatrix* cur = &batch;
  BitMatrix act;
  std::size_t gi = 0;
  for (const ProgramStage& stage : stages_) {
    if (stage.kind == StageKind::kReshape || stage.kind == StageKind::kSign) {
      continue;
    }
    StageSubstrate sub;
    if (stage.kind == StageKind::kPackedGemm && !substrates.empty()) {
      sub = substrates[gi];
    }
    if (stage.kind == StageKind::kPackedGemm && stage.gemm.is_output) {
      const PackedGemmStage& g = stage.gemm;
      const BitMatrix& w = sub.weights ? *sub.weights : g.weights;
      const std::int32_t* bias = sub.pop_bias;
      const std::int64_t units = g.units();
      if (w.rows() != units) {
        throw std::invalid_argument(
            "BnnProgram: substrate weight shape mismatch");
      }
      std::vector<std::int32_t> pops;
      XnorPopcountGemm(*cur, w, pops);
      std::vector<float> scores(static_cast<std::size_t>(n * units));
      for (std::int64_t i = 0; i < n; ++i) {
        const std::int32_t* row = pops.data() + i * units;
        float* out = scores.data() + i * units;
        for (std::int64_t k = 0; k < units; ++k) {
          // Same int -> float conversion and affine as the per-row path
          // and the mapper's snapshot path, so floats are bit-identical.
          const std::int64_t count =
              static_cast<std::int64_t>(row[k]) + (bias ? bias[k] : 0);
          const auto dot = static_cast<float>(2 * count - g.weights.cols());
          out[k] = g.scale[static_cast<std::size_t>(k)] * dot +
                   g.offset[static_cast<std::size_t>(k)];
        }
      }
      return scores;
    }
    act = RunStageBatch(stage, *cur, sub);
    cur = &act;
    if (stage.kind == StageKind::kPackedGemm) ++gi;
  }
  throw std::invalid_argument("BnnProgram: program has no output stage");
}

std::int64_t BnnProgram::Predict(const BitVector& x) const {
  const std::vector<float> s = Scores(x);
  return std::distance(s.begin(), std::max_element(s.begin(), s.end()));
}

std::vector<std::int64_t> BnnProgram::PredictPacked(
    const BitMatrix& batch) const {
  return ArgmaxRows(ScoresBatch(batch), batch.rows(), num_classes());
}

std::vector<std::int64_t> BnnProgram::PredictBatch(
    const Tensor& features) const {
  if (features.rank() != 2) {
    throw std::invalid_argument("PredictBatch: expected [N, F]");
  }
  const std::int64_t n = features.dim(0), f = features.dim(1);
  if (f != input_size()) {
    throw std::invalid_argument("PredictBatch: feature width mismatch");
  }
  const BitMatrix packed = BitMatrix::FromSignRows(
      std::span<const float>(features.data(), static_cast<std::size_t>(n * f)),
      n, f);
  return PredictPacked(packed);
}

std::int64_t BnnProgram::TotalWeightBits() const {
  std::int64_t bits = 0;
  for (const ProgramStage& stage : stages_) {
    if (stage.kind == StageKind::kPackedGemm) bits += stage.gemm.weights.bits();
  }
  return bits;
}

namespace {

/// Upper bound on the counts a program declares: shape dimensions,
/// activation bits, padding, kernel heights, patch widths, patch counts and
/// threshold counts. Popcounts and thresholds are int32, and with both
/// factors at most this bound no product can overflow int64 — so a program
/// read from untrusted bytes is checked before any arithmetic on its shapes
/// could overflow.
constexpr std::int64_t kMaxCount = std::numeric_limits<std::int32_t>::max();

/// a * b for a, b in [0, kMaxCount]; throws when any of them, or the
/// product, leaves that range.
std::int64_t BoundedProduct(std::int64_t a, std::int64_t b,
                            const std::string& what) {
  if (a < 0 || b < 0 || a > kMaxCount || b > kMaxCount || a * b > kMaxCount) {
    throw std::invalid_argument(what + " exceeds " +
                                std::to_string(kMaxCount));
  }
  return a * b;
}

std::int64_t ShapeBits(const StageShape& s, const std::string& what) {
  return BoundedProduct(BoundedProduct(s.c, s.h, what), s.w, what);
}

void CheckGeometry(const StageGeometry& g, const StageShape& in,
                   std::size_t index, const char* what) {
  const std::string at = std::string("BnnProgram: stage ") +
                         std::to_string(index) + " (" + what + ") ";
  if (g.in_channels != in.c || g.in_h != in.h || g.in_w != in.w) {
    throw std::invalid_argument(at + "geometry does not match input shape");
  }
  if (g.kernel_h < 1 || g.kernel_w < 1 || g.stride_h < 1 || g.stride_w < 1 ||
      g.pad_h < 0 || g.pad_w < 0) {
    throw std::invalid_argument(at + "has a non-positive kernel/stride");
  }
  if (g.kernel_w > 64) {
    throw std::invalid_argument(
        at + "kernel_w > 64 exceeds the word-gather contract");
  }
  // The input dims are bounded by the caller's shape check. Bounded pads
  // keep in + 2 * pad, and so OutH / OutW, far from overflow; a bounded
  // kernel_h keeps kernel_h * kernel_w (<= 64) too.
  if (g.pad_h > kMaxCount || g.pad_w > kMaxCount || g.kernel_h > kMaxCount) {
    throw std::invalid_argument(at + "padding or kernel exceeds " +
                                std::to_string(kMaxCount));
  }
  if (g.OutH() < 1 || g.OutW() < 1) {
    throw std::invalid_argument(at + "kernel does not fit the input");
  }
  (void)BoundedProduct(g.OutH(), g.OutW(), at + "patch count");
}

/// Threshold count, and each threshold in [0, in + 1] for a row of `in`
/// bits: outside that range a neuron is constant in a way BN folding over
/// finite statistics never produces (FoldThreshold clamps to it).
void CheckThresholds(const PackedGemmStage& g, std::size_t index) {
  const std::string at = "BnnProgram: stage " + std::to_string(index) + " ";
  const std::int64_t expected =
      g.per_pixel_thresholds
          ? BoundedProduct(g.units(), g.num_patches(), at + "threshold count")
          : g.units();
  if (static_cast<std::int64_t>(g.thresholds.size()) != expected) {
    throw std::invalid_argument(at + "threshold count mismatch");
  }
  const std::int64_t width = g.weights.cols();
  for (const std::int32_t t : g.thresholds) {
    if (t < 0 || t > width + 1) {
      throw std::invalid_argument(at + "threshold " + std::to_string(t) +
                                  " outside [0, " + std::to_string(width + 1) +
                                  "]");
    }
  }
}

}  // namespace

void BnnProgram::Validate() const {
  if (input_shape_.c < 1 || input_shape_.h < 1 || input_shape_.w < 1) {
    throw std::invalid_argument("BnnProgram: non-positive input shape");
  }
  (void)ShapeBits(input_shape_, "BnnProgram: input shape bit count");
  if (stages_.empty()) {
    throw std::invalid_argument("BnnProgram: empty program");
  }
  StageShape shape = input_shape_;
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    const ProgramStage& stage = stages_[i];
    const bool last = i + 1 == stages_.size();
    switch (stage.kind) {
      case StageKind::kPackedGemm: {
        const PackedGemmStage& g = stage.gemm;
        if (g.is_output != last || (last && g.lowering != GemmLowering::kDense)) {
          throw std::invalid_argument(
              "BnnProgram: the output stage must be the final dense stage");
        }
        switch (g.lowering) {
          case GemmLowering::kDense:
            if (g.weights.cols() != shape.bits()) {
              throw std::invalid_argument("BnnProgram: stage " +
                                          std::to_string(i) +
                                          " input width mismatch");
            }
            break;
          case GemmLowering::kConv:
            CheckGeometry(g.geom, shape, i, "conv");
            if (g.weights.cols() !=
                BoundedProduct(g.geom.in_channels, g.geom.ChannelPatchSize(),
                               "BnnProgram: conv patch width")) {
              throw std::invalid_argument("BnnProgram: stage " +
                                          std::to_string(i) +
                                          " conv patch width mismatch");
            }
            break;
          case GemmLowering::kDepthwise:
            CheckGeometry(g.geom, shape, i, "dwconv");
            if (g.weights.rows() != g.geom.in_channels ||
                g.weights.cols() != g.geom.ChannelPatchSize()) {
              throw std::invalid_argument("BnnProgram: stage " +
                                          std::to_string(i) +
                                          " depthwise weight shape mismatch");
            }
            break;
        }
        if (g.is_output) {
          if (!g.thresholds.empty() ||
              g.scale.size() != static_cast<std::size_t>(g.units()) ||
              g.offset.size() != static_cast<std::size_t>(g.units())) {
            throw std::invalid_argument(
                "BnnProgram: output stage affine size mismatch");
          }
          shape = {g.units(), 1, 1};
        } else {
          CheckThresholds(g, i);
          shape = g.lowering == GemmLowering::kDense
                      ? StageShape{g.units(), 1, 1}
                      : StageShape{g.units(), g.geom.OutH(), g.geom.OutW()};
        }
        break;
      }
      case StageKind::kPool:
        CheckGeometry(stage.pool.geom, shape, i, "pool");
        if (stage.pool.geom.padded()) {
          throw std::invalid_argument("BnnProgram: padded pooling unsupported");
        }
        shape = {shape.c, stage.pool.geom.OutH(), stage.pool.geom.OutW()};
        break;
      case StageKind::kReshape:
        if (ShapeBits(stage.out_shape, "BnnProgram: reshape bit count") !=
            shape.bits()) {
          throw std::invalid_argument("BnnProgram: reshape changes bit count");
        }
        shape = stage.out_shape;
        break;
      case StageKind::kSign:
        break;
    }
    (void)ShapeBits(shape, "BnnProgram: stage output bit count");
    if (!(stage.out_shape == shape)) {
      throw std::invalid_argument("BnnProgram: stage " + std::to_string(i) +
                                  " output shape mismatch");
    }
  }
  if (stages_.back().kind != StageKind::kPackedGemm ||
      !stages_.back().gemm.is_output) {
    throw std::invalid_argument("BnnProgram: program has no output stage");
  }
}

std::string BnnProgram::Describe() const {
  auto geo = [](const StageGeometry& g) {
    std::string s = std::to_string(g.kernel_h) + "x" +
                    std::to_string(g.kernel_w) + "/s" +
                    std::to_string(g.stride_h);
    if (g.stride_w != g.stride_h) s += "x" + std::to_string(g.stride_w);
    if (g.padded()) {
      s += " p" + std::to_string(g.pad_h);
      if (g.pad_w != g.pad_h) s += "x" + std::to_string(g.pad_w);
    }
    return s;
  };
  auto shape3 = [](const StageGeometry& g) {
    return std::to_string(g.in_channels) + "x" + std::to_string(g.in_h) + "x" +
           std::to_string(g.in_w);
  };
  std::string out;
  for (const ProgramStage& stage : stages_) {
    if (!out.empty()) out += " | ";
    switch (stage.kind) {
      case StageKind::kPackedGemm: {
        const PackedGemmStage& g = stage.gemm;
        switch (g.lowering) {
          case GemmLowering::kDense:
            out += "dense " + std::to_string(g.weights.cols()) + "->" +
                   std::to_string(g.units());
            break;
          case GemmLowering::kConv:
            out += "conv " + shape3(g.geom) + "->" + std::to_string(g.units()) +
                   " " + geo(g.geom);
            break;
          case GemmLowering::kDepthwise:
            out += "dwconv " + shape3(g.geom) + " " + geo(g.geom);
            break;
        }
        if (g.is_output) out += " (output)";
        break;
      }
      case StageKind::kPool:
        out += "pool " + geo(stage.pool.geom);
        break;
      case StageKind::kReshape:
        out += "reshape " + std::to_string(stage.out_shape.bits());
        break;
      case StageKind::kSign:
        out += "sign";
        break;
    }
  }
  return out;
}

}  // namespace rrambnn::core
